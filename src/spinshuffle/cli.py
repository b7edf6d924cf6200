"""Command-line interface.

Array subcommands run their stages of `pipeline.STAGES` (`sim`: `masks`,
then `simulate`) through `run_pipeline`'s runner on arrays read from and
written to <out>/<name>; `fit` also writes `fit_summary.csv` and fails if
every voxel failed. Exit codes: 0 success, 1 usage error, 2 runtime failure,
named by the subcommand, or by the `run_pipeline` stage for `pipeline`.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from .arrayio import read_array, write_csv
from .config import PipelineConfig, load_config
from .pipeline import (PipelineError, _run_stages, run_pipeline,
                       sequence_from_config, write_arrays)
from .seqopt import PowerBudget, crlb_t2_sweep, optimize_flips
from .spinsim import TissueParams

log = logging.getLogger("spinshuffle")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinshuffle",
        description="Physics-constrained quantitative MRI toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
            ("phantom", "rasterize the configured phantom"),
            ("sim", "simulate a noisy undersampled acquisition"),
            ("basis", "train the temporal subspace from the tissue prior"),
            ("mask", "generate per-echo sampling masks"),
            ("recon", "reconstruct coefficients from simulated k-space"),
            ("fit", "fit parameter maps from reconstructed coefficients"),
            ("crlb", "optimize flip angles and sweep the T2 bound"),
            ("pipeline", "run every stage end to end")]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH",
                       help="INI config file (defaults used when omitted)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", metavar="U64", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--verbose", action="store_true")
    return parser


def _load(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.seed is not None:
        s = args.seed
        cfg = replace(cfg, prior_seed=s, mask_seed=s + 1, assign_seed=s + 2,
                      noise_seed=s + 3)
    return cfg


_STAGES_OF = {"phantom": ["phantom"], "basis": ["basis"], "mask": ["masks"],
              "sim": ["masks", "simulate"], "recon": ["reconstruct"],
              "fit": ["fit"]}


class _Stored(dict):
    """Stage arrays; a missing one is read from <out>/<name>, not kept."""

    def __init__(self, out: str):
        super().__init__()
        self.out = out

    def __missing__(self, name: str) -> np.ndarray:
        return read_array(os.path.join(self.out, name)).astype(complex)


def _fit_summary(out: str, t2: np.ndarray) -> None:
    """Refuse a fit in which every voxel failed, else summarize it."""
    ok = np.isfinite(t2)
    if not ok.any():
        raise ValueError(
            f"every voxel failed the fit ({ok.size} of {ok.size})")
    write_csv(os.path.join(out, "fit_summary.csv"), ("metric", "value"),
              [("fitted_voxels", int(ok.sum())),
               ("failed_voxels", int((~ok).sum())),
               ("t2_mean_ms", float(np.mean(t2[ok]))),
               ("t2_std_ms", float(np.std(t2[ok])))])


def _cmd_crlb(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    seq = sequence_from_config(cfg)
    tissue = TissueParams(t1=1000.0, t2=100.0)
    budget = PowerBudget.from_constant_flip(60.0, cfg.n_echoes)
    opt = optimize_flips(tissue, seq, budget)
    const = np.full(cfg.n_echoes, np.degrees(np.sqrt(budget.limit
                                                     / cfg.n_echoes)))
    grid = np.arange(40.0, 301.0, 10.0)
    sweep_const = crlb_t2_sweep(const, seq, grid, sigma=cfg.noise_sigma)
    sweep_opt = crlb_t2_sweep(opt.flips_deg, seq, grid, sigma=cfg.noise_sigma)
    write_csv(os.path.join(out, "flips_constant.csv"),
              ("echo", "flip_deg"), list(enumerate(const, 1)))
    write_csv(os.path.join(out, "flips_optimized.csv"),
              ("echo", "flip_deg"), list(enumerate(opt.flips_deg, 1)))
    write_csv(os.path.join(out, "crlb_sweep.csv"),
              ("t2_ms", "bound_constant", "bound_optimized"),
              list(zip(grid, sweep_const, sweep_opt)))
    better = np.mean(sweep_opt <= sweep_const)
    log.info("optimized power %.4f rad^2 (limit %.4f), converged=%s (%s "
             "after %d iterations); bound lower at %.0f%% of grid points",
             opt.power, budget.limit, opt.converged, opt.stop_reason,
             len(opt.objective_trace) - 1, 100 * better)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _load(args)
        os.makedirs(cfg.output_dir, exist_ok=True)
        if args.command == "pipeline":
            report = run_pipeline(cfg)
            print(f"image NRMSE: {report.image_nrmse:.6f}")
            for rid, t2t, mean, bias, std in report.region_stats:
                print(f"region {rid}: T2 true {t2t:.1f} ms, "
                      f"mean {mean:.2f} ms, bias {bias:+.2f}%, std {std:.2f}")
        elif args.command == "crlb":
            _cmd_crlb(cfg)
        else:
            arrays = _Stored(cfg.output_dir)
            _run_stages(cfg, _STAGES_OF[args.command], arrays)
            if args.command == "fit":
                _fit_summary(cfg.output_dir, arrays["t2_map"])
            write_arrays(cfg.output_dir, **arrays)
        return 0
    except Exception as exc:  # runtime failure -> exit code 2
        # a subcommand names itself; `pipeline` names its failing stage
        if args.command != "pipeline" or not isinstance(exc, PipelineError):
            exc = PipelineError(args.command, getattr(exc, "cause", exc))
        print(f"spinshuffle: error: {exc}", file=sys.stderr)
        if getattr(args, "verbose", False):
            raise
        return 2


def entry() -> None:
    raise SystemExit(main())
