"""Command-line interface.

Each subcommand runs one pipeline stage through the same functions
`run_pipeline` calls and writes its arrays with the same writer, so
intermediate arrays can be produced, inspected and consumed independently;
`pipeline` runs the whole chain. Exit codes: 0 success, 1 usage error,
2 runtime failure, reported with the failing stage: the subcommand, or the
`run_pipeline` stage for `pipeline`.
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
from .encoding import SamplingMasks
from .phantom import contrast_images, default_phantom, simulate_acquisition
from .pipeline import (PipelineError, build_basis, build_masks, fit_maps,
                       reconstruct, run_pipeline, sequence_from_config,
                       write_arrays)
from .seqopt import PowerBudget, crlb_t2_sweep, optimize_flips
from .spinsim import TissueParams
from .subspace import SubspaceBasis, back_project

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


def _cmd_phantom(cfg: PipelineConfig) -> None:
    ph = default_phantom((cfg.nx, cfg.ny))
    write_arrays(cfg.output_dir, labels=ph.labels, rho_true=ph.rho_map(),
                 t2_true=ph.t2_map())
    log.info("phantom written to %s", cfg.output_dir)


def _cmd_basis(cfg: PipelineConfig) -> None:
    ensemble, basis = build_basis(cfg, sequence_from_config(cfg))
    write_arrays(cfg.output_dir, ensemble=ensemble, basis=basis.phi_k,
                 singular_values=basis.singular_values)
    log.info("basis written to %s", cfg.output_dir)


def _cmd_mask(cfg: PipelineConfig) -> None:
    masks = build_masks(cfg)
    write_arrays(cfg.output_dir, masks=masks.masks)
    log.info("%d masks with %d total samples written to %s",
             masks.n_echoes, masks.total_samples, cfg.output_dir)


def _cmd_sim(cfg: PipelineConfig) -> None:
    seq = sequence_from_config(cfg)
    ph = default_phantom((cfg.nx, cfg.ny))
    masks = build_masks(cfg)
    truth = contrast_images(ph, seq)
    y = simulate_acquisition(truth, masks, cfg.noise_sigma, cfg.noise_seed)
    write_arrays(cfg.output_dir, masks=masks.masks, kspace=y,
                 truth_images=truth)
    log.info("k-space (%d samples) written to %s", y.size, cfg.output_dir)


def _read_basis(out: str) -> SubspaceBasis:
    phi = read_array(os.path.join(out, "basis")).astype(complex)
    sv = read_array(os.path.join(out, "singular_values")).astype(complex)
    return SubspaceBasis(phi_k=phi, singular_values=sv.real)


def _cmd_recon(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    masks = SamplingMasks(read_array(os.path.join(out, "masks")).real > 0.5)
    basis = _read_basis(out)
    y = read_array(os.path.join(out, "kspace")).astype(complex)
    result = reconstruct(cfg, masks, basis, y)
    write_arrays(out, coefficients=result.images,
                 images=back_project(basis, result.images))
    write_csv(os.path.join(out, "objective_trace.csv"),
              ("iteration", "objective"),
              list(enumerate(result.objective_trace)))
    log.info("reconstruction finished after %d iterations", result.iterations)


def _cmd_fit(cfg: PipelineConfig) -> None:
    out = cfg.output_dir
    seq = sequence_from_config(cfg)
    basis = _read_basis(out)
    coeffs = read_array(os.path.join(out, "coefficients")).astype(complex)
    maps = fit_maps(cfg, seq, basis, coeffs)
    ok = np.isfinite(maps.t2)
    if not ok.any():
        raise ValueError(
            f"every voxel failed the fit ({ok.size} of {ok.size})")
    write_arrays(out, t2_map=maps.t2, rho_map=maps.rho)
    write_csv(os.path.join(out, "fit_summary.csv"),
              ("metric", "value"),
              [("fitted_voxels", int(ok.sum())),
               ("failed_voxels", int((~ok).sum())),
               ("t2_mean_ms", float(np.mean(maps.t2[ok]))),
               ("t2_std_ms", float(np.std(maps.t2[ok])))])
    log.info("parameter maps written to %s", out)


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


_COMMANDS = {
    "phantom": _cmd_phantom,
    "sim": _cmd_sim,
    "basis": _cmd_basis,
    "mask": _cmd_mask,
    "recon": _cmd_recon,
    "fit": _cmd_fit,
    "crlb": _cmd_crlb,
}


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
        else:
            _COMMANDS[args.command](cfg)
        return 0
    except Exception as exc:  # runtime failure -> exit code 2
        if not isinstance(exc, PipelineError):
            exc = PipelineError(args.command, exc)
        print(f"spinshuffle: error: {exc}", file=sys.stderr)
        if getattr(args, "verbose", False):
            raise
        return 2


def entry() -> None:
    raise SystemExit(main())
