"""End-to-end phantom pipeline as one stage table.

`STAGES` is the only composition of the chain. A stage maps the config and
the arrays made so far (by name) to the arrays it makes:

    phantom      -> labels, rho_true, t2_true
    basis        -> ensemble, basis, singular_values
    masks        -> masks
    simulate     masks -> truth_images, kspace
    reconstruct  masks, basis, singular_values, kspace -> coefficients,
                 images (and writes objective_trace.csv)
    fit          basis, singular_values, coefficients -> t2_map, rho_map

`run_pipeline` runs them all on a plain dict, then `metrics` and `write`; a
CLI subcommand runs its own on arrays read back from the output directory.
Failures name their stage. A rerun with the same config is bit-identical.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .arrayio import write_array, write_csv
from .config import PipelineConfig, save_config
from .encoding import Encoder, SamplingMasks
from .phantom import contrast_images, default_phantom, simulate_acquisition
from .qmap import fit_map
from .recon import SolverConfig, cg_solve, fista_solve
from .sampling import DensityProfile, _draw_masks, assign_echoes, draw_mask
from .spinsim import SequenceParams
from .subspace import (SubspaceBasis, TissuePrior, back_project,
                       build_ensemble, compute_basis, sample_prior)

log = logging.getLogger(__name__)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineReport:
    config: PipelineConfig
    output_dir: str
    image_nrmse: float
    region_stats: list        # (region id, t2 true, mean, bias %, std)
    t2_map: np.ndarray
    rho_map: np.ndarray


def sequence_from_config(cfg: PipelineConfig) -> SequenceParams:
    return SequenceParams(flips_deg=cfg.train_flips(),
                          echo_spacing_ms=cfg.echo_spacing_ms,
                          excitation_deg=cfg.excitation_deg,
                          excitation_phase_deg=cfg.excitation_phase_deg)


def prior_from_config(cfg: PipelineConfig) -> TissuePrior:
    return TissuePrior(t1_range_ms=(cfg.t1_min_ms, cfg.t1_max_ms),
                       t2_range_ms=(cfg.t2_min_ms, cfg.t2_max_ms),
                       sampling=cfg.prior_sampling, seed=cfg.prior_seed)


def profile_from_config(cfg: PipelineConfig) -> DensityProfile:
    return DensityProfile(shape=cfg.profile_shape,
                          fully_sampled_radius=cfg.fully_sampled_radius,
                          decay_power=cfg.decay_power,
                          sigma=cfg.profile_sigma, accel=cfg.accel)


def build_masks(cfg: PipelineConfig) -> SamplingMasks:
    """Per-echo sampling masks for the configured view ordering."""
    profile = profile_from_config(cfg)
    dims = (cfg.nx, cfg.ny)
    if cfg.ordering == "randomized":
        # shuffled acquisition: an independent variable-density pattern
        # per echo, seeded from the mask seed plus the echo index
        seeds = range(cfg.mask_seed, cfg.mask_seed + cfg.n_echoes)
        return SamplingMasks(_draw_masks(profile, dims, seeds))
    if cfg.ordering == "center-out":
        # single-pass view ordering: every location acquired once, low
        # frequencies at the early echoes
        mask = draw_mask(profile, dims, cfg.mask_seed)
        return assign_echoes(mask, cfg.n_echoes, "center-out",
                             cfg.assign_seed)
    raise ValueError(f"unknown ordering {cfg.ordering!r}")


def write_arrays(out: str, **arrays) -> None:
    """Write each keyword array as the pair <out>/<name>.hdr / .dat."""
    for name, array in arrays.items():
        write_array(os.path.join(out, name), array)


def _subspace(arrays) -> SubspaceBasis:
    return SubspaceBasis(phi_k=arrays["basis"],
                         singular_values=arrays["singular_values"].real)


def _phantom(cfg: PipelineConfig, arrays) -> dict:
    phantom = default_phantom((cfg.nx, cfg.ny))
    return dict(labels=phantom.labels, rho_true=phantom.rho_map(),
                t2_true=phantom.t2_map())


def _basis(cfg: PipelineConfig, arrays) -> dict:
    tissues = sample_prior(prior_from_config(cfg), cfg.ensemble_size)
    ensemble = build_ensemble(tissues, sequence_from_config(cfg))
    basis = compute_basis(ensemble, cfg.subspace_k)
    return dict(ensemble=ensemble, basis=basis.phi_k,
                singular_values=basis.singular_values)


def _simulate(cfg: PipelineConfig, arrays) -> dict:
    masks = SamplingMasks(arrays["masks"])
    truth = contrast_images(default_phantom((cfg.nx, cfg.ny)),
                            sequence_from_config(cfg))
    return dict(truth_images=truth, kspace=simulate_acquisition(
        truth, masks, cfg.noise_sigma, cfg.noise_seed))


def _reconstruct(cfg: PipelineConfig, arrays) -> dict:
    enc = Encoder(SamplingMasks(arrays["masks"]), basis=_subspace(arrays))
    solver_cfg = SolverConfig(max_iters=cfg.max_iters,
                              tolerance=cfg.tolerance, lam=cfg.lam)
    if cfg.solver == "cg":
        result = cg_solve(enc, arrays["kspace"], solver_cfg)
    elif cfg.solver == "fista":
        result = fista_solve(enc, arrays["kspace"], "l1-wavelet", solver_cfg)
    else:
        raise ValueError(f"unknown solver {cfg.solver!r}")
    write_csv(os.path.join(cfg.output_dir, "objective_trace.csv"),
              ("iteration", "objective"), enumerate(result.objective_trace))
    return dict(coefficients=result.images,
                images=back_project(enc.basis, result.images))


def _fit(cfg: PipelineConfig, arrays) -> dict:
    maps = fit_map(arrays["coefficients"], sequence_from_config(cfg),
                   basis=_subspace(arrays), method=cfg.fit_method,
                   bounds=(cfg.fit_t2_min_ms, cfg.fit_t2_max_ms),
                   t1_ms=cfg.fit_t1_nominal_ms)
    return dict(t2_map=maps.t2, rho_map=maps.rho)


# Stage bodies look module-level names up when they run, so a patched
# binding (a test's stub, the benchmark's tracer) is the one called.
STAGES = {"phantom": _phantom, "basis": _basis,
          "masks": lambda cfg, arrays: dict(masks=build_masks(cfg).masks),
          "simulate": _simulate, "reconstruct": _reconstruct, "fit": _fit}


def _stage(name: str, func, *args):
    log.info("pipeline stage: %s", name)
    try:
        return func(*args)
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _run_stages(cfg: PipelineConfig, names, arrays) -> None:
    """Run the named stages in order, adding what each makes to `arrays`."""
    for name in names:
        arrays.update(_stage(name, STAGES[name], cfg, arrays))


def _metrics(cfg: PipelineConfig, arrays) -> tuple:
    """Image NRMSE against the truth and per-region T2 statistics."""
    phantom = default_phantom((cfg.nx, cfg.ny))
    truth = arrays["truth_images"]
    nrmse = float(np.linalg.norm(arrays["images"] - truth)
                  / np.linalg.norm(truth))
    stats = []
    for rid in phantom.region_ids:
        t2_true = phantom.regions[rid].t2
        vals = arrays["t2_map"][phantom.labels == rid]
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            raise ValueError(f"region {rid}: every voxel failed the fit")
        mean = float(np.mean(vals))
        stats.append((rid, t2_true, mean, 100.0 * (mean - t2_true) / t2_true,
                      float(np.std(vals))))
    return nrmse, stats


def _write(cfg: PipelineConfig, arrays, nrmse: float, stats: list) -> None:
    out = cfg.output_dir
    write_arrays(out, **arrays)
    write_csv(os.path.join(out, "metrics.csv"),
              ("metric", "region_id", "value"),
              [("image_nrmse", "", nrmse)]
              + [("t2_true_ms", rid, t) for rid, t, *_ in stats]
              + [("t2_mean_ms", rid, m) for rid, _, m, *_ in stats]
              + [("t2_bias_pct", rid, b) for rid, _, _, b, _ in stats]
              + [("t2_std_ms", rid, s) for rid, _, _, _, s in stats])
    save_config(cfg, os.path.join(out, "resolved_config.ini"))


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    """Run every stage of `STAGES`, then `metrics` and `write`."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    arrays = {}
    _run_stages(cfg, STAGES, arrays)
    nrmse, stats = _stage("metrics", _metrics, cfg, arrays)
    _stage("write", _write, cfg, arrays, nrmse, stats)
    return PipelineReport(config=cfg, output_dir=cfg.output_dir,
                          image_nrmse=nrmse, region_stats=stats,
                          t2_map=arrays["t2_map"], rho_map=arrays["rho_map"])
