"""End-to-end phantom pipeline.

Composes every stage: phantom construction, subspace training, mask design,
synthetic acquisition, subspace-constrained reconstruction, back-projection,
and per-voxel parameter fitting. Each stage is a function of the config that
the CLI subcommands call too, and `write_arrays` is the one array writer for
both. All randomness is seeded through the config and every intermediate
array lands on disk, so a rerun with the same config is bit-identical.
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
from .qmap import FitMaps, fit_map
from .recon import ReconResult, SolverConfig, cg_solve, fista_solve
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


def build_basis(cfg: PipelineConfig, seq: SequenceParams) -> tuple:
    """Simulate the prior's (T, L) training ensemble and take its subspace."""
    tissues = sample_prior(prior_from_config(cfg), cfg.ensemble_size)
    ensemble = build_ensemble(tissues, seq)
    return ensemble, compute_basis(ensemble, cfg.subspace_k)


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


def reconstruct(cfg: PipelineConfig, masks: SamplingMasks,
                basis: SubspaceBasis, kspace: np.ndarray) -> ReconResult:
    """Subspace-constrained reconstruction with the configured solver."""
    enc = Encoder(masks, basis=basis)
    solver_cfg = SolverConfig(max_iters=cfg.max_iters,
                              tolerance=cfg.tolerance, lam=cfg.lam)
    if cfg.solver == "cg":
        return cg_solve(enc, kspace, solver_cfg)
    if cfg.solver == "fista":
        return fista_solve(enc, kspace, "l1-wavelet", solver_cfg)
    raise ValueError(f"unknown solver {cfg.solver!r}")


def fit_maps(cfg: PipelineConfig, seq: SequenceParams, basis: SubspaceBasis,
             coeffs: np.ndarray) -> FitMaps:
    """T2 and density maps from subspace coefficients by the configured fit
    method, T2 bounds and nominal T1 (see `fit_map`)."""
    return fit_map(coeffs, seq, basis=basis, method=cfg.fit_method,
                   bounds=(cfg.fit_t2_min_ms, cfg.fit_t2_max_ms),
                   t1_ms=cfg.fit_t1_nominal_ms)


def write_arrays(out: str, **arrays) -> None:
    """Write each keyword array as the pair <out>/<name>.hdr / .dat."""
    for name, array in arrays.items():
        write_array(os.path.join(out, name), array)


def run_pipeline(cfg: PipelineConfig) -> PipelineReport:
    """Execute phantom -> basis -> masks -> simulate -> solve -> fit."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)

    def stage(name, func):
        log.info("pipeline stage: %s", name)
        try:
            return func()
        except Exception as exc:
            raise PipelineError(name, exc) from exc

    seq = stage("sequence", lambda: sequence_from_config(cfg))
    phantom = stage("phantom", lambda: default_phantom((cfg.nx, cfg.ny)))

    ensemble, basis = stage("basis", lambda: build_basis(cfg, seq))
    masks = stage("masks", lambda: build_masks(cfg))

    truth = stage("truth", lambda: contrast_images(phantom, seq))
    y = stage("simulate", lambda: simulate_acquisition(
        truth, masks, cfg.noise_sigma, cfg.noise_seed))

    result = stage("reconstruct", lambda: reconstruct(cfg, masks, basis, y))
    images = stage("back-project", lambda: back_project(basis, result.images))

    maps = stage("fit", lambda: fit_maps(cfg, seq, basis, result.images))

    def report():
        nrmse = float(np.linalg.norm(images - truth) / np.linalg.norm(truth))
        stats = []
        for rid in phantom.region_ids:
            sel = phantom.labels == rid
            t2_true = phantom.regions[rid].t2
            vals = maps.t2[sel]
            vals = vals[np.isfinite(vals)]
            if vals.size == 0:
                raise ValueError(f"region {rid}: every voxel failed the fit")
            mean = float(np.mean(vals))
            stats.append((rid, t2_true, mean,
                          100.0 * (mean - t2_true) / t2_true,
                          float(np.std(vals))))
        return nrmse, stats

    nrmse, stats = stage("metrics", report)

    def write_outputs():
        write_arrays(out, labels=phantom.labels, truth_images=truth,
                     ensemble=ensemble, basis=basis.phi_k,
                     singular_values=basis.singular_values,
                     masks=masks.masks, kspace=y, coefficients=result.images,
                     images=images, t2_map=maps.t2, rho_map=maps.rho)
        write_csv(os.path.join(out, "objective_trace.csv"),
                  ("iteration", "objective"),
                  list(enumerate(result.objective_trace)))
        write_csv(os.path.join(out, "metrics.csv"),
                  ("metric", "region_id", "value"),
                  [("image_nrmse", "", nrmse)]
                  + [("t2_true_ms", rid, t) for rid, t, *_ in stats]
                  + [("t2_mean_ms", rid, m) for rid, _, m, *_ in stats]
                  + [("t2_bias_pct", rid, b) for rid, _, _, b, _ in stats]
                  + [("t2_std_ms", rid, s) for rid, _, _, _, s in stats])
        save_config(cfg, os.path.join(out, "resolved_config.ini"))

    stage("write", write_outputs)
    return PipelineReport(config=cfg, output_dir=out, image_nrmse=nrmse,
                          region_stats=stats, t2_map=maps.t2,
                          rho_map=maps.rho)
