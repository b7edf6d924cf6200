"""The benchmark's workloads: inputs made from a seed, one job, output checks.

Every workload is built once per process (its set-up) and then runs the same
job over and over. `check` returns the problems found in one job's outputs
(an empty list when they are correct) and `quality` the user-facing
accuracy metrics of that job.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

import spinshuffle as ss
from spinshuffle.pipeline import prior_from_config, sequence_from_config

# PipelineConfig's own seeds. Benchmark seed n offsets each of them by n, so
# seed 0 reproduces the golden run exactly.
SEED_FIELDS = ("prior_seed", "mask_seed", "assign_seed", "noise_seed")

# The acceptance suite's small pipeline (test_criterion_10), for the
# benchmark's own self-test.
TINY = dict(nx=16, ny=16, n_echoes=4, ensemble_size=32, subspace_k=2,
            max_iters=20, accel=2.0)

# test_criterion_06 holds every region's T2 bias of the golden run below 3 %.
GOLDEN_BIAS_PCT = 3.0

# cg-large-prior gates, fixed from the parent commit's outputs at seeds 0-9:
# NRMSE 0.0969-0.0980 and largest region |bias| 3.32-3.70 %, widened by 10 %.
CG_NRMSE_MAX = 0.108
CG_BIAS_MAX_PCT = 4.1

# design-fit set-up: the tissue the flips are designed for, the schedule's
# power budget, the asymptotic target and the voxel-fit population.
DESIGN_TISSUE = dict(t1=1000.0, t2=80.0)
DESIGN_BUDGET_FLIP_DEG = 120.0
ASYMPTOTIC_TARGET = 0.3
APPROACH_TOL = 1e-3
VOXEL_T2_RANGE_MS = (20.0, 400.0)
VOXELS_PER_FITTER = 8
CRLB_SWEEP_POINTS = 64
# design-fit gate on |fitted - true| / true T2, fixed from the parent
# commit's fits at seeds 0-9 (largest 1.0 %); noise draws change with the
# seed, so it leaves fivefold room.
FIT_T2_REL_ERR_MAX = 0.05


def seeded_config(seed: int, **fields) -> ss.PipelineConfig:
    cfg = ss.PipelineConfig(**fields)
    return replace(cfg, **{f: getattr(cfg, f) + seed for f in SEED_FIELDS})


class ReconWorkload:
    """One job is `run_pipeline(cfg)`; the maps are checked on the phantom."""

    def __init__(self, cfg: ss.PipelineConfig, nrmse_max: float,
                 bias_max_pct: float):
        self.cfg = cfg
        self.regions = ss.default_phantom((cfg.nx, cfg.ny)).labels > 0
        self.nrmse_max = nrmse_max
        self.bias_max_pct = bias_max_pct

    def job(self):
        return ss.run_pipeline(self.cfg)

    def quality(self, report) -> dict:
        return {
            "image_nrmse": (report.image_nrmse, "1", "lower"),
            "t2_bias_max_pct": (max(abs(s[3]) for s in report.region_stats),
                                "%", "lower"),
        }

    def check(self, report) -> list:
        problems = []
        if not (np.all(np.isfinite(report.t2_map))
                and np.all(np.isfinite(report.rho_map))):
            problems.append("parameter maps are not finite")
        if not np.all(np.isfinite(report.t2_map[self.regions])):
            problems.append("failed voxels inside the phantom regions")
        if not report.image_nrmse <= self.nrmse_max:
            problems.append(f"image NRMSE {report.image_nrmse:.5f} above "
                            f"{self.nrmse_max}")
        for rid, _, _, bias, _ in report.region_stats:
            if not abs(bias) < self.bias_max_pct:
                problems.append(f"region {rid} T2 bias {bias:+.2f} % beyond "
                                f"{self.bias_max_pct} %")
        return problems


@dataclass
class DesignOutputs:
    flips: object          # FlipOptimization
    sweep: np.ndarray      # CRLB(T2) over the sweep grid
    asymptotic: object     # AsymptoticDesign
    fits: list             # FitResult per voxel, nlls first


class DesignFitWorkload:
    """Flip design, CRLB sweep, asymptotic design and voxel fits; no images."""

    def __init__(self, seed: int, tiny: bool):
        cfg = ss.PipelineConfig(**(TINY if tiny else {}))
        self.sigma = cfg.noise_sigma
        self.seq = sequence_from_config(cfg)
        self.tissue = ss.TissueParams(**DESIGN_TISSUE)
        self.budget = ss.PowerBudget.from_constant_flip(
            DESIGN_BUDGET_FLIP_DEG, cfg.n_echoes)
        self.rel_err_max = math.inf if tiny else FIT_T2_REL_ERR_MAX
        self.max_iters = 5 if tiny else 200
        lo, hi = VOXEL_T2_RANGE_MS
        self.sweep_grid = np.geomspace(lo, hi,
                                       8 if tiny else CRLB_SWEEP_POINTS)
        tissues = ss.sample_prior(prior_from_config(cfg), cfg.ensemble_size)
        self.basis = ss.compute_basis(ss.build_ensemble(tissues, self.seq),
                                      cfg.subspace_k)

        n = 1 if tiny else VOXELS_PER_FITTER
        rng = np.random.default_rng(seed)
        self.t2_true = np.exp(rng.uniform(math.log(lo), math.log(hi), 2 * n))
        clean = ss.simulate_fse_ensemble(
            np.full(2 * n, cfg.fit_t1_nominal_ms), self.t2_true, self.seq)
        noise = (self.sigma / math.sqrt(2)) * (
            rng.standard_normal(clean.shape)
            + 1j * rng.standard_normal(clean.shape))
        signals = clean + noise
        self.echo_signals = list(signals[:, :n].T)
        self.alphas = list((self.basis.phi_k.conj().T @ signals[:, n:]).T)

    def job(self):
        flips = ss.optimize_flips(self.tissue, self.seq, self.budget,
                                  max_iters=self.max_iters)
        sweep = ss.crlb_t2_sweep(flips.flips_deg, self.seq, self.sweep_grid,
                                 sigma=self.sigma)
        asymptotic = ss.design_asymptotic_flips(
            self.tissue, self.seq, ASYMPTOTIC_TARGET,
            approach_tol=APPROACH_TOL)
        fits = [ss.fit_voxel_nlls(s, self.seq) for s in self.echo_signals]
        fits += [ss.fit_voxel_subspace(a, self.basis, self.seq)
                 for a in self.alphas]
        return DesignOutputs(flips, sweep, asymptotic, fits)

    def fit_errors_ms(self, out: DesignOutputs) -> np.ndarray:
        return np.abs(np.array([f.t2 for f in out.fits]) - self.t2_true)

    def quality(self, out: DesignOutputs) -> dict:
        return {
            "fit_t2_err_max_ms": (float(np.max(self.fit_errors_ms(out))),
                                  "ms", "lower"),
            "crlb_t2_worst": (float(np.max(out.sweep)), "ms2", "lower"),
        }

    def check(self, out: DesignOutputs) -> list:
        problems = []
        flips = out.flips
        if not flips.power <= self.budget.limit * (1 + 1e-9):
            problems.append(f"schedule power {flips.power} above the budget "
                            f"{self.budget.limit}")
        if np.any(np.diff(flips.objective_trace) < 0):
            problems.append("flip objective trace decreases")
        if not np.all((flips.flips_deg >= 0) & (flips.flips_deg <= 180)):
            problems.append("optimized flips outside [0, 180] deg")
        if not (np.all(np.isfinite(out.sweep)) and np.all(out.sweep > 0)):
            problems.append("CRLB sweep is not finite and positive")
        gap = np.abs(out.asymptotic.achieved - out.asymptotic.targets)
        if not np.all(gap <= APPROACH_TOL * ASYMPTOTIC_TARGET):
            problems.append(f"asymptotic echoes miss their targets by up to "
                            f"{gap.max():.3g}")
        errors = self.fit_errors_ms(out)
        if not (all(f.converged for f in out.fits)
                and np.all(np.isfinite(errors))):
            problems.append("a voxel fit failed")
        elif np.max(errors / self.t2_true) > self.rel_err_max:
            problems.append(f"voxel T2 error {errors.max():.3f} ms above "
                            f"{self.rel_err_max:.0%} of the true T2")
        return problems


def build(name: str, seed: int, root: str, out_dir: str, tiny: bool = False):
    """Set up one workload: the inputs every job of a run shares."""
    size = TINY if tiny else {}
    if name == "fista-default":
        with open(os.path.join(root, "tests", "data",
                               "golden_pipeline.json")) as fh:
            golden = json.load(fh)
        return ReconWorkload(seeded_config(seed, output_dir=out_dir, **size),
                             math.inf if tiny else golden["nrmse_threshold"],
                             math.inf if tiny else GOLDEN_BIAS_PCT)
    if name == "cg-large-prior":
        cfg = seeded_config(seed, output_dir=out_dir, solver="cg",
                            ensemble_size=32 if tiny else 65536,
                            fit_method="dictionary",
                            **{k: v for k, v in size.items()
                               if k != "ensemble_size"})
        return ReconWorkload(cfg, math.inf if tiny else CG_NRMSE_MAX,
                             math.inf if tiny else CG_BIAS_MAX_PCT)
    if name == "design-fit":
        return DesignFitWorkload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("fista-default", "cg-large-prior", "design-fit")
