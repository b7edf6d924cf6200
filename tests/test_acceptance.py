"""Acceptance suite: one test per release criterion.

Each test prints a PASS line once its assertions hold; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion report.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from conftest import random_tissue, random_train
from spinshuffle.arrayio import read_array, write_array
from spinshuffle.config import PipelineConfig
from spinshuffle.encoding import (Encoder, SamplingMasks, SensitivityMaps,
                                  apply_adjoint, apply_forward,
                                  apply_normal_kernel, build_normal_kernel,
                                  materialize_forward)
from spinshuffle.pipeline import run_pipeline
from spinshuffle.qmap import (build_dictionary, dictionary_match,
                              fit_voxel_nlls, fit_voxel_subspace)
from spinshuffle.qmap import _varpro_cost
from spinshuffle.recon import SolverConfig, cg_solve, fista_solve
from spinshuffle.sampling import (DensityProfile, SparsityModel,
                                  assign_echoes, draw_mask, monte_carlo_mask,
                                  sparsity_crb, tpsf_peak)
from spinshuffle.seqopt import (PowerBudget, crlb_t2_sweep, optimal_te,
                                optimize_flips)
from spinshuffle.spinsim import (SequenceParams, TissueParams,
                                 bloch_isochromat_train, constant_train,
                                 simulate_fse, simulate_fse_ensemble)
from spinshuffle.subspace import (TissuePrior, build_ensemble, compute_basis,
                                  projection_error, sample_prior)

with open(os.path.join(os.path.dirname(__file__), "data",
                       "golden_pipeline.json")) as _fh:
    GOLDEN = json.load(_fh)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_cpmg_analytic_oracle():
    start = time.time()
    seq = constant_train(32, 180.0, 10.0)
    for rho, t2 in ((1.0, 100.0), (2.0 - 1j, 55.0), (0.5j, 240.0)):
        tissue = TissueParams(rho=rho, t1=1000.0, t2=t2)
        samples = simulate_fse(tissue, seq)
        expected = rho * np.exp(-np.arange(1, 33) * 10.0 / t2)
        rel = np.max(np.abs(samples - expected) / np.abs(expected))
        assert rel < 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"CPMG trains match rho*exp(-i*Ts/T2) to < 1e-12 "
              f"({elapsed:.2f} s)")


def test_criterion_02_phase_graph_vs_isochromat():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        tissue = random_tissue(rng)
        seq = random_train(rng, int(rng.integers(8, 24)))
        epg = simulate_fse(tissue, seq)
        bloch = bloch_isochromat_train(tissue, seq,
                                       2 * (seq.n_echoes + 1))
        worst = max(worst, float(np.max(np.abs(epg - bloch))
                                 / np.max(np.abs(epg))))
    elapsed = time.time() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    report(2, f"20 random trains: phase-graph vs isochromat worst relative "
              f"error {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_03_subspace_accuracy():
    tissues = sample_prior(TissuePrior(seed=2024), 256)
    ensemble = build_ensemble(tissues, constant_train(32, 180.0, 10.0))
    err4 = projection_error(ensemble, compute_basis(ensemble, 4))
    err3 = projection_error(ensemble, compute_basis(ensemble, 3))
    assert err4 < 0.01
    assert err3 < 0.02
    errs = [projection_error(ensemble, compute_basis(ensemble, k))
            for k in range(1, 9)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(7))
    report(3, f"default prior: K=4 residual {err4:.4f} < 1%, K=3 "
              f"{err3:.4f} < 2%, nonincreasing over K=1..8")


def test_criterion_04_operator_correctness():
    rng = np.random.default_rng(4)
    dims = (8, 8)
    t = 4
    tissues = sample_prior(TissuePrior(seed=1), 32)
    basis = compute_basis(build_ensemble(tissues,
                                         constant_train(t, 180.0, 10.0)), 2)
    partial = SamplingMasks(rng.random((t, *dims)) < 0.5)
    full = SamplingMasks(np.ones((t, *dims), bool))
    coil_sets = [None]
    for c in (2, 4):
        coil_sets.append(SensitivityMaps(
            rng.standard_normal((c, *dims)) + 1j * rng.standard_normal((c, *dims))))
    configs = [(masks, maps, b) for masks in (partial, full)
               for maps in coil_sets for b in (None, basis)]
    assert len(configs) == 12
    worst_dot, worst_dense, worst_kernel = 0.0, 0.0, 0.0
    for masks, maps, b in configs:
        enc = Encoder(masks, maps, b)
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        y = (rng.standard_normal(enc.n_measurements)
             + 1j * rng.standard_normal(enc.n_measurements))
        lhs = np.vdot(y, apply_forward(enc, x))
        rhs = np.vdot(apply_adjoint(enc, y), x)
        worst_dot = max(worst_dot, abs(lhs - rhs) / abs(lhs))
        dense = materialize_forward(enc)
        err_f = np.max(np.abs(dense @ x.ravel() - apply_forward(enc, x)))
        err_a = np.max(np.abs((dense.conj().T @ y).reshape(enc.domain_shape)
                              - apply_adjoint(enc, y)))
        scale = max(np.max(np.abs(dense @ x.ravel())), 1.0)
        worst_dense = max(worst_dense, err_f / scale, err_a / scale)
        if b is not None:
            kernel = build_normal_kernel(enc)
            via = apply_normal_kernel(enc, kernel, x)
            ref = apply_adjoint(enc, apply_forward(enc, x))
            worst_kernel = max(worst_kernel,
                               float(np.max(np.abs(via - ref))
                                     / np.max(np.abs(ref))))
    assert worst_dot < 1e-10
    assert worst_kernel < 1e-10
    assert worst_dense < 1e-9
    report(4, f"12 encoder configs: dot-test {worst_dot:.1e}, kernel path "
              f"{worst_kernel:.1e}, dense match {worst_dense:.1e}")


def test_criterion_05_solver_optimality():
    rng = np.random.default_rng(5)
    dims = (16, 16)
    t, k = 8, 2
    tissues = sample_prior(TissuePrior(seed=3), 64)
    basis = compute_basis(build_ensemble(tissues,
                                         constant_train(t, 180.0, 10.0)), k)
    masks = assign_echoes(draw_mask(DensityProfile(accel=2.0), dims, 5),
                          t, "randomized", 7)
    enc = Encoder(masks, basis=basis)
    x_true = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
    y = apply_forward(enc, x_true)
    y += 0.02 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    dense = materialize_forward(enc)

    # conjugate gradient vs dense ridge solve
    lam = 0.1
    res_cg = cg_solve(enc, y, SolverConfig(max_iters=400, tolerance=1e-13,
                                           lam=lam))
    x_dense = np.linalg.solve(dense.conj().T @ dense
                              + lam * np.eye(dense.shape[1]),
                              dense.conj().T @ y)

    def ridge_objective(v):
        return (0.5 * np.linalg.norm(dense @ v - y) ** 2
                + 0.5 * lam * np.linalg.norm(v) ** 2)

    f_cg = ridge_objective(res_cg.images.ravel())
    f_opt = ridge_objective(x_dense)
    gap_cg = (f_cg - f_opt) / f_opt
    assert gap_cg < 1e-6

    # proximal gradient vs long-run dense iteration
    lam1 = 1e-3 * np.max(np.abs(apply_adjoint(enc, y)))
    res_f = fista_solve(enc, y, "l1-identity",
                        SolverConfig(max_iters=3000, tolerance=1e-16,
                                     lam=lam1))
    diffs = np.diff(res_f.objective_trace)
    assert np.all(diffs <= 1e-10 * np.maximum(1.0,
                                              np.abs(res_f.objective_trace[:-1])))
    # independent dense accelerated proximal iteration, run far past
    # our solver's budget
    lip = np.linalg.norm(dense.conj().T @ dense, 2)
    step = 1.0 / (1.01 * lip)
    gram = dense.conj().T @ dense
    atb = dense.conj().T @ y
    v = np.zeros(dense.shape[1], complex)
    z = v.copy()
    t_mom = 1.0
    for _ in range(50_000):
        w = z - step * (gram @ z - atb)
        mag = np.abs(w)
        v_new = np.where(mag > 0,
                         w / np.where(mag > 0, mag, 1.0)
                         * np.maximum(mag - lam1 * step, 0.0), 0.0)
        t_next = 0.5 * (1 + math.sqrt(1 + 4 * t_mom ** 2))
        z = v_new + ((t_mom - 1) / t_next) * (v_new - v)
        v, t_mom = v_new, t_next

    def l1_objective(u):
        return (0.5 * np.linalg.norm(dense @ u - y) ** 2
                + lam1 * np.abs(u).sum())

    f_fista = l1_objective(res_f.images.ravel())
    f_oracle = l1_objective(v)
    gap_f = abs(f_fista - f_oracle) / f_oracle
    assert gap_f < 1e-6
    report(5, f"cg ridge gap {gap_cg:.1e}, proximal-gradient gap {gap_f:.1e}, "
              f"trace nonincreasing")


def test_criterion_06_end_to_end_fidelity(tmp_path):
    start = time.time()
    rep_a = run_pipeline(PipelineConfig(output_dir=str(tmp_path / "a")))
    elapsed_one = time.time() - start
    for rid, t2_true, mean, bias, std in rep_a.region_stats:
        assert abs(bias) < 3.0, f"region {rid} bias {bias:.2f}%"
    assert rep_a.image_nrmse <= GOLDEN["nrmse_threshold"]
    rep_b = run_pipeline(PipelineConfig(output_dir=str(tmp_path / "b")))
    for name in ("kspace", "coefficients", "images", "t2_map", "rho_map"):
        assert ((tmp_path / "a" / f"{name}.dat").read_bytes()
                == (tmp_path / "b" / f"{name}.dat").read_bytes())
    total = time.time() - start
    assert total < 120.0
    biases = ", ".join(f"{rid}: {bias:+.2f}%"
                       for rid, _, _, bias, _ in rep_a.region_stats)
    report(6, f"64x64 R=4 K=3 pipeline: region biases [{biases}], NRMSE "
              f"{rep_a.image_nrmse:.4f} <= {GOLDEN['nrmse_threshold']}, "
              f"bit-identical rerun ({total:.0f} s)")


def test_criterion_07_fit_correctness():
    seq = constant_train(32, 180.0, 10.0)
    clean = simulate_fse(TissueParams(t2=100.0), seq)
    rng = np.random.default_rng(7)

    def models(t2):  # the engine itself, independent of the fits' model
        return simulate_fse_ensemble(np.full(t2.size, 1000.0), t2, seq)

    def oracle(signal):
        coarse = np.arange(1.0, 1000.0 + 1e-9, 0.5)
        cost, _ = _varpro_cost(models(coarse),
                               np.repeat(signal[:, None], coarse.size, 1))
        center = coarse[int(np.argmin(cost))]
        fine = np.arange(max(1.0, center - 1.0),
                         min(1000.0, center + 1.0) + 1e-9, 0.01)
        cost, _ = _varpro_cost(models(fine),
                               np.repeat(signal[:, None], fine.size, 1))
        return fine[int(np.argmin(cost))]

    worst = 0.0
    for _ in range(100):
        noisy = clean + 0.01 / np.sqrt(2) * (rng.standard_normal(32)
                                             + 1j * rng.standard_normal(32))
        fit = fit_voxel_nlls(noisy, seq, bounds=(1.0, 1000.0))
        worst = max(worst, abs(fit.t2 - oracle(noisy)))
        assert worst <= 0.01 + 1e-9

    tissues = sample_prior(TissuePrior(seed=9), 256)
    basis_full = compute_basis(build_ensemble(tissues, seq), 32)
    worst_equiv = 0.0
    for _ in range(5):
        noisy = clean + 0.01 / np.sqrt(2) * (rng.standard_normal(32)
                                             + 1j * rng.standard_normal(32))
        t_fit = fit_voxel_nlls(noisy, seq, bounds=(1.0, 1000.0))
        s_fit = fit_voxel_subspace(basis_full.phi_k.conj().T @ noisy,
                                   basis_full, seq, bounds=(1.0, 1000.0))
        worst_equiv = max(worst_equiv, abs(s_fit.t2 - t_fit.t2) / t_fit.t2,
                          abs(s_fit.rho - t_fit.rho) / abs(t_fit.rho))
    assert worst_equiv < 1e-10

    t2_grid = np.arange(20.0, 401.0, 5.0)
    dictionary = build_dictionary((np.full(t2_grid.shape, 1000.0), t2_grid),
                                  seq)
    for _ in range(25):
        sig = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        match = dictionary_match(sig, dictionary)
        scores = np.abs(dictionary.atoms.conj().T @ sig)
        assert match.t2 == dictionary.t2[int(np.argmax(scores))]
    report(7, f"grid-oracle gap {worst:.4f} ms <= 0.01, full-basis "
              f"equivalence {worst_equiv:.1e}, matched filter == argmax")


def test_criterion_08_crlb_orderings():
    t = 32
    seq = constant_train(t, 60.0, 10.0)
    tissue = TissueParams(t1=1000.0, t2=100.0)
    budget = PowerBudget.from_constant_flip(60.0, t)
    opt = optimize_flips(tissue, seq, budget, max_iters=150)
    assert opt.power <= budget.limit + 1e-9
    const = np.full(t, math.degrees(math.sqrt(budget.limit / t)))
    grid = np.arange(40.0, 301.0, 10.0)
    sweep_const = crlb_t2_sweep(const, seq, grid)
    sweep_opt = crlb_t2_sweep(opt.flips_deg, seq, grid)
    at_100 = list(grid).index(100.0)
    assert sweep_opt[at_100] < sweep_const[at_100]
    frac = float(np.mean(sweep_opt <= sweep_const))
    assert frac >= 0.80

    te = optimal_te(100.0, 50.0)
    assert abs(te - 69.3147) < 1e-4
    scan = np.linspace(1e-3, 1000.0, 200_001)
    vals = np.abs(np.exp(-scan / 100.0) - np.exp(-scan / 50.0))
    lo, hi = scan[np.argmax(vals) - 1], scan[np.argmax(vals) + 1]
    g = (math.sqrt(5) - 1) / 2
    for _ in range(200):
        m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
        c1 = abs(math.exp(-m1 / 100.0) - math.exp(-m1 / 50.0))
        c2 = abs(math.exp(-m2 / 100.0) - math.exp(-m2 / 50.0))
        lo, hi = (lo, m2) if c1 > c2 else (m1, hi)
    assert abs(te - 0.5 * (lo + hi)) < 1e-6
    report(8, f"optimized flips beat constant at T2=100 "
              f"({sweep_opt[at_100]:.1f} < {sweep_const[at_100]:.1f}) and at "
              f"{100 * frac:.0f}% of [40,300] ms; optimal_te = {te:.4f} ms")


def test_criterion_09_sampling_properties():
    prof = DensityProfile(accel=4.0)
    assert np.array_equal(draw_mask(prof, (32, 32), 3),
                          draw_mask(prof, (32, 32), 3))

    rng = np.random.default_rng(9)
    checked = 0
    while checked < 50:
        mask = rng.random((16, 16)) < rng.uniform(0.2, 0.8)
        if mask.sum() < 4:
            continue
        out = assign_echoes(mask, 4, "randomized", seed=checked)
        assert np.array_equal(out.masks.any(axis=0), mask)
        assert (out.masks.sum(axis=0) <= 1).all()
        checked += 1

    support = tuple(int(v) for v in rng.choice(256, 8, replace=False))
    model = SparsityModel(support=support)
    mask16 = draw_mask(DensityProfile(accel=2.0), (16, 16), 21)
    value = sparsity_crb(mask16, model)
    from spinshuffle.encoding import fft2c
    f = np.zeros((256, 256), complex)
    eye = np.eye(256)
    for j in range(256):
        f[:, j] = fft2c(eye[:, j].reshape(16, 16)).ravel()
    a = np.diag(mask16.ravel().astype(float)) @ f
    u = np.zeros((256, 8))
    u[list(support), range(8)] = 1
    oracle = float(np.trace(np.linalg.inv(u.T @ (a.conj().T @ a) @ u)).real)
    assert abs(value - oracle) < 1e-8
    for trial in range(20):
        small = draw_mask(DensityProfile(accel=4.0), (16, 16), 300 + trial)
        grown = small | draw_mask(DensityProfile(accel=4.0), (16, 16),
                                  400 + trial)
        assert sparsity_crb(grown, model) <= sparsity_crb(small, model) + 1e-9

    res = monte_carlo_mask(prof, (32, 32), SparsityModel(), 8, seed=21,
                           probe_count=16)
    peaks = [tpsf_peak(draw_mask(prof, (32, 32), 21 + t), SparsityModel(),
                       probe_count=16, seed=21) for t in range(8)]
    assert res.peak == min(peaks)
    report(9, "mask determinism, 50 partitions, bound vs dense oracle "
              f"({abs(value - oracle):.1e}), 20 monotone pairs, Monte-Carlo "
              "argmin")


def test_criterion_10_array_io(tmp_path):
    rng = np.random.default_rng(10)
    arr = (rng.standard_normal((6, 5, 4))
           + 1j * rng.standard_normal((6, 5, 4))).astype(np.complex64)
    base = str(tmp_path / "roundtrip")
    write_array(base, arr)
    back = read_array(base)
    assert np.array_equal(back.view(np.float32), arr.view(np.float32))

    cfg = PipelineConfig(nx=16, ny=16, n_echoes=4, ensemble_size=32,
                         subspace_k=2, max_iters=20, accel=2.0,
                         output_dir=str(tmp_path / "pipe"))
    run_pipeline(cfg)
    from test_arrayio_config import standalone_reader
    for name in ("kspace", "t2_map", "basis", "masks"):
        ours = read_array(str(tmp_path / "pipe" / name))
        theirs = standalone_reader(str(tmp_path / "pipe" / name))
        assert np.array_equal(ours, theirs)
    report(10, "round-trip bit-exact; independent reader parses pipeline "
               "outputs")
