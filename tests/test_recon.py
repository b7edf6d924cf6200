import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshuffle import recon
from spinshuffle.encoding import (Encoder, SamplingMasks, SensitivityMaps,
                                  apply_adjoint, apply_forward,
                                  materialize_forward)
from spinshuffle.recon import SolverConfig, cg_solve, fista_solve
from spinshuffle.sampling import DensityProfile, assign_echoes, draw_mask
from spinshuffle.spinsim import constant_train
from spinshuffle.subspace import (TissuePrior, build_ensemble, compute_basis,
                                  sample_prior)
from spinshuffle.transforms import HaarTransform, IdentityTransform

DIMS = (16, 16)
T, K = 8, 2


@pytest.fixture(scope="module")
def basis():
    tissues = sample_prior(TissuePrior(seed=3), 64)
    return compute_basis(
        build_ensemble(tissues, constant_train(T, 180.0, 10.0)), K)


@pytest.fixture(scope="module")
def masks():
    mask = draw_mask(DensityProfile(accel=2.0), DIMS, 5)
    return assign_echoes(mask, T, "randomized", 7)


@pytest.fixture(scope="module")
def problem(basis, masks):
    enc = Encoder(masks, basis=basis)
    rng = np.random.default_rng(0)
    alpha = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
    y = apply_forward(enc, alpha)
    y += 0.01 * (np.random.default_rng(1).standard_normal(y.shape)
                 + 1j * np.random.default_rng(2).standard_normal(y.shape))
    return enc, y


@pytest.fixture(scope="module")
def coil_problem(basis, masks):
    # two smooth complex coils: A^H A is no longer block-diagonal in k-space,
    # so conjugate gradient iterates
    gx, gy = np.meshgrid(*(np.linspace(-1, 1, n) for n in DIMS),
                         indexing="ij")
    maps = SensitivityMaps(np.stack([np.exp(-(gx - 0.6) ** 2 - 1j * gy),
                                     np.exp(-(gy + 0.6) ** 2 + 2j * gx)]))
    enc = Encoder(masks, maps, basis)
    rng = np.random.default_rng(3)
    alpha = (rng.standard_normal(enc.domain_shape)
             + 1j * rng.standard_normal(enc.domain_shape))
    return enc, apply_forward(enc, alpha)


def _warns_unconverged(caplog, solve):
    with caplog.at_level(logging.WARNING, logger="spinshuffle.recon"):
        res = solve(SolverConfig(max_iters=2))
    assert not res.converged and res.iterations == 2
    assert "max_iters=2" in caplog.text
    assert f"{res.objective_trace[-1]:.6e}" in caplog.text


def _monotone(trace, slack=1e-10):
    trace = np.asarray(trace)
    return np.all(np.diff(trace) <= slack * np.maximum(1.0, np.abs(trace[:-1])))


@pytest.mark.parametrize("field, value", [
    ("tolerance", float("nan")), ("tolerance", 0.0), ("max_iters", 0),
    ("max_iters", -1), ("lam", float("nan")), ("lam", -1.0)])
def test_solver_config_names_bad_field(field, value):
    # a NaN tolerance was accepted; max_iters = 0 failed only at the fit
    # with "every voxel failed the fit"
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


class TestCg:
    def test_full_sampling_recovers_fast(self):
        enc = Encoder(SamplingMasks(np.ones((1, *DIMS), bool)))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, *DIMS)) + 1j * rng.standard_normal((1, *DIMS))
        res = cg_solve(enc, apply_forward(enc, x),
                       SolverConfig(max_iters=2, tolerance=1e-12))
        assert res.converged and res.iterations <= 2
        assert np.max(np.abs(res.images - x)) < 1e-8

    def test_zero_data_zero_solution(self, problem):
        enc, y = problem
        res = cg_solve(enc, np.zeros_like(y))
        assert np.all(res.images == 0)
        assert res.converged and res.iterations == 0

    def test_warns_when_unconverged(self, coil_problem, caplog):
        enc, y = coil_problem
        _warns_unconverged(caplog, lambda cfg: cg_solve(enc, y, cfg))

    def test_matches_dense_least_squares(self, problem):
        enc, y = problem
        res = cg_solve(enc, y, SolverConfig(max_iters=400, tolerance=1e-13))
        a = materialize_forward(enc)
        dense, *_ = np.linalg.lstsq(a, y, rcond=None)
        rel = (np.linalg.norm(res.images.ravel() - dense)
               / np.linalg.norm(dense))
        assert rel < 1e-6

    def test_objective_monotone(self, problem):
        enc, y = problem
        res = cg_solve(enc, y, SolverConfig(max_iters=100, tolerance=1e-12))
        assert _monotone(res.objective_trace)

    def test_ridge_term(self, problem):
        enc, y = problem
        lam = 0.5
        res = cg_solve(enc, y, SolverConfig(max_iters=400, tolerance=1e-13,
                                            lam=lam))
        a = materialize_forward(enc)
        n = a.shape[1]
        dense = np.linalg.solve(a.conj().T @ a + lam * np.eye(n),
                                a.conj().T @ y)
        assert np.linalg.norm(res.images.ravel() - dense) / np.linalg.norm(dense) < 1e-8


def _dense_solution(enc, y, lam):
    """Minimum-norm least squares at lam = 0, else the ridge solution, from
    the dense forward matrix. The ridge solve applies the filter factors
    s / (s^2 + lam) to the singular values of A, with those below lstsq's
    default cutoff (rounding) set to zero. Forming A^H A + lam I, or least
    squares on [A; sqrt(lam) I], is itself off by up to about 1e-10
    relative at lam = 1e-6."""
    a = materialize_forward(enc)
    if not lam:
        return np.linalg.lstsq(a, y, rcond=None)[0].reshape(enc.domain_shape)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s = np.where(s > s.max() * max(a.shape) * np.finfo(float).eps, s, 0.0)
    x = vh.conj().T @ (s / (s ** 2 + lam) * (u.conj().T @ y))
    return x.reshape(enc.domain_shape)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def bases():
    tissues = sample_prior(TissuePrior(seed=3), 64)
    ensemble = build_ensemble(tissues, constant_train(T, 180.0, 10.0))
    return {k: compute_basis(ensemble, k) for k in (1, 2, 3)}


class TestExactCg:
    """A basis and one all-ones coil: one preconditioned step is exact."""

    @pytest.mark.parametrize("lam", [0.0, 1e-3, 0.5])
    def test_one_step_matches_dense_oracle(self, problem, lam):
        enc, y = problem
        res = cg_solve(enc, y, SolverConfig(tolerance=1e-10, lam=lam))
        assert res.iterations == 1 and res.converged
        assert _rel(res.images, _dense_solution(enc, y, lam)) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, 1e-3])
    def test_empty_echoes_and_unsampled_frequencies(self, basis, lam):
        rng = np.random.default_rng(11)
        masks = rng.random((T, *DIMS)) < 0.3
        masks[[1, 4]] = False            # echoes without samples
        masks[:, :3] = False             # frequencies sampled at no echo
        enc = Encoder(SamplingMasks(masks), basis=basis)
        y = (rng.standard_normal(enc.n_measurements)
             + 1j * rng.standard_normal(enc.n_measurements))
        res = cg_solve(enc, y, SolverConfig(tolerance=1e-10, lam=lam))
        assert res.iterations == 1 and res.converged
        assert _rel(res.images, _dense_solution(enc, y, lam)) < 1e-10

    @pytest.mark.parametrize("coils", [slice(None), slice(1), "ones"])
    def test_coil_maps_keep_plain_cg(self, coil_problem, coils):
        # two smooth coils, the first of them alone, and two all-ones coils
        enc, _ = coil_problem
        maps = (np.ones((2, *DIMS)) if coils == "ones"
                else enc.maps.maps[coils])
        enc = Encoder(enc.masks, SensitivityMaps(maps), enc.basis)
        rng = np.random.default_rng(4)
        y = (rng.standard_normal(enc.n_measurements)
             + 1j * rng.standard_normal(enc.n_measurements))
        cfg = SolverConfig(max_iters=30, tolerance=1e-12, lam=1e-3)
        data_normal, aty, half_yy, _ = recon._data_term(enc, y)
        plain = recon._cg(lambda x: data_normal(x) + cfg.lam * x, aty,
                          half_yy, cfg)
        res = cg_solve(enc, y, cfg)
        assert res.iterations == plain.iterations > 1
        assert np.array_equal(res.images, plain.images)
        assert np.array_equal(res.objective_trace, plain.objective_trace)

    def test_preconditioned_recurrence_matches_dense_pcg(self, coil_problem):
        # five steps with a diagonal preconditioner against a textbook dense
        # PCG loop: the exact path stops after one step, so this is what
        # pins the recurrence (beta = r^H z / r_old^H z_old) beyond it
        enc, y = coil_problem
        lam = 1e-3
        a = materialize_forward(enc)
        m = a.conj().T @ a + lam * np.eye(a.shape[1])
        d = np.random.default_rng(5).uniform(0.5, 2.0, a.shape[1])
        x, r = np.zeros(a.shape[1], complex), a.conj().T @ y
        p = z = d * r
        for _ in range(5):
            ap = m @ p
            rz = np.vdot(r, z).real
            alpha = rz / np.vdot(p, ap).real
            x, r = x + alpha * p, r - alpha * ap
            z = d * r
            p = z + (np.vdot(r, z).real / rz) * p
        data_normal, aty, half_yy, _ = recon._data_term(enc, y)
        res = recon._cg(lambda v: data_normal(v) + lam * v, aty, half_yy,
                        SolverConfig(max_iters=5, tolerance=1e-14, lam=lam),
                        lambda v: d.reshape(v.shape) * v)
        assert res.iterations == 5 and not res.converged
        assert _rel(res.images.ravel(), x) < 1e-12

    def test_at_most_three_kernel_applications(self, problem, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return apply_normal(*args)
        apply_normal = recon.apply_normal_kernel
        monkeypatch.setattr(recon, "apply_normal_kernel", counted)
        enc, y = problem
        res = cg_solve(enc, y, SolverConfig(tolerance=1e-10, lam=1e-3))
        assert res.converged and len(calls) <= 3


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exact_cg_matches_dense_oracle(bases, data):
    k = data.draw(st.integers(1, 3))
    lam = data.draw(st.just(0.0) | st.floats(1e-6, 1.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    masks = rng.random((T, 8, 8)) < data.draw(st.floats(0.0, 1.0))
    enc = Encoder(SamplingMasks(masks), basis=bases[k])
    y = (rng.standard_normal(enc.n_measurements)
         + 1j * rng.standard_normal(enc.n_measurements))
    res = cg_solve(enc, y, SolverConfig(tolerance=1e-10, lam=lam))
    assert res.converged and res.iterations <= 1
    if enc.n_measurements:
        assert _rel(res.images, _dense_solution(enc, y, lam)) < 1e-10
    else:
        assert not np.any(res.images)


class TestFista:
    def test_unregularized_matches_cg(self, problem):
        enc, y = problem
        cg = cg_solve(enc, y, SolverConfig(max_iters=300, tolerance=1e-12))
        fista = fista_solve(enc, y, "l1-identity",
                            SolverConfig(max_iters=1200, tolerance=1e-14))
        rel = np.linalg.norm(fista.images - cg.images) / np.linalg.norm(cg.images)
        assert rel < 1e-4

    def test_total_shrinkage_at_huge_lambda(self, problem):
        enc, y = problem
        lam = 2.0 * np.max(np.abs(apply_adjoint(enc, y)))
        res = fista_solve(enc, y, "l1-identity",
                          SolverConfig(max_iters=40, tolerance=1e-12, lam=lam))
        assert np.all(res.images == 0)

    def test_objective_monotone_with_restarts(self, problem):
        enc, y = problem
        res = fista_solve(enc, y, "l1-wavelet",
                          SolverConfig(max_iters=200, tolerance=1e-14,
                                       lam=1e-3, ))
        assert _monotone(res.objective_trace, slack=1e-12)

    def test_one_normal_and_analysis_per_proximal_step(self, problem,
                                                       monkeypatch):
        # each iteration takes one proximal step, plus one per restart; every
        # step thresholds once (in place) and must apply N and the in-place
        # analysis once each
        calls = {"normal": 0, "soft": 0, "haar": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(recon, "apply_normal_kernel",
                            counted("normal", recon.apply_normal_kernel))
        monkeypatch.setattr(recon, "_soft", counted("soft", recon._soft))
        monkeypatch.setattr(HaarTransform, "_forward_levels",
                            counted("haar", HaarTransform._forward_levels))
        enc, y = problem
        res = fista_solve(enc, y, "l1-wavelet",
                          SolverConfig(max_iters=200, tolerance=1e-14,
                                       lam=1e-3))
        steps = calls["soft"]
        assert steps > res.iterations        # some restarts were taken
        assert calls["normal"] == steps
        assert calls["haar"] == steps     # one analysis of the whole stack

    def test_zero_threshold_keeps_zero_coefficients(self, problem):
        # at lam = 0 the threshold's thresh / |v| is 0 / 0 at a zero entry
        v = np.zeros((2, 8, 8), complex)
        v[0, :4, 2:] = 1 - 2j
        expected = v.copy()
        assert recon._soft(v, 0.0) == np.abs(expected).sum()
        assert np.array_equal(v, expected)
        enc, y = problem        # zero data: every coefficient stays zero
        res = fista_solve(enc, np.zeros_like(y),
                          cfg=SolverConfig(max_iters=3, lam=0.0))
        assert np.all(res.images == 0)
        assert np.all(np.isfinite(res.objective_trace))

    def test_sparse_recovery_on_1d_toy(self):
        # 3-sparse complex signal on a 32-point line, half the DFT measured
        rng = np.random.default_rng(12)
        n = 32
        x_true = np.zeros((1, n, 1), complex)
        support = (5, 13, 27)
        for s in support:
            x_true[0, s, 0] = rng.standard_normal() + 1j * rng.standard_normal()
        mask = rng.random((1, n, 1)) < 0.5
        mask[0, n // 2, 0] = True
        enc = Encoder(SamplingMasks(mask))
        y = apply_forward(enc, x_true)
        lam = 1e-4
        res = fista_solve(enc, y, "l1-identity",
                          SolverConfig(max_iters=3000, tolerance=1e-16,
                                       lam=lam))
        # oracle: plain proximal gradient run very long on the dense system
        a = materialize_forward(enc)
        x = np.zeros(n, complex)
        lip = np.linalg.norm(a.conj().T @ a, 2)
        step = 1.0 / (1.01 * lip)
        for _ in range(100_000):
            g = a.conj().T @ (a @ x - y)
            w = x - step * g
            mag = np.abs(w)
            x = np.where(mag > 0, w / np.where(mag > 0, mag, 1) *
                         np.maximum(mag - lam * step, 0), 0)
        found = np.flatnonzero(np.abs(res.images[0, :, 0]) > 1e-3)
        assert tuple(found) == support
        assert np.max(np.abs(res.images.ravel() - x)) < 1e-3
        assert np.max(np.abs(res.images[0, list(support), 0]
                             - x_true[0, list(support), 0])) < 1e-3

    def test_unknown_regularizer(self, problem):
        enc, y = problem
        with pytest.raises(ValueError):
            fista_solve(enc, y, "l0-magic")

    def test_no_samples_rejected(self):
        enc = Encoder(SamplingMasks(np.zeros((1, *DIMS), bool)))
        with pytest.raises(ValueError):
            fista_solve(enc, np.zeros(0, complex))

    def test_warns_when_unconverged(self, problem, caplog):
        enc, y = problem
        _warns_unconverged(caplog, lambda cfg: fista_solve(enc, y, cfg=cfg))


def _textbook_fista(enc, y, transform, lam, iters):
    """Beck & Teboulle's FISTA on (z, N z), N z applied at every momentum
    point, with fista_solve's restart rule; returns x, the objective trace
    and the number of restarts."""
    normal, aty, half_yy, kernel = recon._data_term(enc, y)
    step = 1.0 / recon._normal_bound(enc, kernel)

    def prox_step(z):
        c = transform.forward(z - step * (normal(z) - aty))
        mag = np.abs(c)
        c = np.where(mag > lam * step,
                     c * (mag - lam * step) / np.where(mag > 0, mag, 1.0), 0)
        x = transform.adjoint(c)
        terms = (0.5 * np.vdot(x, normal(x)).real, -np.vdot(x, aty).real,
                 half_yy, lam * np.abs(c).sum())
        return x, sum(terms), sum(map(abs, terms))

    x = z = np.zeros(enc.domain_shape, complex)
    t, trace, restarts = 1.0, [half_yy], 0
    for _ in range(iters):
        x_new, f, scale = prox_step(z)
        if f > trace[-1] + 1e-14 * scale:   # the rounding of f's terms
            t, restarts = 1.0, restarts + 1
            x_new, f, _ = prox_step(x)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        z = x_new + (t - 1) / t_next * (x_new - x)
        x, t = x_new, t_next
        trace.append(f)
    return x, np.asarray(trace), restarts


def test_fista_matches_textbook_oracle(basis, monkeypatch):
    # Tolerances, set from float64 rounding rather than from a measured gap:
    # images within 1e-12 relative, every objective within 1e-10 relative
    # (it subtracts terms up to 300x its value) and the same restarts, with
    # one all-ones coil and with 3 random coil maps. 40 iterations on 70 % Bernoulli masks keep every step's
    # relative objective change above 2e-7, so no restart is a rounding tie;
    # the two cases with a basis and one all-ones coil restart once each.
    rng = np.random.default_rng(2)
    masks = SamplingMasks(rng.random((T, *DIMS)) < 0.7)
    coils = SensitivityMaps(rng.standard_normal((3, *DIMS))
                            + 1j * rng.standard_normal((3, *DIMS)))
    soft, steps, restarts = recon._soft, [], []

    def counted(*args):       # one threshold per proximal step
        steps.append(1)
        return soft(*args)
    monkeypatch.setattr(recon, "_soft", counted)
    for regularizer, transform in (("l1-wavelet", HaarTransform(levels=3)),
                                   ("l1-identity", IdentityTransform())):
        for b, maps in itertools.product((None, basis), (None, coils)):
            enc = Encoder(masks, maps, b)
            data = np.random.default_rng(1)
            x_true = (data.standard_normal(enc.domain_shape)
                      + 1j * data.standard_normal(enc.domain_shape))
            y = apply_forward(enc, x_true)
            y += 0.1 * (data.standard_normal(y.shape)
                        + 1j * data.standard_normal(y.shape))
            steps.clear()
            res = fista_solve(enc, y, regularizer,
                              SolverConfig(max_iters=40, tolerance=1e-300,
                                           lam=1e-3))
            x, trace, oracle_restarts = _textbook_fista(enc, y, transform,
                                                        1e-3, 40)
            case = (regularizer, b is not None, maps is not None)
            assert res.iterations == 40, case
            assert len(steps) - 40 == oracle_restarts, case
            assert _rel(res.images, x) < 1e-12, case
            assert np.max(np.abs(res.objective_trace - trace)
                          / np.abs(trace)) < 1e-10, case
            restarts.append(oracle_restarts)
    assert sum(restarts) > 0


@pytest.mark.parametrize("regularizer, transform",
                         [("l1-wavelet", HaarTransform(levels=3)),
                          ("l1-identity", IdentityTransform())],
                         ids=("l1-wavelet", "l1-identity"))
def test_no_restart_on_rounding_noise(basis, monkeypatch, regularizer,
                                      transform):
    # Near stationarity the objective's terms (0.5 Re<x, N x>, Re<x, A^H y>,
    # 0.5||y||^2, lam ||T x||_1) reach about 300x its value, so a slack of
    # 1e-14 |f| let their rounding restart the momentum: with a basis, 90 %
    # Bernoulli masks and 50 iterations the loop restarted 6 times and the
    # oracle 3, its images 3e-9 apart. Bounds as in the oracle test above.
    masks = SamplingMasks(np.random.default_rng(2).random((T, *DIMS)) < 0.9)
    enc = Encoder(masks, None, basis)
    data = np.random.default_rng(1)
    x_true = (data.standard_normal(enc.domain_shape)
              + 1j * data.standard_normal(enc.domain_shape))
    y = apply_forward(enc, x_true)
    y += 0.1 * (data.standard_normal(y.shape)
                + 1j * data.standard_normal(y.shape))
    soft, steps = recon._soft, []

    def counted(*args):
        steps.append(1)
        return soft(*args)
    monkeypatch.setattr(recon, "_soft", counted)
    res = fista_solve(enc, y, regularizer,
                      SolverConfig(max_iters=50, tolerance=1e-300, lam=1e-3))
    x, trace, oracle_restarts = _textbook_fista(enc, y, transform, 1e-3, 50)
    assert len(steps) - 50 == oracle_restarts == 3
    assert _rel(res.images, x) < 1e-12
    assert np.max(np.abs(res.objective_trace - trace) / np.abs(trace)) < 1e-10
