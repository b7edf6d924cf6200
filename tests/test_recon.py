import logging

import numpy as np
import pytest

from spinshuffle import recon
from spinshuffle.encoding import (Encoder, SamplingMasks, apply_adjoint,
                                  apply_forward, materialize_forward)
from spinshuffle.recon import (SolverConfig, cg_solve, fista_solve,
                               mocco_solve, model_based_solve)
from spinshuffle.recon import _simulate_fields
from spinshuffle.sampling import DensityProfile, assign_echoes, draw_mask
from spinshuffle.spinsim import constant_train
from spinshuffle.subspace import (TissuePrior, build_ensemble, compute_basis,
                                  sample_prior)
from spinshuffle.transforms import HaarTransform

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


def _warns_unconverged(caplog, solve, **cfg_fields):
    with caplog.at_level(logging.WARNING, logger="spinshuffle.recon"):
        res = solve(SolverConfig(max_iters=2, **cfg_fields))
    assert not res.converged and res.iterations == 2
    assert "max_iters=2" in caplog.text
    assert f"{res.objective_trace[-1]:.6e}" in caplog.text


def _monotone(trace, slack=1e-10):
    trace = np.asarray(trace)
    return np.all(np.diff(trace) <= slack * np.maximum(1.0, np.abs(trace[:-1])))


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

    def test_warns_when_unconverged(self, problem, caplog):
        enc, y = problem
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
        # step thresholds once and must apply N and the analysis once each
        calls = {"normal": 0, "soft": 0, "haar": 0}

        def counted(key, func):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return func(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(recon, "apply_normal_kernel",
                            counted("normal", recon.apply_normal_kernel))
        monkeypatch.setattr(recon, "_soft", counted("soft", recon._soft))
        monkeypatch.setattr(HaarTransform, "forward",
                            counted("haar", HaarTransform.forward))
        enc, y = problem
        res = fista_solve(enc, y, "l1-wavelet",
                          SolverConfig(max_iters=200, tolerance=1e-14,
                                       lam=1e-3))
        steps = calls["soft"]
        assert steps > res.iterations        # some restarts were taken
        assert calls["normal"] == steps
        assert calls["haar"] == steps     # one analysis of the whole stack

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


class TestMocco:
    def test_zero_weight_equals_plain_least_squares(self, basis, masks):
        enc = Encoder(masks)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        y = apply_forward(enc, x)
        cfg = SolverConfig(max_iters=200, tolerance=1e-10)
        res_m = mocco_solve(enc, basis, y, cfg)
        res_c = cg_solve(enc, y, cfg)
        assert np.array_equal(res_m.images, res_c.images)

    def test_infinite_weight_pins_to_subspace(self, basis, masks):
        enc = Encoder(masks)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        y = apply_forward(enc, x)
        res = mocco_solve(enc, basis, y,
                          SolverConfig(max_iters=600, tolerance=1e-12, mu=1e8))
        phi = basis.phi_k
        off = res.images - np.tensordot(phi, np.tensordot(phi.conj().T,
                                                          res.images, axes=1),
                                        axes=1)
        assert np.linalg.norm(off) / np.linalg.norm(res.images) < 1e-3

    def test_penalty_beats_backprojected_hard_constraint(self, basis, masks):
        enc = Encoder(masks)
        enc_b = Encoder(masks, basis=basis)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        y = apply_forward(enc, x)
        mu = 5.0
        cfg = SolverConfig(max_iters=400, tolerance=1e-12, mu=mu)
        soft = mocco_solve(enc, basis, y, cfg)
        hard = cg_solve(enc_b, y, SolverConfig(max_iters=400, tolerance=1e-12))
        x_hard = np.tensordot(basis.phi_k, hard.images, axes=1)

        def objective(v):
            resid = apply_forward(enc, v) - y
            phi = basis.phi_k
            off = v - np.tensordot(phi, np.tensordot(phi.conj().T, v, axes=1),
                                   axes=1)
            return (0.5 * np.vdot(resid, resid).real
                    + 0.5 * mu * np.vdot(off, off).real)

        assert objective(soft.images) <= objective(x_hard) + 1e-10

    def test_rejects_basis_encoder(self, basis, masks):
        enc = Encoder(masks, basis=basis)
        with pytest.raises(ValueError):
            mocco_solve(enc, basis, np.zeros(enc.n_measurements, complex))

    def test_warns_when_unconverged(self, basis, masks, caplog):
        enc = Encoder(masks)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
        y = apply_forward(enc, x)
        # without a basis A^H A is a projector, so only the penalty keeps
        # two iterations short of convergence
        _warns_unconverged(caplog, lambda cfg: mocco_solve(enc, basis, y, cfg),
                           mu=5.0)


class TestModelBased:
    seq = constant_train(T, 180.0, 10.0)

    @staticmethod
    def _phantom_images(seq):
        t2 = np.full(DIMS, 60.0)
        t2[:, 8:] = 150.0
        rho = np.ones(DIMS, complex)
        rho[4:12, 4:12] *= 1.5
        f, _ = _simulate_fields(t2, 1000.0, seq, 1.0)
        return rho, t2, rho[None] * f

    def test_truth_init_is_stationary(self):
        rho, t2, x = self._phantom_images(self.seq)
        masks = SamplingMasks(np.ones((T, *DIMS), bool))
        y = apply_forward(Encoder(masks), x)
        res = model_based_solve(masks, None, self.seq, y, rho, t2,
                                SolverConfig(max_iters=4, tolerance=1e-10))
        assert res.converged
        assert res.residual_norms[0] < 1e-10

    def test_recovers_from_perturbed_t2(self):
        rho, t2, x = self._phantom_images(self.seq)
        masks = SamplingMasks(np.ones((T, *DIMS), bool))
        y = apply_forward(Encoder(masks), x)
        res = model_based_solve(masks, None, self.seq, y, rho, 1.5 * t2,
                                SolverConfig(max_iters=25, tolerance=1e-14))
        assert np.max(np.abs(res.t2_map - t2) / t2) < 0.005

    def test_undersampled_recovery(self):
        rho, t2, x = self._phantom_images(self.seq)
        prof = DensityProfile(accel=2.0)
        masks = SamplingMasks(np.stack(
            [draw_mask(prof, DIMS, 100 + i) for i in range(T)]))
        y = apply_forward(Encoder(masks), x)
        res = model_based_solve(masks, None, self.seq, y,
                                np.full(DIMS, 1.0 + 0j), 1.3 * t2,
                                SolverConfig(max_iters=30, tolerance=1e-12))
        nrmse = np.linalg.norm(res.t2_map - t2) / np.linalg.norm(t2)
        assert nrmse < 0.05

    def test_one_warning_from_the_outer_loop(self, caplog):
        # the truncated inner CG solves stop at inner_iters by design and
        # must not warn; only the unconverged outer loop does
        rho, t2, x = self._phantom_images(self.seq)
        prof = DensityProfile(accel=2.0)
        masks = SamplingMasks(np.stack(
            [draw_mask(prof, DIMS, 100 + i) for i in range(T)]))
        y = apply_forward(Encoder(masks), x)
        with caplog.at_level(logging.WARNING, logger="spinshuffle.recon"):
            res = model_based_solve(masks, None, self.seq, y,
                                    np.full(DIMS, 1.0 + 0j), 1.3 * t2,
                                    SolverConfig(max_iters=30,
                                                 tolerance=1e-12))
        warnings = [rec for rec in caplog.records
                    if rec.name == "spinshuffle.recon"
                    and rec.levelno == logging.WARNING]
        assert not res.converged
        assert len(warnings) == 1
        assert warnings[0].getMessage().startswith("model-based solve")

    def test_residual_monotone(self):
        rho, t2, x = self._phantom_images(self.seq)
        masks = SamplingMasks(np.ones((T, *DIMS), bool))
        y = apply_forward(Encoder(masks), x)
        res = model_based_solve(masks, None, self.seq, y, rho, 1.4 * t2,
                                SolverConfig(max_iters=10, tolerance=1e-14))
        assert np.all(np.diff(res.residual_norms) <= 0)
