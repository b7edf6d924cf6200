import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinshuffle import seqopt, spinsim
from spinshuffle.config import PipelineConfig
from spinshuffle.phantom import add_noise
from spinshuffle.pipeline import sequence_from_config
from spinshuffle.qmap import fit_map
from spinshuffle.seqopt import (NonIdentifiableError, PowerBudget, crlb,
                                crlb_t2_sweep, design_asymptotic_flips,
                                fisher_info, minmax_grid_search, optimal_te,
                                optimize_flips, train_power)
from spinshuffle.spinsim import (SequenceParams, TissueParams, constant_train,
                                 simulate_fse, simulate_fse_ensemble)
from spinshuffle.subspace import (TissuePrior, build_ensemble, compute_basis,
                                  sample_prior)
from test_spinsim import _cpmg_phased_case

TISSUE = TissueParams(t1=1000.0, t2=100.0)


class TestFisherInfo:
    def test_noise_scale_law(self):
        seq = constant_train(16, 180.0, 10.0)
        i1 = fisher_info(TISSUE, seq, 1.0).matrix
        i2 = fisher_info(TISSUE, seq, 2.0).matrix
        assert np.allclose(i1, 4.0 * i2)

    def test_cpmg_density_information_analytic(self):
        seq = constant_train(16, 180.0, 10.0)
        info = fisher_info(TISSUE, seq, 1.0, params=("rho",))
        expected = 2.0 * np.sum(np.exp(-2 * np.arange(1, 17) * 10.0 / 100.0))
        assert abs(info.matrix[0, 0] - expected) < 1e-10

    def test_matches_independent_jacobian_oracle(self):
        # second finite-difference implementation with different step sizes
        seq = SequenceParams(flips_deg=tuple(np.linspace(70, 130, 12)),
                             echo_spacing_ms=9.0)
        info = fisher_info(TISSUE, seq, 0.7, params=("rho", "t2"))

        h = 5e-5 * TISSUE.t2
        fp = simulate_fse(replace(TISSUE, t2=TISSUE.t2 + h), seq)
        fm = simulate_fse(replace(TISSUE, t2=TISSUE.t2 - h), seq)
        base = simulate_fse(TISSUE, seq)
        j = np.stack([base / TISSUE.rho, (fp - fm) / (2 * h)], axis=1)
        oracle = (2.0 / 0.7 ** 2) * (j.conj().T @ j).real
        assert np.max(np.abs(info.matrix - oracle)) / np.max(np.abs(oracle)) < 1e-5

    def test_complex_frames_named(self):
        # sensitivities are complex steps, which need a real phase frame
        seq = SequenceParams(flips_deg=(140.0, 90.0, 60.0),
                             flip_phases_deg=(0.0, 30.0, 75.0))
        with pytest.raises(ValueError, match="flip_phases_deg"):
            fisher_info(TISSUE, seq, 1.0)

    def test_empty_params_named(self):
        # failed inside np.concatenate
        with pytest.raises(ValueError, match="params"):
            fisher_info(TISSUE, constant_train(8), 1.0, params=())

    def test_symmetric_psd(self):
        seq = SequenceParams(flips_deg=tuple(np.linspace(50, 150, 10)))
        info = fisher_info(TISSUE, seq, 1.0, params=("rho", "t2", "t1"))
        m = info.matrix
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() > -1e-10 * np.abs(m).max()


def jacobian(tissue, seq, wrt):
    """(T, P) sensitivities of one tissue's unit-density train."""
    flips = np.asarray(seq.flips_deg)[:, None]
    return seqopt._jacobian(tissue.t1, tissue.t2, tissue.eta, flips, seq,
                            wrt)[0].T


def count_batches(monkeypatch):
    """The column counts of every engine call seqopt makes from now on."""
    sizes = []
    original = seqopt.simulate_fse_ensemble

    def counted(t1, *args, **kwargs):
        sizes.append(np.size(t1))
        return original(t1, *args, **kwargs)

    monkeypatch.setattr(seqopt, "simulate_fse_ensemble", counted)
    return sizes


class TestJacobian:
    def test_density_column_exact(self, ramp16):
        tis = TissueParams(rho=2.0 + 1j, t1=900.0, t2=80.0)
        j = jacobian(tis, ramp16, ("rho",))
        f = simulate_fse_ensemble(tis.t1, tis.t2, ramp16, eta=tis.eta)
        assert np.array_equal(j[:, 0], f[:, 0])

    def test_cpmg_t2_derivative_analytic(self, cpmg32, tissue):
        j = jacobian(tissue, cpmg32, ("t2",))
        t = np.arange(1, 33) * 10.0
        expected = (t / 100.0 ** 2) * np.exp(-t / 100.0)
        assert np.max(np.abs(j[:, 0] - expected)) < 1e-8

    def test_richardson_extrapolation_agreement(self, ramp16, tissue):
        # two-step-size central differences with Richardson combination
        def fd(param, h):
            value = getattr(tissue, param)
            fp = simulate_fse(replace(tissue, **{param: value + h}), ramp16)
            fm = simulate_fse(replace(tissue, **{param: value - h}), ramp16)
            return (fp - fm) / (2 * h)

        j = jacobian(tissue, ramp16, ("t2",))[:, 0]
        h = 1e-3 * tissue.t2
        richardson = (4 * fd("t2", h / 2) - fd("t2", h)) / 3
        rel = np.linalg.norm(j - richardson) / np.linalg.norm(richardson)
        assert rel < 1e-6

    def test_directional_derivative_consistency(self, ramp16, tissue):
        rng = np.random.default_rng(5)
        params = ("t1", "t2", "eta")
        j = jacobian(tissue, ramp16, params)
        for _ in range(3):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            h = 1e-4
            scale = np.array([tissue.t1, tissue.t2, tissue.eta])
            step = dict(zip(params, h * d * scale))
            tp = replace(tissue, **{k: getattr(tissue, k) + v
                                    for k, v in step.items()})
            tm = replace(tissue, **{k: getattr(tissue, k) - v
                                    for k, v in step.items()})
            fd = (simulate_fse(tp, ramp16)
                  - simulate_fse(tm, ramp16)) / (2 * h)
            jd = j @ (d * scale)
            assert np.linalg.norm(jd - fd) / np.linalg.norm(fd) < 1e-5

    def test_flip_columns(self, ramp16, tissue):
        j = jacobian(tissue, ramp16, ("rf_1", "rf_16"))
        assert j.shape == (16, 2)
        # perturbing the last refocusing pulse cannot change earlier echoes
        assert np.max(np.abs(j[:15, 1])) < 1e-12
        for name in ("rf_0", "rf_x", "rf_17", "t3"):
            with pytest.raises(ValueError, match=name):
                jacobian(tissue, ramp16, ("t2", name))

    def test_batch_columns_match_single_calls(self, ramp16):
        rng = np.random.default_rng(7)
        t2 = rng.uniform(40.0, 200.0, 5)
        t1 = t2 + rng.uniform(300.0, 1500.0, 5)
        eta = rng.uniform(0.8, 1.2, 5)
        flips = rng.uniform(60.0, 160.0, (16, 5))
        wrt = ("rho", "t1", "t2", "eta", "rf_3", "rf_16")
        batch = seqopt._jacobian(t1, t2, eta, flips, ramp16, wrt)
        assert batch.shape == (5, 6, 16)
        for b in range(5):
            one = seqopt._jacobian(t1[b], t2[b], eta[b], flips[:, b:b + 1],
                                   ramp16, wrt)[0]
            scale = np.max(np.abs(one), axis=1, keepdims=True)
            assert np.all(np.abs(batch[b] - one) <= 1e-13 * scale)

    @pytest.mark.parametrize("params", [("rho", "t2", "t1", "rf_2"),
                                        ("t2", "eta"), ("rho",)])
    def test_fisher_info_is_one_engine_batch(self, monkeypatch, params):
        # one complex-step block per moved parameter, whose real part is the
        # train; the base train alone only when rho is the only name
        sizes = count_batches(monkeypatch)
        fisher_info(TISSUE, constant_train(8, 140.0, 10.0), 1.0, params)
        assert sizes == [max(len(params) - ("rho" in params), 1)]

    def test_relaxation_columns_match_chebyshev_bank(self):
        # Tolerance fixed before any timing: 1e-12 relative to each train's
        # largest entry (the complex step read 2.5e-14, the central
        # differences it replaced about 4e-9). Echo i is e1^k p_i(r), k =
        # 2i + 2, r = e2/e1, and the bank holds p_i and p_i' in s = 2r/R - 1
        rng = np.random.default_rng(11)
        seq = SequenceParams(flips_deg=tuple(rng.uniform(60.0, 180.0, 32)))
        t2 = rng.uniform(20.0, 300.0, 6)
        t1 = t2 + rng.uniform(300.0, 2500.0, 6)
        j = seqopt._jacobian(t1, t2, 1.0, np.asarray(seq.flips_deg)[:, None],
                             seq, ("t1", "t2"))
        e1, k = np.exp(-5.0 / t1), np.arange(2, 65, 2)[:, None]
        r, big_r = np.exp(-5.0 / t2) / e1, spinsim._R_MAX
        bank = spinsim._chebyshev_bank(seq, big_r)
        p, dp = (spinsim._chebyshev_sum(c, r, big_r) for c in bank[:2])
        dp *= 2 / big_r
        exact = {"t1": e1 ** k * 5.0 / t1 ** 2 * (k * p - r * dp),
                 "t2": e1 ** k * dp * r * 5.0 / t2 ** 2}
        for col, name in enumerate(("t1", "t2")):
            err = np.abs(j[:, col] - exact[name].T).max(axis=1)
            assert np.all(err <= 1e-12 * np.abs(exact[name]).max(axis=0))


@settings(max_examples=30, deadline=None)
@given(_cpmg_phased_case())
@example((SequenceParams(flips_deg=(90.0, 0.0, 180.0, 90.0, 89.9999, 60.0),
                         flip_phases_deg=(0.0, 180.0, -180.0, 0.0, 180.0, 0.0),
                         excitation_deg=70.0), 3))
def test_complex_step_matches_richardson_oracle(case):
    # Tolerance fixed before any timing: 1e-10 absolute on unit-density
    # trains, per unit of eta, per degree of flip and per relative change
    # of t1 and t2. Over 300 draws the complex step read at most 1.3e-11
    # and the central differences it replaced 2.9e-6 (eta). The oracle
    # combines central differences at h and h/2: h = 1e-3 of t1 and t2,
    # 1e-4 of eta, 1e-2 deg of a flip. Flips over 0-180 deg reach apply_rf's
    # swap and `_pulses`' c2 < s2 choice on complex values; the example
    # holds flips at 0, 90 and 180 deg
    seq, seed = case
    t = seq.n_echoes
    rng = np.random.default_rng(seed)
    t2 = rng.uniform(5.0, 400.0)
    t1, eta = t2 + rng.uniform(0.0, 3000.0), rng.uniform(0.5, 1.3)
    names = ("rho", "t1", "t2", "eta") + tuple(f"rf_{i}" for i in
                                              range(1, t + 1))
    j = seqopt._jacobian(t1, t2, eta, np.asarray(seq.flips_deg)[:, None],
                         seq, names)[0]
    base = simulate_fse_ensemble(t1, t2, seq, eta=eta)[:, 0]
    assert np.array_equal(j[0], base)
    x0 = np.array([t1, t2, eta, *seq.flips_deg])
    # every block's real part is the run at x to O(h^2), not only the one
    # rho reads; at a 0 deg flip that needs the swap read off cos a, as w/2
    # = -sin^2(a/2) is +h^2/4 there
    steps = x0[:, None] + 1e-30j * np.eye(3 + t)
    sig = simulate_fse_ensemble(steps[0], steps[1], seq, eta=steps[2],
                                flips_deg=steps[3:])
    assert np.max(np.abs(sig.real - base.real[:, None])) <= 1e-50
    h = np.concatenate([1e-3 * x0[:2], [1e-4], np.full(t, 1e-2)])
    x = (x0[:, None, None] + np.eye(3 + t)[:, :, None] * h[:, None, None]
         * np.array([1.0, 0.5, -0.5, -1.0])).reshape(3 + t, -1)
    f = simulate_fse_ensemble(x[0], x[1], seq, eta=x[2],
                              flips_deg=x[3:]).reshape(t, 3 + t, 4)
    oracle = (4 * (f[..., 1] - f[..., 2]) / h
              - (f[..., 0] - f[..., 3]) / (2 * h)) / 3
    scale = np.concatenate([x0[:2], np.ones(1 + t)])[:, None]
    assert np.max(np.abs(j[1:] - oracle.T) * scale) <= 1e-10


class TestCrlb:
    def test_diagonal_information(self):
        from spinshuffle.seqopt import FisherInfo
        info = FisherInfo(matrix=np.diag([4.0, 9.0]),
                          param_order=("rho", "t2"), sigma=1.0)
        assert crlb(info, "rho") == pytest.approx(0.25)
        assert crlb(info, "t2") == pytest.approx(1.0 / 9.0)

    def test_two_by_two_symbolic(self):
        from spinshuffle.seqopt import FisherInfo
        a, b, c = 5.0, 1.5, 3.0
        info = FisherInfo(matrix=np.array([[a, b], [b, c]]),
                          param_order=("rho", "t2"), sigma=1.0)
        det = a * c - b * b
        assert crlb(info, "rho") == pytest.approx(c / det)
        assert crlb(info, "t2") == pytest.approx(a / det)

    def test_more_echoes_never_hurt(self):
        bounds = []
        for t in (8, 16, 32):
            seq = constant_train(t, 140.0, 10.0)
            bounds.append(crlb(fisher_info(TISSUE, seq, 1.0,
                                           params=("rho", "t2")), "t2"))
        assert bounds[0] >= bounds[1] >= bounds[2]

    def test_singular_reports_non_identifiable(self):
        from spinshuffle.seqopt import FisherInfo
        info = FisherInfo(matrix=np.array([[1.0, 1.0], [1.0, 1.0]]),
                          param_order=("rho", "t2"), sigma=1.0)
        with pytest.raises(NonIdentifiableError):
            crlb(info, "t2")

    def test_unknown_parameter(self):
        seq = constant_train(8, 140.0, 10.0)
        info = fisher_info(TISSUE, seq, 1.0, params=("t2",))
        with pytest.raises(ValueError):
            crlb(info, "eta")


class TestOptimizeFlips:
    @pytest.fixture(scope="class")
    def result(self):
        seq = constant_train(32, 60.0, 10.0)
        budget = PowerBudget.from_constant_flip(60.0, 32)
        return optimize_flips(TISSUE, seq, budget, max_iters=60), budget, seq

    def test_power_feasible(self, result):
        opt, budget, _ = result
        assert opt.power <= budget.limit + 1e-9
        assert np.all(opt.flips_deg >= -1e-12)
        assert np.all(opt.flips_deg <= 180.0 + 1e-12)

    def test_objective_trace_nondecreasing(self, result):
        opt, _, _ = result
        assert np.all(np.diff(opt.objective_trace) >= -1e-12)

    def test_beats_equal_power_constant_schedule(self, result):
        opt, budget, seq = result
        const = np.full(32, math.degrees(math.sqrt(budget.limit / 32)))
        b_const = crlb_t2_sweep(const, seq, [100.0])[0]
        b_opt = crlb_t2_sweep(opt.flips_deg, seq, [100.0])[0]
        assert b_opt < b_const

    @pytest.mark.parametrize("min_flip", [math.nan, -1.0, 181.0])
    def test_min_flip_validated(self, min_flip):
        # NaN raised ZeroDivisionError
        seq = constant_train(8, 60.0, 10.0)
        with pytest.raises(ValueError, match="min_flip_deg"):
            optimize_flips(TISSUE, seq, PowerBudget.from_constant_flip(60.0, 8),
                           min_flip_deg=min_flip)

    def test_infeasible_budget_rejected(self):
        seq = constant_train(8, 60.0, 10.0)
        with pytest.raises(ValueError):
            optimize_flips(TISSUE, seq, PowerBudget(limit=1e-6),
                           min_flip_deg=30.0)


class TestProjection:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_feasible_and_optimal(self, data):
        n = data.draw(st.integers(1, 8))
        y = np.array(data.draw(st.lists(st.floats(-1.0, 5.0), min_size=n,
                                        max_size=n)))
        lo = data.draw(st.floats(0.0, 1.0))
        hi = lo + data.draw(st.floats(0.05, 3.0))
        limit = n * lo ** 2 + data.draw(st.floats(1e-3, 40.0))
        x = seqopt._project(y, limit, lo, hi)
        assert np.all((x >= lo) & (x <= hi))
        assert x @ x <= limit * (1 + 1e-12)
        # feasible z: box points pulled toward the all-lo corner, which lies
        # inside the ball, until they are inside it too
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        corner = np.full(n, lo)
        for z in rng.uniform(lo, hi, (20, n)):
            w = z - corner
            a, b, c = w @ w, corner @ w, corner @ corner - limit
            reach = (-b + math.sqrt(b * b - a * c)) / a if a > 0 else 1.0
            z = corner + min(1.0, reach * (1 - 1e-12)) * w
            assert (y - x) @ (z - x) <= 1e-9

    def test_floor_kept_when_power_binds(self):
        # clipping first and rescaling after took the first flip to 15 deg
        floor = math.radians(30.0)
        x = seqopt._project(np.array([0.1, 3.0, 3.0]), 4.6, floor, math.pi)
        assert np.all(x >= floor)
        assert x @ x == pytest.approx(4.6, rel=1e-12)


class TestFlipConvergence:
    # the benchmark's design settings: T1 1000 ms, T2 80 ms, 120 deg
    # equal-power budget, the default 32-echo train
    tissue = TissueParams(t1=1000.0, t2=80.0)
    seq = sequence_from_config(PipelineConfig())
    budget = PowerBudget.from_constant_flip(120.0, 32)

    @pytest.fixture(scope="class")
    def opt(self):
        return optimize_flips(self.tissue, self.seq, self.budget)

    def _information(self, flips_rad):
        return seqopt._information(self.tissue.t1, self.tissue.t2,
                                   self.tissue.eta, 1.0,
                                   np.degrees(flips_rad), self.seq,
                                   ("t2",))[:, 0, 0]

    def test_converges_beyond_the_constant_schedule(self, opt):
        assert opt.converged and opt.stop_reason == "tolerance"
        assert len(opt.objective_trace) - 1 <= 80
        const = np.full((32, 1), math.sqrt(self.budget.limit / 32))
        assert opt.objective_trace[-1] >= 1.1715 * self._information(const)[0]
        assert np.all(np.diff(opt.objective_trace) > 0)

    def test_iteration_cap_reported(self):
        opt = optimize_flips(self.tissue, self.seq, self.budget, max_iters=2)
        assert not opt.converged
        assert opt.stop_reason == "max_iters"
        assert len(opt.objective_trace) == 3

    def test_no_projected_gradient_step_improves(self, opt):
        x = np.radians(opt.flips_deg)
        h = 1e-3
        vals = self._information(x[:, None] + h * np.hstack([np.eye(32),
                                                             -np.eye(32)]))
        grad = (vals[:32] - vals[32:]) / (2 * h)
        along = grad - (grad @ x) / (x @ x) * x
        steps = [seqopt._project(x + 0.5 ** k * d / np.linalg.norm(d),
                                 self.budget.limit, 0.0, math.pi)
                 for d in (grad, along) for k in range(21)]
        best = self._information(np.stack(steps, axis=1)).max()
        assert best <= self._information(x[:, None])[0] * (1 + 1e-6)


def test_full_memory_design_in_few_batches(monkeypatch):
    # memory T keeps the whole curvature history at T = 32; with memory 8
    # the design took 57 engine batches to reach 2.94171740e-4
    sizes = count_batches(monkeypatch)
    cfg = TestFlipConvergence
    opt = optimize_flips(cfg.tissue, cfg.seq, cfg.budget)
    assert len(sizes) <= 40
    assert opt.objective_trace[-1] >= 2.9417174e-4


@pytest.mark.parametrize("t2, flip, floor", [
    (80.0, 120.0, 2.94171740e-4), (40.0, 100.0, 6.16344506e-4),
    (150.0, 140.0, 1.25863174e-4),
    # the optimum holds flips at 180 deg, so trials are often rejected
    (21.0, 150.0, 1.18658054e-3), (22.1, 150.0, 1.12808774e-3)])
def test_design_objective_at_least_memory_8s(t2, flip, floor):
    # floors are the final objectives that memory 8 reached
    opt = optimize_flips(TissueParams(t1=1000.0, t2=t2),
                         sequence_from_config(PipelineConfig()),
                         PowerBudget.from_constant_flip(flip, 32),
                         max_iters=200)
    assert opt.objective_trace[-1] >= floor


class TestCrbAttainment:
    """The fitted T2 of many noisy copies of one voxel has the variance the
    Cramer-Rao bound of its model states. Fixed before any run: seed 5,
    N = 20000 copies, sigma 0.01, T1 1000 / T2 80 ms, and |var/CRLB - 1|
    <= 0.05; the ratio's sampling spread at this N is sqrt(2/N), 1 %."""

    n, sigma, tissue = 20000, 0.01, TissueParams(t1=1000.0, t2=80.0)
    seq = sequence_from_config(PipelineConfig())

    def noisy(self, seq):
        clean = simulate_fse(self.tissue, seq)
        return add_noise(np.repeat(clean[:, None, None], self.n, axis=1),
                         self.sigma, 5)

    @pytest.mark.parametrize("designed", [False, True],
                             ids=("constant-180", "designed-120"))
    def test_nlls_attains_joint_bound(self, designed):
        seq = self.seq
        if designed:
            seq = seq.with_flips(optimize_flips(
                self.tissue, seq, PowerBudget.from_constant_flip(120.0, 32)
            ).flips_deg)
        maps = fit_map(self.noisy(seq), seq, method="nlls")
        bound = crlb(fisher_info(self.tissue, seq, self.sigma, ("rho", "t2")),
                     "t2")
        assert not maps.failed.any()
        assert abs(np.var(maps.t2, ddof=1) / bound - 1) <= 0.05

    def test_subspace_attains_compressed_bound(self):
        # the K = 3 fit sees Phi^H J, not J: the full-data bound is lower
        basis = compute_basis(build_ensemble(sample_prior(TissuePrior(), 1024),
                                             self.seq), 3)
        phi = basis.phi_k
        alpha = np.einsum("tk,tnm->knm", phi.conj(), self.noisy(self.seq))
        maps = fit_map(alpha, self.seq, basis=basis, method="subspace")
        j = phi.conj().T @ jacobian(self.tissue, self.seq, ("rho", "t2"))
        info = (2 / self.sigma ** 2) * (j.conj().T @ j).real
        bound = np.linalg.inv(info)[1, 1]
        assert not maps.failed.any()
        assert abs(np.var(maps.t2, ddof=1) / bound - 1) <= 0.05


class TestBatchedDesign:
    seq = constant_train(32, 60.0, 10.0)
    budget = PowerBudget.from_constant_flip(60.0, 32)

    def test_sweep_equals_per_point_bounds(self):
        flips = np.linspace(60.0, 160.0, 32)
        grid = np.geomspace(20.0, 1500.0, 40)
        sweep = crlb_t2_sweep(flips, self.seq, grid, sigma=0.7)
        seq = self.seq.with_flips(flips)
        loop = [crlb(fisher_info(TissueParams(t1=max(1000.0, v), t2=v), seq,
                                 0.7, params=("t2",)), "t2") for v in grid]
        assert np.allclose(sweep, loop, rtol=1e-12, atol=0)

    def test_sweep_rejects_bad_inputs(self):
        with pytest.raises(NonIdentifiableError):
            crlb_t2_sweep(np.zeros(32), self.seq, [50.0, 100.0])
        with pytest.raises(ValueError):
            crlb_t2_sweep(np.full(32, 120.0), self.seq, [50.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
    def test_sweep_names_bad_grid(self, bad):
        # inf failed in the engine: "relaxation times must be positive"
        with pytest.raises(ValueError, match="t2_grid_ms"):
            crlb_t2_sweep(np.full(32, 120.0), self.seq, [50.0, bad])

    def test_sweep_is_one_batch(self, monkeypatch):
        sizes = count_batches(monkeypatch)
        crlb_t2_sweep(np.full(32, 120.0), self.seq, np.geomspace(20, 400, 64))
        assert sizes == [64]

    def test_one_fused_batch_per_trial(self, monkeypatch):
        sizes = count_batches(monkeypatch)
        values = []
        original = seqopt._information

        def recorded(*args):
            out = original(*args)
            values.append(float(out[0, 0, 0]))
            return out

        monkeypatch.setattr(seqopt, "_information", recorded)
        opt = optimize_flips(TISSUE, self.seq, self.budget, max_iters=60)
        iters = len(opt.objective_trace) - 1
        # every call is one trial schedule plus its 2T +/-h flip neighbours,
        # each one complex-step T2 column: the start, then one per trial step
        assert set(sizes) == {2 * 32 + 1}
        # replaying the trial values: a trial is kept iff it beats the best
        kept, rejected = [values[0]], 0
        for v in values[1:]:
            if v > kept[-1]:
                kept.append(v)
            else:
                rejected += 1
        assert kept == list(opt.objective_trace)
        assert len(sizes) == 1 + iters + rejected


class TestMinmaxGridSearch:
    seq = constant_train(16, 60.0, 10.0)

    def test_single_tissue_plain_argmin(self):
        cands = [np.full(16, 60.0), np.full(16, 120.0), np.full(16, 180.0)]
        idx, _, cost = minmax_grid_search([TISSUE], cands, self.seq)
        singles = [crlb(fisher_info(TISSUE, self.seq.with_flips(c), 1.0,
                                    params=("t2",)), "t2") for c in cands]
        assert idx == int(np.argmin(singles))
        assert cost == pytest.approx(min(singles))

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(2)
        tissues = [TissueParams(t1=1000, t2=v, eta=e,
                                rho=r * np.exp(1j * rng.uniform(0, 6)))
                   for v, e, r in zip((50.0, 100.0, 200.0, 300.0),
                                      rng.uniform(0.7, 1.2, 4),
                                      rng.uniform(0.3, 2.0, 4))]
        cands = [rng.uniform(50, 170, 16) for _ in range(3)]
        for params in (("t2",), ("rho", "t2")):
            idx, _, cost = minmax_grid_search(tissues, cands, self.seq,
                                              params=params)
            worst = []
            for c in cands:
                seq = self.seq.with_flips(c)
                worst.append(max(crlb(fisher_info(t, seq, 1.0, params=params),
                                      "t2") for t in tissues))
            assert idx == int(np.argmin(worst))
            assert cost == pytest.approx(min(worst), rel=1e-12)
            assert all(cost <= w for w in worst)

    def test_singular_schedule_costs_infinity(self):
        # zero refocusing flips leave no echoes, so no information at all
        good = np.full(16, 120.0)
        _, _, alone = minmax_grid_search([TISSUE], [good], self.seq)
        idx, flips, cost = minmax_grid_search([TISSUE], [np.zeros(16), good],
                                              self.seq)
        assert idx == 1 and np.array_equal(flips, good) and cost == alone
        with pytest.raises(NonIdentifiableError,
                           match="every candidate schedule was singular"):
            minmax_grid_search([TISSUE], [np.zeros(16), np.zeros(8)],
                               self.seq)

    def test_one_engine_batch_per_schedule(self, monkeypatch):
        sizes = count_batches(monkeypatch)
        tissues = [TissueParams(t1=1000, t2=v) for v in (50.0, 100.0, 200.0)]
        cands = [np.full(16, f) for f in (90.0, 120.0, 150.0, 180.0)]
        minmax_grid_search(tissues, cands, self.seq, params=("rho", "t2"))
        # the complex-step T2 block of the three tissues, whose real part
        # is the base trains
        assert sizes == [3] * 4

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            minmax_grid_search([], [np.full(16, 90.0)], self.seq)


@pytest.mark.parametrize("call", [
    lambda: crlb_t2_sweep(np.full(16, 120.0), constant_train(16), [50.0],
                          sigma=math.inf),
    lambda: crlb(fisher_info(TISSUE, constant_train(16), math.inf), "t2"),
    lambda: minmax_grid_search([TISSUE], [np.full(16, 120.0)],
                               constant_train(16), sigma=math.inf)],
    ids=["crlb_t2_sweep", "crlb", "minmax_grid_search"])
def test_infinite_sigma_named(call):
    # each raised NonIdentifiableError on an all-zero information matrix
    with pytest.raises(ValueError, match="sigma"):
        call()


class TestOptimalTe:
    def test_worked_example(self):
        assert optimal_te(100.0, 50.0) == pytest.approx(69.3147, abs=1e-4)

    def test_symmetry(self):
        assert optimal_te(100.0, 50.0) == pytest.approx(optimal_te(50.0, 100.0))

    def test_matches_numeric_maximizer(self):
        t2a, t2b = 100.0, 50.0

        def contrast(t):
            return abs(math.exp(-t / t2a) - math.exp(-t / t2b))

        # dense scan plus golden-section refinement
        grid = np.linspace(1e-3, 1000.0, 200_001)
        vals = np.abs(np.exp(-grid / t2a) - np.exp(-grid / t2b))
        lo, hi = grid[np.argmax(vals) - 1], grid[np.argmax(vals) + 1]
        g = (math.sqrt(5) - 1) / 2
        for _ in range(200):
            m1, m2 = hi - g * (hi - lo), lo + g * (hi - lo)
            if contrast(m1) > contrast(m2):
                hi = m2
            else:
                lo = m1
        numeric = 0.5 * (lo + hi)
        assert abs(optimal_te(t2a, t2b) - numeric) < 1e-6

    def test_stationarity(self):
        t = optimal_te(100.0, 50.0)
        h = 1e-5

        def signed(t):
            return math.exp(-t / 100.0) - math.exp(-t / 50.0)

        deriv = (signed(t + h) - signed(t - h)) / (2 * h)
        assert abs(deriv) < 1e-8

    def test_equal_values_rejected(self):
        with pytest.raises(ValueError):
            optimal_te(80.0, 80.0)

    @pytest.mark.parametrize("pair", [(math.nan, 50.0), (math.inf, 50.0),
                                      (50.0, math.nan), (0.0, 50.0),
                                      (50.0, -1.0)])
    def test_non_finite_or_nonpositive_rejected(self, pair):
        # NaN returned NaN and inf returned inf
        with pytest.raises(ValueError, match="t2a and t2b"):
            optimal_te(*pair)


class TestAsymptoticDesign:
    seq = constant_train(32, 180.0, 10.0)

    def test_targets_achieved_and_resimulated(self):
        tissue = TissueParams(t1=3000.0, t2=300.0)
        des = design_asymptotic_flips(tissue, self.seq, s_target=0.3,
                                      n_constant=4)
        assert np.max(np.abs(des.achieved - des.targets)) < 1e-6
        resim = np.abs(simulate_fse(tissue,
                                    self.seq.with_flips(des.flips_deg)))
        assert np.max(np.abs(resim[:des.n_controlled] - des.targets)) < 1e-6

    def test_fixed_point_near_180(self):
        # no-relaxation limit: the first-echo maximum is sustainable forever
        tissue = TissueParams(t1=np.inf, t2=np.inf)
        s1max = abs(simulate_fse(tissue, self.seq)[0])
        des = design_asymptotic_flips(tissue, self.seq,
                                      s_target=s1max * (1 - 1e-12),
                                      n_constant=4)
        assert np.all(des.flips_deg[:des.n_controlled] > 179.5)

    def test_final_ramp_monotone(self):
        tissue = TissueParams(t1=1500.0, t2=200.0)
        des = design_asymptotic_flips(tissue, self.seq, s_target=0.25,
                                      n_constant=4, alpha_max_deg=170.0)
        ramp = des.flips_deg[des.n_controlled:]
        assert len(ramp) > 0
        assert np.all(np.diff(ramp) >= -1e-12)
        assert des.flips_deg[-1] == pytest.approx(170.0)

    def test_unreachable_target_reports_echo(self):
        # feasible at the first echo, unsustainable afterwards
        tissue = TissueParams(t1=600.0, t2=40.0)
        s1max = abs(simulate_fse(tissue, self.seq)[0])
        with pytest.raises(ValueError, match="echo 2"):
            design_asymptotic_flips(tissue, self.seq, s_target=0.98 * s1max,
                                    n_constant=4)

    @pytest.mark.parametrize("kwargs, named", [
        (dict(alpha_max_deg=math.nan), "alpha_max_deg"),
        (dict(alpha_max_deg=190.0), "alpha_max_deg"),
        (dict(alpha_max_deg=-1.0), "alpha_max_deg"),
        (dict(n_constant=-3), "n_constant"),
        (dict(approach_tol=math.nan), "approach_tol"),
        (dict(approach_tol=-1.0), "approach_tol")])
    def test_design_arguments_validated(self, kwargs, named):
        # NaN alpha_max gave NaN flips, n_constant = -3 an IndexError, and
        # a NaN or negative approach_tol ran silently
        with pytest.raises(ValueError, match=named):
            design_asymptotic_flips(TISSUE, self.seq, s_target=0.3, **kwargs)

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            design_asymptotic_flips(TISSUE, self.seq, s_target=2.0)
        with pytest.raises(ValueError):
            design_asymptotic_flips(TISSUE, self.seq, s_target=-0.1)


def test_train_power():
    assert train_power([180.0]) == pytest.approx(math.pi ** 2)
    assert PowerBudget.from_constant_flip(60.0, 3).limit == pytest.approx(
        3 * math.radians(60.0) ** 2)
