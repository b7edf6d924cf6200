import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshuffle import seqopt
from spinshuffle.config import PipelineConfig
from spinshuffle.pipeline import sequence_from_config
from spinshuffle.seqopt import (NonIdentifiableError, PowerBudget, crlb,
                                crlb_t2_sweep, design_asymptotic_flips,
                                fisher_info, minmax_grid_search, optimal_te,
                                optimize_flips, read_schedule_csv,
                                train_power, write_schedule_csv)
from spinshuffle.spinsim import (SequenceParams, TissueParams, constant_train,
                                 simulate_fse)

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

        from dataclasses import replace
        h = 5e-5 * TISSUE.t2
        fp = simulate_fse(replace(TISSUE, t2=TISSUE.t2 + h), seq).samples
        fm = simulate_fse(replace(TISSUE, t2=TISSUE.t2 - h), seq).samples
        base = simulate_fse(TISSUE, seq).samples
        j = np.stack([base / TISSUE.rho, (fp - fm) / (2 * h)], axis=1)
        oracle = (2.0 / 0.7 ** 2) * (j.conj().T @ j).real
        assert np.max(np.abs(info.matrix - oracle)) / np.max(np.abs(oracle)) < 1e-5

    def test_symmetric_psd(self):
        seq = SequenceParams(flips_deg=tuple(np.linspace(50, 150, 10)))
        info = fisher_info(TISSUE, seq, 1.0, params=("rho", "t2", "t1"))
        m = info.matrix
        assert np.array_equal(m, m.T)
        assert np.linalg.eigvalsh(m).min() > -1e-10 * np.abs(m).max()


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
        return seqopt._t2_information(np.degrees(flips_rad), self.tissue.t1,
                                      self.tissue.t2, self.tissue.eta,
                                      self.seq)

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

    @staticmethod
    def _count_batches(monkeypatch):
        sizes = []
        original = seqopt.simulate_fse_ensemble

        def counted(t1, *args, **kwargs):
            sizes.append(np.size(t1))
            return original(t1, *args, **kwargs)

        monkeypatch.setattr(seqopt, "simulate_fse_ensemble", counted)
        return sizes

    def test_sweep_is_one_batch(self, monkeypatch):
        sizes = self._count_batches(monkeypatch)
        crlb_t2_sweep(np.full(32, 120.0), self.seq, np.geomspace(20, 400, 64))
        assert sizes == [128]

    def test_one_fused_batch_per_trial(self, monkeypatch):
        sizes = self._count_batches(monkeypatch)
        values = []
        original = seqopt._t2_information

        def recorded(*args):
            out = original(*args)
            values.append(float(out[0]))
            return out

        monkeypatch.setattr(seqopt, "_t2_information", recorded)
        opt = optimize_flips(TISSUE, self.seq, self.budget, max_iters=60)
        iters = len(opt.objective_trace) - 1
        # every call is one trial schedule plus its 2T +/-h neighbours, each
        # a +/-dT2 column pair: the start, then one per trial step
        assert set(sizes) == {2 * (2 * 32 + 1)}
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
        tissues = [TissueParams(t1=1000, t2=v) for v in (50.0, 100.0, 200.0,
                                                         300.0)]
        rng = np.random.default_rng(2)
        cands = [rng.uniform(50, 170, 16) for _ in range(3)]
        idx, _, cost = minmax_grid_search(tissues, cands, self.seq)
        worst = []
        for c in cands:
            seq = self.seq.with_flips(c)
            worst.append(max(crlb(fisher_info(t, seq, 1.0, params=("t2",)),
                                  "t2") for t in tissues))
        assert idx == int(np.argmin(worst))
        assert cost == pytest.approx(min(worst))
        assert all(cost <= w for w in worst)

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            minmax_grid_search([], [np.full(16, 90.0)], self.seq)


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


class TestAsymptoticDesign:
    seq = constant_train(32, 180.0, 10.0)

    def test_targets_achieved_and_resimulated(self):
        tissue = TissueParams(t1=3000.0, t2=300.0)
        des = design_asymptotic_flips(tissue, self.seq, s_target=0.3,
                                      n_constant=4)
        assert np.max(np.abs(des.achieved - des.targets)) < 1e-6
        resim = np.abs(simulate_fse(tissue,
                                    self.seq.with_flips(des.flips_deg)).samples)
        assert np.max(np.abs(resim[:des.n_controlled] - des.targets)) < 1e-6

    def test_fixed_point_near_180(self):
        # no-relaxation limit: the first-echo maximum is sustainable forever
        tissue = TissueParams(t1=np.inf, t2=np.inf)
        s1max = abs(simulate_fse(tissue, self.seq).samples[0])
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
        s1max = abs(simulate_fse(tissue, self.seq).samples[0])
        with pytest.raises(ValueError, match="echo 2"):
            design_asymptotic_flips(tissue, self.seq, s_target=0.98 * s1max,
                                    n_constant=4)

    def test_target_range_validated(self):
        with pytest.raises(ValueError):
            design_asymptotic_flips(TISSUE, self.seq, s_target=2.0)
        with pytest.raises(ValueError):
            design_asymptotic_flips(TISSUE, self.seq, s_target=-0.1)


class TestScheduleCsv:
    def test_round_trip(self, tmp_path):
        flips = np.linspace(60, 160, 24)
        path = str(tmp_path / "schedule.csv")
        write_schedule_csv(path, flips)
        back = read_schedule_csv(path)
        assert np.array_equal(back, flips)
        with open(path) as fh:
            text = fh.read()
        assert text.startswith("echo,flip_deg\n")
        assert "\r" not in text

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_schedule_csv(str(path))


def test_train_power():
    assert train_power([180.0]) == pytest.approx(math.pi ** 2)
    assert PowerBudget.from_constant_flip(60.0, 3).limit == pytest.approx(
        3 * math.radians(60.0) ** 2)
