import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_tissue, random_train
from spinshuffle import spinsim
from spinshuffle.spinsim import (EpgState, SequenceParams, TissueParams,
                                 advance_echo, apply_rf,
                                 bloch_isochromat_train, constant_train,
                                 simulate_fse, simulate_fse_ensemble)


def rf_matrix(alpha_deg, phi_deg) -> np.ndarray:
    """The oracle's pulse: the 3x3 mixing matrix of an RF pulse acting on
    the lab-frame (F+, F-, Z) of every order, alpha the flip angle and phi
    the pulse phase (rotation axis azimuth), both in degrees. Array
    arguments give one matrix per batch element, with their broadcast shape
    as trailing axes: (3, 3, *batch)."""
    a = np.radians(alpha_deg)
    eip = np.exp(1j * np.radians(phi_deg))
    sa = np.sin(a)
    m = np.empty((3, 3) + np.broadcast(a, eip).shape, complex)
    m[0, 0] = m[1, 1] = np.cos(a / 2) ** 2
    m[0, 1] = eip * eip * np.sin(a / 2) ** 2
    m[1, 0] = np.conj(m[0, 1])
    m[0, 2] = -1j * eip * sa
    m[1, 2] = np.conj(m[0, 2])
    m[2, 0] = -0.5j * np.conj(eip) * sa
    m[2, 1] = np.conj(m[2, 0])
    m[2, 2] = np.cos(a)
    return m


def _mix(state, m):
    # the oracle's pulse step: the lab-frame triples times the 3x3 matrix m
    fp = m[0, 0] * state.fplus + m[0, 1] * state.fminus + m[0, 2] * state.z
    fm = m[1, 0] * state.fplus + m[1, 1] * state.fminus + m[1, 2] * state.z
    state.z *= m[2, 2]
    state.z += m[2, 0] * state.fplus
    state.z += m[2, 1] * state.fminus
    state.fplus[...] = fp
    state.fminus[...] = fm


class TestRfMatrix:
    def test_zero_rotation_is_identity(self):
        assert np.allclose(rf_matrix(0.0, 0.0), np.eye(3), atol=1e-15)

    def test_full_rotation_is_identity(self):
        assert np.allclose(rf_matrix(360.0, 123.0), np.eye(3), atol=1e-12)

    def test_matches_published_rotation_at_90_90(self):
        # hand-transcription of the published phase-graph rotation operator
        # evaluated at alpha = phi = 90 deg
        expected = np.array([
            [0.5, -0.5, 1.0],
            [-0.5, 0.5, 1.0],
            [-0.5, -0.5, 0.0],
        ], dtype=complex)
        assert np.allclose(rf_matrix(90.0, 90.0), expected, atol=1e-14)

    def test_entries_against_transcribed_formula(self):
        # independent entrywise evaluation for a generic angle pair
        alpha, phi = np.radians(73.0), np.radians(28.0)
        ref = np.array([
            [np.cos(alpha / 2) ** 2,
             np.exp(2j * phi) * np.sin(alpha / 2) ** 2,
             -1j * np.exp(1j * phi) * np.sin(alpha)],
            [np.exp(-2j * phi) * np.sin(alpha / 2) ** 2,
             np.cos(alpha / 2) ** 2,
             1j * np.exp(-1j * phi) * np.sin(alpha)],
            [-0.5j * np.exp(-1j * phi) * np.sin(alpha),
             0.5j * np.exp(1j * phi) * np.sin(alpha),
             np.cos(alpha)],
        ])
        assert np.allclose(rf_matrix(73.0, 28.0), ref, atol=1e-14)


# D = diag(1, 1, i): a CPMG-phased train's states are real in D^-1 (F+, F-, Z)
_D = np.array([1.0, 1.0, 1j])


class TestRealPulses:
    # Tolerances fixed before any timing. rf_matrix rounds e^(i phi): its
    # D^-1 M D has imaginary parts up to 2|sin(fl(phi))| (two factors of
    # e^(i phi)) and its F+(0) one of |cos(fl(phi_e))|. Beyond those the
    # real F+(0) must match within 1e-16 and the pulses within 2e-16: the
    # step takes cos a as cos^2(a/2) - sin^2(a/2), 1.6e-16 off at most here.
    @pytest.mark.parametrize("phase", [0.0, 180.0, -180.0])
    @pytest.mark.parametrize("exc_phase", [90.0, -90.0, 270.0])
    @pytest.mark.parametrize("eta", [1.0, 0.83])
    def test_real_matrices_are_rf_matrix_in_the_real_basis(self, phase,
                                                           exc_phase, eta):
        # the float64 pulses, applied by the rotation step to the unit
        # states of the real basis, give the columns of rf_matrix's D^-1 M D
        alphas = np.array([0.0, 17.5, 60.0, 90.0, 123.4, 179.9, 180.0])
        seq = SequenceParams(flips_deg=tuple(alphas),
                             flip_phases_deg=(phase,) * alphas.size,
                             excitation_phase_deg=exc_phase)
        m = spinsim._pulses(seq, alphas[:, None], eta)
        unit = EpgState(*np.broadcast_to(np.eye(3)[:, :, None, None],
                                         (3, 3, alphas.size, 1)).copy())
        apply_rf(unit, m)
        ref = (rf_matrix(eta * alphas[:, None], phase)
               * (_D[None, :] / _D[:, None])[:, :, None, None])
        assert m.dtype == np.float64 and unit.z.dtype == np.float64
        assert np.max(np.abs(np.stack([unit.fplus, unit.fminus, unit.z])
                             - ref)) <= (
            2e-16 + 2 * abs(np.sin(np.radians(phase))))
        excite = EpgState.excited(0, seq, eta).fplus[0]
        ref = rf_matrix(eta * seq.excitation_deg, exc_phase)
        assert np.result_type(excite) == np.float64
        assert abs(excite - ref[0, 2]) <= (
            1e-16 + abs(np.cos(np.radians(exc_phase))))

    # Tolerance fixed before any timing: rf_matrix and the frame factors
    # each round e^(i phi), so on states of modulus up to 1 the two steps
    # agree within a few units of 1e-16, bounded here by 2e-15.
    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_matches_matrix_oracle(self, seed):
        # random lab-frame states and pulses at random phases, each applied
        # in a frame off its phase by 0 or +/-180 deg (the sine's sign)
        rng = np.random.default_rng(seed)
        fp, fm, z = (rng.uniform(-0.5, 0.5, (4, 50))
                     + 1j * rng.uniform(-0.5, 0.5, (4, 50)) for _ in range(3))
        alpha = rng.uniform(-200.0, 200.0, 50)
        phi = rng.uniform(-540.0, 540.0, 50)
        k = rng.integers(-1, 2, 50)
        psi = phi - 180.0 * k
        lab = EpgState(fp.copy(), fm.copy(), z.copy())
        _mix(lab, rf_matrix(alpha, phi))
        turn = np.exp(1j * np.radians(psi))
        frame = EpgState(fp / turn, fm * turn, -1j * z)
        m = spinsim._pulses(constant_train(1), alpha, 1.0, 0)
        m[1:3] *= np.where(k % 2, -1.0, 1.0)    # the sine's sign
        apply_rf(frame, m)
        for got, want in ((frame.fplus * turn, lab.fplus),
                          (frame.fminus / turn, lab.fminus),
                          (1j * frame.z, lab.z)):
            assert np.max(np.abs(got - want)) <= 2e-15

    def test_real_states_use_real_arithmetic(self):
        # a float64 state stays float64 through the step, and the matching
        # complex state gives the same values bit for bit
        rng = np.random.default_rng(3)
        parts = rng.standard_normal((3, 5, 7))
        m = spinsim._pulses(constant_train(1), rng.uniform(0, 180, 7), 0.9, 0)
        real = EpgState(*parts.copy())
        cplx = EpgState(*parts.astype(complex))
        apply_rf(real, m)
        apply_rf(cplx, m)
        assert real.z.dtype == np.float64 and m.dtype == np.float64
        for r, c in zip((real.fplus, real.fminus, real.z),
                        (cplx.fplus, cplx.fminus, cplx.z)):
            assert np.array_equal(r, c.real) and not np.any(c.imag)

    @pytest.mark.parametrize("field, value", [
        ("flip_phases_deg", (0.0, 1e-6, 180.0)),
        ("excitation_phase_deg", 90.0 + 1e-6)])
    def test_phases_off_cpmg_keep_the_complex_path(self, field, value):
        # 1e-6 deg off CPMG turns a frame or the excitation out of the real
        # line, so the states are complex; the echoes carry the imaginary
        # parts the phases put there, bit for bit the full-lattice run of
        # the same step and within 1e-15 of the matrix oracle
        rng = np.random.default_rng(23)
        seq = SequenceParams(flips_deg=tuple(rng.uniform(0, 180, 3)),
                             echo_spacing_ms=7.0, **{field: value})
        t2 = rng.uniform(5.0, 400.0, 9)
        t1, eta = t2 + rng.uniform(0.0, 3000.0, 9), rng.uniform(0.5, 1.3, 9)
        flips = rng.uniform(0.0, 180.0, (3, 9))
        assert isinstance(spinsim._frames(seq)[3], complex)
        out = simulate_fse_ensemble(t1, t2, seq, eta=eta, flips_deg=flips)
        assert np.any(out.imag)
        assert np.array_equal(out, _all_orders_train(t1, t2, seq, eta, flips))
        oracle = _all_orders_train(t1, t2, seq, eta, flips, oracle=True)
        assert np.max(np.abs(out - oracle)) <= 1e-15


class TestSimulateFse:
    def test_cpmg_pure_exponential(self, cpmg32, tissue):
        ev = simulate_fse(tissue, cpmg32)
        expected = np.exp(-np.arange(1, 33) * 10.0 / 100.0)
        rel = np.abs(ev - expected) / expected
        assert rel.max() < 1e-12
        assert abs(ev[0] - 0.904837) < 1e-6

    def test_zero_flips_give_zero_echoes(self):
        seq = constant_train(8, 0.0, 10.0)
        ev = simulate_fse(TissueParams(), seq)
        assert np.max(np.abs(ev)) == 0.0

    def test_density_scaling_is_exact(self, ramp16):
        base = simulate_fse(TissueParams(rho=1.0), ramp16)
        scaled = simulate_fse(TissueParams(rho=2.5 - 1j), ramp16)
        assert np.array_equal(scaled, (2.5 - 1j) * base)

    def test_passivity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            tis = random_tissue(rng)
            seq = random_train(rng, 12)
            ev = simulate_fse(tis, seq)
            assert np.all(np.abs(ev) <= abs(tis.rho) * (1 + 1e-12))

    def test_ensemble_matches_scalar(self, ramp16):
        rng = np.random.default_rng(3)
        t1 = rng.uniform(500, 2000, 5)
        t2 = rng.uniform(30, 250, 5)
        batch = simulate_fse_ensemble(t1, t2, ramp16)
        for i in range(5):
            single = simulate_fse(TissueParams(t1=t1[i], t2=t2[i]), ramp16)
            assert np.array_equal(batch[:, i], single)

    def test_rejects_non_finite_flip_override(self, ramp16):
        flips = np.full((16, 2), 120.0)
        flips[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            simulate_fse_ensemble([1000.0, 900.0], [100.0, 80.0], ramp16,
                                  flips_deg=flips)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    @pytest.mark.parametrize("which", ["t1", "t2"])
    def test_rejects_bad_relaxation_times(self, ramp16, which, bad):
        times = {"t1": [1000.0, 900.0], "t2": [100.0, 80.0]}
        times[which][1] = bad
        with pytest.raises(ValueError, match="relaxation"):
            simulate_fse_ensemble(times["t1"], times["t2"], ramp16)

    def test_infinite_relaxation_times_are_valid(self, cpmg32):
        # no decay at all: ideal 180 deg refocusing keeps every echo at 1
        out = simulate_fse_ensemble([np.inf], [np.inf], cpmg32)
        assert np.allclose(out, 1.0, atol=1e-12)

    def test_complex_t2_is_a_complex_step(self, ramp16):
        # one complex input makes the whole batch complex, the state too
        # though eta, and so the excitation, is real. The real part is the
        # real run, Im / h the exact dm/dT2 of the relaxation polynomials
        # to 1e-12 relative
        t1, t2 = np.full(3, 1000.0), np.array([40.0, 80.0, 160.0])
        out = simulate_fse_ensemble(t1, t2 + 1e-30j, ramp16)
        assert np.array_equal(out.real, simulate_fse_ensemble(t1, t2, ramp16))
        exact = spinsim._relaxation_model(ramp16, 1000.0, 1000.0)(t2)[1] / t2
        err = np.abs(out.imag / 1e-30 - exact).max(axis=0)
        assert np.all(err <= 1e-12 * np.abs(exact).max(axis=0))

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_eta(self, ramp16, eta):
        with pytest.raises(ValueError, match="eta"):
            simulate_fse_ensemble([1000.0, 900.0], [100.0, 80.0], ramp16,
                                  eta=[1.0, eta])


class TestBlochOracle:
    def test_cpmg_analytic(self, tissue):
        seq = constant_train(16, 180.0, 10.0)
        ev = bloch_isochromat_train(tissue, seq, 2 * 17)
        expected = np.exp(-np.arange(1, 17) * 10.0 / 100.0)
        assert np.max(np.abs(ev - expected)) < 1e-12

    def test_quadrature_exact_beyond_threshold(self, ramp16, tissue):
        a = bloch_isochromat_train(tissue, ramp16, 2 * 17)
        b = bloch_isochromat_train(tissue, ramp16, 4 * 17)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_agrees_with_phase_graph_both_directions(self, ramp16):
        rng = np.random.default_rng(11)
        for _ in range(3):
            tis = random_tissue(rng)
            epg = simulate_fse(tis, ramp16)
            bloch = bloch_isochromat_train(tis, ramp16, 2 * 17)
            scale = np.max(np.abs(epg))
            assert np.max(np.abs(epg - bloch)) / scale < 1e-10

    def test_paper_example_values(self):
        # variable flip train at the worked example's relaxation values
        tis = TissueParams(t1=1000.0, t2=100.0)
        seq = SequenceParams(flips_deg=tuple(np.linspace(60, 120, 24)),
                             echo_spacing_ms=10.0)
        epg = simulate_fse(tis, seq)
        bloch = bloch_isochromat_train(tis, seq, 2 * 25)
        assert np.max(np.abs(epg - bloch)) / np.max(np.abs(epg)) < 1e-10

    def test_rejects_too_few_isochromats(self, ramp16, tissue):
        with pytest.raises(ValueError):
            bloch_isochromat_train(tissue, ramp16, 10)


def _random_batch(rng, t, b):
    t2 = rng.uniform(5.0, 400.0, b)
    t1 = t2 + rng.uniform(0.0, 3000.0, b)
    seq = SequenceParams(flips_deg=tuple(rng.uniform(0.0, 180.0, t)),
                         echo_spacing_ms=float(rng.uniform(2.0, 20.0)),
                         flip_phases_deg=tuple(rng.uniform(-180, 180, t)))
    return t1, t2, seq, rng.uniform(0.5, 1.3, b)


def _full_relax(state, e1, e2, recovery):
    state.fplus *= e2
    state.fminus *= e2
    state.z *= e1
    state.z[0] += recovery


def _full_shift(state):
    state.fplus[1:] = state.fplus[:-1]
    state.fminus[:-1] = state.fminus[1:]
    state.fminus[-1] = 0.0
    state.fplus[0] = np.conj(state.fminus[0])


def _full_period(state, step, e1, e2, recovery, turn=None):
    if turn is not None:
        state.fplus *= turn
        state.fminus *= np.conj(turn)
    _full_relax(state, e1, e2, recovery)
    _full_shift(state)
    step(state)
    _full_shift(state)
    _full_relax(state, e1, e2, recovery)


def _all_orders_train(t1, t2, seq, eta, flips, z0=None, recovery=None,
                      oracle=False):
    # Self-contained reference over the full lattice: every order 0..T+2 of
    # one complex full-batch state, with Z(0) recovering by 1 - e1 per half
    # period. By default it runs the package's step: the states in the pulse
    # frames of `_frames`, Z kept as -iZ, echo i refocused by slice i of one
    # stacked `_pulses` call. The oracle runs the lab-frame states through
    # the 3x3 matrices of one stacked rf_matrix call instead. z0 overwrites
    # Z(0) after the excitation and recovery replaces 1 - e1.
    half = seq.echo_spacing_ms / 2
    e1, e2 = np.exp(-half / t1), np.exp(-half / t2)
    if recovery is None:
        recovery = 1.0 - e1
    state = EpgState(*(np.zeros((seq.n_echoes + 3, t1.size), complex)
                       for _ in range(3)))
    state.z[0] = 1.0
    if oracle:
        turns, readout = [None] * seq.n_echoes, None
        _mix(state, rf_matrix(eta * seq.excitation_deg,
                              seq.excitation_phase_deg))
        m = rf_matrix(eta * flips, np.asarray(seq.flip_phases_deg)[:, None])
        steps = [lambda s, m=m[:, :, i]: _mix(s, m)
                 for i in range(seq.n_echoes)]
    else:
        _, turns, readout, _ = spinsim._frames(seq)
        state.fplus[0] = EpgState.excited(0, seq, eta, np.shape(eta)).fplus[0]
        state.fminus[0] = np.conj(state.fplus[0])
        state.z[0] = -1j * np.cos(np.radians(eta * seq.excitation_deg))
        recovery = -1j * recovery
        m = spinsim._pulses(seq, flips, eta)
        steps = [lambda s, m=m[:, i]: apply_rf(s, m)
                 for i in range(seq.n_echoes)]
    if z0 is not None:
        state.z[0] = z0
    out = np.empty((seq.n_echoes, t1.size), complex)
    for i in range(seq.n_echoes):
        _full_period(state, steps[i], e1, e2, recovery, turns[i])
        out[i] = state.fplus[0]
    if readout is not None:   # the engine's real arithmetic
        (c, s), re, im = np.array(readout)[..., None], out.real, out.imag
        out = (re * c - im * s) + 1j * (re * s + im * c)
    return out


class TestBlockedKernel:
    @pytest.mark.parametrize("t", [1, 2, 6, 32])
    def test_blocks_match_one_column_runs(self, t):
        block = spinsim._BLOCK
        rng = np.random.default_rng(11)
        b = 2 * block + 3
        t1, t2, seq, eta = _random_batch(rng, t, b)
        flips = rng.uniform(0.0, 200.0, (t, b))
        batch = simulate_fse_ensemble(t1, t2, seq, eta=eta, flips_deg=flips)
        for j in range(b):
            single = simulate_fse_ensemble(t1[j], t2[j], seq, eta=eta[j],
                                           flips_deg=flips[:, j])
            assert np.array_equal(batch[:, j], single[:, 0]), j

    @pytest.mark.parametrize("t", [1, 2, 5, 32])
    def test_live_orders_match_all_orders(self, t):
        rng = np.random.default_rng(t)
        t1, t2, seq, eta = _random_batch(rng, t, 9)
        flips = rng.uniform(0.0, 180.0, (t, 9))
        fast = simulate_fse_ensemble(t1, t2, seq, eta=eta, flips_deg=flips)
        assert np.array_equal(fast, _all_orders_train(t1, t2, seq, eta, flips))

    @pytest.mark.parametrize("b", [1, 2 * spinsim._BLOCK + 1])
    def test_pulses_built_once_per_block(self, monkeypatch, b):
        # one stacked call for every refocusing pulse, float64 (4, T, cols)
        # coefficients; pulses built inside the echo loop would add T calls
        # per block. The frames are built once per sequence.
        built = []
        builder = spinsim._pulses

        def counted(*args):
            out = builder(*args)
            built.append((np.shape(out), np.result_type(out)))
            return out

        monkeypatch.setattr(spinsim, "_pulses", counted)
        spinsim._frames.cache_clear()
        rng = np.random.default_rng(4)
        t1, t2, seq, eta = _random_batch(rng, 12, b)
        simulate_fse_ensemble(t1, t2, seq, eta=eta)
        n_blocks = -(-b // spinsim._BLOCK)
        assert [(shape[:2], dtype) for shape, dtype in built] == [
            ((4, 12), np.float64)] * n_blocks
        # random phases tip Z(0) into a complex F+(0)
        assert EpgState.excited(2, seq, eta, eta.shape).fplus.dtype == complex
        # shared eta and flips: one refocusing stack per call on one column,
        # whatever the block count
        built.clear()
        simulate_fse_ensemble(t1, t2, seq, eta=eta[0])
        assert [shape for shape, _ in built] == [(4, 12, 1)]
        # a CPMG-phased batch builds as often, all float64, with a float64
        # F+(0)
        built.clear()
        cpmg = SequenceParams(flips_deg=seq.flips_deg, flip_phases_deg=(
            180.0, 0.0) * 6, excitation_phase_deg=-90.0)
        simulate_fse_ensemble(t1, t2, cpmg, eta=eta)
        assert [dtype for _, dtype in built] == [np.float64] * n_blocks
        assert EpgState.excited(2, cpmg, eta, eta.shape).z.dtype == np.float64
        assert spinsim._frames.cache_info().misses == 2

    @pytest.mark.parametrize("shared_t1", [True, False],
                             ids=["shared-t1", "per-column-t1"])
    def test_shared_factors_match_per_column_oracle(self, shared_t1):
        # shared eta and flips take the length-1 column factors; the oracle
        # is handed full per-column eta and flips arrays
        rng = np.random.default_rng(13)
        b = 2 * spinsim._BLOCK + 3
        t1, t2, seq, _ = _random_batch(rng, 8, b)
        if shared_t1:
            t1 = np.full(b, 3500.0)
        eta = np.full(b, 0.85)
        flips = np.repeat(np.asarray(seq.flips_deg)[:, None], b, axis=1)
        fast = simulate_fse_ensemble(t1, t2, seq, eta=0.85)
        assert np.array_equal(fast, _all_orders_train(t1, t2, seq, eta, flips))

    @pytest.mark.parametrize("t", [1, 6, 32])
    def test_echoes_ignore_z0_family(self, t):
        # Z(0), its recovery and what they feed never reach an echo, so
        # arbitrary values there leave every echo bit for bit unchanged
        rng = np.random.default_rng(17)
        t1, t2, seq, eta = _random_batch(rng, t, 9)
        flips = rng.uniform(0.0, 180.0, (t, 9))
        z0 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        recovery = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        expected = simulate_fse_ensemble(t1, t2, seq, eta=eta, flips_deg=flips)
        assert np.array_equal(
            _all_orders_train(t1, t2, seq, eta, flips, z0, recovery), expected)

    def test_peak_memory_is_one_block(self):
        # a full-batch state would be 3 * 17 * 16384 complex = 13.4 MB
        rng = np.random.default_rng(5)
        t1, t2, seq, eta = _random_batch(rng, 32, 16384)
        tracemalloc.start()
        try:
            out = simulate_fse_ensemble(t1, t2, seq, eta=eta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8e6


def _values(draw, n, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=n,
                                  max_size=n)))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ensemble_columns_match_isochromat_oracle(data):
    # the batched engine against the independent oracle, one column at a
    # time: per-element T1, T2 and eta, a per-column flip override and any
    # excitation, since the echo-reachable family must hold for all of them
    draw = data.draw
    t = draw(st.integers(1, 12))
    b = draw(st.integers(1, 5))
    t2 = _values(draw, b, 10.0, 400.0)
    t1 = t2 + _values(draw, b, 0.0, 3000.0)
    eta = _values(draw, b, 0.5, 1.3)
    flips = _values(draw, t * b, 0.0, 180.0).reshape(t, b)
    seq = SequenceParams(flips_deg=(180.0,) * t,
                         echo_spacing_ms=draw(st.floats(2.0, 20.0)),
                         excitation_deg=draw(st.floats(0.0, 180.0)),
                         excitation_phase_deg=draw(st.floats(-180.0, 180.0)),
                         flip_phases_deg=tuple(_values(draw, t, -180.0,
                                                       180.0)))
    batch = simulate_fse_ensemble(t1, t2, seq, eta=eta, flips_deg=flips)
    for j in range(b):
        tissue = TissueParams(t1=t1[j], t2=t2[j], eta=eta[j])
        oracle = bloch_isochromat_train(tissue, seq.with_flips(flips[:, j]),
                                        2 * (t + 1))
        assert np.max(np.abs(batch[:, j] - oracle)) < 1e-12


@st.composite
def _cpmg_phased_case(draw):
    t = draw(st.integers(1, 32))
    seq = SequenceParams(
        flips_deg=tuple(_values(draw, t, 0.0, 180.0)),
        echo_spacing_ms=draw(st.floats(2.0, 20.0)),
        excitation_deg=draw(st.floats(0.0, 180.0)),
        excitation_phase_deg=draw(st.sampled_from([90.0, -90.0, 270.0])),
        flip_phases_deg=draw(st.lists(st.sampled_from([-180.0, 0.0, 180.0]),
                                      min_size=t, max_size=t)))
    return seq, draw(st.integers(0, 2 ** 32 - 1))


def _half_turns_at_phase_0(seq, flips):
    # a pulse at phase +/-180 deg is the same rotation as the negated flip at
    # phase 0; building it that way keeps rf_matrix's rounding of e^(+/-i pi),
    # up to 9.5e-16 in the echoes, out of the reference
    half = np.abs(np.asarray(seq.flip_phases_deg)) == 180.0
    phases = tuple(np.where(half, 0.0, seq.flip_phases_deg))
    return (replace(seq, flip_phases_deg=phases),
            np.where(half[:, None], -flips, flips))


@settings(max_examples=30, deadline=None)
@given(_cpmg_phased_case())
@example((SequenceParams(flips_deg=(0.0,) * 5, echo_spacing_ms=2.0,
                         excitation_deg=53.0,
                         flip_phases_deg=(-180.0, 180.0) * 2 + (-180.0,)), 0))
def test_cpmg_phased_ensemble_is_real_within_1e_15_of_complex_oracle(case):
    # Tolerance fixed before any timing: 1e-15 absolute against the complex
    # full-lattice reference, imaginary parts exactly 0. Per-column flips and
    # eta, shared flips with per-column eta, and the length-1 shared-pulse
    # path, over two column blocks. Phases stay in [-180, 180] deg like the
    # other draws: rf_matrix's rounding of e^(i phi) grows with |phi|, and at
    # 540 deg alone puts 7e-16 into the reference's matrices. The example
    # read 1.0016e-15 with the reference's half turns built at +/-180 deg
    seq, seed = case
    t = seq.n_echoes
    rng = np.random.default_rng(seed)
    b = spinsim._BLOCK + 3
    t2 = rng.uniform(5.0, 400.0, b)
    t1, eta = t2 + rng.uniform(0.0, 3000.0, b), rng.uniform(0.5, 1.3, b)
    shared = np.repeat(np.asarray(seq.flips_deg)[:, None], b, axis=1)
    per_column = rng.uniform(0.0, 180.0, (t, b))
    for flips, eta_arg, oracle_flips, oracle_eta in (
            (per_column, eta, per_column, eta), (None, eta, shared, eta),
            (None, 0.85, shared, np.full(b, 0.85))):
        fast = simulate_fse_ensemble(t1, t2, seq, eta=eta_arg,
                                     flips_deg=flips)
        assert fast.dtype == np.complex128 and not np.any(fast.imag)
        oracle_seq, oracle_flips = _half_turns_at_phase_0(seq, oracle_flips)
        oracle = _all_orders_train(t1, t2, oracle_seq, oracle_eta,
                                   oracle_flips, oracle=True)
        assert np.max(np.abs(fast - oracle)) <= 1e-15


def _draw_train(draw) -> SequenceParams:
    t = draw(st.integers(1, 32))
    return SequenceParams(
        flips_deg=tuple(_values(draw, t, 0.0, 180.0)),
        echo_spacing_ms=draw(st.floats(2.0, 20.0)),
        excitation_deg=draw(st.floats(0.0, 180.0)),
        excitation_phase_deg=draw(st.floats(-180.0, 180.0)),
        flip_phases_deg=tuple(_values(draw, t, -180.0, 180.0)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relaxation_polynomials_match_engine(data):
    # every column in the polynomial interval: T1 = inf, T2 << T1 (down to
    # 1e-3 T1) and T2 > T1 up to the fits' bound of 2000 ms at T1 = 1000 ms
    draw = data.draw
    seq = _draw_train(draw)
    t = seq.n_echoes
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = 2 * t + 2 + int(rng.integers(0, 80))
    t2 = np.exp(rng.uniform(np.log(1.0), np.log(2000.0), b))
    kind = rng.integers(0, 3, b)
    t1 = np.where(kind == 0, np.inf,
                  np.where(kind == 1, t2 * 10 ** rng.uniform(0, 3, b), 1000.0))
    fast = spinsim._shared_pulse_ensemble(t1, t2, seq)
    assert np.max(np.abs(fast - simulate_fse_ensemble(t1, t2, seq))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relaxation_model_derivatives_match_engine(data):
    # m against the engine, dm/du and d2m/du2 (u = log T2) against its
    # 5-point Richardson differences, in the time domain and compressed by a
    # random (K, T) matrix; at T1 = 300 ms the bound T2 = 2000 ms puts
    # r = e2/e1 above _R_MAX, so the coefficients span a wider interval
    draw = data.draw
    seq = _draw_train(draw)
    t1 = draw(st.sampled_from([1000.0, 300.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    project = None
    if draw(st.booleans()):
        k = int(rng.integers(1, seq.n_echoes + 1))
        project = (rng.standard_normal((k, seq.n_echoes))
                   + 1j * rng.standard_normal((k, seq.n_echoes)))
    model = spinsim._relaxation_model(seq, t1, 2000.0, project)
    u = rng.uniform(np.log(5.0), np.log(2000.0), 20)

    def engine(u):
        sig = simulate_fse_ensemble(np.full(u.size, t1), np.exp(u), seq)
        return sig if project is None else project @ sig
    m, m1, m2 = model(np.exp(u))
    assert np.max(np.abs(m - engine(u))) < 1e-12
    h = 3e-3
    f = [engine(u + j * h) for j in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    for exact, diff in ((m1, d1), (m2, d2)):   # 1e-300: subnormal trains
        assert (np.max(np.abs(exact - diff))
                <= 1e-8 * np.max(np.abs(diff)) + 1e-300)


class TestRelaxationPolynomials:
    def test_outside_columns_and_small_batches_run_the_engine(self,
                                                             monkeypatch):
        rng = np.random.default_rng(21)
        t1, t2, seq, _ = _random_batch(rng, 8, 200)
        t1[::7] = 60.0          # r = e2/e1 above the interval
        t2[::7] = 1000.0
        expected = simulate_fse_ensemble(t1, t2, seq)
        sizes = []
        original = spinsim.simulate_fse_ensemble

        def counted(t1, t2, *args):
            sizes.append(np.size(t2))
            return original(t1, t2, *args)

        monkeypatch.setattr(spinsim, "simulate_fse_ensemble", counted)
        fast = spinsim._shared_pulse_ensemble(t1, t2, seq)
        assert sizes == [t2[::7].size]
        assert np.array_equal(fast[:, ::7], expected[:, ::7])
        assert np.max(np.abs(fast - expected)) < 1e-12
        for b in (1, 17):       # at most P = 2T + 1 columns
            sizes.clear()
            out = spinsim._shared_pulse_ensemble(t1[:b], t2[:b], seq)
            assert sizes == [b]
            assert np.array_equal(out, expected[:, :b])

    def test_blocks_are_real_for_cpmg_phases(self):
        # a CPMG-phased bank is real and so are its blocks, columns outside
        # the interval included (the engine's echoes, whose imaginary part
        # is zero); other phases give complex blocks
        rng = np.random.default_rng(23)
        t1, t2, turned, _ = _random_batch(rng, 8, spinsim._POLY_BLOCK + 40)
        t1[::7], t2[::7] = 60.0, 1000.0
        cpmg = SequenceParams(flips_deg=turned.flips_deg,
                              echo_spacing_ms=turned.echo_spacing_ms)
        for seq, kind in ((cpmg, "f"), (turned, "c")):
            blocks = [b for _, b in spinsim._shared_pulse_blocks(t1, t2, seq)]
            assert [b.dtype.kind for b in blocks] == [kind, kind]
            fast = np.hstack(blocks)
            expected = simulate_fse_ensemble(t1, t2, seq)
            assert np.array_equal(fast[:, ::7], expected[:, ::7])
            assert np.max(np.abs(fast - expected)) < 1e-12

    def test_invalid_columns_raise(self):
        t2 = np.linspace(20.0, 200.0, 40)
        for bad in (np.nan, 0.0, -5.0):
            t1 = np.full(40, 1000.0)
            t1[3] = bad
            with pytest.raises(ValueError):
                spinsim._shared_pulse_ensemble(t1, t2, constant_train(4))

    @pytest.mark.parametrize("t", [1, 5, 32])
    def test_permuted_columns_permute_the_echoes(self, t):
        # decided per column; only the GEMM's edge columns round differently
        rng = np.random.default_rng(t)
        t1, t2, seq, _ = _random_batch(rng, t, spinsim._POLY_BLOCK + 37)
        perm = rng.permutation(t1.size)
        fast = spinsim._shared_pulse_ensemble(t1, t2, seq)
        moved = spinsim._shared_pulse_ensemble(t1[perm], t2[perm], seq)
        assert np.max(np.abs(moved - fast[:, perm])) <= 1e-15


class TestStateInvariants:
    def test_conjugate_symmetry_after_evolution(self):
        # after every period the public steps hold exactly the full-lattice
        # run's F+/-(2j) and Z(2j+1) under the same step and frame turns,
        # and that run keeps F-(0) the mirror of F+(0)
        seq = SequenceParams(flips_deg=(140.0, 90.0, 60.0),
                             flip_phases_deg=(0.0, 30.0, 75.0))
        half = EpgState.excited(10, seq)
        full = EpgState(*(np.zeros(11, complex) for _ in range(3)))
        full.fplus[0], full.fminus[0] = half.fplus[0], half.fminus[0]
        full.z[0] = -1j * np.cos(np.radians(90.0))
        e1, e2 = np.exp(-5.0 / 1000.0), np.exp(-5.0 / 100.0)
        m = spinsim._pulses(seq, np.asarray(seq.flips_deg)[:, None])
        turns = spinsim._frames(seq)[1]
        for i in range(seq.n_echoes):
            _full_period(full, lambda s: apply_rf(s, m[:, i]), e1, e2,
                         -1j * (1.0 - e1), turns[i])
            advance_echo(half, m[:, i], e1, e2, turns[i])
            assert abs(full.fminus[0] - np.conj(full.fplus[0])) < 1e-14
            assert np.array_equal(half.fplus, full.fplus[0::2])
            assert np.array_equal(half.fminus, full.fminus[0::2])
            assert np.array_equal(half.z[:-1], full.z[1::2])

    def test_validation(self):
        with pytest.raises(ValueError):
            TissueParams(t1=100.0, t2=200.0)
        with pytest.raises(ValueError):
            TissueParams(t1=-1.0)
        with pytest.raises(ValueError):
            TissueParams(eta=0.0)
        with pytest.raises(ValueError):
            SequenceParams(flips_deg=())
        with pytest.raises(ValueError):
            SequenceParams(flips_deg=(190.0,))
        with pytest.raises(ValueError):
            SequenceParams(flips_deg=(90.0,), echo_spacing_ms=0.0)
        with pytest.raises(ValueError):
            SequenceParams(flips_deg=(90.0, 90.0), flip_phases_deg=(0.0,))

    @pytest.mark.parametrize("field, value", [
        ("flips_deg", (90.0, np.nan)), ("flips_deg", (-1.0, 90.0)),
        ("excitation_deg", np.nan), ("excitation_deg", 720.0),
        ("excitation_deg", -90.0), ("excitation_phase_deg", np.nan),
        ("excitation_phase_deg", np.inf), ("flip_phases_deg", (0.0, np.nan)),
        ("echo_spacing_ms", np.inf)])
    def test_angles_checked_by_field(self, field, value):
        # the [0, 180] check let NaN through and nothing checked the
        # excitation angle or the phases
        with pytest.raises(ValueError, match=field):
            SequenceParams(**dict(dict(flips_deg=(90.0, 90.0)),
                                  **{field: value}))
