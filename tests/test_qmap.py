import math
import tracemalloc

import numpy as np
import pytest

from spinshuffle import qmap
from spinshuffle.qmap import (Dictionary, build_dictionary, dictionary_match,
                              fit_map, fit_voxel_nlls, fit_voxel_subspace)
from spinshuffle import spinsim
from spinshuffle.qmap import DEFAULT_T2_BOUNDS_MS, _fit_columns, _varpro_cost
from spinshuffle.spinsim import (SequenceParams, TissueParams, constant_train,
                                 simulate_fse, simulate_fse_ensemble)
from spinshuffle.subspace import (TissuePrior, build_ensemble, compute_basis,
                                  sample_prior)

T = 32
SEQ = constant_train(T, 180.0, 10.0)
# fit_map's dictionary grid at the default bounds
GRID_T2 = np.exp(np.linspace(*np.log(DEFAULT_T2_BOUNDS_MS), 1024))


def engine(t2, seq=SEQ):
    """Unit-density trains at T1 = 1000 ms from the phase-graph engine, the
    oracle the fits' relaxation model is checked against."""
    t2 = np.atleast_1d(np.asarray(t2, float))
    return simulate_fse_ensemble(np.full(t2.size, 1000.0), t2, seq)


@pytest.fixture(scope="module")
def clean_signal():
    return simulate_fse(TissueParams(t2=100.0), SEQ)


@pytest.fixture(scope="module")
def ensemble():
    return build_ensemble(sample_prior(TissuePrior(seed=9), 256), SEQ)


def grid_oracle(signal, lo=1.0, hi=1000.0):
    """Dense grid search at 0.01 ms resolution (coarse scan, then exhaustive
    fine grid around the coarse winner)."""
    coarse = np.arange(lo, hi + 1e-9, 0.5)
    cost, _ = _varpro_cost(engine(coarse),
                           np.repeat(signal[:, None], coarse.size, 1))
    center = coarse[int(np.argmin(cost))]
    fine = np.arange(max(lo, center - 1.0), min(hi, center + 1.0) + 1e-9, 0.01)
    cost, _ = _varpro_cost(engine(fine),
                           np.repeat(signal[:, None], fine.size, 1))
    return fine[int(np.argmin(cost))]


class TestFitVoxelNlls:
    def test_noiseless_consistency(self, clean_signal):
        res = fit_voxel_nlls(clean_signal, SEQ)
        assert abs(res.t2 - 100.0) < 1e-6
        assert abs(res.rho - 1.0) < 1e-8
        assert res.converged

    def test_complex_scale_passes_to_density(self, clean_signal):
        res = fit_voxel_nlls(3j * clean_signal, SEQ)
        assert abs(res.t2 - 100.0) < 1e-6
        assert abs(res.rho - 3j) < 1e-7

    def test_matches_grid_oracle_on_noise(self, clean_signal):
        rng = np.random.default_rng(42)
        for _ in range(5):
            noisy = clean_signal + 0.01 / np.sqrt(2) * (
                rng.standard_normal(T) + 1j * rng.standard_normal(T))
            res = fit_voxel_nlls(noisy, SEQ, bounds=(1.0, 1000.0))
            assert abs(res.t2 - grid_oracle(noisy)) <= 0.01 + 1e-9

    def test_zero_signal_flagged(self):
        res = fit_voxel_nlls(np.zeros(T), SEQ)
        assert res.rho == 0 and math.isnan(res.t2) and not res.converged

    def test_residual_orthogonal_to_model(self, clean_signal):
        rng = np.random.default_rng(1)
        noisy = clean_signal + 0.02 * rng.standard_normal(T)
        res = fit_voxel_nlls(noisy, SEQ, bounds=(1.0, 1000.0))
        model = engine(res.t2)[:, 0]
        resid = noisy - res.rho * model
        assert abs(np.vdot(model, resid)) < 1e-8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_voxel_nlls(np.zeros(5), SEQ)

    @pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
    def test_non_finite_signal_rejected(self, clean_signal, ensemble, bad):
        signal = clean_signal.copy()
        if bad == "all-nan":
            signal[:] = np.nan
        else:
            signal[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            fit_voxel_nlls(signal, SEQ)
        basis = compute_basis(ensemble, T)
        with np.errstate(invalid="ignore"):
            alpha = basis.phi_k.conj().T @ signal
        with pytest.raises(ValueError, match="finite"):
            fit_voxel_subspace(alpha, basis, SEQ)

    def test_polish_cap_reported_unconverged(self, clean_signal):
        # one Newton step from the coarse grid start is not yet converged
        rng = np.random.default_rng(34)
        noisy = clean_signal + 0.1 * rng.standard_normal(T)
        *_, converged = _fit_columns(noisy[:, None], SEQ,
                                     DEFAULT_T2_BOUNDS_MS, 1000.0, None,
                                     max_steps=1)
        assert not converged[0]
        assert fit_voxel_nlls(noisy, SEQ).converged

    def test_fit_beyond_bound_returns_the_bound(self):
        signal = simulate_fse_ensemble(np.array([1000.0]), np.array([5000.0]),
                                       SEQ)[:, 0]
        res = fit_voxel_nlls(signal, SEQ)
        assert res.t2 == DEFAULT_T2_BOUNDS_MS[1]
        assert res.converged is False

    def test_high_noise_fits_converge_to_a_minimum(self):
        # sigma = 0.3 leaves high residuals, where the second-order term of
        # the cost decides how fast the polish converges
        rng = np.random.default_rng(0)
        t2 = np.exp(rng.uniform(math.log(20.0), math.log(400.0), 60))
        clean = simulate_fse_ensemble(np.full(60, 1000.0), t2, SEQ)
        noisy = clean + 0.3 / np.sqrt(2) * (
            rng.standard_normal(clean.shape)
            + 1j * rng.standard_normal(clean.shape))
        lo, hi = DEFAULT_T2_BOUNDS_MS
        for signal in noisy.T:
            res = fit_voxel_nlls(signal, SEQ)
            if not lo < res.t2 < hi:
                continue
            assert res.converged
            nearby = res.t2 * np.array([1.0, 1 - 1e-6, 1 + 1e-6])
            cost, _ = _varpro_cost(engine(nearby),
                                   np.repeat(signal[:, None], 3, 1))
            assert np.all(cost[1:] >= cost[0])


def test_voxel_fits_build_coefficients_once_per_sequence(monkeypatch,
                                                          ensemble):
    # 16 fits of one sequence run the echo loop for its relaxation
    # polynomials at most once; fits alternating between two sequences each
    # recover their own engine's T2, and the cached coefficients are
    # read-only
    basis = compute_basis(ensemble, 3)
    t2 = np.exp(np.linspace(np.log(20.0), np.log(400.0), 8))
    signals = engine(t2)
    loops = []
    original = spinsim._echo_loop

    def counted(*args):
        loops.append(args[0].shape)
        return original(*args)

    spinsim._chebyshev_bank.cache_clear()
    monkeypatch.setattr(spinsim, "_echo_loop", counted)
    fits = [fit_voxel_nlls(s, SEQ) for s in signals.T]
    fits += [fit_voxel_subspace(basis.phi_k.conj().T @ s, basis, SEQ)
             for s in signals.T]
    assert len(loops) <= 1
    assert all(f.converged for f in fits)
    assert np.max(np.abs([f.t2 for f in fits[:8]] - t2) / t2) < 1e-9

    other = SequenceParams(flips_deg=tuple(np.linspace(120.0, 180.0, T)),
                           echo_spacing_ms=8.0)
    other_signals = engine(t2, other)
    for i, value in enumerate(t2):
        for seq, sig in ((SEQ, signals), (other, other_signals)):
            res = fit_voxel_nlls(sig[:, i], seq)
            assert abs(res.t2 - value) < 1e-9 * value
    for r_max in (spinsim._R_MAX, 1.05):
        coef = spinsim._chebyshev_bank(SEQ, r_max)
        with pytest.raises(ValueError, match="read-only"):
            coef[0, 0] = 1.0


class TestFitVoxelSubspace:
    def test_projected_evolution_recovered(self, clean_signal, ensemble):
        basis = compute_basis(ensemble, 3)
        alpha = basis.phi_k.conj().T @ clean_signal
        res = fit_voxel_subspace(alpha, basis, SEQ)
        assert abs(res.t2 - 100.0) / 100.0 < 1e-3

    def test_full_basis_equals_time_domain(self, clean_signal, ensemble):
        rng = np.random.default_rng(3)
        basis = compute_basis(ensemble, T)
        for _ in range(3):
            noisy = clean_signal + 0.01 / np.sqrt(2) * (
                rng.standard_normal(T) + 1j * rng.standard_normal(T))
            time_fit = fit_voxel_nlls(noisy, SEQ, bounds=(1.0, 1000.0))
            alpha = basis.phi_k.conj().T @ noisy
            sub_fit = fit_voxel_subspace(alpha, basis, SEQ,
                                         bounds=(1.0, 1000.0))
            assert abs(sub_fit.t2 - time_fit.t2) < 1e-10 * time_fit.t2 + 1e-10
            assert abs(sub_fit.rho - time_fit.rho) < 1e-9

    def test_zero_coefficients_flagged(self, ensemble):
        basis = compute_basis(ensemble, 3)
        res = fit_voxel_subspace(np.zeros(3), basis, SEQ)
        assert res.rho == 0 and math.isnan(res.t2)


class TestDictionaryMatch:
    @pytest.fixture(scope="class")
    def dictionary(self):
        t2s = np.arange(20.0, 401.0, 5.0)
        return build_dictionary((np.full(t2s.shape, 1000.0), t2s), SEQ)

    def test_exact_atom_recovered(self, dictionary, clean_signal):
        res = dictionary_match(clean_signal, dictionary)
        assert res.t2 == 100.0
        assert abs(res.rho - 1.0) < 1e-12
        assert abs(res.residual) < 1e-12

    def test_zero_signal_flagged(self, dictionary):
        res = dictionary_match(np.zeros(T), dictionary)
        assert res.rho == 0 and math.isnan(res.t2)
        assert res.residual == 0.0 and res.converged is False

    def test_negated_atom_same_match(self, dictionary, clean_signal):
        res = dictionary_match(-clean_signal, dictionary)
        assert res.t2 == 100.0
        assert res.rho.real < 0

    def test_equals_exhaustive_argmax(self, dictionary):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sig = rng.standard_normal(T) + 1j * rng.standard_normal(T)
            res = dictionary_match(sig, dictionary)
            scores = [abs(np.vdot(dictionary.atoms[:, d], sig))
                      for d in range(dictionary.atoms.shape[1])]
            assert res.t2 == dictionary.t2[int(np.argmax(scores))]

    def test_tie_goes_to_lowest_index(self):
        atom = simulate_fse(TissueParams(t2=80.0), SEQ)
        atom = atom / np.linalg.norm(atom)
        dup = Dictionary(atoms=np.stack([atom, atom], axis=1),
                         t2=np.array([80.0, 999.0]), norms=np.ones(2))
        assert dictionary_match(atom, dup).t2 == 80.0

    def test_one_t2_per_atom(self):
        atom = simulate_fse(TissueParams(t2=80.0), SEQ)
        atoms = np.stack([atom, atom], axis=1) / np.linalg.norm(atom)
        with pytest.raises(ValueError, match="one T2 per atom"):
            Dictionary(atoms=atoms, t2=np.array([80.0]), norms=np.ones(2))

    def test_non_finite_signal_rejected(self, dictionary, clean_signal):
        signal = clean_signal.copy()
        signal[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dictionary_match(signal, dictionary)

    def test_compressed_domain_match(self, dictionary, ensemble,
                                     clean_signal):
        # coefficient columns match the basis-compressed atoms, the path
        # fit_map takes for a 'dictionary' fit given a basis
        basis = compute_basis(ensemble, 3)
        alpha = basis.phi_k.conj().T @ clean_signal
        rho, t2, _ = qmap._match(alpha[:, None], dictionary, basis)
        assert t2[0] == 100.0
        assert abs(rho[0] - 1.0) < 1e-3

    def test_noisy_monte_carlo_within_one_step(self, dictionary,
                                               clean_signal):
        rng = np.random.default_rng(77)
        hits = 0
        for _ in range(100):
            noisy = clean_signal + 0.02 / np.sqrt(2) * (
                rng.standard_normal(T) + 1j * rng.standard_normal(T))
            res = dictionary_match(noisy, dictionary)
            hits += abs(res.t2 - 100.0) <= 5.0
        assert hits >= 95


class TestFitMap:
    def test_uniform_region_matches_single_fit(self, clean_signal):
        stack = np.repeat(clean_signal[:, None], 9, axis=1).reshape(T, 3, 3)
        maps = fit_map(stack, SEQ, method="nlls")
        single = fit_voxel_nlls(clean_signal, SEQ)
        assert np.allclose(maps.t2, single.t2, atol=1e-9)
        assert np.allclose(maps.rho, single.rho, atol=1e-9)

    def test_two_region_noiseless(self, ensemble):
        basis = compute_basis(ensemble, 3)
        t2 = np.full((8, 8), 60.0)
        t2[:, 4:] = 150.0
        sig = engine(t2.ravel())
        alpha = basis.phi_k.conj().T @ sig
        maps = fit_map(alpha.reshape(3, 8, 8), SEQ, basis=basis,
                       method="subspace")
        for value in (60.0, 150.0):
            sel = t2 == value
            err = abs(np.mean(maps.t2[sel]) - value) / value
            assert err < 1e-3

    def test_voxel_order_invariance(self, clean_signal):
        rng = np.random.default_rng(6)
        stack = (rng.standard_normal((T, 4, 4))
                 + 1j * rng.standard_normal((T, 4, 4)))
        maps = fit_map(stack, SEQ, method="nlls")
        perm = rng.permutation(16)
        shuffled = stack.reshape(T, -1)[:, perm].reshape(T, 4, 4)
        maps_p = fit_map(shuffled, SEQ, method="nlls")
        assert np.allclose(maps_p.t2.ravel(), maps.t2.ravel()[perm],
                           equal_nan=True)

    def test_background_flagged(self, clean_signal):
        stack = np.zeros((T, 2, 2), complex)
        stack[:, 0, 0] = clean_signal
        maps = fit_map(stack, SEQ, method="nlls")
        assert not maps.failed[0, 0]
        assert maps.failed[1, 1] and math.isnan(maps.t2[1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_fails_alone(self, bad):
        seq = constant_train(8, 180.0, 10.0)
        t2 = np.linspace(40.0, 200.0, 16)
        stack = simulate_fse_ensemble(np.full(16, 1000.0), t2, seq)
        good = fit_map(stack.reshape(8, 4, 4), seq, method="nlls")
        stack[2, 5] = bad
        maps = fit_map(stack.reshape(8, 4, 4), seq, method="nlls")
        expected = np.zeros(16, bool)
        expected[5] = True
        assert np.array_equal(maps.failed.ravel(), expected)
        assert math.isnan(maps.t2.ravel()[5])
        keep = ~expected
        assert np.array_equal(maps.t2.ravel()[keep], good.t2.ravel()[keep])

    def test_full_basis_dictionary_domain(self, ensemble):
        # with K = T a coefficient vector and an echo train have the same
        # length, so the basis argument alone names the domain
        basis = compute_basis(ensemble, T)
        t2 = GRID_T2[[300, 450, 600, 750]]
        echoes = simulate_fse_ensemble(np.full(4, 1000.0), t2,
                                       SEQ).reshape(T, 2, 2)
        maps = fit_map(echoes, SEQ, method="dictionary")
        assert np.array_equal(maps.t2.ravel(), t2)
        coeffs = np.tensordot(basis.phi_k.conj().T, echoes, axes=1)
        maps = fit_map(coeffs, SEQ, basis=basis, method="dictionary")
        assert np.array_equal(maps.t2.ravel(), t2)

    @pytest.mark.parametrize("k", [None, 3])
    def test_dictionary_blocks_equal_exhaustive_argmax(self, ensemble, k):
        # 17 x 31 = 527 noisy voxels span three 256-voxel score blocks; each
        # keeps the atom of largest |a^H s|, a per voxel, in the time domain
        # and against compressed atoms
        rng = np.random.default_rng(12)
        t2 = np.exp(rng.uniform(np.log(20.0), np.log(400.0), 527))
        echoes = engine(t2) + 0.05 * (rng.standard_normal((T, 527))
                                      + 1j * rng.standard_normal((T, 527)))
        atoms = build_dictionary((np.maximum(1000.0, GRID_T2), GRID_T2),
                                 SEQ).atoms
        basis, stack = None, echoes
        if k is not None:
            basis = compute_basis(ensemble, k)
            atoms = basis.phi_k.conj().T @ atoms
            stack = basis.phi_k.conj().T @ echoes
        maps = fit_map(stack.reshape(-1, 17, 31), SEQ, basis=basis,
                       method="dictionary")
        best = [int(np.argmax(np.abs(atoms.conj().T @ col)))
                for col in stack.T]
        assert np.array_equal(maps.t2.ravel(), GRID_T2[best])
        assert len(set(best)) > 100

    def test_dictionary_method(self, ensemble):
        # compressed atoms: a K = 3 coefficient stack matches its own atom
        basis = compute_basis(ensemble, 3)
        t2 = GRID_T2[[520, 560, 600, 640]]
        echoes = simulate_fse_ensemble(np.full(4, 1000.0), t2, SEQ)
        alpha = basis.phi_k.conj().T @ echoes
        maps = fit_map(alpha.reshape(3, 2, 2), SEQ, basis=basis,
                       method="dictionary")
        assert np.array_equal(maps.t2.ravel(), t2)

    def test_methods_agree_on_density(self, ensemble):
        # noiseless rho * m(T2) with T2 on the dictionary grid: every method
        # recovers the complex density, in the time domain and on full-basis
        # coefficients
        bounds = DEFAULT_T2_BOUNDS_MS
        t2 = GRID_T2[[100, 300, 511, 900]]
        rng = np.random.default_rng(11)
        rho = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        echoes = (rho * simulate_fse_ensemble(np.full(4, 1000.0), t2, SEQ)
                  ).reshape(T, 2, 2)
        basis = compute_basis(ensemble, T)
        coeffs = np.tensordot(basis.phi_k.conj().T, echoes, axes=1)
        for stack, method, use_basis in [(echoes, "nlls", None),
                                         (echoes, "dictionary", None),
                                         (coeffs, "subspace", basis),
                                         (coeffs, "nlls", basis),
                                         (coeffs, "dictionary", basis)]:
            maps = fit_map(stack, SEQ, basis=use_basis, method=method,
                           bounds=bounds)
            err = np.abs(maps.rho.ravel() - rho) / np.abs(rho)
            assert np.all(err < 1e-6), (method, use_basis is None, err)

    def test_noiseless_t2_recovered_to_rounding(self, ensemble):
        # 500 noiseless trains in 16-404 ms at the default bounds: the
        # time-domain and full-basis maps both land on the true T2 (a grid
        # plus parabola left up to 9.8e-5)
        t2 = np.exp(np.linspace(np.log(16.0), np.log(404.0), 500))
        echoes = engine(t2).reshape(T, 20, 25)
        basis = compute_basis(ensemble, T)
        coeffs = np.tensordot(basis.phi_k.conj().T, echoes, axes=1)
        for maps in (fit_map(echoes, SEQ, method="nlls"),
                     fit_map(coeffs, SEQ, basis=basis, method="subspace")):
            assert np.max(np.abs(maps.t2.ravel() - t2) / t2) < 1e-9
            assert np.max(np.abs(maps.rho - 1)) < 1e-9

    def test_edge_voxels_return_the_bound(self):
        # a T2 beyond either bound fits that bound exactly, in the map and in
        # the single-voxel fit
        lo, hi = DEFAULT_T2_BOUNDS_MS
        signals = engine([2.0, 5000.0])
        maps = fit_map(signals.reshape(T, 1, 2), SEQ, method="nlls")
        assert maps.t2.ravel().tolist() == [lo, hi]
        fits = [fit_voxel_nlls(s, SEQ) for s in signals.T]
        assert [f.t2 for f in fits] == [lo, hi]
        assert not any(f.converged for f in fits)

    def test_method_validation(self, clean_signal):
        stack = np.zeros((T, 2, 2), complex)
        with pytest.raises(ValueError):
            fit_map(stack, SEQ, method="magic")
        with pytest.raises(ValueError):
            fit_map(stack, SEQ, method="subspace")  # no basis

    @pytest.mark.parametrize("method", ["subspace", "nlls", "dictionary"])
    def test_basis_echo_count_checked(self, method):
        # a 16-echo basis with the 32-echo sequence names both counts
        seq16 = constant_train(16, 180.0, 10.0)
        basis = compute_basis(build_ensemble(
            sample_prior(TissuePrior(seed=3), 64), seq16), 3)
        stack = np.ones((3, 2, 2), complex)
        with pytest.raises(ValueError, match="16.*32"):
            fit_map(stack, SEQ, basis=basis, method=method)
        with pytest.raises(ValueError, match="16.*32"):
            fit_voxel_subspace(stack[:, 0, 0], basis, SEQ)

    @pytest.mark.parametrize("bounds", [(0.0, 2000.0), (-5.0, 100.0),
                                        (5.0, math.inf), (5.0, math.nan),
                                        (math.nan, 100.0), (2000.0, 5.0),
                                        (50.0, 50.0)])
    def test_invalid_t2_bounds_rejected(self, clean_signal, ensemble,
                                        bounds):
        # such bounds gave all-NaN maps flagged as fitted, a misleading
        # dictionary error, or (reversed) maps far from any true T2
        basis = compute_basis(ensemble, 3)
        alpha = basis.phi_k.conj().T @ clean_signal
        stack = np.repeat(alpha[:, None, None], 2, axis=2)
        for method in ("subspace", "nlls", "dictionary"):
            with pytest.raises(ValueError, match="T2 bounds"):
                fit_map(stack, SEQ, basis=basis, method=method,
                        bounds=bounds)
        with pytest.raises(ValueError, match="T2 bounds"):
            fit_map(stack * 0, SEQ, basis=basis, bounds=bounds)
        with pytest.raises(ValueError, match="T2 bounds"):
            fit_voxel_nlls(clean_signal, SEQ, bounds=bounds)
        with pytest.raises(ValueError, match="T2 bounds"):
            fit_voxel_subspace(alpha, basis, SEQ, bounds=bounds)

    def test_dictionary_holds_no_atoms_by_voxels_matrix(self, ensemble):
        # 1024 atoms against 48 x 48 voxels: the scores alone would be
        # 1024 * 2304 * 16 B = 37.7 MB, their modulus 18.9 MB
        rng = np.random.default_rng(8)
        stack = (rng.standard_normal((T, 48, 48))
                 + 1j * rng.standard_normal((T, 48, 48)))
        tracemalloc.start()
        try:
            fit_map(stack, SEQ, method="dictionary")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 48 * 48 * 8

    def test_grid_scores_held_one_block_at_a_time(self, ensemble):
        # 400 grid T2 against 64 x 64 voxels (K = 3): the whole score matrix
        # and its modulus took a 39.8 MB peak; blocked scoring measured
        # 8.1 MB, so 16 MB leaves twofold room
        basis = compute_basis(ensemble, 3)
        rng = np.random.default_rng(9)
        stack = (rng.standard_normal((3, 64, 64))
                 + 1j * rng.standard_normal((3, 64, 64)))
        tracemalloc.start()
        try:
            fit_map(stack, SEQ, basis=basis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
