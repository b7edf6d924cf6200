import tracemalloc

import numpy as np
import pytest

from spinshuffle.qmap import build_dictionary
from spinshuffle.spinsim import constant_train, simulate_fse_ensemble
from spinshuffle.subspace import (TissuePrior, _fix_column_signs,
                                  back_project, build_ensemble, compute_basis,
                                  projection_error, sample_prior)


@pytest.fixture(scope="module")
def default_ensemble():
    tissues = sample_prior(TissuePrior(seed=2024), 256)
    return build_ensemble(tissues, constant_train(32, 180.0, 10.0))


class TestSamplePrior:
    def test_deterministic_under_seed(self):
        prior = TissuePrior(seed=77)
        a = sample_prior(prior, 32)
        b = sample_prior(prior, 32)
        np.testing.assert_array_equal(a, b)

    def test_log_uniform_median(self):
        prior = TissuePrior(seed=5)
        draws = sample_prior(prior, 10_000)
        med = np.median(draws[1])
        assert abs(med - np.sqrt(20 * 400)) / np.sqrt(20 * 400) < 0.05

    def test_rejection_keeps_t2_below_t1(self):
        prior = TissuePrior(t1_range_ms=(50.0, 300.0),
                            t2_range_ms=(40.0, 400.0), seed=3)
        t1, t2 = sample_prior(prior, 500)
        assert np.all(t2 <= t1)

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            TissuePrior(t2_range_ms=(100.0, 50.0))
        with pytest.raises(ValueError):
            TissuePrior(t2_range_ms=(-5.0, 50.0))
        with pytest.raises(ValueError):
            sample_prior(TissuePrior(), 0)


class TestBuildEnsemble:
    def test_single_tissue_rank_one(self):
        seq = constant_train(8, 160.0, 10.0)
        ens = build_ensemble(([1000.0], [90.0]), seq)
        assert ens.shape == (8, 1)
        assert np.linalg.matrix_rank(ens) == 1

    def test_identical_tissues_identical_columns(self):
        seq = constant_train(8, 140.0, 10.0)
        ens = build_ensemble(([1000.0, 1000.0], [90.0, 90.0]), seq)
        assert np.array_equal(ens[:, 0], ens[:, 1])

    def test_cpmg_columns_analytic(self):
        seq = constant_train(8, 180.0, 10.0)
        t2s = [50.0, 100.0, 150.0]
        ens = build_ensemble((np.full(3, 1000.0), t2s), seq)
        t = np.arange(1, 9) * 10.0
        for col, t2 in enumerate(t2s):
            assert np.max(np.abs(ens[:, col] - np.exp(-t / t2))) < 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            build_ensemble(([], []), constant_train(4))

    def test_prior_draws_as_arrays(self):
        # the (t1, t2) pair from the prior feeds the ensemble unchanged (as
        # relaxation polynomials, within 1e-12 of the engine), and both
        # batch builders keep the checks a TissueParams makes of one
        seq = constant_train(8, 150.0, 10.0)
        t1, t2 = sample_prior(TissuePrior(seed=4), 300)
        assert np.max(np.abs(build_ensemble((t1, t2), seq)
                             - simulate_fse_ensemble(t1, t2, seq))) < 1e-12
        for bad in (([100.0, 900.0], [50.0, 950.0]),   # t2 > t1
                    ([100.0, 0.0], [50.0, 60.0]),
                    ([100.0, 900.0], [-1.0, 60.0]),
                    ([100.0, np.nan], [50.0, 60.0])):
            for builder in (build_ensemble, build_dictionary):
                with pytest.raises(ValueError):
                    builder(bad, seq)

    def test_scalar_tissue_is_one_column(self):
        # check_tissues makes a scalar pair a batch of one; a one-atom
        # dictionary from scalars failed with "one T2 per atom"
        seq = constant_train(8, 150.0, 10.0)
        assert np.array_equal(build_ensemble((1000.0, 90.0), seq),
                              build_ensemble(([1000.0], [90.0]), seq))
        one = build_dictionary((1000.0, 90.0), seq)
        assert np.array_equal(one.atoms,
                              build_dictionary(([1000.0], [90.0]), seq).atoms)
        assert one.t2.shape == (1,)


class TestComputeBasis:
    def test_rank_one_single_component(self):
        seq = constant_train(8, 180.0, 10.0)
        ens = build_ensemble(([1000.0], [90.0]), seq)
        basis = compute_basis(ens, 1)
        assert projection_error(ens, basis) < 1e-12

    def test_peak_memory_below_one_and_a_half_ensembles(self):
        # the QR reads X^T, a view; a conjugate copy of X would add 1.0x
        x = build_ensemble(sample_prior(TissuePrior(seed=6), 16384),
                           constant_train(32, 180.0, 10.0))
        tracemalloc.start()
        try:
            compute_basis(x, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes

    def test_full_basis_zero_residual(self, default_ensemble):
        basis = compute_basis(default_ensemble, 32)
        assert projection_error(default_ensemble, basis) < 1e-10

    def test_default_prior_compression(self, default_ensemble):
        assert projection_error(default_ensemble,
                                compute_basis(default_ensemble, 4)) < 0.01
        assert projection_error(default_ensemble,
                                compute_basis(default_ensemble, 3)) < 0.02

    def test_k_out_of_range(self, default_ensemble):
        with pytest.raises(ValueError):
            compute_basis(default_ensemble, 0)
        with pytest.raises(ValueError):
            compute_basis(default_ensemble, 33)

    def test_orthonormal_columns(self, default_ensemble):
        basis = compute_basis(default_ensemble, 6)
        gram = basis.phi_k.conj().T @ basis.phi_k
        assert np.max(np.abs(gram - np.eye(6))) < 1e-12

    def test_deterministic_bit_identical(self, default_ensemble):
        a = compute_basis(default_ensemble, 5)
        b = compute_basis(default_ensemble, 5)
        assert np.array_equal(a.phi_k, b.phi_k)
        assert np.array_equal(a.singular_values, b.singular_values)

    @pytest.mark.parametrize("t, l", [(12, 5), (12, 300), (12, 4097),
                                      (32, 2 * 4096 + 5), (40, 4096 + 24)])
    def test_matches_full_svd(self, t, l):
        # random complex ensembles with distinct singular values spanning
        # 2^11: fewer and more signals than echoes, one block, several blocks,
        # and last blocks of fewer columns than echoes
        rng = np.random.default_rng(t + l)
        n = min(t, l)

        def orthonormal(rows):
            q, _ = np.linalg.qr(rng.standard_normal((rows, n))
                                + 1j * rng.standard_normal((rows, n)))
            return q

        s = 2.0 ** -np.linspace(0, 11, n)
        data = (orthonormal(t) * s) @ orthonormal(l).conj().T
        basis = compute_basis(data, n)
        u, s_ref, _ = np.linalg.svd(data, full_matrices=False)
        assert np.allclose(basis.singular_values, s_ref, rtol=1e-12, atol=0)
        assert np.max(np.abs(basis.phi_k - _fix_column_signs(u))) < 1e-12

    @pytest.mark.parametrize("l", [65536, 4096 + 300, 1000])
    def test_real_ensemble_matches_full_svd(self, l):
        # Tolerances fixed before any timing: singular values within
        # 1e-13 sigma_1 and the basis within 1e-12 of LAPACK's SVD, for real
        # ensembles with a geometric spectrum over 2^11 read as 256-column
        # panels (whole views) and as whole real views (short ones)
        rng = np.random.default_rng(l)
        q_t, _ = np.linalg.qr(rng.standard_normal((32, 32)))
        q_l, _ = np.linalg.qr(rng.standard_normal((l, 32)))
        data = (q_t * 2.0 ** -np.linspace(0, 11, 32)) @ q_l.T
        basis = compute_basis(data, 32)
        u, s, _ = np.linalg.svd(data, full_matrices=False)
        assert np.max(np.abs(basis.singular_values - s)) <= 1e-13 * s[0]
        assert np.max(np.abs(basis.phi_k - _fix_column_signs(u))) < 1e-12

    def test_real_ensemble_is_its_complex_copy(self):
        # a complex view with no imaginary part is factored as its real part
        # (the basis stage's float64 blocks are a complex ensemble's parts)
        tissues = sample_prior(TissuePrior(seed=6), 4096 + 300)
        ensemble = build_ensemble(tissues, constant_train(32, 150.0, 10.0))
        assert ensemble.dtype == complex and not np.any(ensemble.imag)
        real = compute_basis(ensemble.real, 4)
        copy = compute_basis(ensemble, 4)
        assert np.array_equal(real.phi_k, copy.phi_k)
        assert np.array_equal(real.singular_values, copy.singular_values)

    @pytest.mark.parametrize("l", [300, 4096])
    def test_one_block_is_the_one_shot_factor(self, l):
        # up to one block the R is that of X^T itself, so bases (and the
        # golden run built on them) are bit-identical to a one-shot QR
        rng = np.random.default_rng(l)
        x = rng.standard_normal((32, l)) + 1j * rng.standard_normal((32, l))
        u, s, _ = np.linalg.svd(np.linalg.qr(x.T, mode="r").T,
                                full_matrices=False)
        basis = compute_basis(x, 4)
        assert np.array_equal(basis.singular_values, s)
        assert np.array_equal(basis.phi_k, _fix_column_signs(u[:, :4]))

    def test_peak_memory_one_block_not_one_ensemble(self):
        # a 33.5 MB ensemble is factored one 2 MB block at a time; a one-shot
        # QR held a 33.6 MB factor
        rng = np.random.default_rng(3)
        x = rng.standard_normal((32, 65536)) + 1j * rng.standard_normal(
            (32, 65536))
        tracemalloc.start()
        try:
            compute_basis(x, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("col", [5000, 2 * 4096 + 4])
    def test_non_finite_ensemble_rejected(self, bad, col):
        # a non-finite entry past the first block, in a full block and in
        # the short last one, names the cause instead of failing the SVD
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 2 * 4096 + 5)) + 0j
        x[3, col] = bad
        with pytest.raises(ValueError, match="not finite"):
            compute_basis(x, 2)

    def test_sign_convention(self, default_ensemble):
        basis = compute_basis(default_ensemble, 5)
        for j in range(5):
            col = basis.phi_k[:, j]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert first.real > 0 and abs(first.imag) < 1e-12 * abs(first)


class TestProjectionError:
    def test_full_rank_zero(self, default_ensemble):
        basis = compute_basis(default_ensemble, 32)
        assert projection_error(default_ensemble, basis,
                                "worst-column-relative") < 1e-10

    def test_eckart_young_identity(self, default_ensemble):
        for k in (1, 3, 6):
            basis = compute_basis(default_ensemble, k)
            fro = projection_error(default_ensemble, basis)
            s = basis.singular_values
            ident = np.sqrt((s[k:] ** 2).sum() / (s ** 2).sum())
            assert abs(fro - ident) < 1e-12

    def test_worst_column_dominates_frobenius(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            data = rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40))
            ens = data
            basis = compute_basis(ens, 4)
            wc = projection_error(ens, basis, "worst-column-relative")
            fro = projection_error(ens, basis)
            assert wc >= fro - 1e-12

    def test_monotone_in_k(self, default_ensemble):
        errs = [projection_error(default_ensemble,
                                 compute_basis(default_ensemble, k))
                for k in range(1, 9)]
        assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(7))

    def test_eckart_young_beats_random_projectors(self, default_ensemble):
        rng = np.random.default_rng(1)
        x = default_ensemble
        best = projection_error(default_ensemble,
                                compute_basis(default_ensemble, 3))
        for _ in range(10):
            q, _ = np.linalg.qr(rng.standard_normal((32, 3))
                                + 1j * rng.standard_normal((32, 3)))
            resid = np.linalg.norm(x - q @ (q.conj().T @ x)) / np.linalg.norm(x)
            assert best <= resid + 1e-12

    def test_zero_matrix_rejected(self):
        ens = np.zeros((4, 4), complex)
        with pytest.raises(ValueError):
            projection_error(ens, compute_basis(np.eye(4, dtype=complex), 2))

    def test_unknown_metric(self, default_ensemble):
        basis = compute_basis(default_ensemble, 2)
        with pytest.raises(ValueError):
            projection_error(default_ensemble, basis, "spectral")


class TestProjection:
    def test_round_trip_in_subspace(self, default_ensemble):
        basis = compute_basis(default_ensemble, 4)
        rng = np.random.default_rng(0)
        alpha = rng.standard_normal((4, 6, 5)) + 1j * rng.standard_normal((4, 6, 5))
        x = back_project(basis, alpha)
        again = np.tensordot(basis.phi_k.conj().T, x, axes=1)
        assert np.max(np.abs(again - alpha)) < 1e-12
