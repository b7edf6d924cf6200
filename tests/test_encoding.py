import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinshuffle.encoding import (Encoder, SamplingMasks, SensitivityMaps,
                                  apply_adjoint, apply_forward,
                                  apply_normal_kernel, build_normal_kernel,
                                  fft2c, materialize_forward)
from spinshuffle.recon import _data_term, _normal_bound
from spinshuffle.spinsim import constant_train
from spinshuffle.subspace import (SubspaceBasis, TissuePrior, back_project,
                                  build_ensemble, compute_basis, sample_prior)

DIMS = (8, 8)
T, K = 4, 2


@pytest.fixture(scope="module")
def basis():
    tissues = sample_prior(TissuePrior(seed=1), 32)
    return compute_basis(build_ensemble(tissues, constant_train(T, 180.0, 10.0)), K)


@pytest.fixture(scope="module")
def masks():
    rng = np.random.default_rng(0)
    return SamplingMasks(rng.random((T, *DIMS)) < 0.5)


@pytest.fixture(scope="module")
def coil_maps():
    rng = np.random.default_rng(1)
    return SensitivityMaps(rng.standard_normal((3, *DIMS))
                           + 1j * rng.standard_normal((3, *DIMS)))


def _random_pair(enc, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(enc.domain_shape) + 1j * rng.standard_normal(enc.domain_shape)
    y = (rng.standard_normal(enc.n_measurements)
         + 1j * rng.standard_normal(enc.n_measurements))
    return x, y


class TestForward:
    def test_full_mask_single_coil_is_fft(self):
        enc = Encoder(SamplingMasks(np.ones((1, *DIMS), bool)))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, *DIMS)) + 1j * rng.standard_normal((1, *DIMS))
        assert np.array_equal(apply_forward(enc, x), fft2c(x[0]).ravel())

    def test_zero_maps_to_zero(self, masks, basis):
        enc = Encoder(masks, basis=basis)
        y = apply_forward(enc, np.zeros(enc.domain_shape, complex))
        assert np.all(y == 0)

    def test_linearity(self, masks, basis):
        enc = Encoder(masks, basis=basis)
        x1, _ = _random_pair(enc, 3)
        x2, _ = _random_pair(enc, 4)
        lhs = apply_forward(enc, 2.0 * x1 + (1 - 3j) * x2)
        rhs = 2.0 * apply_forward(enc, x1) + (1 - 3j) * apply_forward(enc, x2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dim_mismatch_rejected(self, masks, basis):
        enc = Encoder(masks, basis=basis)
        with pytest.raises(ValueError):
            apply_forward(enc, np.zeros((T, *DIMS), complex))
        with pytest.raises(ValueError):
            apply_adjoint(enc, np.zeros(3, complex))

    def test_echo_major_coil_minor_layout(self, masks, basis, coil_maps):
        # reference: one FFT per echo and coil, samples in row-major order.
        # The operator applies the basis in k-space, so the two round apart
        # (a misplaced sample would differ by O(1))
        enc = Encoder(masks, coil_maps, basis)
        x, _ = _random_pair(enc, 8)
        images = back_project(basis, x)
        ref = np.concatenate([fft2c(s * images[i])[masks.masks[i]]
                              for i in range(T) for s in coil_maps.maps])
        assert np.max(np.abs(apply_forward(enc, x) - ref)) < 1e-12

    def test_dense_equivalence(self, masks, basis, coil_maps):
        for b, m in [(None, None), (basis, None), (basis, coil_maps),
                     (None, coil_maps)]:
            enc = Encoder(masks, m, b)
            a = materialize_forward(enc)
            x, y = _random_pair(enc, 5)
            assert np.max(np.abs(a @ x.ravel() - apply_forward(enc, x))) < 1e-12
            adj = (a.conj().T @ y).reshape(enc.domain_shape)
            assert np.max(np.abs(adj - apply_adjoint(enc, y))) < 1e-12


class TestAdjoint:
    def test_full_sampling_inverse(self):
        enc = Encoder(SamplingMasks(np.ones((1, *DIMS), bool)))
        x, _ = _random_pair(enc, 6)
        back = apply_adjoint(enc, apply_forward(enc, x))
        assert np.max(np.abs(back - x)) < 1e-12

    def test_dot_test_all_configurations(self, masks, basis, coil_maps):
        two_coils = SensitivityMaps(coil_maps.maps[:2])
        for b in (None, basis):
            for m in (None, two_coils, coil_maps):
                enc = Encoder(masks, m, b)
                x, y = _random_pair(enc, 7)
                lhs = np.vdot(y, apply_forward(enc, x))
                rhs = np.vdot(apply_adjoint(enc, y), x)
                assert abs(lhs - rhs) / abs(lhs) < 1e-10


class TestNormalKernel:
    def test_requires_basis(self, masks):
        with pytest.raises(ValueError):
            build_normal_kernel(Encoder(masks))

    def test_full_masks_give_identity_blocks(self, basis):
        enc = Encoder(SamplingMasks(np.ones((T, *DIMS), bool)), basis=basis)
        kernel = build_normal_kernel(enc)
        assert np.max(np.abs(kernel.psi_k - np.eye(K))) < 1e-12

    def test_single_echo_single_location(self, basis):
        m = np.zeros((T, *DIMS), bool)
        m[2, 3, 5] = True
        kernel = build_normal_kernel(Encoder(SamplingMasks(m), basis=basis))
        phi_row = basis.phi_k[2]
        expected = np.outer(phi_row.conj(), phi_row)
        assert np.max(np.abs(kernel.psi_k[3, 5] - expected)) < 1e-14
        off = kernel.psi_k.copy()
        off[3, 5] = 0
        assert np.max(np.abs(off)) == 0

    def test_blocks_hermitian_psd(self, masks, basis):
        kernel = build_normal_kernel(Encoder(masks, basis=basis))
        psi = kernel.psi_k
        assert np.max(np.abs(psi - psi.conj().transpose(0, 1, 3, 2))) < 1e-12
        eigs = np.linalg.eigvalsh(psi.reshape(-1, K, K))
        assert eigs.min() > -1e-12

    def test_matches_composed_normal_operator(self, masks, basis, coil_maps):
        for m in (None, coil_maps):
            enc = Encoder(masks, m, basis)
            kernel = build_normal_kernel(enc)
            x, _ = _random_pair(enc, 8)
            via_kernel = apply_normal_kernel(enc, kernel, x)
            composed = apply_adjoint(enc, apply_forward(enc, x))
            rel = (np.max(np.abs(via_kernel - composed))
                   / np.max(np.abs(composed)))
            assert rel < 1e-10

    def test_odd_grid_with_coil_maps_matches_composed(self, basis):
        # the shift-free kernel relies on products commuting with circular
        # shifts, which holds for odd sizes as well
        rng = np.random.default_rng(3)
        dims = (15, 17)
        maps = SensitivityMaps(rng.standard_normal((2, *dims))
                               + 1j * rng.standard_normal((2, *dims)))
        enc = Encoder(SamplingMasks(rng.random((T, *dims)) < 0.4), maps,
                      basis)
        x, _ = _random_pair(enc, 4)
        via_kernel = apply_normal_kernel(enc, build_normal_kernel(enc), x)
        composed = apply_adjoint(enc, apply_forward(enc, x))
        assert (np.max(np.abs(via_kernel - composed))
                < 1e-10 * np.max(np.abs(composed)))

    def test_application_makes_no_fft_shifts(self, monkeypatch, masks, basis,
                                             coil_maps):
        enc = Encoder(masks, coil_maps, basis)
        kernel = build_normal_kernel(enc)
        x, _ = _random_pair(enc, 5)
        apply_normal_kernel(enc, kernel, x)   # builds the kernel's own layout
        calls = []

        def counted(name):
            original = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("fftshift", "ifftshift"):
            monkeypatch.setattr(np.fft, name, counted(name))
        apply_normal_kernel(enc, kernel, x)
        assert calls == []
        fft2c(x)   # the counters do see the centered FFT's shifts
        assert sorted(calls) == ["fftshift", "ifftshift"]

    def test_identity_normal_operator_full_sampling(self):
        enc = Encoder(SamplingMasks(np.ones((1, *DIMS), bool)))
        x, _ = _random_pair(enc, 9)
        assert np.max(np.abs(apply_adjoint(enc, apply_forward(enc, x)) - x)) < 1e-12


class TestValidation:
    def test_mask_map_dims_must_agree(self, masks):
        bad = SensitivityMaps(np.ones((1, 4, 4), complex))
        with pytest.raises(ValueError):
            Encoder(masks, bad)

    def test_basis_echo_count_must_agree(self, masks):
        tissues = sample_prior(TissuePrior(seed=2), 16)
        other = compute_basis(
            build_ensemble(tissues, constant_train(6, 180.0, 10.0)), 2)
        with pytest.raises(ValueError):
            Encoder(masks, basis=other)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_operator_identities_and_step_bound(data):
    nx, ny = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    t = data.draw(st.integers(1, 5))
    n_coils = data.draw(st.integers(0, 3))
    k = data.draw(st.none() | st.integers(1, t))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    masks = SamplingMasks(rng.random((t, nx, ny))
                          < data.draw(st.floats(0.0, 1.0)))
    maps = (SensitivityMaps(_complex_normal(rng, (n_coils, nx, ny)))
            if n_coils else None)
    basis = (SubspaceBasis(np.linalg.qr(_complex_normal(rng, (t, k)))[0],
                           np.ones(k)) if k else None)
    enc = Encoder(masks, maps, basis)
    x = _complex_normal(rng, enc.domain_shape)
    y = _complex_normal(rng, enc.n_measurements)

    # adjoint identity <Ax, y> = <x, A^H y>
    scale = np.linalg.norm(x) * np.linalg.norm(y) * (1 + n_coils)
    assert (abs(np.vdot(y, apply_forward(enc, x))
                - np.vdot(apply_adjoint(enc, y), x)) <= 1e-11 * scale)

    # the shared data term: kernel (or composed) normal operator, A^H y, 0.5||y||^2
    normal, aty, half_yy, kernel = _data_term(enc, y)
    ref = apply_adjoint(enc, apply_forward(enc, x))
    assert np.max(np.abs(normal(x) - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))
    assert np.array_equal(aty, apply_adjoint(enc, y))
    assert half_yy == pytest.approx(0.5 * np.linalg.norm(y) ** 2, rel=1e-12)

    # the step bound is never below ||A^H A||_2, and exact without coil maps
    lip = _normal_bound(enc, kernel)
    dense = materialize_forward(enc)
    gram_norm = np.linalg.norm(dense, 2) ** 2 if dense.size else 0.0
    assert lip >= gram_norm * (1 - 1e-12)
    if maps is None:
        assert abs(lip - gram_norm) <= 1e-10
