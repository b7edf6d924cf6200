import numpy as np
import pytest

from spinshuffle.transforms import HaarTransform, IdentityTransform


def _split(a, axis):
    even = np.take(a, np.arange(0, a.shape[axis], 2), axis=axis)
    odd = np.take(a, np.arange(1, a.shape[axis], 2), axis=axis)
    return np.concatenate([(even + odd) / np.sqrt(2),
                           (even - odd) / np.sqrt(2)], axis=axis)


def _merge(a, axis):
    # axis is negative, so stacking at it interleaves even and odd
    lo, hi = np.split(a, 2, axis=axis)
    even = (lo + hi) / np.sqrt(2)
    odd = (lo - hi) / np.sqrt(2)
    return np.stack([even, odd], axis=axis).reshape(a.shape)


def _haar_oracle(x, levels, adjoint):
    # level by level through whole-array take/concatenate/stack passes
    out = x.astype(complex, copy=True)
    nx, ny = x.shape[-2:]
    order = reversed(range(levels)) if adjoint else range(levels)
    for level in order:
        bx, by = nx >> level, ny >> level
        block = out[..., :bx, :by]
        out[..., :bx, :by] = (_merge(_merge(block, -1), -2) if adjoint
                              else _split(_split(block, -2), -1))
    return out


def test_identity_round_trip():
    t = IdentityTransform()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert np.array_equal(t.adjoint(t.forward(x)), x)


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_haar_is_unitary(levels):
    t = HaarTransform(levels=levels)
    rng = np.random.default_rng(levels)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    fa, fb = t.forward(a), t.forward(b)
    assert abs(np.vdot(fa, fb) - np.vdot(a, b)) < 1e-12 * abs(np.vdot(a, b))
    assert np.max(np.abs(t.adjoint(fa) - a)) < 1e-13


def test_haar_sparsifies_piecewise_constant():
    img = np.zeros((16, 16))
    img[4:12, 4:12] = 1.0
    coeffs = HaarTransform(levels=3).forward(img)
    assert np.sum(np.abs(coeffs) > 1e-12) < img.size / 2


def test_haar_rejects_bad_dims():
    t = HaarTransform(levels=3)
    with pytest.raises(ValueError):
        t.forward(np.zeros((12, 12)))
    with pytest.raises(ValueError):
        HaarTransform(levels=0)


@pytest.mark.parametrize("transform", [IdentityTransform(),
                                       HaarTransform(levels=1),
                                       HaarTransform(levels=3)],
                         ids=["identity", "haar1", "haar3"])
def test_stack_equals_per_image_calls(transform):
    rng = np.random.default_rng(7)
    stack = (rng.standard_normal((3, 16, 32))
             + 1j * rng.standard_normal((3, 16, 32)))
    for func in (transform.forward, transform.adjoint):
        per_image = np.stack([func(image) for image in stack])
        assert np.array_equal(func(stack), per_image)


def test_haar_check_reads_trailing_dims():
    t = HaarTransform(levels=2)
    t.forward(np.zeros((3, 8, 12)))       # leading axis need not divide
    for shape in [(3, 8, 10), (3, 6, 8), (2, 2, 4, 6)]:
        with pytest.raises(ValueError):
            t.forward(np.zeros(shape))
        with pytest.raises(ValueError):
            t.adjoint(np.zeros(shape))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("shape", [(3, 64, 64), (2, 16, 32)],
                         ids=["3x64x64", "2x16x32"])
def test_haar_matches_take_concatenate_oracle(levels, shape):
    rng = np.random.default_rng(levels)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    t = HaarTransform(levels=levels)
    assert np.array_equal(t.forward(x), _haar_oracle(x, levels, False))
    assert np.array_equal(t.adjoint(x), _haar_oracle(x, levels, True))
