import numpy as np
import pytest

from spinshuffle.transforms import HaarTransform, IdentityTransform


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
