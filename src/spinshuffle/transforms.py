"""Orthonormal sparsifying transforms for regularization and TPSF scoring.

Both transforms act on the last two axes, so a (..., nx, ny) stack of
images is transformed in one call.
"""

from __future__ import annotations

import numpy as np

# numpy divides complex by real c as a product with 1.0 / c: this gives the
# quotient by sqrt(2), up to the sign of a zero, without the division loop
_INV_R2 = 1.0 / np.sqrt(2)


class IdentityTransform:
    """No-op transform; coefficients are the image itself."""

    def forward(self, image: np.ndarray) -> np.ndarray:
        return image.copy()

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        return coeffs.copy()

    def _forward_levels(self, x, work):
        return x      # no levels: the coefficients are the image

    _adjoint_levels = _forward_levels


class HaarTransform:
    """Multi-level orthonormal 2-D Haar wavelet over the last two axes.

    Each level splits the current low-pass block into (a+b)/sqrt(2) and
    (a-b)/sqrt(2) pairs along both axes. The transform is unitary, so its
    adjoint is its inverse and the l1 prox stays exact. The levels run in
    place on a complex stack, through a work buffer of its shape.
    """

    def __init__(self, levels: int = 3):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.levels = levels

    def forward(self, image: np.ndarray) -> np.ndarray:
        return self._forward_levels(image.astype(complex, copy=True),
                                    np.empty(image.shape, complex))

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        return self._adjoint_levels(coeffs.astype(complex, copy=True),
                                    np.empty(coeffs.shape, complex))

    def _dims(self, shape):
        div = 2 ** self.levels
        if shape[-2] % div or shape[-1] % div:
            raise ValueError(
                f"dims {shape[-2:]} not divisible by 2^levels = {div}")
        return shape[-2:]

    def _forward_levels(self, x, work):
        nx, ny = self._dims(x.shape)
        for level in range(self.levels):
            bx, by = nx >> level, ny >> level
            a, rows = x[..., :bx, :by], work[..., :bx, :by]
            even, odd = a[..., 0::2, :], a[..., 1::2, :]  # row pairs first
            np.add(even, odd, out=rows[..., :bx // 2, :])
            np.subtract(even, odd, out=rows[..., bx // 2:, :])
            rows *= _INV_R2
            even, odd = rows[..., 0::2], rows[..., 1::2]  # then column pairs
            np.add(even, odd, out=a[..., :by // 2])
            np.subtract(even, odd, out=a[..., by // 2:])
            a *= _INV_R2
        return x

    def _adjoint_levels(self, x, work):
        nx, ny = self._dims(x.shape)
        for level in reversed(range(self.levels)):
            bx, by = nx >> level, ny >> level
            a, cols = x[..., :bx, :by], work[..., :bx, :by]
            lo, hi = a[..., :by // 2], a[..., by // 2:]  # column pairs first
            np.add(lo, hi, out=cols[..., 0::2])
            np.subtract(lo, hi, out=cols[..., 1::2])
            cols *= _INV_R2
            lo, hi = cols[..., :bx // 2, :], cols[..., bx // 2:, :]  # then rows
            np.add(lo, hi, out=a[..., 0::2, :])
            np.subtract(lo, hi, out=a[..., 1::2, :])
            a *= _INV_R2
        return x
