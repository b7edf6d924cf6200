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


class HaarTransform:
    """Multi-level orthonormal 2-D Haar wavelet over the last two axes.

    Each level splits the current low-pass block into (a+b)/sqrt(2) and
    (a-b)/sqrt(2) pairs along both axes. The transform is unitary, so its
    adjoint is its inverse and the l1 prox stays exact.
    """

    def __init__(self, levels: int = 3):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.levels = levels

    def _check(self, shape):
        div = 2 ** self.levels
        if shape[-2] % div or shape[-1] % div:
            raise ValueError(
                f"dims {shape[-2:]} not divisible by 2^levels = {div}")

    def forward(self, image: np.ndarray) -> np.ndarray:
        self._check(image.shape)
        out = image.astype(complex, copy=True)
        nx, ny = image.shape[-2:]
        for _ in range(self.levels):
            a = out[..., :nx, :ny]
            even, odd = a[..., 0::2, :], a[..., 1::2, :]
            rows = np.empty_like(a)   # row pairs first, then column pairs
            rows[..., :nx // 2, :] = (even + odd) * _INV_R2
            rows[..., nx // 2:, :] = (even - odd) * _INV_R2
            even, odd = rows[..., 0::2], rows[..., 1::2]
            a[..., :ny // 2] = (even + odd) * _INV_R2
            a[..., ny // 2:] = (even - odd) * _INV_R2
            nx //= 2
            ny //= 2
        return out

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        self._check(coeffs.shape)
        out = coeffs.astype(complex, copy=True)
        nx, ny = coeffs.shape[-2:]
        for level in reversed(range(self.levels)):
            bx, by = nx >> level, ny >> level
            a = out[..., :bx, :by]
            lo, hi = a[..., :by // 2], a[..., by // 2:]
            cols = np.empty_like(a)   # column pairs first, then row pairs
            cols[..., 0::2] = (lo + hi) * _INV_R2
            cols[..., 1::2] = (lo - hi) * _INV_R2
            lo, hi = cols[..., :bx // 2, :], cols[..., bx // 2:, :]
            a[..., 0::2, :] = (lo + hi) * _INV_R2
            a[..., 1::2, :] = (lo - hi) * _INV_R2
        return out
