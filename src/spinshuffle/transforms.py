"""Orthonormal sparsifying transforms for regularization and TPSF scoring.

Both transforms act on the last two axes, so a (..., nx, ny) stack of
images is transformed in one call.
"""

from __future__ import annotations

import numpy as np


class IdentityTransform:
    """No-op transform; coefficients are the image itself."""

    name = "identity"

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

    name = "haar"

    def __init__(self, levels: int = 3):
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.levels = levels

    def _check(self, shape):
        div = 2 ** self.levels
        if shape[-2] % div or shape[-1] % div:
            raise ValueError(
                f"dims {shape[-2:]} not divisible by 2^levels = {div}")

    @staticmethod
    def _split(a, axis):
        even = np.take(a, np.arange(0, a.shape[axis], 2), axis=axis)
        odd = np.take(a, np.arange(1, a.shape[axis], 2), axis=axis)
        lo = (even + odd) / np.sqrt(2)
        hi = (even - odd) / np.sqrt(2)
        return np.concatenate([lo, hi], axis=axis)

    @staticmethod
    def _merge(a, axis):
        # axis is negative, so stacking at it interleaves even and odd
        lo, hi = np.split(a, 2, axis=axis)
        even = (lo + hi) / np.sqrt(2)
        odd = (lo - hi) / np.sqrt(2)
        return np.stack([even, odd], axis=axis).reshape(a.shape)

    def forward(self, image: np.ndarray) -> np.ndarray:
        self._check(image.shape)
        out = image.astype(complex, copy=True)
        nx, ny = image.shape[-2:]
        for _ in range(self.levels):
            block = self._split(self._split(out[..., :nx, :ny], -2), -1)
            out[..., :nx, :ny] = block
            nx //= 2
            ny //= 2
        return out

    def adjoint(self, coeffs: np.ndarray) -> np.ndarray:
        self._check(coeffs.shape)
        out = coeffs.astype(complex, copy=True)
        nx, ny = coeffs.shape[-2:]
        for level in reversed(range(self.levels)):
            bx, by = nx >> level, ny >> level
            out[..., :bx, :by] = self._merge(
                self._merge(out[..., :bx, :by], -1), -2)
        return out
