"""Linear measurement model: per-echo Cartesian Fourier sampling.

The encoder composes, per echo i and coil j, a sampling operator, a unitary
centered 2-D FFT, coil sensitivity weighting, and (optionally) a temporal
basis as a right factor so the unknowns are subspace coefficient images. A
precomputed per-frequency block kernel lets the normal operator run entirely
in coefficient space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .subspace import SubspaceBasis, back_project


def fft2c(image: np.ndarray) -> np.ndarray:
    """Unitary 2-D FFT with DC at the array center (last two axes)."""
    shifted = np.fft.ifftshift(image, axes=(-2, -1))
    k = np.fft.fft2(shifted, axes=(-2, -1), norm="ortho")
    return np.fft.fftshift(k, axes=(-2, -1))


def ifft2c(kspace: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2c`."""
    shifted = np.fft.ifftshift(kspace, axes=(-2, -1))
    img = np.fft.ifft2(shifted, axes=(-2, -1), norm="ortho")
    return np.fft.fftshift(img, axes=(-2, -1))


@dataclass(frozen=True)
class SamplingMasks:
    """Per-echo binary acquisition masks on the centered k-space grid."""

    masks: np.ndarray  # (T, nx, ny) bool

    def __post_init__(self):
        m = np.asarray(self.masks, bool)
        if m.ndim != 3:
            raise ValueError("masks must be a (T, nx, ny) array")
        object.__setattr__(self, "masks", m)

    @property
    def n_echoes(self) -> int:
        return self.masks.shape[0]

    @property
    def dims(self) -> tuple:
        return self.masks.shape[1:]

    @property
    def total_samples(self) -> int:
        return int(self.masks.sum())


@dataclass(frozen=True)
class SensitivityMaps:
    """Complex coil sensitivity profiles (C, nx, ny)."""

    maps: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.maps, complex)
        if m.ndim != 3:
            raise ValueError("maps must be a (C, nx, ny) array")
        object.__setattr__(self, "maps", m)

    @classmethod
    def uniform(cls, dims) -> "SensitivityMaps":
        return cls(np.ones((1, *dims), complex))

    @property
    def n_coils(self) -> int:
        return self.maps.shape[0]


class Encoder:
    """Composed forward operator for one acquisition configuration.

    Without a basis the domain is the echo-image stack (T, nx, ny); with a
    basis it is the coefficient stack (K, nx, ny). Measurements are laid out
    echo-major, coil-minor, with masked samples in row-major grid order.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, masks: SamplingMasks,
                 maps: SensitivityMaps | None = None,
                 basis: SubspaceBasis | None = None):
        self.masks = masks
        self.maps = maps if maps is not None else SensitivityMaps.uniform(masks.dims)
        if self.maps.maps.shape[1:] != masks.dims:
            raise ValueError("sensitivity maps do not match mask dims")
        if basis is not None and basis.n_echoes != masks.n_echoes:
            raise ValueError("basis echo count does not match masks")
        self.basis = basis

    @property
    def dims(self) -> tuple:
        return self.masks.dims

    @property
    def n_echoes(self) -> int:
        return self.masks.n_echoes

    @property
    def n_coils(self) -> int:
        return self.maps.n_coils

    @property
    def domain_shape(self) -> tuple:
        lead = self.basis.k if self.basis is not None else self.n_echoes
        return (lead, *self.dims)

    @property
    def n_measurements(self) -> int:
        return self.masks.total_samples * self.n_coils

    @cached_property
    def _uniform_coil(self) -> bool:   # one coil whose map is all ones
        return self.n_coils == 1 and bool(np.all(self.maps.maps == 1))


def _coil_masks(enc: Encoder) -> np.ndarray:
    # (T, C, nx, ny) view of the echo masks broadcast over coils; boolean
    # indexing with it reads echo-major, coil-minor, row-major.
    masks = enc.masks.masks[:, None]
    return np.broadcast_to(masks, (enc.n_echoes, enc.n_coils, *enc.dims))


def apply_forward(enc: Encoder, x: np.ndarray) -> np.ndarray:
    """Map domain images to the acquired measurement vector."""
    x = np.asarray(x, complex)
    if x.shape != enc.domain_shape:
        raise ValueError(f"expected domain shape {enc.domain_shape}, got {x.shape}")
    k = fft2c(enc.maps.maps * x[:, None])                # (K|T, C, nx, ny)
    if enc.basis is not None:   # Phi mixes echoes: K C FFTs, not T C
        k = back_project(enc.basis, k)                   # (T, C, nx, ny)
    return k[_coil_masks(enc)]


def apply_adjoint(enc: Encoder, y: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`apply_forward`."""
    y = np.asarray(y, complex)
    if y.size != enc.n_measurements:
        raise ValueError(f"expected {enc.n_measurements} samples, got {y.size}")
    k = np.zeros((enc.n_echoes, enc.n_coils, *enc.dims), complex)
    k[_coil_masks(enc)] = y.ravel()
    if enc.basis is not None:
        k = np.tensordot(enc.basis.phi_k.conj().T, k, axes=1)
    return np.sum(np.conj(enc.maps.maps) * ifft2c(k), axis=1)


@dataclass(frozen=True)
class NormalKernel:
    """Per-frequency K x K Hermitian blocks of the subspace normal operator."""

    psi_k: np.ndarray  # (nx, ny, K, K)

    @cached_property
    def _uncentered(self) -> np.ndarray:
        # (K, K, nx, ny) blocks in the unshifted FFT's frequency order
        psi = np.fft.ifftshift(self.psi_k, axes=(0, 1))
        return np.ascontiguousarray(psi.transpose(2, 3, 0, 1))


def build_normal_kernel(enc: Encoder) -> NormalKernel:
    """Assemble Psi(k) = sum_i mask_i(k) * conj(phi_i) phi_i^T.

    phi_i is the i-th row of the temporal basis, so Psi(k) = Phi^H M(k) Phi
    and applying the blocks in k-space reproduces the composed normal
    operator without ever forming the echo-image series.
    """
    if enc.basis is None:
        raise ValueError("encoder has no temporal basis")
    phi = enc.basis.phi_k                                 # (T, K)
    masks = enc.masks.masks.astype(float)                 # (T, nx, ny)
    outer = phi.conj()[:, :, None] * phi[:, None, :]      # (T, K, K)
    psi = np.tensordot(masks, outer, axes=(0, 0))         # (nx, ny, K, K)
    return NormalKernel(psi_k=psi)


def apply_normal_kernel(enc: Encoder, kernel: NormalKernel,
                        x: np.ndarray) -> np.ndarray:
    """Apply A^H A to coefficient images through the per-frequency blocks.

    A per-frequency product commutes with the circular shifts of `fft2c`, so
    the blocks act on the unshifted spectrum in the FFT's own order.
    """
    x = np.asarray(x, complex)
    if x.shape != enc.domain_shape:
        raise ValueError(f"expected domain shape {enc.domain_shape}, got {x.shape}")
    psi = kernel._uncentered                              # (K, K, nx, ny)

    def mix(images):
        ks = np.fft.fft2(images, norm="ortho")            # (K, nx, ny)
        mixed = psi[:, 0] * ks[0]
        for col in range(1, len(ks)):
            mixed += psi[:, col] * ks[col]
        return np.fft.ifft2(mixed, norm="ortho")
    if enc._uniform_coil:      # a product with 1 + 0j is exact
        return mix(x)
    return sum(np.conj(smap) * mix(smap * x) for smap in enc.maps.maps)


def materialize_forward(enc: Encoder) -> np.ndarray:
    """Dense matrix of the forward operator (small grids only): column j is
    the image of the j-th unit vector of the flattened domain."""
    units = np.eye(np.prod(enc.domain_shape, dtype=int), dtype=complex)
    return np.stack([apply_forward(enc, e.reshape(enc.domain_shape))
                     for e in units], axis=1)
