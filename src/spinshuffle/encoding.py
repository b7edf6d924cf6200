"""Linear measurement model: per-echo Cartesian Fourier sampling.

The encoder composes, per echo i and coil j, a sampling operator, a unitary
centered 2-D FFT, coil sensitivity weighting, and (optionally) a temporal
basis as a right factor so the unknowns are subspace coefficient images. A
precomputed per-frequency block kernel lets the normal operator run entirely
in coefficient space. Beyond the arrays they return, the forward and adjoint
operators hold one echo's (C, nx, ny) images at a time or, given a basis, the
(K, C, nx, ny) spectra and a slab of image rows of all T echoes no larger
than them: never a (T, C, nx, ny) stack. Phi stays one GEMM over T echoes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .subspace import SubspaceBasis


def fft2c(image: np.ndarray) -> np.ndarray:
    """Unitary 2-D FFT with DC at the array center (last two axes)."""
    k = np.fft.fft2(np.fft.ifftshift(image, axes=(-2, -1)), norm="ortho")
    return np.fft.fftshift(k, axes=(-2, -1))


def ifft2c(kspace: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2c`."""
    img = np.fft.ifft2(np.fft.ifftshift(kspace, axes=(-2, -1)), norm="ortho")
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
        self.maps = maps or SensitivityMaps(np.ones((1, *masks.dims)))
        if self.maps.maps.shape[1:] != masks.dims:
            raise ValueError("sensitivity maps do not match mask dims")
        if basis is not None and basis.n_echoes != masks.n_echoes:
            raise ValueError("basis echo count does not match masks")
        self.basis = basis

    @property
    def domain_shape(self) -> tuple:
        lead = self.basis.k if self.basis is not None else self.masks.n_echoes
        return (lead, *self.masks.dims)

    @property
    def n_measurements(self) -> int:
        return self.masks.total_samples * self.maps.n_coils

    @cached_property
    def _uniform_coil(self) -> bool:   # one coil whose map is all ones
        return self.maps.n_coils == 1 and bool(np.all(self.maps.maps == 1))


def _parts(enc: Encoder):
    """(index, sample mask, measurement selector) of each part in turn."""
    t, c, (nx, ny) = enc.masks.n_echoes, enc.maps.n_coils, enc.masks.dims
    masks = np.broadcast_to(enc.masks.masks[:, None], (t, c, nx, ny))  # view
    if enc.basis is None:
        ends = np.cumsum(masks.sum(axis=(1, 2, 3)))
        for i, (lo, hi) in enumerate(zip([0, *ends], ends)):
            yield i, masks[i], slice(lo, hi)
        return
    starts = range(0, nx, step := max(1, enc.basis.k * nx // t))
    counts = np.add.reduceat(masks.sum(axis=3), starts, axis=2)  # (T, C, -)
    slab = np.repeat(np.tile(starts, t * c), counts.ravel())
    for lo in starts:           # slab: the first row of each sample's slab
        part = np.s_[:, :, lo:lo + step]
        yield part, masks[part], np.flatnonzero(slab == lo)


def apply_forward(enc: Encoder, x: np.ndarray) -> np.ndarray:
    """Map domain images to the acquired measurement vector."""
    x = np.asarray(x, complex)
    if x.shape != enc.domain_shape:
        raise ValueError(f"expected domain shape {enc.domain_shape}, got {x.shape}")
    y = np.empty(enc.n_measurements, complex)
    if enc.basis is not None:   # Phi mixes echoes: K C FFTs, not T C
        spectra = fft2c(enc.maps.maps * x[:, None])      # (K, C, nx, ny)
    for part, mask, sel in _parts(enc):
        k = (fft2c(enc.maps.maps * x[part]) if enc.basis is None
             else np.tensordot(enc.basis.phi_k, spectra[part], 1))
        y[sel] = np.compress(mask.ravel(), k)
    return y


def apply_adjoint(enc: Encoder, y: np.ndarray) -> np.ndarray:
    """Exact adjoint of :func:`apply_forward`."""
    y = np.asarray(y, complex).ravel()
    if y.size != enc.n_measurements:
        raise ValueError(f"expected {enc.n_measurements} samples, got {y.size}")
    maps, basis = np.conj(enc.maps.maps), enc.basis
    out = np.empty(enc.domain_shape if basis is None    # or the spectra
                   else (basis.k, enc.maps.n_coils, *enc.masks.dims), complex)
    for part, mask, sel in _parts(enc):
        k = np.zeros(mask.shape, complex)
        np.put(k, np.flatnonzero(mask), y[sel])
        out[part] = (np.sum(maps * ifft2c(k), axis=0) if basis is None
                     else np.tensordot(basis.phi_k.conj().T, k, axes=1))
    return out if basis is None else np.sum(maps * ifft2c(out), axis=1)


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
    phi, (nx, ny) = enc.basis.phi_k, enc.masks.dims       # (T, K)
    masks = enc.masks.masks.reshape(len(phi), -1).T.astype(float)  # (nx ny, T)
    outer = (phi.conj()[:, :, None] * phi[:, None, :]).reshape(len(phi), -1)
    psi = np.empty((nx * ny, outer.shape[1]), complex)    # two real GEMMs
    psi.real, psi.imag = masks @ outer.real, masks @ outer.imag
    return NormalKernel(psi_k=psi.reshape(nx, ny, *phi.shape[1:] * 2))


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
