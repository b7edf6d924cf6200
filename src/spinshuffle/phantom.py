"""Numerical phantoms and synthetic acquisition.

A phantom is a labeled 2-D scene built from ellipse primitives, each region
carrying its own tissue parameters. Its contrast images are one simulated
evolution per region times that region's density image, held as the two
factors; acquisition encodes them with the measurement operator (through its
basis path) and adds complex white Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrayio import FactoredStack
from .encoding import Encoder, SamplingMasks, apply_forward
from .spinsim import SequenceParams, TissueParams, simulate_fse_ensemble
from .subspace import SubspaceBasis


@dataclass(frozen=True)
class EllipseSpec:
    """One ellipse primitive: center/axes in pixels, angle in degrees."""

    center: tuple
    axes: tuple
    angle_deg: float
    region_id: int

    def __post_init__(self):
        if self.region_id < 1:
            raise ValueError("region ids start at 1 (0 is background)")
        if min(self.axes) <= 0:
            raise ValueError("ellipse axes must be positive")


@dataclass(frozen=True)
class Phantom:
    """Region-labeled scene; background (id 0) has zero density."""

    labels: np.ndarray
    regions: dict
    dims: tuple

    @property
    def region_ids(self) -> tuple:
        return tuple(sorted(self.regions))

    def rho_map(self) -> np.ndarray:
        out = np.zeros(self.dims, complex)
        for rid in self.region_ids:
            out[self.labels == rid] = self.regions[rid].rho
        return out

    def t2_map(self) -> np.ndarray:
        out = np.zeros(self.dims)
        for rid in self.region_ids:
            out[self.labels == rid] = self.regions[rid].t2
        return out


def make_phantom(dims, ellipses, regions) -> Phantom:
    """Rasterize ellipse primitives in order; later entries overwrite earlier.

    Every region id referenced by an ellipse must have an entry in regions
    (a mapping id -> TissueParams); centers must lie inside the grid.
    """
    nx, ny = dims
    labels = np.zeros(dims, int)
    yy, xx = np.meshgrid(np.arange(ny), np.arange(nx))
    for e in ellipses:
        cx, cy = e.center
        if not (0 <= cx < nx and 0 <= cy < ny):
            raise ValueError(f"ellipse center {e.center} outside {dims} grid")
        if e.region_id not in regions:
            raise ValueError(f"region {e.region_id} has no tissue parameters")
        a, b = e.axes
        th = np.radians(e.angle_deg)
        u = (xx - cx) * np.cos(th) + (yy - cy) * np.sin(th)
        v = -(xx - cx) * np.sin(th) + (yy - cy) * np.cos(th)
        labels[(u / a) ** 2 + (v / b) ** 2 <= 1.0] = e.region_id
    ids = np.flatnonzero(np.bincount(labels.ravel()))  # np.unique: numpy.ma
    present = {rid: regions[rid] for rid in ids.tolist() if rid != 0}
    return Phantom(labels=labels, regions=present, dims=tuple(dims))


DEFAULT_REGION_TISSUES = {
    1: TissueParams(rho=1.0, t1=1000.0, t2=100.0),
    2: TissueParams(rho=0.9, t1=800.0, t2=60.0),
    3: TissueParams(rho=1.1, t1=1500.0, t2=200.0),
    4: TissueParams(rho=0.8, t1=600.0, t2=40.0),
}


def default_phantom(dims=(64, 64)) -> Phantom:
    """Four-region desk scene bracketing typical relaxation values."""
    nx, ny = dims
    if not (nx > 0 and ny > 0):
        raise ValueError(f"dims must be positive, got {dims}")
    cx, cy = nx / 2 - 0.5, ny / 2 - 0.5
    ellipses = [
        EllipseSpec((cx, cy), (0.42 * nx, 0.42 * ny), 0.0, 1),
        EllipseSpec((0.32 * nx, 0.36 * ny), (0.14 * nx, 0.10 * ny), 20.0, 2),
        EllipseSpec((0.68 * nx, 0.40 * ny), (0.11 * nx, 0.15 * ny), -15.0, 3),
        EllipseSpec((0.50 * nx, 0.68 * ny), (0.17 * nx, 0.09 * ny), 0.0, 4),
    ]
    return make_phantom(dims, ellipses, DEFAULT_REGION_TISSUES)


def contrast_factors(phantom: Phantom, seq: SequenceParams) -> FactoredStack:
    """Noiseless echo-image stack: (T, R) region evolutions, one simulation
    per region, times (R, nx, ny) images of each region's density."""
    ids = phantom.region_ids
    t1, t2, eta, rho = (np.array([getattr(phantom.regions[r], k) for r in ids])
                        for k in ("t1", "t2", "eta", "rho"))
    evolutions = (simulate_fse_ensemble(t1, t2, seq, eta=eta) if ids
                  else np.zeros((seq.n_echoes, 0)))
    region = phantom.labels == np.reshape(ids, (-1, 1, 1))
    return FactoredStack(evolutions, np.where(region, rho[:, None, None], 0j))


def contrast_images(phantom: Phantom, seq: SequenceParams) -> np.ndarray:
    """`contrast_factors` expanded to its (T, nx, ny) stack."""
    return np.asarray(contrast_factors(phantom, seq))


def add_noise(y: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """Complex white Gaussian noise, per-sample standard deviation sigma."""
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")
    if sigma == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2)
    return y + scale * (rng.standard_normal(y.shape)
                        + 1j * rng.standard_normal(y.shape))


def simulate_acquisition(images, masks: SamplingMasks, sigma: float,
                         seed: int) -> np.ndarray:
    """Encode a (T, nx, ny) echo-image stack, or a `FactoredStack` (any left
    factor as the basis), with one uniform coil; add measurement noise."""
    basis = None
    if isinstance(images, FactoredStack):
        basis, images = SubspaceBasis(images.left, None), images.right
    enc = Encoder(masks, basis=basis)
    return add_noise(apply_forward(enc, images), sigma, seed)
