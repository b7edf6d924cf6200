"""Numerical phantoms and synthetic acquisition.

A phantom is a labeled 2-D scene built from ellipse primitives, each region
carrying its own tissue parameters. The contrast images simulate one signal
evolution per region and broadcast it to the member voxels; acquisition
encodes those images with the measurement operator and adds complex white
Gaussian noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import Encoder, SamplingMasks, apply_forward
from .spinsim import SequenceParams, TissueParams, simulate_fse_ensemble


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
        inside = (u / a) ** 2 + (v / b) ** 2 <= 1.0
        labels[inside] = e.region_id
    present = {rid: regions[rid] for rid in np.unique(labels) if rid != 0}
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


def contrast_images(phantom: Phantom, seq: SequenceParams) -> np.ndarray:
    """Noiseless echo-image stack: one simulation per region, broadcast."""
    ids = phantom.region_ids
    images = np.zeros((seq.n_echoes, *phantom.dims), complex)
    if not ids:
        return images
    t1, t2, eta = (np.array([getattr(phantom.regions[r], name) for r in ids])
                   for name in ("t1", "t2", "eta"))
    evolutions = simulate_fse_ensemble(t1, t2, seq, eta=eta)  # (T, R)
    for col, rid in enumerate(ids):
        sel = phantom.labels == rid
        images[:, sel] = (phantom.regions[rid].rho
                          * evolutions[:, col])[:, None]
    return images


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


def simulate_acquisition(images: np.ndarray, masks: SamplingMasks,
                         sigma: float, seed: int) -> np.ndarray:
    """Encode a (T, nx, ny) echo-image stack, such as `contrast_images`
    returns, with one uniform coil and add measurement noise."""
    return add_noise(apply_forward(Encoder(masks), images), sigma, seed)
