"""Undersampling mask generation and scoring.

Masks are Bernoulli draws from a variable-density profile whose global scale
is calibrated by bisection so the expected sample count hits the target
acceleration. Candidate masks are scored by the peak interference of the
transform point spread function, and a sparsity-informed lower bound on
estimator covariance is available as a design score. Both scores push the
unit coefficient images of all probed indices through the transform and the
masked Fourier encoding as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoding import SamplingMasks, fft2c, ifft2c
from .transforms import IdentityTransform
from .utils import NonIdentifiableError


@dataclass(frozen=True)
class DensityProfile:
    """Radially decaying sampling density with a fully sampled center."""

    shape: str = "polynomial"        # polynomial | gaussian
    fully_sampled_radius: float = 0.04
    decay_power: float = 3.0
    sigma: float = 0.3
    accel: float = 4.0

    def __post_init__(self):
        if self.shape not in ("polynomial", "gaussian"):
            raise ValueError(f"unknown profile shape {self.shape!r}")
        if self.accel < 1:
            raise ValueError("acceleration must be >= 1")

    def density(self, dims) -> np.ndarray:
        """Unnormalized density on the centered grid, 1 on the center disc."""
        nx, ny = dims
        gx = (np.arange(nx) - nx // 2) / (nx / 2)
        gy = (np.arange(ny) - ny // 2) / (ny / 2)
        r = np.hypot(gx[:, None], gy[None, :])
        if self.shape == "polynomial":
            d = np.clip(1.0 - r, 0.0, None) ** self.decay_power
        else:
            d = np.exp(-0.5 * (r / self.sigma) ** 2)
        d[r <= self.fully_sampled_radius] = 1.0
        return d


def _center_disc(dims, radius_fraction) -> np.ndarray:
    nx, ny = dims
    gx = (np.arange(nx) - nx // 2) / (nx / 2)
    gy = (np.arange(ny) - ny // 2) / (ny / 2)
    return np.hypot(gx[:, None], gy[None, :]) <= radius_fraction


def sampling_probability(profile: DensityProfile, dims) -> np.ndarray:
    """Per-location Bernoulli probability calibrated to N / accel samples."""
    n = dims[0] * dims[1]
    target = n / profile.accel
    density = profile.density(dims)
    disc = _center_disc(dims, profile.fully_sampled_radius)
    support = density > 0
    if target > support.sum():
        raise ValueError(
            f"target of {target:.0f} samples exceeds the {int(support.sum())} "
            "locations with nonzero density")

    def expected(scale):
        p = np.minimum(1.0, scale * density)
        p[disc] = 1.0
        return p.sum()

    lo, hi = 0.0, 1.0
    while expected(hi) < target:
        hi *= 2
        if hi > 1e12:
            raise ValueError("density calibration failed to bracket the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if expected(mid) < target:
            lo = mid
        else:
            hi = mid
    prob = np.minimum(1.0, hi * density)
    prob[disc] = 1.0
    return prob


def draw_mask(profile: DensityProfile, dims, seed: int) -> np.ndarray:
    """Independent Bernoulli mask draw; the center disc is always acquired."""
    if min(dims) < 4:
        raise ValueError("grid must be at least 4x4")
    n = dims[0] * dims[1]
    if profile.accel == 1.0 or n / profile.accel >= n:
        return np.ones(dims, bool)
    prob = sampling_probability(profile, dims)
    rng = np.random.default_rng(seed)
    return rng.random(dims) < prob


@dataclass(frozen=True)
class SparsityModel:
    """Assumed sparse support in an orthonormal transform domain."""

    transform: object = field(default_factory=IdentityTransform)
    support: tuple = ()

    def __post_init__(self):
        support = tuple(int(i) for i in self.support)
        if len(set(support)) != len(support):
            raise ValueError("support indices must be unique")
        object.__setattr__(self, "support", support)


def _unit_responses(mask, transform, indices) -> np.ndarray:
    """Rows T F^H M F T^H e_j, flattened, for every coefficient index j."""
    p = len(indices)
    units = np.zeros((p, mask.size), complex)
    units[np.arange(p), indices] = 1.0
    img = transform.adjoint(units.reshape(p, *mask.shape))
    return transform.forward(ifft2c(mask * fft2c(img))).reshape(p, -1)


def tpsf_peak(mask: np.ndarray, model: SparsityModel, probe_count: int = 64,
              seed: int = 0) -> float:
    """Worst off-diagonal leakage of the transform point spread function.

    For each probed coefficient j the column T F^H M F T^H e_j is formed,
    normalized by its j-th entry, and the largest off-j magnitude recorded;
    the max over probes is returned.
    """
    mask = np.asarray(mask, bool)
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    if not mask.any():
        raise ValueError("mask acquires no samples")
    n = mask.size
    rng = np.random.default_rng(seed)
    probes = rng.choice(n, size=min(probe_count, n), replace=False)
    rows = np.arange(probes.size)
    cols = _unit_responses(mask, model.transform, probes)
    ref = cols[rows, probes]
    if np.any(ref == 0):
        raise ValueError("probe coefficient is unobservable under this mask")
    cols = np.abs(cols / ref[:, None])
    cols[rows, probes] = 0.0
    return float(cols.max())


@dataclass(frozen=True)
class MaskSearchResult:
    mask: np.ndarray
    peak: float
    trial_index: int
    trial_peaks: tuple


def monte_carlo_mask(profile: DensityProfile, dims, model: SparsityModel,
                     n_trials: int, seed: int,
                     probe_count: int = 64) -> MaskSearchResult:
    """Draw n_trials masks and keep the one with the lowest peak interference.

    Trial t uses seed + t for its mask draw while all trials share the same
    probe set, so results are reproducible and prefix-stable in n_trials.
    Ties go to the lowest trial index. Trials run one after another; each
    scores all its probes as one stack.
    """
    if n_trials < 1:
        raise ValueError("need at least one trial")
    masks = [draw_mask(profile, dims, seed + t) for t in range(n_trials)]
    peaks = tuple(tpsf_peak(m, model, probe_count=probe_count, seed=seed)
                  for m in masks)
    best = int(np.argmin(peaks))
    return MaskSearchResult(mask=masks[best], peak=peaks[best],
                            trial_index=best, trial_peaks=peaks)


def assign_echoes(mask: np.ndarray, n_echoes: int, ordering: str = "randomized",
                  seed: int = 0) -> SamplingMasks:
    """Partition one acquired mask into disjoint per-echo masks.

    center-out sorts locations by distance from the k-space center and splits
    contiguously (echo 1 gets the lowest frequencies); randomized shuffles
    uniformly. The union of the outputs always equals the input mask.
    """
    mask = np.asarray(mask, bool)
    if n_echoes < 1:
        raise ValueError("need at least one echo")
    locs = np.flatnonzero(mask.ravel())
    if locs.size < n_echoes:
        raise ValueError(f"{locs.size} samples cannot cover {n_echoes} echoes")
    nx, ny = mask.shape
    if ordering == "center-out":
        ix, iy = np.unravel_index(locs, mask.shape)
        r = np.hypot(ix - nx // 2, iy - ny // 2)
        locs = locs[np.argsort(r, kind="stable")]
    elif ordering == "randomized":
        rng = np.random.default_rng(seed)
        locs = rng.permutation(locs)
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    out = np.zeros((n_echoes, nx, ny), bool)
    for i, chunk in enumerate(np.array_split(locs, n_echoes)):
        flat = out[i].ravel()
        flat[chunk] = True
    return SamplingMasks(out)


def sparsity_crb(mask: np.ndarray, model: SparsityModel) -> float:
    """Trace of the sparsity-informed covariance lower bound.

    Builds the S x S system G = U^H T A^H A T^H U for the single-echo,
    single-coil encoder A = M F and returns trace(G^{-1}). Raises
    NonIdentifiableError when the support is unobservable under the mask.
    """
    mask = np.asarray(mask, bool)
    support = np.asarray(model.support, int)
    s = support.size
    if s == 0:
        raise ValueError("empty support")
    outside = support[(support < 0) | (support >= mask.size)]
    if outside.size:
        raise ValueError(f"support index {int(outside[0])} outside "
                         f"[0, {mask.size})")
    m = int(mask.sum())
    if s > m:
        raise ValueError(f"support size {s} exceeds {m} acquired samples")
    cols = _unit_responses(mask, model.transform, support)
    g = cols[:, support].T
    g = 0.5 * (g + g.conj().T)
    eigvals = np.linalg.eigvalsh(g)
    if eigvals[0] < 1e-12 * max(eigvals[-1], 1e-300):
        raise NonIdentifiableError(
            "support is not identifiable under this mask")
    return float(np.trace(np.linalg.inv(g)).real)
