"""Temporal subspace design from simulated signal ensembles.

A tissue prior is drawn as a pair of (L,) arrays (t1, t2), its unit-density
signal evolutions are simulated as the columns of a (T, L) array, and that
ensemble is compressed with a truncated SVD. The resulting orthonormal
temporal basis is the workhorse of the subspace-constrained reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinsim import (_POLY_BLOCK, SequenceParams, _shared_pulse_ensemble,
                      check_tissues)

DEFAULT_T1_RANGE_MS = (500.0, 3000.0)
DEFAULT_T2_RANGE_MS = (20.0, 400.0)


@dataclass(frozen=True)
class TissuePrior:
    """Distribution over relaxation parameters used to train the basis."""

    t1_range_ms: tuple = DEFAULT_T1_RANGE_MS
    t2_range_ms: tuple = DEFAULT_T2_RANGE_MS
    sampling: str = "log-uniform"   # log-uniform | uniform
    seed: int = 0

    def __post_init__(self):
        if self.sampling not in ("log-uniform", "uniform"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        for name in ("t1_range_ms", "t2_range_ms"):
            lo, hi = getattr(self, name)
            if not 0 < lo <= hi < np.inf:
                raise ValueError(f"{name} must be finite with 0 < min <= max")


def sample_prior(prior: TissuePrior, n: int) -> tuple:
    """Draw n tissues from the prior as (t1, t2) arrays in ms, reproducibly
    for a given seed.

    Pairs violating t2 <= t1 are rejected and redrawn.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    rng, log = np.random.default_rng(prior.seed), prior.sampling != "uniform"

    def draw(k):
        t1, t2 = (rng.uniform(*(np.log(r) if log else r), size=k)
                  for r in (prior.t1_range_ms, prior.t2_range_ms))
        return (np.exp(t1), np.exp(t2)) if log else (t1, t2)

    t1, t2 = draw(n)
    bad = t2 > t1
    while np.any(bad):
        t1[bad], t2[bad] = draw(int(bad.sum()))
        bad = t2 > t1
    return t1, t2


def build_ensemble(tissues, seq: SequenceParams) -> np.ndarray:
    """(T, L) ensemble of unit-density evolutions, one column per tissue of
    the (t1, t2) pair that `sample_prior` returns; above 2T + 1 tissues, as
    relaxation polynomials within about 1e-13 of `simulate_fse_ensemble`."""
    return _shared_pulse_ensemble(*check_tissues(*tissues), seq)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal temporal basis with the full singular spectrum."""

    phi_k: np.ndarray
    singular_values: np.ndarray

    @property
    def n_echoes(self) -> int:
        return self.phi_k.shape[0]

    @property
    def k(self) -> int:
        return self.phi_k.shape[1]


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    # Complex U, each column turned so its first significant entry is real > 0
    pivot = u[np.argmax(np.abs(u) > 1e-12, axis=0), range(u.shape[1])] + 0j
    return u * np.conj(pivot / abs(pivot))


def compute_basis(x: np.ndarray, k: int) -> SubspaceBasis:
    """Top-k left singular vectors of the finite (T, L) ensemble X."""
    return _basis_from_blocks([x], x.shape, k)


def _basis_from_blocks(blocks, shape, k: int) -> SubspaceBasis:
    """`compute_basis` of the (T, L) ensemble its column blocks make, read
    in 4096-column views: U is from the small R^H of X = R^H Q^H, R the QR
    of the views' stacked R factors (one view: its own R); other Rs differ
    by a unitary diagonal, which U does not see. A view with no imaginary
    part is factored as its real part: with whole 256-column panels, by one
    batched QR of its panels and one of their Rs (complex panels are slow)."""
    t, l = shape
    if not 1 <= k <= min(t, l):
        raise ValueError(f"k={k} out of range for a {t}x{l} ensemble")
    r = np.vstack([_view_r(b[:, j:j + _POLY_BLOCK])
                   for b in blocks for j in range(0, b.shape[1], _POLY_BLOCK)])
    if not np.all(np.isfinite(r)):
        raise ValueError("ensemble is not finite")
    r = np.linalg.qr(r, mode="r") if l > _POLY_BLOCK else r
    u, s, _ = np.linalg.svd(r.T, full_matrices=False)
    return SubspaceBasis(phi_k=_fix_column_signs(u[:, :k]), singular_values=s)


def _view_r(v: np.ndarray) -> np.ndarray:
    v = v.real if np.iscomplexobj(v) and not v.imag.any() else v
    if np.iscomplexobj(v) or v.shape[1] % 256:
        return np.linalg.qr(v.T, mode="r")
    r = np.linalg.qr(v.reshape(len(v), -1, 256).transpose(1, 2, 0), mode="r")
    return np.linalg.qr(r.reshape(-1, len(v)), mode="r")


def projection_error(x: np.ndarray, basis: SubspaceBasis,
                     metric: str = "frobenius-relative") -> float:
    """Relative residual of projecting the (T, L) ensemble X onto the basis."""
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("ensemble matrix has zero norm")
    resid = x - basis.phi_k @ (basis.phi_k.conj().T @ x)
    if metric == "frobenius-relative":
        return float(np.linalg.norm(resid) / norm)
    if metric == "worst-column-relative":
        colnorm = np.linalg.norm(x, axis=0)
        if np.any(colnorm == 0):
            raise ValueError("ensemble contains a zero column")
        return float(np.max(np.linalg.norm(resid, axis=0) / colnorm))
    raise ValueError(f"unknown metric {metric!r}")


def back_project(basis: SubspaceBasis, coeffs: np.ndarray) -> np.ndarray:
    """Back-projection to the echo-image series: x = Phi alpha."""
    return np.tensordot(basis.phi_k, coeffs, axes=1)
