"""Quantitative parameter estimation from images or subspace coefficients.

All fits share a variable-projection structure: the complex density enters
the model linearly, so for any candidate T2 the optimal density has a closed
form and the search reduces to one dimension. Every fit starts from the same
grid stage: each voxel is scored against a log-spaced model grid (dense for
whole maps, where it keeps the per-voxel cost at a few matrix products;
coarse for single voxels) and refined with a local parabola. Single-voxel
fits then polish that start with variable-projection Gauss-Newton steps,
whose Jacobian is the model derivative projected off the model, so they
converge to the exact minimizer in a few steps. Dictionary matching is the
grid-search counterpart and is equivalent to matched filtering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinsim import SequenceParams, simulate_fse_ensemble
from .subspace import SubspaceBasis

DEFAULT_T2_BOUNDS_MS = (5.0, 2000.0)
DEFAULT_T1_MS = 1000.0


@dataclass(frozen=True)
class FitResult:
    rho: complex
    t2: float
    residual: float
    converged: bool
    eta: float | None = None


@dataclass(frozen=True)
class FitMaps:
    rho: np.ndarray
    t2: np.ndarray
    residual: np.ndarray
    failed: np.ndarray


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm simulated evolutions with their generating tissues."""

    atoms: np.ndarray                 # (T, D), unit 2-norm columns
    params: tuple                     # D TissueParams with rho = 1
    compressed: np.ndarray | None = None  # (K, D)

    def __post_init__(self):
        if self.atoms.shape[1] < 1:
            raise ValueError("dictionary needs at least one atom")
        norms = np.linalg.norm(self.atoms, axis=0)
        if np.max(np.abs(norms - 1)) > 1e-12:
            raise ValueError("atoms must have unit 2-norm")


def build_dictionary(tissues, seq: SequenceParams,
                     basis: SubspaceBasis | None = None) -> Dictionary:
    """Simulate, normalize, and (optionally) compress a dictionary."""
    tissues = list(tissues)
    t1 = np.array([t.t1 for t in tissues])
    t2 = np.array([t.t2 for t in tissues])
    eta = np.array([t.eta for t in tissues])
    atoms = simulate_fse_ensemble(t1, t2, seq, eta=eta)
    norms = np.linalg.norm(atoms, axis=0)
    if np.any(norms == 0):
        raise ValueError("dictionary contains an all-zero evolution")
    atoms = atoms / norms
    compressed = None
    if basis is not None:
        compressed = basis.phi_k.conj().T @ atoms
    return Dictionary(atoms=atoms, params=tuple(tissues), compressed=compressed)


def _match(cols, dictionary: Dictionary):
    """Matched filter of (T|K, n) signal columns: rho, T2 and residual each.

    Columns match the compressed atoms when their length is K, otherwise
    the atoms; ties go to the lowest index.
    """
    atoms = (dictionary.compressed if dictionary.compressed is not None
             and cols.shape[0] == dictionary.compressed.shape[0]
             else dictionary.atoms)
    if cols.shape[0] != atoms.shape[0]:
        raise ValueError("signal length matches neither atoms nor compressed atoms")
    scores = atoms.conj().T @ cols
    best = np.argmax(np.abs(scores), axis=0)
    rho = scores[best, np.arange(cols.shape[1])]
    t2 = np.array([dictionary.params[b].t2 for b in best])
    resid = 0.5 * (np.sum(np.abs(cols) ** 2, axis=0) - np.abs(rho) ** 2)
    return rho, t2, resid


def dictionary_match(signal: np.ndarray, dictionary: Dictionary) -> FitResult:
    """Matched-filter grid search: argmax of |<atom, signal>|.

    Works on time-domain signals against the atoms, or on coefficient
    vectors against the compressed atoms; ties go to the lowest index.
    """
    signal = np.asarray(signal, complex).ravel()
    rho, t2, resid = _match(signal[:, None], dictionary)
    return FitResult(rho=complex(rho[0]), t2=float(t2[0]),
                     residual=float(resid[0]), converged=True)


def _model_batch(t2_values, seq, t1_ms, eta, basis=None):
    """Unit-density evolutions for a batch of T2 values, compressed if asked."""
    t2 = np.asarray(t2_values, float)
    sig = simulate_fse_ensemble(np.full(t2.shape, t1_ms), t2, seq, eta=eta)
    if basis is not None:
        sig = basis.phi_k.conj().T @ sig
    return sig  # (T or K, B)


def _varpro_cost(models, signals):
    """Reduced cost and optimal density for paired model/signal columns."""
    num = np.sum(np.conj(models) * signals, axis=0)
    den = np.sum(np.abs(models) ** 2, axis=0)
    den = np.where(den > 0, den, 1.0)
    rho = num / den
    cost = 0.5 * (np.sum(np.abs(signals) ** 2, axis=0) - np.abs(num) ** 2 / den)
    return cost, rho


def _polish(signal, seq, t2, bounds, t1_ms, eta, basis, max_steps=20):
    """Variable-projection Gauss-Newton steps on the projected residual.

    With the density eliminated, the residual r = s - rho m has the Jacobian
    -rho (dm - m (m^H dm) / (m^H m)): the model derivative projected off the
    model. Far from the optimum a step must decrease the cost (halving, up
    to 20 times); near it the step is a contraction toward the stationary
    point and is accepted directly, which localizes the minimizer far better
    than comparing nearly equal cost values. The flag is True only when
    the polish stops through those Newton-regime tests, not at max_steps,
    after a failed backtrack or on a zero Jacobian.
    """
    sig = signal[:, None]

    def evaluate(t2_val):
        # one [T2, T2+h, T2-h] batch: cost, density, model and derivative
        h = 1e-4 * t2_val
        m0, mp, mm = _model_batch([t2_val, t2_val + h, t2_val - h], seq,
                                  t1_ms, eta, basis).T
        c, r = _varpro_cost(m0[:, None], sig)
        return float(c[0]), complex(r[0]), m0, (mp - mm) / (2 * h)

    cost, rho, m0, dm = evaluate(t2)
    prev_delta = math.inf
    converged = False
    for _ in range(max_steps):
        r = signal - rho * m0
        j = -rho * (dm - m0 * (np.vdot(m0, dm) / np.vdot(m0, m0)))
        jj = float(np.vdot(j, j).real)
        if jj == 0:
            break
        delta = -float(np.vdot(j, r).real) / jj
        if abs(delta) <= 1e-2 * t2:
            # Newton regime: accept unless the iteration stopped contracting.
            if abs(delta) >= prev_delta:
                converged = True
                break
            t2 = float(np.clip(t2 + delta, *bounds))
            cost, rho, m0, dm = evaluate(t2)
            prev_delta = abs(delta)
            if abs(delta) < 1e-13 * t2:
                converged = True
                break
        else:
            step = delta
            accepted = False
            for _ in range(20):
                t2_try = float(np.clip(t2 + step, *bounds))
                trial = evaluate(t2_try)
                if trial[0] < cost:
                    t2, (cost, rho, m0, dm) = t2_try, trial
                    accepted = True
                    break
                step *= 0.5
            prev_delta = math.inf
            if not accepted:
                break
    return t2, cost, rho, converged


def _fit_voxel(signal, seq, bounds, t1_ms, eta, basis) -> FitResult:
    """Coarse 48-point grid start, then the polish; zero signal fails."""
    if np.all(signal == 0):
        return FitResult(rho=0j, t2=math.nan, residual=0.0, converged=False)
    t2 = _grid_t2(signal[:, None], seq, bounds, t1_ms, eta, basis, 48)
    t2, cost, rho, converged = _polish(signal, seq, float(t2[0]), bounds,
                                       t1_ms, eta, basis)
    return FitResult(rho=rho, t2=t2, residual=cost, converged=converged)


def fit_voxel_nlls(signal: np.ndarray, seq: SequenceParams,
                   bounds=DEFAULT_T2_BOUNDS_MS, t1_ms: float = DEFAULT_T1_MS,
                   eta: float = 1.0) -> FitResult:
    """Voxel-wise nonlinear least squares over (complex density, T2)."""
    signal = np.asarray(signal, complex).ravel()
    if signal.size != seq.n_echoes:
        raise ValueError("signal length does not match the echo train")
    return _fit_voxel(signal, seq, bounds, t1_ms, eta, None)


def fit_voxel_subspace(alpha: np.ndarray, basis: SubspaceBasis,
                       seq: SequenceParams, bounds=DEFAULT_T2_BOUNDS_MS,
                       t1_ms: float = DEFAULT_T1_MS,
                       eta: float = 1.0) -> FitResult:
    """Fit directly in coefficient space: min ||alpha - Phi^H rho f(T2)||."""
    alpha = np.asarray(alpha, complex).ravel()
    if alpha.size != basis.k:
        raise ValueError("coefficient length does not match the basis")
    return _fit_voxel(alpha, seq, bounds, t1_ms, eta, basis)


def fit_map(stack: np.ndarray, seq: SequenceParams,
            basis: SubspaceBasis | None = None, method: str = "subspace",
            bounds=DEFAULT_T2_BOUNDS_MS, t1_ms: float = DEFAULT_T1_MS,
            eta: float = 1.0, dictionary: Dictionary | None = None,
            grid_size: int = 400) -> FitMaps:
    """Independent per-voxel fits over an image or coefficient stack.

    stack is (T, nx, ny) for method 'nlls', (K, nx, ny) for 'subspace', and
    either for 'dictionary' (matched against atoms or compressed atoms).
    Voxels with no signal are flagged in the failed mask. Results do not
    depend on voxel ordering.
    """
    stack = np.asarray(stack, complex)
    lead, nx, ny = stack.shape
    if method == "dictionary":
        if dictionary is None:
            raise ValueError("dictionary method needs a dictionary")
    elif method == "subspace":
        if basis is None:
            raise ValueError("subspace method needs a basis")
        if lead != basis.k:
            raise ValueError("stack leading axis does not match basis size")
    elif method == "nlls":
        if lead != seq.n_echoes:
            raise ValueError("stack leading axis does not match echo count")
    else:
        raise ValueError(f"unknown fit method {method!r}")
    signals = stack.reshape(lead, -1)
    power = np.sum(np.abs(signals) ** 2, axis=0)
    alive = power > 1e-24 * max(power.max(), 1e-300)

    rho = np.zeros(nx * ny, complex)
    t2 = np.full(nx * ny, np.nan)
    residual = np.zeros(nx * ny)
    if np.any(alive):
        cols = signals[:, alive]
        if method == "dictionary":
            rho[alive], t2[alive], residual[alive] = _match(cols, dictionary)
        else:
            use_basis = basis if method == "subspace" else None
            t2_fit = _grid_t2(cols, seq, bounds, t1_ms, eta, use_basis,
                              grid_size)
            residual[alive], rho[alive] = _varpro_cost(
                _model_batch(t2_fit, seq, t1_ms, eta, use_basis), cols)
            t2[alive] = t2_fit
    return FitMaps(rho=rho.reshape(nx, ny), t2=t2.reshape(nx, ny),
                   residual=residual.reshape(nx, ny),
                   failed=(~alive).reshape(nx, ny))


def _grid_t2(signals, seq, bounds, t1_ms, eta, basis, grid_size):
    """Grid-scored variable-projection T2 for many signal columns at once.

    The model curve is smooth on a log-T2 grid, so a dense scan plus a
    three-point parabolic refinement of the scored cost locates each voxel's
    minimizer to a small fraction of the grid step.
    """
    lo, hi = bounds
    logs = np.linspace(math.log(lo), math.log(hi), grid_size)
    models = _model_batch(np.exp(logs), seq, t1_ms, eta, basis)  # (T|K, G)
    num = np.abs(models.conj().T @ signals) ** 2                 # (G, n)
    den = np.sum(np.abs(models) ** 2, axis=0)[:, None]
    score = num / den                                            # maximize
    best = np.argmax(score, axis=0)
    inner = np.clip(best, 1, grid_size - 2)
    step = logs[1] - logs[0]
    c0 = score[inner - 1, np.arange(signals.shape[1])]
    c1 = score[inner, np.arange(signals.shape[1])]
    c2 = score[inner + 1, np.arange(signals.shape[1])]
    denom = c0 - 2 * c1 + c2
    offset = np.where(np.abs(denom) > 0,
                      0.5 * (c0 - c2) / np.where(denom != 0, denom, 1.0), 0.0)
    offset = np.clip(offset, -1.0, 1.0)
    offset = np.where(best == inner, offset, 0.0)  # no refinement at the edges
    return np.exp(logs[inner] + offset * step)
