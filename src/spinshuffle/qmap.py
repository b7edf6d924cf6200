"""Quantitative parameter estimation from images or subspace coefficients.

All fits share a variable-projection structure: the complex density enters
the model linearly, so for any candidate T2 the optimal density has a closed
form and the search reduces to one dimension. Every fit starts from the same
grid stage: each voxel is scored against a log-spaced model grid (dense for
whole maps, where it keeps the per-voxel cost at a few matrix products;
coarse for single voxels) and refined with a local parabola. Single-voxel
fits then polish that start with safeguarded Newton steps on the reduced
objective |m^H s|^2 / ||m||^2 in log T2, which converge to the exact
minimizer in a few steps even on high-residual voxels. Dictionary matching
is the grid-search counterpart and is equivalent to matched filtering: it
keeps the best-scoring atom's T2 and takes the density and residual from
the same closed form. `fit_map` is the one place that knows the fit method;
whatever the method, a basis means the stack holds subspace coefficients.
Single-voxel fits and matches refuse non-finite signals and fail an all-zero
one; `fit_map` flags such voxels failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinsim import SequenceParams, _shared_pulse_ensemble, check_tissues
from .subspace import SubspaceBasis, back_project

DEFAULT_T2_BOUNDS_MS = (5.0, 2000.0)
DEFAULT_T1_MS = 1000.0


@dataclass(frozen=True)
class FitResult:
    rho: complex
    t2: float
    residual: float
    converged: bool


@dataclass(frozen=True)
class FitMaps:
    rho: np.ndarray
    t2: np.ndarray
    residual: np.ndarray
    failed: np.ndarray


@dataclass(frozen=True)
class Dictionary:
    """Unit-norm simulated evolutions with the T2 and the norm of each."""

    atoms: np.ndarray                 # (T, D), unit 2-norm columns
    t2: np.ndarray                    # (D,) ms
    norms: np.ndarray                 # (D,) 2-norm of each unit-density model

    def __post_init__(self):
        if self.atoms.shape[1] < 1:
            raise ValueError("dictionary needs at least one atom")
        if np.shape(self.t2) != self.atoms.shape[1:]:
            raise ValueError("dictionary needs one T2 per atom")
        if np.shape(self.norms) != self.atoms.shape[1:]:
            raise ValueError("dictionary needs one norm per atom")
        norms = np.linalg.norm(self.atoms, axis=0)
        if np.max(np.abs(norms - 1)) > 1e-12:
            raise ValueError("atoms must have unit 2-norm")


def build_dictionary(tissues, seq: SequenceParams) -> Dictionary:
    """Simulate and normalize one time-domain atom per tissue of a (t1, t2)
    pair of arrays, keeping each model's norm for the density; more than
    2T + 1 atoms are relaxation polynomials, as in `build_ensemble`."""
    t1, t2 = check_tissues(*tissues)
    atoms = _shared_pulse_ensemble(t1, t2, seq)
    norms = np.linalg.norm(atoms, axis=0)
    if np.any(norms == 0):
        raise ValueError("dictionary contains an all-zero evolution")
    return Dictionary(atoms=atoms / norms, t2=t2, norms=norms)


def _match(cols, dictionary: Dictionary, basis: SubspaceBasis | None = None):
    """Matched filter of (T|K, n) signal columns: rho, T2 and residual each.

    Given a basis the columns are coefficients and match the compressed
    atoms a = Phi^H atom. The best atom maximizes |a^H s| (ties go to the
    lowest index); its model ||m|| a then gives the least-squares density
    a^H s / (||m|| ||a||^2) and residual (||s||^2 - |a^H s|^2 / ||a||^2) / 2.
    Columns are scored in blocks, so no (atoms x n) matrix is held.
    """
    atoms = dictionary.atoms
    if basis is not None:
        atoms = basis.phi_k.conj().T @ atoms
    if cols.shape[0] != atoms.shape[0]:
        raise ValueError("signal length does not match the dictionary")
    adjoint = atoms.conj().T
    best = np.concatenate([np.abs(adjoint @ cols[:, lo:lo + 256]).argmax(0)
                           for lo in range(0, cols.shape[1], 256)])
    resid, rho = _varpro_cost(atoms[:, best] * dictionary.norms[best], cols)
    return rho, dictionary.t2[best], resid


def _no_signal(signal) -> bool:
    """Refuse a non-finite signal; True for an all-zero one."""
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal must be finite")
    return not np.any(signal)


_FAILED = FitResult(rho=0j, t2=math.nan, residual=0.0, converged=False)


def dictionary_match(signal: np.ndarray, dictionary: Dictionary) -> FitResult:
    """Matched-filter grid search of an echo train: argmax of |<atom, signal>|.

    Returns the matched atom's T2 with the least-squares density and
    residual of its model. A non-finite signal is refused and an all-zero
    one fails. Ties go to the lowest index.
    """
    signal = np.asarray(signal, complex).ravel()
    if _no_signal(signal):
        return _FAILED
    rho, t2, resid = _match(signal[:, None], dictionary)
    return FitResult(rho=complex(rho[0]), t2=float(t2[0]),
                     residual=float(resid[0]), converged=True)


def _model_batch(t2_values, seq, t1_ms, basis=None):
    """Unit-density evolutions for a batch of T2 values, compressed if asked;
    batches above 2T + 1 (not the polish's 3) are relaxation polynomials."""
    t2 = np.asarray(t2_values, float)
    sig = _shared_pulse_ensemble(np.full(t2.shape, t1_ms), t2, seq)
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


def _polish(signal, seq, t2, bounds, t1_ms, basis, max_steps=20):
    """Safeguarded Newton ascent of g(u) = |m^H s|^2 / ||m||^2, u = log T2.

    Maximizing g minimizes the reduced cost (||s||^2 - g) / 2. Each trial is
    one [T2, T2+h, T2-h] batch, which gives m and, by central differences,
    m' and m''. The signs of g' keep a bracket of the maximizer inside the
    bounds; the Newton point is held to the bounds, and the step bisects the
    bracket instead when that point leaves it or when g'' >= 0. The polish
    converges when g' is exactly zero or a step falls to the finite-
    difference noise floor (1e-10 in u). A fit that ends on a bound returns
    that bound and False, as does one that reaches max_steps.
    """
    norm2 = float(np.vdot(signal, signal).real)
    log_bounds = [math.log(b) for b in bounds]
    lo, hi = log_bounds

    def evaluate(u):
        t2_val = math.exp(u)
        h = 1e-4 * t2_val
        m0, mp, mm = _model_batch([t2_val, t2_val + h, t2_val - h], seq,
                                  t1_ms, basis).T
        m1 = t2_val * (mp - mm) / (2 * h)                     # dm/du
        m2 = t2_val ** 2 * (mp - 2 * m0 + mm) / h ** 2 + m1   # d2m/du2
        a0, a1, a2 = (np.vdot(m, signal) for m in (m0, m1, m2))
        n = np.vdot(m0, m0).real
        n1 = 2 * np.vdot(m0, m1).real
        n2 = 2 * (np.vdot(m1, m1).real + np.vdot(m0, m2).real)
        g = abs(a0) ** 2 / n
        g1 = (2 * (a0.conjugate() * a1).real - g * n1) / n
        g2 = (2 * (abs(a1) ** 2 + (a0.conjugate() * a2).real) - g * n2
              - 2 * g1 * n1) / n
        return float(0.5 * (norm2 - g)), complex(a0 / n), g1, g2

    u = math.log(t2)
    cost, rho, g1, g2 = evaluate(u)
    converged = False
    for _ in range(max_steps):
        if g1 == 0:
            converged = True
            break
        if g1 > 0:
            lo = u
        else:
            hi = u
        target = (min(max(u - g1 / g2, log_bounds[0]), log_bounds[1])
                  if g2 < 0 else math.nan)
        if not lo <= target <= hi:
            target = 0.5 * (lo + hi)
        step = target - u
        if abs(step) <= 1e-10:
            converged = True
            break
        u += step
        cost, rho, g1, g2 = evaluate(u)
    for bound, log_bound in zip(bounds, log_bounds):
        if abs(u - log_bound) <= 1e-10:
            return float(bound), cost, rho, False
    return math.exp(u), cost, rho, converged


def _fit_voxel(signal, seq, bounds, t1_ms, basis) -> FitResult:
    """Coarse 48-point grid start, then the polish; zero signal fails and a
    non-finite one is refused."""
    if _no_signal(signal):
        return _FAILED
    t2 = _grid_t2(signal[:, None], seq, bounds, t1_ms, basis, 48)
    t2, cost, rho, converged = _polish(signal, seq, float(t2[0]), bounds,
                                       t1_ms, basis)
    return FitResult(rho=rho, t2=t2, residual=cost, converged=converged)


def fit_voxel_nlls(signal: np.ndarray, seq: SequenceParams,
                   bounds=DEFAULT_T2_BOUNDS_MS,
                   t1_ms: float = DEFAULT_T1_MS) -> FitResult:
    """Voxel-wise nonlinear least squares over (complex density, T2)."""
    signal = np.asarray(signal, complex).ravel()
    if signal.size != seq.n_echoes:
        raise ValueError("signal length does not match the echo train")
    return _fit_voxel(signal, seq, bounds, t1_ms, None)


def _check_echoes(basis: SubspaceBasis, seq: SequenceParams) -> None:
    if basis.n_echoes != seq.n_echoes:
        raise ValueError(f"basis has {basis.n_echoes} echoes but the "
                         f"sequence has {seq.n_echoes}")


def fit_voxel_subspace(alpha: np.ndarray, basis: SubspaceBasis,
                       seq: SequenceParams, bounds=DEFAULT_T2_BOUNDS_MS,
                       t1_ms: float = DEFAULT_T1_MS) -> FitResult:
    """Fit directly in coefficient space: min ||alpha - Phi^H rho f(T2)||."""
    alpha = np.asarray(alpha, complex).ravel()
    _check_echoes(basis, seq)
    if alpha.size != basis.k:
        raise ValueError("coefficient length does not match the basis")
    return _fit_voxel(alpha, seq, bounds, t1_ms, basis)


def fit_map(stack: np.ndarray, seq: SequenceParams,
            basis: SubspaceBasis | None = None, method: str = "subspace",
            bounds=DEFAULT_T2_BOUNDS_MS,
            t1_ms: float = DEFAULT_T1_MS) -> FitMaps:
    """Independent per-voxel fits over an image or coefficient stack.

    Given a basis, the stack holds (K, nx, ny) subspace coefficients,
    otherwise (T, nx, ny) echo images. 'subspace' fits the coefficients and
    needs the basis; 'nlls' fits echo images and back-projects coefficients
    first; 'dictionary' matches 1024 atoms log-spaced in T2 over the bounds
    with T1 = max(t1_ms, T2), compressed by the basis if given. Voxels with
    no signal or a non-finite one are flagged in the failed mask. Results do
    not depend on voxel ordering.
    """
    if method not in ("subspace", "nlls", "dictionary"):
        raise ValueError(f"unknown fit method {method!r}")
    stack = np.asarray(stack, complex)
    if basis is not None:
        _check_echoes(basis, seq)
        if stack.shape[0] != basis.k:
            raise ValueError("stack leading axis does not match basis size")
        if method == "nlls":
            stack, basis = back_project(basis, stack), None
    elif method == "subspace":
        raise ValueError("subspace method needs a basis")
    elif stack.shape[0] != seq.n_echoes:
        raise ValueError("stack leading axis does not match echo count")
    lead, nx, ny = stack.shape
    signals = stack.reshape(lead, -1)
    power = np.sum(np.abs(signals) ** 2, axis=0)
    finite = np.all(np.isfinite(signals), axis=0)
    alive = finite & (power > 1e-24 * max(np.max(power, where=finite,
                                                 initial=0.0), 1e-300))

    rho = np.zeros(nx * ny, complex)
    t2 = np.full(nx * ny, np.nan)
    residual = np.zeros(nx * ny)
    if np.any(alive):
        cols = signals[:, alive]
        if method == "dictionary":
            grid = np.exp(np.linspace(np.log(bounds[0]), np.log(bounds[1]),
                                      1024))
            dictionary = build_dictionary((np.maximum(t1_ms, grid), grid), seq)
            rho[alive], t2[alive], residual[alive] = _match(cols, dictionary,
                                                            basis)
        else:
            t2_fit = _grid_t2(cols, seq, bounds, t1_ms, basis, 400)
            residual[alive], rho[alive] = _varpro_cost(
                _model_batch(t2_fit, seq, t1_ms, basis), cols)
            t2[alive] = t2_fit
    return FitMaps(rho=rho.reshape(nx, ny), t2=t2.reshape(nx, ny),
                   residual=residual.reshape(nx, ny),
                   failed=(~alive).reshape(nx, ny))


def _grid_t2(signals, seq, bounds, t1_ms, basis, grid_size):
    """Grid-scored variable-projection T2 for many signal columns at once.

    The model curve is smooth on a log-T2 grid, so a dense scan plus a
    three-point parabolic refinement of the scored cost locates each voxel's
    minimizer to a small fraction of the grid step. Columns are scored in
    blocks, keeping only each one's best index and its neighbours' scores.
    """
    logs = np.linspace(math.log(bounds[0]), math.log(bounds[1]), grid_size)
    models = _model_batch(np.exp(logs), seq, t1_ms, basis)  # (T|K, G)
    den = np.sum(np.abs(models) ** 2, axis=0)[:, None]

    def scored(cols):
        score = np.abs(models.conj().T @ cols) ** 2 / den        # maximize
        best = np.argmax(score, axis=0)
        near = np.clip(best, 1, grid_size - 2) + np.array([[-1], [0], [1]])
        return best, *np.take_along_axis(score, near, axis=0)
    blocks = (scored(signals[:, i:i + 256])
              for i in range(0, signals.shape[1], 256))
    best, c0, c1, c2 = map(np.concatenate, zip(*blocks))
    inner = np.clip(best, 1, grid_size - 2)
    denom = c0 - 2 * c1 + c2
    offset = np.divide(0.5 * (c0 - c2), denom, out=np.zeros_like(denom),
                       where=(denom != 0) & (best == inner))  # edges: none
    return np.exp(logs[inner] + np.clip(offset, -1, 1) * (logs[1] - logs[0]))
