"""Quantitative parameter estimation from images or subspace coefficients.

All fits share a variable-projection structure: the complex density enters
the model linearly, so for any candidate T2 the optimal density has a closed
form and the search reduces to one dimension. The 'nlls' and 'subspace'
maps and the single-voxel fits (one column) are one vectorised fit: a
48-point log-T2 grid start, then safeguarded Newton steps on every live
column at once on |m^H s|^2 / ||m||^2 in log T2, with the model and its
exact derivatives from relaxation polynomials built once per sequence.
Dictionary matching is the grid-search counterpart (matched filtering): it
keeps the best atom's T2 with the same closed-form density and residual.
`fit_map` is the one place that knows the fit method; whatever the method, a
basis means the stack holds subspace coefficients. Every fit refuses T2
bounds other than finite 0 < lower < upper; single-voxel fits and matches
refuse non-finite signals and fail an all-zero one, and `fit_map` flags such
voxels failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinsim import (_POLY_BLOCK, SequenceParams, _relaxation_model,
                      _shared_pulse_ensemble, check_tissues)
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
        for name, what in (("t2", "T2"), ("norms", "norm")):
            if np.shape(getattr(self, name)) != self.atoms.shape[1:]:
                raise ValueError(f"dictionary needs one {what} per atom")
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
    Scores are (256 voxels x atoms) blocks, no atoms x n matrix: |a^H s| of
    a complex product, or given a basis |a^H s|^2 as a real GEMM of moments.
    """
    atoms = dictionary.atoms
    if basis is not None:
        atoms = basis.phi_k.conj().T @ atoms
    if cols.shape[0] != atoms.shape[0]:
        raise ValueError("signal length does not match the dictionary")
    lhs, rhs, score = (cols, atoms.conj(), np.abs) if basis is None else (
        _moments(cols), _moments(atoms, 2), np.asarray)
    best = np.concatenate([score(lhs[:, lo:lo + 256].T @ rhs).argmax(1)
                           for lo in range(0, cols.shape[1], 256)])
    resid, rho = _varpro_cost(atoms[:, best] * dictionary.norms[best], cols)
    return rho, dictionary.t2[best], resid


def _moments(x, cross=1):
    """(K^2, n) real moments of (K, n) columns: |x_i|^2, then cross Re and Im
    of x_i conj(x_j), i < j. As |a^H s|^2 = sum_i |a_i s_i|^2 + 2 sum_(i<j)
    Re(conj(a_i) a_j s_i conj(s_j)), it is moments(s) . moments(a, 2), with
    K^2 terms (T^2 without a basis would outweigh the complex product)."""
    i, j = np.triu_indices(len(x), 1)
    pairs = x[i] * x[j].conj() * cross
    return np.concatenate([np.abs(x) ** 2, pairs.real, pairs.imag])


def _fit_one(signal, fit) -> FitResult:
    """A columns fit (rho, T2, residual, converged) of one signal; a
    non-finite signal is refused and an all-zero one fails."""
    if not np.all(np.isfinite(signal)):
        raise ValueError("signal must be finite")
    if not np.any(signal):
        return FitResult(rho=0j, t2=math.nan, residual=0.0, converged=False)
    return FitResult(*(v[0].item() for v in fit(signal[:, None])))


def dictionary_match(signal: np.ndarray, dictionary: Dictionary) -> FitResult:
    """Matched-filter grid search of an echo train: argmax of |<atom, signal>|.

    Returns the matched atom's T2 with the least-squares density and
    residual of its model. A non-finite signal is refused and an all-zero
    one fails. Ties go to the lowest index.
    """
    return _fit_one(np.asarray(signal, complex).ravel(),
                    lambda col: (*_match(col, dictionary), np.ones(1, bool)))


def _varpro_cost(models, signals):
    """Reduced cost and optimal density for paired model/signal columns."""
    num = np.sum(np.conj(models) * signals, axis=0)
    den = np.sum(np.abs(models) ** 2, axis=0)
    den = np.where(den > 0, den, 1.0)
    rho = num / den
    cost = 0.5 * (np.sum(np.abs(signals) ** 2, axis=0) - np.abs(num) ** 2 / den)
    return cost, rho


def _fit_columns(cols, seq, bounds, t1_ms, basis, max_steps=20):
    """Variable-projection fit of (T|K, n) signal columns, compressed by the
    basis if given: rho, T2, residual and convergence of each.

    From the best of 48 log-spaced T2 (edges included), every live column
    takes safeguarded Newton steps at once on g(u) = |m^H s|^2 / ||m||^2,
    u = log T2 (maximizing g minimizes the cost (||s||^2 - g) / 2). The
    signs of g' keep a bracket in the bounds; the step bisects it when
    g'' >= 0 or the bound-held Newton point leaves it. A column converges
    when g' = 0 or a step falls to 1e-10 in u; one that ends on a bound
    returns the bound and False, as does one that reaches max_steps.
    """
    model = _relaxation_model(seq, t1_ms, bounds[1], None if basis is None
                              else basis.phi_k.conj().T)
    log_bounds = np.log(bounds)
    grid = np.linspace(*log_bounds, 48)
    atoms = model(np.exp(grid))[0]
    u = grid[np.argmax(np.abs(atoms.conj().T @ cols) ** 2
                       / np.sum(np.abs(atoms) ** 2, axis=0)[:, None], axis=0)]
    norm2 = np.sum(np.abs(cols) ** 2, axis=0)
    rho, cost = np.zeros(u.shape, complex), np.zeros(u.shape)

    def evaluate(idx):
        m = np.array(model(np.exp(u[idx])))           # m, m', m''
        a0, a1, a2 = np.sum(m.conj() * cols[:, idx], axis=1)
        n, c1, c2 = np.sum(m[0].conj() * m, axis=1).real
        n1, n2 = 2 * c1, 2 * (c2 + np.sum(np.abs(m[1]) ** 2, axis=0))
        g = np.abs(a0) ** 2 / n
        g1 = (2 * (a0.conj() * a1).real - g * n1) / n
        g2 = (2 * (np.abs(a1) ** 2 + (a0.conj() * a2).real) - g * n2
              - 2 * g1 * n1) / n
        cost[idx], rho[idx] = 0.5 * (norm2[idx] - g), a0 / n
        return g1, g2

    live, converged = np.arange(u.size), np.zeros(u.shape, bool)
    lo, hi = (np.full(u.shape, b) for b in log_bounds)
    g1, g2 = evaluate(live)
    for _ in range(max_steps):
        ul = u[live]
        lo, hi = np.where(g1 > 0, ul, lo), np.where(g1 > 0, hi, ul)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(ul - g1 / g2, *log_bounds)
        step = np.where((g2 < 0) & (lo <= newton) & (newton <= hi), newton,
                        0.5 * (lo + hi)) - ul
        done = (g1 == 0) | (np.abs(step) <= 1e-10)
        converged[live[done]] = True
        live, lo, hi, step = (x[~done] for x in (live, lo, hi, step))
        if not live.size:
            break
        u[live] += step
        g1, g2 = evaluate(live)
    edge = np.abs(u - log_bounds[:, None]) <= 1e-10
    return (rho, np.select(list(edge), bounds, np.exp(u)), cost,
            converged & ~edge.any(axis=0))


def _check_bounds(bounds, t1_ms) -> None:
    if not 0 < bounds[0] < bounds[1] < math.inf:
        raise ValueError(f"T2 bounds {bounds} need 0 < lower < upper < inf")
    if not t1_ms > 0:    # inf is no T1 recovery
        raise ValueError(f"t1_ms must be positive, got {t1_ms}")


def fit_voxel_nlls(signal: np.ndarray, seq: SequenceParams,
                   bounds=DEFAULT_T2_BOUNDS_MS,
                   t1_ms: float = DEFAULT_T1_MS) -> FitResult:
    """Voxel-wise nonlinear least squares over (complex density, T2)."""
    _check_bounds(bounds, t1_ms)
    signal = np.asarray(signal, complex).ravel()
    if signal.size != seq.n_echoes:
        raise ValueError("signal length does not match the echo train")
    return _fit_one(signal, lambda col: _fit_columns(col, seq, bounds, t1_ms,
                                                     None))


def _check_echoes(basis: SubspaceBasis, seq: SequenceParams) -> None:
    if basis.n_echoes != seq.n_echoes:
        raise ValueError(f"basis has {basis.n_echoes} echoes but the "
                         f"sequence has {seq.n_echoes}")


def fit_voxel_subspace(alpha: np.ndarray, basis: SubspaceBasis,
                       seq: SequenceParams, bounds=DEFAULT_T2_BOUNDS_MS,
                       t1_ms: float = DEFAULT_T1_MS) -> FitResult:
    """Fit directly in coefficient space: min ||alpha - Phi^H rho f(T2)||."""
    alpha = np.asarray(alpha, complex).ravel()
    _check_bounds(bounds, t1_ms)
    _check_echoes(basis, seq)
    if alpha.size != basis.k:
        raise ValueError("coefficient length does not match the basis")
    return _fit_one(alpha, lambda col: _fit_columns(col, seq, bounds, t1_ms,
                                                    basis))


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
    _check_bounds(bounds, t1_ms)
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
            grid = np.exp(np.linspace(*np.log(bounds), 1024))
            dictionary = build_dictionary((np.maximum(t1_ms, grid), grid), seq)
            rho[alive], t2[alive], residual[alive] = _match(cols, dictionary,
                                                            basis)
        else:
            fits = [_fit_columns(cols[:, i:i + _POLY_BLOCK], seq, bounds,
                                 t1_ms, basis)
                    for i in range(0, cols.shape[1], _POLY_BLOCK)]
            rho[alive], t2[alive], residual[alive], _ = map(np.concatenate,
                                                            zip(*fits))
    return FitMaps(rho=rho.reshape(nx, ny), t2=t2.reshape(nx, ny),
                   residual=residual.reshape(nx, ny),
                   failed=(~alive).reshape(nx, ny))
