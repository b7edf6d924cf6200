"""Iterative image reconstruction.

Least-squares conjugate gradient and proximal gradient with l1
regularization in an orthonormal transform share one data term: the normal
operator A^H A (through the per-frequency subspace kernel with a temporal
basis) and A^H y, so no iteration forms the measurements. The proximal step
takes a proven bound L on ||A^H A|| and carries its momentum on
g = x - N x / L, one N per step. CG is exact for a basis and one all-ones
coil (plain CG otherwise). Each solver warns once if it stops unconverged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .encoding import (Encoder, NormalKernel, apply_adjoint, apply_forward,
                       apply_normal_kernel, build_normal_kernel)
from .transforms import HaarTransform, IdentityTransform

log = logging.getLogger(__name__)


class SolverDivergence(RuntimeError):
    """Residual grew for many consecutive iterations."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    tolerance: float = 1e-8
    lam: float = 0.0          # l2 or l1 weight, depending on solver

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and positive")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lam must be finite and nonnegative")


@dataclass
class ReconResult:
    images: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def _data_term(enc: Encoder, y: np.ndarray):
    """Normal operator N = A^H A, A^H y, 0.5||y||^2 and, given a basis, the
    per-frequency kernel that N runs through (None without one)."""
    y = np.asarray(y, complex)
    kernel = build_normal_kernel(enc) if enc.basis is not None else None
    if kernel is not None:
        normal = partial(apply_normal_kernel, enc, kernel)
    else:
        def normal(x):
            return apply_adjoint(enc, apply_forward(enc, x))
    return normal, apply_adjoint(enc, y), 0.5 * np.vdot(y, y).real, kernel


def _normal_bound(enc: Encoder, kernel) -> float:
    """L >= ||A^H A||: with a basis x^H N x = sum_j (F S_j x)^H Psi (F S_j x),
    so L = max_k lambda_max(Psi(k)) * max_r sum_j |S_j(r)|^2; without one
    Psi(k) is a 0/1 diagonal. L is exact when there are no coil maps."""
    peak = (np.linalg.eigvalsh(kernel.psi_k).max() if kernel is not None
            else enc.masks.total_samples > 0)
    return float(peak) * float(np.max(np.sum(np.abs(enc.maps.maps) ** 2, 0)))


def _cg(normal_op, rhs, half_yy, cfg: SolverConfig,
        precond=None) -> ReconResult:
    """Conjugate gradient from zero on a Hermitian PSD system M x = b,
    preconditioned by precond (Hermitian PSD) if given; convergence and
    divergence are judged on the true residual ||r||.

    The trace logs 0.5||y||^2 - 0.5 Re x^H (b + r), which equals
    0.5 x^H M x - Re x^H b + 0.5||y||^2 because M x = b - r, so any ridge or
    subspace penalty folded into M is part of it.
    """
    x, r = np.zeros_like(rhs), rhs.copy()
    p = precond(r) if precond else r
    rz = np.vdot(r, p).real
    b_norm = np.linalg.norm(rhs)
    trace = [half_yy]
    converged = b_norm == 0
    grow_streak = it = 0
    prev_res = np.sqrt(np.vdot(r, r).real)
    while not converged and it < cfg.max_iters:
        it += 1
        ap = normal_op(p)
        denom = np.vdot(p, ap).real
        if denom <= 0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = np.vdot(r, r).real
        trace.append(half_yy - 0.5 * np.vdot(x, rhs + r).real)
        res = np.sqrt(rs_new)
        grow_streak = grow_streak + 1 if res > prev_res else 0
        if grow_streak >= 10:
            log.warning("cg residual grew for 10 consecutive iterations")
            raise SolverDivergence(
                "conjugate gradient diverged (10 consecutive residual increases)")
        prev_res = res
        converged = res <= cfg.tolerance * b_norm
        z = precond(r) if precond and not converged else r
        rz_new = np.vdot(r, z).real if precond else rs_new
        p = z + (rz_new / rz) * p
        rz = rz_new
    return ReconResult(images=x, objective_trace=np.asarray(trace),
                       iterations=it, converged=bool(converged))


def _warn_unconverged(name: str, res: ReconResult,
                      cfg: SolverConfig) -> ReconResult:
    if not res.converged:
        log.warning("%s stopped unconverged after %d of max_iters=%d "
                    "iterations with objective %.6e", name, res.iterations,
                    cfg.max_iters, res.objective_trace[-1])
    return res


def cg_solve(enc: Encoder, y: np.ndarray,
             cfg: SolverConfig = SolverConfig()) -> ReconResult:
    """Least-squares solve of (A^H A + lam I) x = A^H y by conjugate gradient.

    A^H A is the shared data term: with a temporal basis on the encoder it
    runs through the per-frequency kernel blocks, otherwise through the
    composed forward/adjoint pair. With a basis and exactly one coil whose
    map is all ones, A^H A + lam I = F^H (Psi(k) + lam I) F, and its inverse
    (eigenvalues of Psi(k) within T K eps of the largest count as zero, as
    A^H y has no component there) makes the solve exact after one step, at
    lam = 0 the minimum-norm point. Coil maps, or no basis, keep plain CG.
    """
    data_normal, aty, half_yy, kernel = _data_term(enc, y)
    precond = None
    if kernel is not None and enc._uniform_coil:
        w, v = np.linalg.eigh(kernel.psi_k)
        keep = w > w.max() * w.shape[-1] * enc.n_echoes * np.finfo(float).eps
        inv = np.divide(1.0, w + cfg.lam, out=np.zeros_like(w), where=keep)
        precond = partial(apply_normal_kernel, enc, NormalKernel(
            (v * inv[..., None, :]) @ v.conj().swapaxes(-1, -2)))

    def normal(x):
        out = data_normal(x)
        return out + cfg.lam * x if cfg.lam else out
    return _warn_unconverged("conjugate gradient",
                             _cg(normal, aty, half_yy, cfg, precond), cfg)


def _soft(v, thresh) -> float:
    """Soft-threshold v in place; return the l1 norm of the result. fmax
    takes the 0/0 of a zero entry at thresh = 0 to scale 0, not NaN."""
    mag = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.fmax(1.0 - thresh / mag, 0.0)
    v *= scale
    return float((mag * scale).sum())


def fista_solve(enc: Encoder, y: np.ndarray, regularizer: str = "l1-wavelet",
                cfg: SolverConfig = SolverConfig()) -> ReconResult:
    """Proximal gradient with momentum for l1-regularized least squares.

    The penalty is lam * ||T x||_1 with T the identity or a 3-level
    orthonormal Haar wavelet, applied to the whole image stack at once.
    Gradient and objective run through the shared data term (N x - A^H y and
    0.5 Re x^H (N x - 2 A^H y) + 0.5||y||^2), with step 1/L for its proven
    bound L: exactly ||A^H A|| without coil maps, an upper bound with them
    (1.4-1.8x on random complex Gaussian 3-coil maps; no pipeline or CLI path
    passes coil maps). Momentum restarts when the objective would rise above
    its terms' rounding, so the trace is nonincreasing. Each proximal step
    applies N once: momentum rides on g = x - step N x, since by linearity
    the gradient step from z = x + beta (x - x_prev) is g + beta (g - g_prev)
    + step A^H y (a restart steps from g + step A^H y). T, the threshold and
    T^H act on it in place; the penalty is the l1 norm the threshold returns.
    """
    if regularizer == "l1-identity":
        transform = IdentityTransform()
    elif regularizer == "l1-wavelet":
        transform = HaarTransform(levels=3)
    else:
        raise ValueError(f"unknown regularizer {regularizer!r}")
    normal, aty, half_yy, kernel = _data_term(enc, y)
    lip = _normal_bound(enc, kernel)
    if lip <= 0:
        raise ValueError("encoder acquires no signal: the step bound is 0")
    step = 1.0 / lip
    step_aty = step * aty
    work = np.empty(enc.domain_shape, complex)     # the transform's levels
    g = g_prev = np.zeros_like(work)   # x - step N x at the last two iterates

    def prox_step(w):
        """Overwrite w with x = prox(w); return N x, f(x), its terms' scale."""
        transform._forward_levels(w, work)
        l1 = cfg.lam * _soft(w, cfg.lam * step)
        transform._adjoint_levels(w, work)
        nx = normal(w)
        terms = 0.5 * np.vdot(w, nx).real, -np.vdot(w, aty).real, half_yy, l1
        return nx, sum(terms), sum(map(abs, terms))

    t_mom, beta = 1.0, 0.0
    trace = [half_yy]
    converged, it = False, 0
    for it in range(1, cfg.max_iters + 1):
        w = np.subtract(g, g_prev)
        w *= beta
        w += g
        w += step_aty
        nx, f_new, scale = prox_step(w)
        if f_new > trace[-1] + 1e-14 * scale:
            # restart momentum and take a plain descent step from x
            t_mom = 1.0
            w = g + step_aty
            nx, f_new, _ = prox_step(w)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_mom ** 2))
        t_mom, beta = t_next, (t_mom - 1) / t_next
        x, g_prev, g = w, g, np.multiply(nx, -step, out=nx)
        g += x
        prev = trace[-1]
        trace.append(f_new)
        denom = max(abs(prev), 1e-300)
        if abs(prev - f_new) <= cfg.tolerance * denom:
            converged = True
            break
    return _warn_unconverged("fista", ReconResult(
        images=x, objective_trace=np.asarray(trace), iterations=it,
        converged=converged), cfg)
