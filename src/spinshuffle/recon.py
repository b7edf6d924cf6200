"""Iterative image reconstruction.

Least-squares conjugate gradient and proximal gradient with l1
regularization in an orthonormal transform share one data term: the normal
operator A^H A (through the per-frequency subspace kernel when the encoder
has a temporal basis) and A^H y, so no iteration forms the measurements;
the proximal step takes a proven bound on ||A^H A||. Conjugate gradient is
exact for a basis and one all-ones coil (plain CG otherwise). Each solver
warns once if it stops unconverged.
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
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")


@dataclass
class ReconResult:
    images: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def _vdot(a, b) -> complex:
    return np.vdot(a.ravel(), b.ravel())


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
    return normal, apply_adjoint(enc, y), 0.5 * _vdot(y, y).real, kernel


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
    rz = _vdot(r, p).real
    b_norm = np.linalg.norm(rhs)
    trace = [half_yy]
    converged = b_norm == 0
    grow_streak = it = 0
    prev_res = np.sqrt(_vdot(r, r).real)
    while not converged and it < cfg.max_iters:
        it += 1
        ap = normal_op(p)
        denom = _vdot(p, ap).real
        if denom <= 0:
            break
        alpha = rz / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = _vdot(r, r).real
        trace.append(half_yy - 0.5 * _vdot(x, rhs + r).real)
        res = np.sqrt(rs_new)
        grow_streak = grow_streak + 1 if res > prev_res else 0
        if grow_streak >= 10:
            log.warning("cg residual grew for 10 consecutive iterations")
            raise SolverDivergence(
                "conjugate gradient diverged (10 consecutive residual increases)")
        prev_res = res
        converged = res <= cfg.tolerance * b_norm
        z = precond(r) if precond and not converged else r
        rz_new = _vdot(r, z).real if precond else rs_new
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
    if (kernel is not None and enc.n_coils == 1
            and np.all(enc.maps.maps == 1)):
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


def _soft(values, thresh):
    mag = np.abs(values)
    scale = np.maximum(mag - thresh, 0.0)
    inv = 1.0 / np.where(mag > 0, mag, 1.0)  # as complex division, faster
    with np.errstate(invalid="ignore"):
        out = np.where(mag > 0, values * inv * scale, 0.0)
    return out


def fista_solve(enc: Encoder, y: np.ndarray, regularizer: str = "l1-wavelet",
                cfg: SolverConfig = SolverConfig()) -> ReconResult:
    """Proximal gradient with momentum for l1-regularized least squares.

    The penalty is lam * ||T x||_1 with T the identity or a 3-level
    orthonormal Haar wavelet, applied to the whole image stack at once.
    Gradient and objective run through the shared data term (N x - A^H y and
    0.5 Re x^H (N x - 2 A^H y) + 0.5||y||^2), with step 1/L for its proven
    bound L. Without coil maps L is exactly ||A^H A||; with them it is an
    upper bound (1.4-1.8x ||A^H A|| on random complex Gaussian 3-coil maps),
    so multi-coil solves take shorter steps. No pipeline or CLI path passes
    coil maps. Momentum restarts whenever the objective would increase, so
    the recorded trace is nonincreasing. Each proximal step applies N once:
    N z follows from N x of the last two iterates by linearity, and the
    penalty reads the thresholded coefficients since T is orthonormal.
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

    def prox_step(z, nz):
        """x = prox(z - step (N z - A^H y)), N x and the objective at x."""
        w = z - step * (nz - aty)
        coeffs = _soft(transform.forward(w), cfg.lam * step)
        x_new = transform.adjoint(coeffs)
        nx_new = normal(x_new)
        f_new = (0.5 * _vdot(x_new, nx_new - 2 * aty).real + half_yy
                 + cfg.lam * np.abs(coeffs).sum())
        return x_new, nx_new, f_new

    x = np.zeros(enc.domain_shape, complex)
    nx = np.zeros_like(x)
    z, nz = x, nx
    t_mom = 1.0
    trace = [half_yy]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        x_new, nx_new, f_new = prox_step(z, nz)
        if f_new > trace[-1] + 1e-14 * max(1.0, abs(trace[-1])):
            # restart momentum and take a plain descent step from x
            t_mom = 1.0
            x_new, nx_new, f_new = prox_step(x, nx)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_mom ** 2))
        beta = (t_mom - 1) / t_next
        z = x_new + beta * (x_new - x)
        nz = nx_new + beta * (nx_new - nx)
        x, nx = x_new, nx_new
        t_mom = t_next
        prev = trace[-1]
        trace.append(f_new)
        denom = max(abs(prev), 1e-300)
        if abs(prev - f_new) <= cfg.tolerance * denom:
            converged = True
            break
    return _warn_unconverged("fista", ReconResult(
        images=x, objective_trace=np.asarray(trace), iterations=it,
        converged=converged), cfg)
