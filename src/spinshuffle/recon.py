"""Iterative image reconstruction.

Least-squares conjugate gradient, proximal gradient with l1 regularization
in an orthonormal transform, and a soft subspace-penalty solver that keeps
the full echo series all share one data term: the normal operator A^H A
(through the per-frequency subspace kernel when the encoder has a temporal
basis), A^H y and a proven bound on ||A^H A||, so no iteration forms the
measurements. A model-based Gauss-Newton solver estimates density and T2
maps directly from k-space; its linearized steps run through the same
conjugate gradient. Each solver warns once if it stops unconverged.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .encoding import (Encoder, SamplingMasks, SensitivityMaps,
                       apply_adjoint, apply_forward, apply_normal_kernel,
                       build_normal_kernel)
from .spinsim import SequenceParams, simulate_fse_ensemble
from .subspace import SubspaceBasis
from .transforms import HaarTransform, IdentityTransform

log = logging.getLogger(__name__)


class SolverDivergence(RuntimeError):
    """Residual grew for many consecutive iterations."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    tolerance: float = 1e-8
    lam: float = 0.0          # l2 or l1 weight, depending on solver
    mu: float = 0.0           # subspace-penalty weight

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("regularization weights must be nonnegative")


@dataclass
class ReconResult:
    images: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def _vdot(a, b) -> complex:
    return np.vdot(a.ravel(), b.ravel())


def _data_term(enc: Encoder, y: np.ndarray):
    """Normal operator N = A^H A, A^H y, 0.5||y||^2 and a bound L >= ||N||.

    With a basis, x^H N x = sum_j (F S_j x)^H Psi (F S_j x), so
    L = max_k lambda_max(Psi(k)) * max_r sum_j |S_j(r)|^2 bounds it; without
    one, Psi(k) is a 0/1 diagonal and lambda_max is 1 if anything is sampled.
    The bound is exact when there are no coil maps.
    """
    y = np.asarray(y, complex)
    if enc.basis is not None:
        kernel = build_normal_kernel(enc)

        def normal(x):
            return apply_normal_kernel(enc, kernel, x)
        peak = float(np.linalg.eigvalsh(kernel.psi_k).max())
    else:
        def normal(x):
            return apply_adjoint(enc, apply_forward(enc, x))
        peak = 1.0 if enc.masks.total_samples else 0.0
    coil_gain = float(np.sum(np.abs(enc.maps.maps) ** 2, axis=0).max())
    return normal, apply_adjoint(enc, y), 0.5 * _vdot(y, y).real, peak * coil_gain


def _cg(normal_op, rhs, half_yy, cfg: SolverConfig) -> ReconResult:
    """Conjugate gradient from zero on a Hermitian PSD system.

    The trace logs 0.5||y||^2 - 0.5 Re x^H (b + r), which equals
    0.5 x^H M x - Re x^H b + 0.5||y||^2 because M x = b - r, so any ridge or
    subspace penalty folded into M is part of it.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = _vdot(r, r).real
    b_norm = np.linalg.norm(rhs)
    trace = [half_yy]
    converged = b_norm == 0
    grow_streak = 0
    prev_res = np.sqrt(rs)
    it = 0
    while not converged and it < cfg.max_iters:
        it += 1
        ap = normal_op(p)
        denom = _vdot(p, ap).real
        if denom <= 0:
            break
        alpha = rs / denom
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
        p = r + (rs_new / rs) * p
        rs = rs_new
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
    composed forward/adjoint pair.
    """
    data_normal, aty, half_yy, _ = _data_term(enc, y)

    def normal(x):
        out = data_normal(x)
        return out + cfg.lam * x if cfg.lam else out
    return _warn_unconverged("conjugate gradient",
                             _cg(normal, aty, half_yy, cfg), cfg)


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
    normal, aty, half_yy, lip = _data_term(enc, y)
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


def mocco_solve(enc: Encoder, basis: SubspaceBasis, y: np.ndarray,
                cfg: SolverConfig = SolverConfig()) -> ReconResult:
    """Soft subspace modeling: 0.5||Ax-y||^2 + (mu/2)||x - Phi Phi^H x||^2.

    The encoder must not carry a basis; the solution is the full echo-image
    stack, pulled toward (but not restricted to) the temporal subspace.
    """
    if enc.basis is not None:
        raise ValueError("mocco_solve expects an encoder without a basis")
    if basis.n_echoes != enc.n_echoes:
        raise ValueError("basis echo count does not match encoder")
    phi = basis.phi_k
    data_normal, aty, half_yy, _ = _data_term(enc, y)

    def project_out(x):
        coeff = np.tensordot(phi.conj().T, x, axes=1)
        return x - np.tensordot(phi, coeff, axes=1)

    def normal(x):
        out = data_normal(x)
        return out + cfg.mu * project_out(x) if cfg.mu else out
    return _warn_unconverged("mocco", _cg(normal, aty, half_yy, cfg), cfg)


@dataclass
class ModelBasedResult:
    rho_map: np.ndarray
    t2_map: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    converged: bool


def _simulate_fields(t2_map, t1_ms, seq, eta):
    # One batched simulation over all voxels plus central differences in T2.
    shape = t2_map.shape
    t2 = t2_map.ravel()
    t1 = np.full_like(t2, t1_ms)
    h = 1e-4 * t2
    batch = np.concatenate([t2, t2 + h, t2 - h])
    sig = simulate_fse_ensemble(np.tile(t1, 3), batch, seq, eta=eta)
    n = t2.size
    f = sig[:, :n]
    df = (sig[:, n:2 * n] - sig[:, 2 * n:]) / (2 * h)
    t = seq.n_echoes
    return f.reshape(t, *shape), df.reshape(t, *shape)


def model_based_solve(masks: SamplingMasks, maps: SensitivityMaps | None,
                      seq: SequenceParams, y: np.ndarray,
                      init_rho: np.ndarray, init_t2: np.ndarray,
                      cfg: SolverConfig = SolverConfig(max_iters=15),
                      t1_ms: float = 1000.0, eta: float = 1.0,
                      t2_bounds=(5.0, 2000.0),
                      inner_iters: int = 30) -> ModelBasedResult:
    """Gauss-Newton estimation of (rho, T2) maps straight from k-space.

    The forward chain is x_i(r) = rho(r) f_i(T2(r)) followed by the linear
    encoder; T1 and the transmit scale stay fixed. The T2 update is solved
    in relative units (t2 <- t2 * exp(u)) so the normal system stays well
    scaled. Each step solves the linearized normal equations by conjugate
    gradient and is accepted only if the data residual decreases (step
    halving, up to 20 times). T2 is clipped to the given box after every
    accepted step. The loop stops once the residual norm changes by at most
    tolerance relative to its last value or falls to tolerance * ||y||.
    """
    enc = Encoder(masks, maps)
    y = np.asarray(y, complex)
    y_norm = float(np.linalg.norm(y))
    rho = np.asarray(init_rho, complex).copy()
    t2 = np.clip(np.asarray(init_t2, float).copy(), *t2_bounds)

    def residual(rho_m, f):
        return apply_forward(enc, rho_m[None] * f) - y

    # J^H J maps the real u block to real values and its right-hand side is
    # real, so CG on the stacked (2, nx, ny) complex unknown keeps u real;
    # the truncated inner solve stops at ||r|| <= 1e-9 ||b|| or inner_iters
    inner = SolverConfig(max_iters=inner_iters, tolerance=1e-9)
    res_norms = []
    converged = False
    f, df = _simulate_fields(t2, t1_ms, seq, eta)
    r = residual(rho, f)
    res_norms.append(float(np.linalg.norm(r)))
    outer = 0
    for outer in range(1, cfg.max_iters + 1):
        if not np.isfinite(res_norms[-1]):
            raise RuntimeError("model-based solve hit a non-finite residual")
        # J [d_rho, u] = E(d_rho * f + u * g), g the relative-T2 sensitivity
        g = (rho * t2)[None] * df

        def jh_apply(w):
            z = apply_adjoint(enc, w)                    # (T, nx, ny)
            return np.stack([np.sum(np.conj(f) * z, axis=0),
                             np.sum(np.conj(g) * z, axis=0).real])

        def normal(d):
            return jh_apply(apply_forward(enc, d[0] * f + d[1] * g))

        d = _cg(normal, jh_apply(-r), 0.0, inner).images
        d_rho, d_u = d[0], d[1].real

        step = 1.0
        accepted = False
        for _ in range(20):
            rho_try = rho + step * d_rho
            t2_try = np.clip(t2 * np.exp(step * d_u), *t2_bounds)
            f_try, df_try = _simulate_fields(t2_try, t1_ms, seq, eta)
            r_try = residual(rho_try, f_try)
            norm_try = float(np.linalg.norm(r_try))
            if norm_try < res_norms[-1]:
                rho, t2, f, df, r = rho_try, t2_try, f_try, df_try, r_try
                res_norms.append(norm_try)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            converged = True   # no descent direction left at this resolution
            break
        denom = max(res_norms[-2], 1e-300)
        if (abs(res_norms[-2] - res_norms[-1]) <= cfg.tolerance * denom
                or res_norms[-1] <= cfg.tolerance * y_norm):
            converged = True
            break
    if not converged:
        log.warning("model-based solve stopped at max_iters=%d with residual %.3e",
                    cfg.max_iters, res_norms[-1])
    return ModelBasedResult(rho_map=rho, t2_map=t2,
                            residual_norms=np.asarray(res_norms),
                            iterations=outer, converged=converged)
