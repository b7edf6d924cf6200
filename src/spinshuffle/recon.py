"""Iterative image reconstruction.

Least-squares conjugate gradient (optionally through the per-frequency
subspace kernel), proximal gradient with l1 regularization in an orthonormal
transform, a soft subspace-penalty solver that keeps the full echo series,
and a model-based Gauss-Newton solver that estimates density and T2 maps
directly from k-space.
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
from .transforms import make_transform

log = logging.getLogger(__name__)


class SolverDivergence(RuntimeError):
    """Residual grew for many consecutive iterations."""


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 200
    tolerance: float = 1e-8
    lam: float = 0.0          # l2 or l1 weight, depending on solver
    mu: float = 0.0           # subspace-penalty weight
    step_rule: str = "power"  # power | fixed
    step_size: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("regularization weights must be nonnegative")
        if self.step_rule not in ("power", "fixed"):
            raise ValueError(f"unknown step rule {self.step_rule!r}")


@dataclass
class ReconResult:
    images: np.ndarray
    objective_trace: np.ndarray
    iterations: int
    converged: bool


def _vdot(a, b) -> complex:
    return np.vdot(a.ravel(), b.ravel())


def _cg(normal_op, rhs, x0, max_iters, tolerance, objective):
    """Conjugate gradient on a Hermitian PSD system with objective logging."""
    x = x0.copy()
    r = rhs - normal_op(x)
    p = r.copy()
    rs = _vdot(r, r).real
    b_norm = np.linalg.norm(rhs)
    trace = [objective(x)]
    converged = False
    grow_streak = 0
    prev_res = np.sqrt(rs)
    it = 0
    for it in range(1, max_iters + 1):
        ap = normal_op(p)
        denom = _vdot(p, ap).real
        if denom <= 0:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = _vdot(r, r).real
        trace.append(objective(x))
        res = np.sqrt(rs_new)
        grow_streak = grow_streak + 1 if res > prev_res else 0
        if grow_streak >= 10:
            log.warning("cg residual grew for 10 consecutive iterations")
            raise SolverDivergence(
                "conjugate gradient diverged (10 consecutive residual increases)")
        prev_res = res
        if b_norm == 0 or res <= tolerance * b_norm:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, np.asarray(trace), it, converged


def cg_solve(enc: Encoder, y: np.ndarray, cfg: SolverConfig = SolverConfig(),
             use_kernel: bool | None = None) -> ReconResult:
    """Least-squares solve of (A^H A + lam I) x = A^H y by conjugate gradient.

    With a temporal basis on the encoder the normal operator runs through the
    per-frequency kernel blocks unless use_kernel=False forces the composed
    forward/adjoint pair.
    """
    y = np.asarray(y, complex)
    if use_kernel is None:
        use_kernel = enc.basis is not None
    if use_kernel:
        kernel = build_normal_kernel(enc)

        def normal(x):
            out = apply_normal_kernel(enc, kernel, x)
            return out + cfg.lam * x if cfg.lam else out
    else:
        def normal(x):
            out = apply_adjoint(enc, apply_forward(enc, x))
            return out + cfg.lam * x if cfg.lam else out

    rhs = apply_adjoint(enc, y)

    def objective(x):
        resid = apply_forward(enc, x) - y
        val = 0.5 * _vdot(resid, resid).real
        if cfg.lam:
            val += 0.5 * cfg.lam * _vdot(x, x).real
        return val

    x0 = np.zeros(enc.domain_shape, complex)
    x, trace, iters, converged = _cg(normal, rhs, x0, cfg.max_iters,
                                     cfg.tolerance, objective)
    return ReconResult(images=x, objective_trace=trace, iterations=iters,
                       converged=converged)


def _lipschitz(normal_op, shape, iters=40) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v /= np.linalg.norm(v)
    lam = 1.0
    for _ in range(iters):
        w = normal_op(v)
        lam = np.linalg.norm(w)
        if lam == 0:
            return 0.0
        v = w / lam
    return float(lam)


def _soft(values, thresh):
    mag = np.abs(values)
    scale = np.maximum(mag - thresh, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(mag > 0, values / np.where(mag > 0, mag, 1.0) * scale, 0.0)
    return out


def fista_solve(enc: Encoder, y: np.ndarray, regularizer: str = "l1-wavelet",
                cfg: SolverConfig = SolverConfig(),
                wavelet_levels: int = 3) -> ReconResult:
    """Proximal gradient with momentum for l1-regularized least squares.

    The penalty is lam * ||T x||_1 with T the identity or an orthonormal
    wavelet applied per leading-axis image. Momentum restarts whenever the
    objective would increase, so the recorded trace is nonincreasing.
    """
    y = np.asarray(y, complex)
    if regularizer == "l1-identity":
        transform = make_transform("identity")
    elif regularizer == "l1-wavelet":
        transform = make_transform("haar", levels=wavelet_levels)
    else:
        raise ValueError(f"unknown regularizer {regularizer!r}")

    if enc.basis is not None:
        kernel = build_normal_kernel(enc)

        def normal(x):
            return apply_normal_kernel(enc, kernel, x)
    else:
        def normal(x):
            return apply_adjoint(enc, apply_forward(enc, x))

    if cfg.step_rule == "power":
        lip = _lipschitz(normal, enc.domain_shape)
        if not np.isfinite(lip) or lip <= 0:
            raise RuntimeError(f"power iteration produced invalid bound {lip}")
        step = 1.0 / (1.02 * lip)
    else:
        step = cfg.step_size

    def t_apply(x, func):
        return np.stack([func(x[i]) for i in range(x.shape[0])])

    def objective(x):
        resid = apply_forward(enc, x) - y
        coeffs = t_apply(x, transform.forward)
        return 0.5 * _vdot(resid, resid).real + cfg.lam * np.abs(coeffs).sum()

    def prox_step(z):
        grad = apply_adjoint(enc, apply_forward(enc, z) - y)
        w = z - step * grad
        coeffs = t_apply(w, transform.forward)
        return t_apply(_soft(coeffs, cfg.lam * step), transform.adjoint)

    x = np.zeros(enc.domain_shape, complex)
    z = x.copy()
    t_mom = 1.0
    trace = [objective(x)]
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        x_new = prox_step(z)
        f_new = objective(x_new)
        if f_new > trace[-1] + 1e-14 * max(1.0, abs(trace[-1])):
            # restart momentum and take a plain descent step from x
            t_mom = 1.0
            x_new = prox_step(x)
            f_new = objective(x_new)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_mom ** 2))
        z = x_new + ((t_mom - 1) / t_next) * (x_new - x)
        x = x_new
        t_mom = t_next
        prev = trace[-1]
        trace.append(f_new)
        denom = max(abs(prev), 1e-300)
        if abs(prev - f_new) <= cfg.tolerance * denom:
            converged = True
            break
    return ReconResult(images=x, objective_trace=np.asarray(trace),
                       iterations=it, converged=converged)


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
    y = np.asarray(y, complex)
    phi = basis.phi_k

    def project_out(x):
        coeff = np.tensordot(phi.conj().T, x, axes=1)
        return x - np.tensordot(phi, coeff, axes=1)

    def normal(x):
        out = apply_adjoint(enc, apply_forward(enc, x))
        if cfg.mu:
            out = out + cfg.mu * project_out(x)
        return out

    def objective(x):
        resid = apply_forward(enc, x) - y
        val = 0.5 * _vdot(resid, resid).real
        if cfg.mu:
            off = project_out(x)
            val += 0.5 * cfg.mu * _vdot(off, off).real
        return val

    rhs = apply_adjoint(enc, y)
    x0 = np.zeros(enc.domain_shape, complex)
    x, trace, iters, converged = _cg(normal, rhs, x0, cfg.max_iters,
                                     cfg.tolerance, objective)
    return ReconResult(images=x, objective_trace=trace, iterations=iters,
                       converged=converged)


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
    accepted step.
    """
    enc = Encoder(masks, maps)
    y = np.asarray(y, complex)
    rho = np.asarray(init_rho, complex).copy()
    t2 = np.clip(np.asarray(init_t2, float).copy(), *t2_bounds)

    def residual(rho_m, f):
        return apply_forward(enc, rho_m[None] * f) - y

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

        def j_apply(d_rho, u):
            return apply_forward(enc, d_rho[None] * f + u[None] * g)

        def jt_apply(w):
            z = apply_adjoint(enc, w)                    # (T, nx, ny)
            return (np.sum(np.conj(f) * z, axis=0),
                    np.sum(np.conj(g) * z, axis=0).real)

        b_rho, b_u = jt_apply(-r)
        d_rho = np.zeros_like(rho)
        d_u = np.zeros_like(t2)
        rr = (b_rho, b_u)
        p = (rr[0].copy(), rr[1].copy())
        rs = (np.vdot(rr[0], rr[0]).real + np.vdot(rr[1], rr[1]).real)
        rs0 = rs
        for _ in range(inner_iters):
            ap = jt_apply(j_apply(*p))
            denom = (np.vdot(p[0], ap[0]).real + np.vdot(p[1], ap[1]).real)
            if denom <= 0:
                break
            a = rs / denom
            d_rho += a * p[0]
            d_u += a * p[1]
            rr = (rr[0] - a * ap[0], rr[1] - a * ap[1])
            rs_new = (np.vdot(rr[0], rr[0]).real + np.vdot(rr[1], rr[1]).real)
            if rs_new <= 1e-18 * rs0:
                rs = rs_new
                break
            p = (rr[0] + (rs_new / rs) * p[0], rr[1] + (rs_new / rs) * p[1])
            rs = rs_new

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
        if abs(res_norms[-2] - res_norms[-1]) <= cfg.tolerance * denom:
            converged = True
            break
    if not converged:
        log.warning("model-based solve stopped at max_iters=%d with residual %.3e",
                    cfg.max_iters, res_norms[-1])
    return ModelBasedResult(rho_map=rho, t2_map=t2,
                            residual_norms=np.asarray(res_norms),
                            iterations=outer, converged=converged)
