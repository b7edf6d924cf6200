"""Scan-parameter selection.

Every Cramer-Rao quantity (Fisher matrix, bound, CRLB sweep, the flip
objective under an RF power budget, min-max schedule choice over a tissue
grid) runs on one batched (B, P, P) information builder and one batched
inverse. Also the optimal contrast time of two species and a prospective
flip design that steers the echo amplitudes onto a target level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spinsim import (EpgState, SequenceParams, TissueParams, _frames,
                      _pulses, advance_echo, required_max_order,
                      simulate_fse_ensemble)
from .utils import NonIdentifiableError


@dataclass(frozen=True)
class FisherInfo:
    matrix: np.ndarray
    param_order: tuple
    sigma: float


@dataclass(frozen=True)
class PowerBudget:
    """Cap on the train's RF energy proxy, sum of flip angles squared (rad^2)."""

    limit: float

    def __post_init__(self):
        if not self.limit > 0:
            raise ValueError("power limit must be positive")

    @classmethod
    def from_constant_flip(cls, flip_deg: float, n_echoes: int) -> "PowerBudget":
        return cls(limit=n_echoes * math.radians(flip_deg) ** 2)


def train_power(flips_deg) -> float:
    """Sum of squared flip angles in rad^2."""
    return float(np.sum(np.radians(np.asarray(flips_deg, float)) ** 2))


def fisher_info(tissue: TissueParams, seq: SequenceParams, sigma: float,
                params=("rho", "t2")) -> FisherInfo:
    """Fisher information I = (2/sigma^2) Re(J^H J) of the sensitivities J to
    the selected parameters, for circularly-symmetric complex Gaussian noise
    of total per-sample variance sigma^2 (hence the factor of two)."""
    info = _information(tissue.t1, tissue.t2, tissue.eta, tissue.rho,
                        np.asarray(seq.flips_deg)[:, None], seq, params, sigma)
    return FisherInfo(matrix=info[0], param_order=tuple(params), sigma=sigma)


def crlb(info: FisherInfo, param: str) -> float:
    """Variance lower bound [I^{-1}]_pp for one parameter."""
    if param not in info.param_order:
        raise ValueError(f"{param!r} not among {info.param_order}")
    bound = _bounds(info.matrix[None], info.param_order.index(param))[0]
    if bound < math.inf:
        return float(bound)
    raise NonIdentifiableError(f"singular information for {info.param_order}")


def _information(t1, t2, eta, rho, flips_deg: np.ndarray, seq: SequenceParams,
                 params, sigma=None) -> np.ndarray:
    """(B, P, P) Re(J^H J) of tissue (t1, t2, eta, rho)[b] under the flips
    flips_deg[:, b], broadcast as in the one `_jacobian` batch, times
    2/sigma^2 given sigma; entry pq sums Re(conj(j_p) j_q) over the echoes."""
    if sigma is not None and not 0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    if not params:
        raise ValueError("params must name at least one parameter")
    j = _jacobian(t1, t2, eta, flips_deg, seq, params)
    j[:, [p != "rho" for p in params]] *= np.reshape(rho, (-1, 1, 1))
    info = (j.conj()[:, :, None] * j[:, None]).real.sum(axis=-1)
    info = 0.5 * (info + info.transpose(0, 2, 1))
    return info if sigma is None else (2.0 / sigma ** 2) * info


def _bounds(info: np.ndarray, idx: int) -> np.ndarray:
    """[I^{-1}]_ii of each (P, P) matrix in the batch, inf where a matrix is
    singular: its condition number is not finite or above 1e14."""
    singular = ~(np.linalg.cond(info) <= 1e14)
    safe = np.where(singular[:, None, None], np.eye(info.shape[-1]), info)
    return np.where(singular, math.inf, np.linalg.inv(safe)[:, idx, idx])


def _jacobian(t1, t2, eta, flips_deg: np.ndarray, seq: SequenceParams,
              wrt) -> np.ndarray:
    """(B, P, T) exact sensitivities of unit-density trains, the one derivative
    path under `_information`: column b is tissue (t1, t2, eta)[b] under flips
    flips_deg[:, b] (scalars and one flip column broadcast); wrt names P of
    'rho' (the train), 't1', 't2', 'eta' and 'rf_1'..'rf_T' (per degree). One
    engine batch: the base trains if 'rho' is the only name, else a block per
    other name moved by 1e-30 i, a complex step whose real part is 'rho'."""
    t, b = len(flips_deg), np.broadcast(t1, t2, eta, flips_deg[0]).size
    names = ["t1", "t2", "eta"] + [f"rf_{i}" for i in range(1, t + 1)]
    moved = [name for name in wrt if name != "rho"]
    if not set(moved) <= set(names):
        raise ValueError(f"unknown parameters {sorted(set(moved) - set(names))}"
                         f" (rho, t1, t2, eta or rf_1..rf_{t})")
    _, _, readout, excite = _frames(seq)
    if readout is not None or not isinstance(excite, float):
        raise ValueError("sensitivities need CPMG phases: flip_phases_deg 0"
                         " and excitation_phase_deg 90, mod 180 deg")
    x = np.empty((3 + t, max(len(moved), 1), b), complex)
    x[0], x[1], x[2], x[3:] = t1, t2, eta, flips_deg[:, None]
    x[[names.index(name) for name in moved], range(len(moved))] += 1e-30j
    f = simulate_fse_ensemble(x[0].ravel(), x[1].ravel(), seq, x[2].ravel(),
                              x[3:].reshape(t, -1)).reshape(t, -1, b)
    # one contiguous row per column, so a column's sums do not depend on b
    cols = dict(zip(moved, f.imag.transpose(1, 2, 0) / 1e-30),
                rho=f[:, 0].real.T)
    return np.ascontiguousarray(np.stack([cols[p] for p in wrt], 1), complex)


def _project(flips_rad: np.ndarray, limit: float, min_rad: float,
             max_rad: float) -> np.ndarray:
    """Euclidean projection onto {min_rad <= x <= max_rad} and {|x|^2 <= limit}.

    The minimizer is x = clip(s y, min_rad, max_rad) for the largest s in
    [0, 1] (s = 1/(1+mu) for the ball's multiplier mu) whose power is within
    the limit. With min_rad >= 0 that power is nondecreasing and piecewise
    quadratic in s, so the root is found exactly between two breakpoints.
    Needs limit >= n min_rad^2, so that the set is not empty.
    """
    y = np.asarray(flips_rad, float)
    out = np.clip(y, min_rad, max_rad)
    if out @ out <= limit:
        return out
    pos = y[y > 0]
    # np.sort, not np.unique: that imports numpy.ma, a megabyte of modules
    knots = np.sort(np.concatenate([[0.0, 1.0], min_rad / pos[pos >= min_rad],
                                    max_rad / pos[pos >= max_rad]]))
    power = np.sum(np.clip(knots[:, None] * y, min_rad, max_rad) ** 2, axis=1)
    k = int(np.searchsorted(power, limit, side="right"))
    lo, hi = knots[k - 1], knots[k]
    # within (lo, hi) each entry is either clipped or free (scaled by s)
    mid = np.clip(0.5 * (lo + hi) * y, min_rad, max_rad)
    free = (mid > min_rad) & (mid < max_rad)
    fixed = float(np.sum(mid[~free] ** 2))
    s = math.sqrt(max(limit - fixed, 0.0) / float(y[free] @ y[free]))
    return np.clip(min(max(s, lo), hi) * y, min_rad, max_rad)


@dataclass(frozen=True)
class FlipOptimization:
    flips_deg: np.ndarray
    objective_trace: np.ndarray
    power: float
    converged: bool
    stop_reason: str   # "tolerance", "no ascent step" or "max_iters"


def optimize_flips(tissue: TissueParams, seq_template: SequenceParams,
                   budget: PowerBudget, max_iters: int = 200,
                   min_flip_deg: float = 0.0) -> FlipOptimization:
    """Maximize the T2 Fisher diagonal ||df/dT2||^2 under the power cap.

    Projected L-BFGS ascent over the flip angles (radians) on the feasible set
    {min_flip <= flip <= 180 deg} intersected with {sum flip^2 <= limit},
    starting from the constant schedule at the budget's equal-power angle.
    Each trial point costs one batch: the schedule and its 2T flip offsets by
    +/-1e-3 rad give the value and a central-difference gradient of exact T2
    sensitivities. The first step goes 1 rad along the normalized gradient.
    Later steps follow the L-BFGS direction (memory T, one pair per flip)
    built from the gradient's feasible part: zero at the bounds it pushes
    against and, on the power sphere, orthogonal to the schedule. A trial is
    the projection of the step onto the feasible set and is accepted only if
    it strictly raises the objective; otherwise the step shrinks by quadratic
    interpolation (to between a tenth and a half), and when 12 trials fail the
    memory is dropped for one normalized-gradient search.

    Stops with ``converged=True`` ("tolerance") once the relative increase
    is at most 1e-6 on two consecutive iterations; otherwise with
    "no ascent step" when no trial improves, or "max_iters". The objective
    trace holds the start value and the value after each accepted step, so
    it strictly increases and has one entry more than there were iterations.
    """
    if not 0 <= min_flip_deg <= 180:
        raise ValueError("min_flip_deg must lie in [0, 180] degrees")
    t = seq_template.n_echoes
    const_rad = min(math.sqrt(budget.limit / t), math.pi)
    min_rad = math.radians(min_flip_deg)
    if const_rad < min_rad:
        raise ValueError("no feasible constant schedule under this budget")
    h = 1e-3
    offsets = np.hstack([np.zeros((t, 1)), h * np.eye(t), -h * np.eye(t)])

    def evaluate(x):
        """Objective and its central-difference gradient at x, one batch."""
        vals = _information(tissue.t1, tissue.t2, tissue.eta, 1.0,
                            np.degrees(x[:, None] + offsets), seq_template,
                            ("t2",))[:, 0, 0]
        return float(vals[0]), (vals[1:t + 1] - vals[t + 1:]) / (2 * h)

    def direction(grad, pairs):
        """L-BFGS two-loop product of the inverse-curvature model with grad."""
        if not pairs:
            return grad / np.linalg.norm(grad)
        q, alphas = grad.copy(), []
        for s, y in reversed(pairs):
            a = (s @ q) / (s @ y)
            q -= a * y
            alphas.append(a)
        s, y = pairs[-1]
        q *= (s @ y) / (y @ y)
        for (s, y), a in zip(pairs, reversed(alphas)):
            q += (a - (y @ q) / (s @ y)) * s
        return q

    def tangent(x, g):
        """Orthogonal projector onto the directions that keep x feasible to
        first order, and the power cap's multiplier 2 lambda. The projector
        zeroes the bounds g pushes against and, on the power sphere, takes
        out the part along x over the other coordinates."""
        def projector(free):
            xf = np.where(free, x, 0.0)
            if x @ x < budget.limit * (1 - 1e-12) or not xf @ xf > 0:
                return np.diag(free.astype(float)), 0.0
            return (np.diag(free.astype(float)) - np.outer(xf, xf) / (xf @ xf),
                    (g @ xf) / (xf @ xf))

        r = projector(np.ones(t, bool))[0] @ g
        return projector(~(((x >= math.pi) & (r > 0))
                           | ((x <= min_rad) & (r < 0))))

    flips = np.full(t, const_rad)
    current, grad = evaluate(flips)
    trace = [current]
    pairs = []
    small = 0
    stop_reason = "max_iters"
    for it in range(max_iters):
        # the opening step follows the full gradient, as a plain projected
        # gradient step would
        proj, mult = (np.eye(t), 0.0) if it == 0 else tangent(flips, grad)
        pgrad = proj @ grad
        if not np.any(pgrad):
            stop_reason = "no ascent step"
            break
        step = None
        # the L-BFGS direction, then once without memory if that fails
        for memory in ([pairs, []] if pairs else [[]]):
            d = proj @ direction(pgrad, memory)
            slope, alpha = float(pgrad @ d), 1.0
            for k in range(12):
                cand = _project(flips + alpha * d, budget.limit, min_rad,
                                math.pi)
                value, cand_grad = evaluate(cand)
                if value > current:
                    step = cand, value, cand_grad
                    break
                # maximizer of the quadratic through the value and slope at
                # 0 and the value at alpha, kept within [alpha/10, alpha/2]
                curve = slope * alpha - (value - current)
                alpha *= min(max(0.5 * slope * alpha / curve, 0.1), 0.5)
            if step is not None:
                break
            pairs = []
        if step is None:
            stop_reason = "no ascent step"
            break
        cand, value, cand_grad = step
        # curvature of the Lagrangian f - lambda (|x|^2 - limit), whose
        # constraint term bends the sphere
        s = cand - flips
        y = pgrad - proj @ (cand_grad - mult * s)
        if s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            pairs = (pairs + [(s, y)])[-t:]
        small = small + 1 if value - current <= 1e-6 * abs(current) else 0
        flips, current, grad = cand, value, cand_grad
        trace.append(current)
        if small == 2:
            stop_reason = "tolerance"
            break
    flips_deg = np.degrees(flips)
    return FlipOptimization(flips_deg=flips_deg,
                            objective_trace=np.asarray(trace),
                            power=train_power(flips_deg),
                            converged=stop_reason == "tolerance",
                            stop_reason=stop_reason)


def crlb_t2_sweep(flips_deg, seq_template: SequenceParams, t2_grid_ms,
                  sigma: float = 1.0) -> np.ndarray:
    """CRLB(T2) of one schedule across a T2 grid (single-parameter bound),
    with T1 = max(1000 ms, T2); the whole grid runs as one batch."""
    seq = seq_template.with_flips(flips_deg)
    t2 = np.asarray(t2_grid_ms, float)
    if not np.all(np.isfinite(t2) & (t2 > 0)):
        raise ValueError("t2_grid_ms must be finite and positive")
    bounds = _bounds(_information(np.maximum(1000.0, t2), t2, 1.0, 1.0,
                                  np.asarray(seq.flips_deg)[:, None], seq,
                                  ("t2",), sigma), 0)
    if np.any(bounds == math.inf):
        raise NonIdentifiableError("T2 information is zero or non-finite")
    return bounds


def minmax_grid_search(tissue_grid, candidate_schedules,
                       seq_template: SequenceParams, target_param: str = "t2",
                       sigma: float = 1.0, params=None) -> tuple:
    """Pick the schedule whose worst-case CRLB over the tissue grid is lowest.

    One information batch per schedule (their lengths may differ), with the
    tissues as columns. Singular information marks that (schedule, tissue)
    pair with an infinite cost; ties resolve to the lowest schedule index.
    Returns (index, schedule, worst_case_cost).
    """
    tissue_grid = list(tissue_grid)
    candidate_schedules = [np.asarray(s, float) for s in candidate_schedules]
    if not tissue_grid or not candidate_schedules:
        raise ValueError("need at least one tissue and one schedule")
    params = (target_param,) if params is None else tuple(params)
    if target_param not in params:
        raise ValueError(f"{target_param!r} not among {params}")
    tissues = tuple(zip(*[(t.t1, t.t2, t.eta, t.rho) for t in tissue_grid]))
    best_idx, best_cost = -1, math.inf
    for idx, flips in enumerate(candidate_schedules):
        seq = seq_template.with_flips(flips)
        info = _information(*tissues, flips[:, None], seq, params, sigma)
        worst = float(_bounds(info, params.index(target_param)).max())
        if worst < best_cost:
            best_idx, best_cost = idx, worst
    if best_idx < 0:
        raise NonIdentifiableError("every candidate schedule was singular")
    return best_idx, candidate_schedules[best_idx], best_cost


def optimal_te(t2a: float, t2b: float) -> float:
    """Echo time maximizing the signal difference of two decaying species."""
    if not (0 < t2a < math.inf and 0 < t2b < math.inf):
        raise ValueError("t2a and t2b must be finite and positive")
    if t2a == t2b:
        raise ValueError("species must differ in T2")
    return -math.log(t2a / t2b) / (1.0 / t2a - 1.0 / t2b)


@dataclass(frozen=True)
class AsymptoticDesign:
    flips_deg: np.ndarray
    targets: np.ndarray
    achieved: np.ndarray
    n_controlled: int


def design_asymptotic_flips(tissue: TissueParams, seq_template: SequenceParams,
                            s_target: float, alpha_max_deg: float = 180.0,
                            n_constant: int = 4,
                            approach_tol: float = 1e-3) -> AsymptoticDesign:
    """Solve for flips that steer echo amplitudes onto a target level.

    Per-echo targets approach s_target from the maximum achievable
    first-echo amplitude, halving the excess at each echo; each controlled
    flip is the lowest that reaches its target on the next-echo amplitude
    given the current ensemble state, bracketed on a 0.5 deg grid and
    narrowed to 0.5/32^4 deg by four 33-point subdivisions (one batch each).
    After the approach plus n_constant echoes at the target, the remaining
    flips ramp linearly up to alpha_max.
    """
    if not 0 <= alpha_max_deg <= 180:
        raise ValueError("alpha_max_deg must lie in [0, 180] degrees")
    if not n_constant >= 0:
        raise ValueError("n_constant must be nonnegative")
    if not approach_tol > 0:
        raise ValueError("approach_tol must be positive")
    t = seq_template.n_echoes
    half = seq_template.echo_spacing_ms / 2
    e1, e2 = np.exp(-half / tissue.t1), np.exp(-half / tissue.t2)

    # one ensemble on a batch axis of length 1; amplitudes ignore the frames
    state = EpgState.excited(required_max_order(t), seq_template, tissue.eta,
                             (1,))

    def trial(flips_deg, i):
        """The current state advanced through echo i, one column per flip."""
        flips_deg = np.atleast_1d(flips_deg)
        out = EpgState(*(np.repeat(a, flips_deg.size, axis=1)
                         for a in (state.fplus, state.fminus, state.z)))
        advance_echo(out, _pulses(seq_template, flips_deg, tissue.eta, i),
                     e1, e2, _frames(seq_template)[1][i])
        return out

    s1_max = abs(trial(180.0, 0).fplus[0, 0])
    if not 0 < s_target <= s1_max:
        raise ValueError(
            f"target {s_target} outside the achievable range (0, {s1_max:.6g}]")

    # approach segment: the excess over the target halves at each echo
    gap = s1_max - s_target
    n_approach = 0
    while (gap * 0.5 ** (n_approach + 1) > approach_tol * s_target
           and n_approach < t - n_constant):
        n_approach += 1
    n_controlled = min(n_approach + n_constant, t)

    targets = np.full(n_controlled, s_target)
    targets[:n_approach] += gap * 0.5 ** np.arange(1, n_approach + 1)

    # The next-echo amplitude is not monotone in the flip (the stored
    # longitudinal reserve contributes through sin(alpha), which vanishes at
    # 180 deg), so bracket the lowest crossing on a grid, then narrow the
    # bracket by 32-fold subdivisions, each one batch, and keep its upper end.
    scan = np.linspace(0.0, 180.0, 361)
    flips = np.zeros(t)
    achieved = np.zeros(n_controlled)
    for i in range(n_controlled):
        grid = scan
        cand = trial(grid, i)
        amps = np.abs(cand.fplus[0])
        target = targets[i]
        if target > amps.max() * (1 + 1e-12) + 1e-15:
            raise ValueError(
                f"echo {i + 1}: target {target:.6g} unreachable "
                f"(maximum {amps.max():.6g})")
        if amps[0] >= target:
            k = 0
        elif not np.any(amps >= target):
            # target within rounding of the maximum: take the best flip
            k = int(np.argmax(amps))
        else:
            for _ in range(4):
                k = int(np.argmax(amps >= target))
                grid = np.linspace(grid[k - 1], grid[k], 33)
                cand = trial(grid, i)
                amps = np.abs(cand.fplus[0])
            k = int(np.argmax(amps >= target))
        flips[i] = grid[k]
        state = EpgState(*(a[:, k:k + 1] for a in (cand.fplus, cand.fminus,
                                                    cand.z)))
        achieved[i] = abs(state.fplus[0, 0])

    if n_controlled < t:
        last = flips[n_controlled - 1] if n_controlled else alpha_max_deg
        if alpha_max_deg < last:
            raise ValueError("alpha_max lies below the controlled-segment flips")
        ramp = np.linspace(last, alpha_max_deg, t - n_controlled + 1)[1:]
        flips[n_controlled:] = ramp
    return AsymptoticDesign(flips_deg=flips, targets=targets,
                            achieved=achieved, n_controlled=n_controlled)
