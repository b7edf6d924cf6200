"""Fast-spin-echo signal simulation.

One configuration-state (phase-graph) engine advances batches of spin
ensembles (tissues, trial flips) on an `EpgState`'s trailing axes through
one `advance_echo` step. Each period dephases twice around its refocusing
pulse, so only F+/- at even orders and Z at odd orders (at an echo) can
reach an echo; the state holds that family alone, in about T/2 rows, and
Z(0), its T1 recovery and all it feeds are never computed.
`simulate_fse_ensemble` advances cache-sized column blocks over each echo's
live rows, bit-identical to a full run over every order, with the decay
factors and pulse matrices built outside the echo loop (once per call, on a
length-1 column axis, when all columns share them). A brute-force
isochromat integrator, kept apart from the engine, is its independent
oracle; the two agree to near machine precision.

Shared-pulse batches (`build_ensemble`, `build_dictionary`, the pipeline's
basis), in 4096-column blocks a caller may use one at a time, and every T2
fit's models with exact derivatives are relaxation polynomials from one
cached echo-loop run per sequence; per-column pulses take the engine.
A CPMG-phased sequence (refocusing phases 0, excitation 90, mod 180 deg)
keeps its states real in (F+, F-, -iZ): its matrices, states and polynomials
are float64, and its echoes complex with zero imaginary parts.

A batch of tissues is a pair of float arrays (t1, t2), validated by
`check_tissues`; an echo train is a bare (T,) array and a batch of them a
(T, B) array. Units at the public boundary are milliseconds and degrees;
radians are used internally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class TissueParams:
    """Intrinsic voxel parameters.

    rho is the (complex) proton density, t1/t2 the relaxation time constants
    in milliseconds, and eta a dimensionless transmit-field scale that
    multiplies every flip angle.
    """

    rho: complex = 1.0
    t1: float = 1000.0
    t2: float = 100.0
    eta: float = 1.0

    def __post_init__(self):
        check_tissues(self.t1, self.t2)
        if not self.eta > 0:
            raise ValueError("eta must be positive")


def check_tissues(t1, t2) -> tuple:
    """A batch of tissues as float arrays (t1, t2) in ms, with the checks a
    `TissueParams` makes of one: both times positive and t2 <= t1."""
    t1, t2 = np.asarray(t1, float), np.asarray(t2, float)
    if t1.shape != t2.shape or t1.size == 0:
        raise ValueError("t1 and t2 must be nonempty and of one shape")
    if not (np.all(t1 > 0) and np.all(t2 > 0)):
        raise ValueError("t1 and t2 must be positive")
    if np.any(t2 > t1):
        raise ValueError("t2 must not exceed t1")
    return t1, t2


@dataclass(frozen=True)
class SequenceParams:
    """Echo-train controls: excitation, refocusing train, and timing.

    The default pulse phases (excitation about +y, refocusing about +x)
    realize the CPMG condition: with 180 deg refocusing the echoes are
    real-positive pure exponentials.
    """

    flips_deg: tuple = ()
    echo_spacing_ms: float = 10.0
    excitation_deg: float = 90.0
    excitation_phase_deg: float = 90.0
    flip_phases_deg: tuple | None = None

    def __post_init__(self):
        flips = tuple(float(a) for a in self.flips_deg)
        object.__setattr__(self, "flips_deg", flips)
        if len(flips) < 1:
            raise ValueError("need at least one refocusing pulse")
        if not 0 < self.echo_spacing_ms < math.inf:
            raise ValueError("echo_spacing_ms must be finite and positive")
        if not all(0 <= a <= 180 for a in flips):
            raise ValueError("flips_deg must lie in [0, 180] degrees")
        if not 0 <= self.excitation_deg <= 180:
            raise ValueError("excitation_deg must lie in [0, 180] degrees")
        if self.flip_phases_deg is None:
            object.__setattr__(self, "flip_phases_deg", (0.0,) * len(flips))
        else:
            phases = tuple(float(p) for p in self.flip_phases_deg)
            if len(phases) != len(flips):
                raise ValueError("flip_phases_deg length must match flips_deg")
            object.__setattr__(self, "flip_phases_deg", phases)
        for name in ("excitation_phase_deg", "flip_phases_deg"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")

    @property
    def n_echoes(self) -> int:
        return len(self.flips_deg)

    def with_flips(self, flips_deg) -> "SequenceParams":
        flips = tuple(float(a) for a in flips_deg)
        phases = self.flip_phases_deg if len(flips) == len(self.flips_deg) else None
        return replace(self, flips_deg=flips, flip_phases_deg=phases)


def constant_train(n_echoes: int, flip_deg: float = 180.0,
                   echo_spacing_ms: float = 10.0, **kwargs) -> SequenceParams:
    """Convenience constructor for a constant-flip echo train."""
    return SequenceParams(flips_deg=(flip_deg,) * n_echoes,
                          echo_spacing_ms=echo_spacing_ms, **kwargs)


@dataclass
class EpgState:
    """Echo-reachable configuration states of a batch of spin ensembles.

    At an echo fplus[j], fminus[j] hold the transverse (+/- helicity) states
    at dephasing order 2j and z[j] the longitudinal one at 2j + 1, with
    fplus[0] and fminus[0] conjugate mirrors; between a period's two
    dephasings row j holds order 2j + 1. Trailing axes index independent
    ensembles, so one state advances a whole batch at once.
    """

    fplus: np.ndarray
    fminus: np.ndarray
    z: np.ndarray

    @classmethod
    def excited(cls, max_order: int, excite, batch_shape=()) -> "EpgState":
        """The excitation `excite` tipping Z(0) = 1 into F+(0) = excite[0, 2]
        and its mirror F-(0), orders up to max_order kept, in its dtype."""
        shape = (max_order // 2 + 1, *batch_shape)
        state = cls(*(np.zeros(shape, excite.dtype) for _ in range(3)))
        state.fplus[0] = excite[0, 2]
        state.fminus[0] = np.conj(state.fplus[0])
        return state


def rf_matrix(alpha_deg, phi_deg) -> np.ndarray:
    """3x3 mixing matrix of an RF pulse acting on (F+, F-, Z) per order.

    alpha is the flip angle and phi the pulse phase (rotation axis azimuth),
    both in degrees. Array arguments give one matrix per batch element, with
    their broadcast shape as trailing axes: (3, 3, *batch). The same matrix
    applies at every dephasing order.
    """
    a = np.radians(alpha_deg)
    eip = np.exp(1j * np.radians(phi_deg))
    sa = np.sin(a)
    m = np.empty((3, 3) + np.broadcast(a, eip).shape, complex)
    m[0, 0] = m[1, 1] = np.cos(a / 2) ** 2
    m[0, 1] = eip * eip * np.sin(a / 2) ** 2
    m[1, 0] = np.conj(m[0, 1])
    m[0, 2] = -1j * eip * sa
    m[1, 2] = np.conj(m[0, 2])
    m[2, 0] = -0.5j * np.conj(eip) * sa
    m[2, 1] = np.conj(m[2, 0])
    m[2, 2] = np.cos(a)
    return m


def _pulses(seq: SequenceParams, flips_deg, eta=1.0, echo=slice(None)):
    """Mixing matrices (3, 3, *shape) of eta * flips_deg at the phases of
    seq's echoes `echo` (an index, or all T on flips' first axis), or at its
    excitation phase (echo None): `rf_matrix`'s, unless seq is CPMG-phased
    (refocusing phases 0, excitation phase 90, mod 180 deg). Then states stay
    real in (F+, F-, -iZ) under the real D^-1 M D, D = diag(1, 1, i), with
    cos phi = +/-1; the excitation, at its phase less 90 deg, has rf_matrix's
    F+(0) at [0, 2]. Only the phases decide, never the data."""
    phases = np.asarray(seq.flip_phases_deg)
    real = np.all(phases % 180 == 0) and seq.excitation_phase_deg % 180 == 90
    phases = (seq.excitation_phase_deg - 90 * real if echo is None
              else phases[echo, None])
    if not real:
        return rf_matrix(eta * flips_deg, phases)
    a = np.radians(eta * flips_deg)
    sa = np.where(phases % 360 == 0, 1.0, -1.0) * np.sin(a)
    m = np.empty((3, 3) + sa.shape)
    m[0, 0] = m[1, 1] = np.cos(a / 2) ** 2
    m[0, 1] = m[1, 0] = np.sin(a / 2) ** 2
    m[0, 2], m[1, 2] = sa, -sa
    m[2, 0], m[2, 1] = -0.5 * sa, 0.5 * sa
    m[2, 2] = np.cos(a)
    return m


def apply_rf(state: EpgState, m) -> None:
    """Mix the state's (F+, F-, Z) triples in place with an RF mixing matrix.

    m comes from `rf_matrix`; per-element matrices broadcast against the
    state's batch axes.
    """
    fp = m[0, 0] * state.fplus + m[0, 1] * state.fminus + m[0, 2] * state.z
    fm = m[1, 0] * state.fplus + m[1, 1] * state.fminus + m[1, 2] * state.z
    # the longitudinal row reads the old z last, so it is mixed in place; all
    # rows are written in place, so the state may be a view of a larger one
    state.z *= m[2, 2]
    state.z += m[2, 0] * state.fplus
    state.z += m[2, 1] * state.fminus
    state.fplus[...] = fp
    state.fminus[...] = fm


def apply_relaxation(state: EpgState, e1, e2) -> None:
    """Relax all orders by e1 = exp(-t/T1), e2 = exp(-t/T2), scalars or batch
    arrays. Only Z(0) recovers toward equilibrium, and it is not kept."""
    state.fplus *= e2
    state.fminus *= e2
    state.z *= e1


def apply_gradient_shift(state: EpgState, after_rf: bool) -> None:
    """Advance every transverse state by one dephasing order: before the
    pulse F- moves down a row (F-(0) leaves the family), after it F+ moves
    up a row and F+(0) becomes the mirror of F-(0)."""
    if after_rf:
        state.fplus[1:] = state.fplus[:-1]
        state.fplus[0] = np.conj(state.fminus[0])
    else:
        state.fminus[:-1] = state.fminus[1:]
        state.fminus[-1] = 0.0


def advance_echo(state: EpgState, m, e1, e2) -> None:
    """One echo period in place: relax Ts/2, dephase, refocus with the mixing
    matrix m, dephase, relax Ts/2; e1 and e2 are the half-period decay
    factors. The echo is then state.fplus[0]. The top row only hands F- down
    to the pulse and takes F+ up from it, so the pulse skips it."""
    apply_relaxation(state, e1, e2)
    apply_gradient_shift(state, after_rf=False)
    apply_rf(EpgState(state.fplus[:-1], state.fminus[:-1], state.z[:-1]), m)
    apply_gradient_shift(state, after_rf=True)
    apply_relaxation(state, e1, e2)


_BLOCK = 512  # columns per block; at T = 32: 0.4 MB state, 2.4 MB matrices


def required_max_order(n_echoes: int) -> int:
    # At an echo, F+(2j) and Z(2j+1) need j + 1 more periods to reach order 0
    # and F-(2j) needs j, while echo i (0-based) fills F+/- up to order 2i + 2.
    # So echo i refocuses rows 0..min(i, T-1-i), at least two (numpy takes a
    # different complex-multiply loop for one row, changing last bits), plus
    # one row that F- moves down from and F+ up into; the rest cannot reach
    # an echo. Transverse orders up to this cover every echo:
    return 2 * max((n_echoes + 1) // 2, 2)


def simulate_fse(tissue: TissueParams, seq: SequenceParams) -> np.ndarray:
    """(T,) echo train of one tissue, sampled at the echo times i * Ts: the
    B = 1 case of simulate_fse_ensemble, scaled by the tissue's density."""
    f = simulate_fse_ensemble(tissue.t1, tissue.t2, seq, eta=tissue.eta)
    return tissue.rho * f[:, 0]


def simulate_fse_ensemble(t1: np.ndarray, t2: np.ndarray, seq: SequenceParams,
                          eta: np.ndarray | float = 1.0,
                          flips_deg: np.ndarray | None = None) -> np.ndarray:
    """Phase-graph recursion over a batch of tissues.

    t1, t2 (and optionally eta) are length-B arrays; flips_deg may be a
    (T, B) array to give each batch element its own refocusing train (used by
    flip-angle optimization and finite differences, so it is not held to
    [0, 180] deg). Per echo: relax Ts/2, dephase, refocus with angle
    eta * RF_i, dephase, relax Ts/2, then record F+(0). Returns a (T, B)
    complex array of unit-density evolutions; scale by rho externally.
    """
    t1, t2 = (np.atleast_1d(np.asarray(x, float)) for x in (t1, t2))
    if t1.shape != t2.shape:
        raise ValueError("t1 and t2 must have the same length")
    # t2 <= t1 is enforced by check_tissues; fitting may probe beyond it.
    if not (np.all(t1 > 0) and np.all(t2 > 0)):
        raise ValueError("relaxation times must be positive (not NaN)")
    b = t1.size
    eta = np.broadcast_to(np.asarray(eta, float), (b,))
    if not np.all(np.isfinite(eta) & (eta > 0)):
        raise ValueError("eta must be finite and positive")
    t = seq.n_echoes
    if flips_deg is None:
        flips = np.broadcast_to(np.asarray(seq.flips_deg, float)[:, None], (t, b))
    else:
        flips = np.asarray(flips_deg, float)
        if flips.ndim == 1:
            flips = np.broadcast_to(flips[:, None], (t, b))
        if flips.shape != (t, b):
            raise ValueError(f"flips_deg must have shape ({t}, {b})")
        if not np.all(np.isfinite(flips)):
            raise ValueError("flips_deg must be finite")

    half = seq.echo_spacing_ms / 2

    def pulses(cols):  # refocusing (3, 3, T, cols) and excitation matrices
        return (_pulses(seq, flips[:, cols], eta[cols]),
                _pulses(seq, seq.excitation_deg, eta[cols], None))

    shared_rf = np.all(eta == eta[0]) and np.all(flips == flips[:, :1])
    shared_e1 = np.all(t1 == t1[0])
    if shared_rf:
        m, excite = pulses(slice(0, 1))
    if shared_e1:
        e1 = np.exp(-half / t1[:1])
    out = np.empty((t, b), complex)
    for lo in range(0, b, _BLOCK):
        cols = slice(lo, lo + _BLOCK)
        if not shared_rf:
            m, excite = pulses(cols)
        if not shared_e1:
            e1 = np.exp(-half / t1[cols])
        _echo_loop(out[:, cols], m, excite, e1, np.exp(-half / t2[cols]))
    return out


def _echo_loop(out, m, excite, e1, e2) -> None:
    """Write the (T, cols) echoes of one column block into out: the
    excitation, then one `advance_echo` per refocusing matrix m[:, :, i]."""
    t = out.shape[0]
    block = EpgState.excited(required_max_order(t), excite, e2.shape)
    for i in range(t):
        n = max(min(i + 1, t - i), 2) + 1  # see required_max_order
        live = EpgState(block.fplus[:n], block.fminus[:n], block.z[:n])
        advance_echo(live, m[:, :, i], e1, e2)
        out[i] = live.fplus[0]


# r = e2/e1 is evaluated on [0, R], R >= _R_MAX; the fits at their default
# bounds probe r up to 1.0025 (T2 = 2000, T1 = 1000, Ts = 10 ms)
_R_MAX = 1.01
_POLY_BLOCK = 4096   # 2 MB per block of Chebyshev values or echoes at T = 32


@functools.lru_cache(maxsize=32)
def _chebyshev_bank(seq: SequenceParams, r_max: float) -> np.ndarray:
    """Read-only (3, T, P) Chebyshev coefficients, real for a CPMG-phased
    seq (see `_pulses`), on r in [0, r_max] of the relaxation polynomials p_i
    and their first two derivatives in s = 2r/r_max - 1. No path relaxes toward
    equilibrium, so echo i is e1^(2i+2) p_i(e2/e1), p_i of degree <= 2i + 2:
    the echo loop at e1 = 1 on P = 2T + 1 nodes and the closed-form DCT give
    the coefficients, the differentiation matrix those of p_i' and p_i''."""
    t, p = seq.n_echoes, 2 * seq.n_echoes + 1
    theta = np.pi * (np.arange(p) + 0.5) / p
    excite = _pulses(seq, seq.excitation_deg, echo=None)
    nodes = np.empty((t, p), excite.dtype)
    _echo_loop(nodes, _pulses(seq, np.asarray(seq.flips_deg)[:, None]),
               excite, 1.0, r_max / 2 * (1 + np.cos(theta)))
    coef = nodes @ np.cos(np.outer(theta, np.arange(p))) * (2 / p)
    coef[:, 0] /= 2
    j = np.arange(p)
    diff = np.where((j > j[:, None]) & ((j + j[:, None]) % 2 == 1), 2.0 * j,
                    0.0).T       # coef @ diff: the series of the derivative
    diff[:, 0] /= 2
    bank = np.stack([coef, coef @ diff, coef @ diff @ diff])
    bank.flags.writeable = False
    return bank


def _chebyshev_sum(coef, r, r_max) -> np.ndarray:
    """The (n, P) series coef summed at r in [0, r_max] by the recurrence of
    T_j(2r/r_max - 1) and one real GEMM (a complex coef as real rows, then
    imaginary), over whole 8-column tiles: BLAS sums a trailing partial tile
    in another kernel, so a column would otherwise round by its position."""
    s = np.zeros(-(-r.size // 8) * 8)
    s[:r.size] = r * (2 / r_max) - 1
    cheb = np.empty((coef.shape[1], s.size))
    cheb[0], cheb[1] = 1.0, s
    s *= 2
    prev2, prev = cheb[:2]
    for row in cheb[2:]:
        np.multiply(s, prev, out=row)
        row -= prev2
        prev2, prev = prev, row
    if coef.dtype.kind == "f":
        return (coef @ cheb)[:, :r.size]
    vals = (np.concatenate([coef.real, coef.imag]) @ cheb)[:, :r.size]
    return vals[:len(coef)] + 1j * vals[len(coef):]


def _relaxation_model(seq: SequenceParams, t1_ms: float, t2_max_ms: float,
                      project=None):
    """evaluate(t2) -> m, dm/du and d2m/du2 (u = log T2), each (T|K, B), of
    unit-density trains at one T1, compressed by a (K, T) project if given.

    With e1^(2i+2) and project folded into the bank, an evaluation is one
    recurrence and one GEMM; with s' = (2/R) r half/T2, dm/du = p'(s) s' and
    d2m/du2 = p''(s) s'^2 + p'(s) s' (half/T2 - 1). [0, R] reaches r at
    t2_max_ms, as extrapolating amplifies rounding (1e11 at r = 1.05).
    """
    t, half = seq.n_echoes, seq.echo_spacing_ms / 2
    e1 = math.exp(-half / t1_ms)
    r_max = max(_R_MAX, math.exp(-half / t2_max_ms) / e1)
    bank = _chebyshev_bank(seq, r_max)
    c = bank * e1 ** np.arange(2, 2 * t + 1, 2)[:, None]
    c = (c if project is None else project @ c).reshape(-1, bank.shape[2])

    def evaluate(t2):
        r = np.exp(-half / t2) / e1
        m, dp, d2p = _chebyshev_sum(c, r, r_max).reshape(3, -1, r.size)
        ds = (2 / r_max) * r * half / t2
        return m, dp * ds, (d2p * ds + dp * (half / t2 - 1)) * ds
    return evaluate


def _shared_pulse_blocks(t1, t2, seq: SequenceParams):
    """`simulate_fse_ensemble(t1, t2, seq)` as (cols, (T, b) block) pairs of
    _POLY_BLOCK columns of relaxation polynomials with a per-column e1^(2i+2),
    within about 1e-13 of the engine. At most P = 2T + 1 columns, or all
    with r outside [0, _R_MAX], are one engine block; else such columns take
    the engine in their block, so no column's path depends on another's."""
    t1, t2 = (np.atleast_1d(np.asarray(x, float)) for x in (t1, t2))
    t, half = seq.n_echoes, seq.echo_spacing_ms / 2
    with np.errstate(all="ignore"):
        e1 = np.exp(-half / t1)
        r = np.exp(-half / t2) / e1
    rest = ~((t1 > 0) & (t2 > 0) & (r <= _R_MAX))   # NaN r included
    if t1.size <= 2 * t + 1 or np.all(rest):
        yield slice(None), simulate_fse_ensemble(t1, t2, seq)
        return
    r, e1 = np.where(rest, 0.0, r), np.where(rest, 0.0, e1)
    coef = _chebyshev_bank(seq, _R_MAX)[0]
    for lo in range(0, t1.size, _POLY_BLOCK):
        cols = slice(lo, lo + _POLY_BLOCK)
        vals = _chebyshev_sum(coef, r[cols], _R_MAX)
        block = np.zeros(vals.shape, complex)   # real sums fill its real part
        np.multiply(vals, e1[cols] ** np.arange(2, 2 * t + 1, 2)[:, None],
                    out=block if vals.dtype.kind == "c" else block.real)
        if np.any(far := rest[cols]):
            block[:, far] = simulate_fse_ensemble(t1[cols][far],
                                                  t2[cols][far], seq)
        yield cols, block


def _shared_pulse_ensemble(t1, t2, seq: SequenceParams) -> np.ndarray:
    """The (T, B) array of `_shared_pulse_blocks`."""
    out = np.empty((seq.n_echoes, np.size(t1)), complex)
    for cols, block in _shared_pulse_blocks(t1, t2, seq):
        out[:, cols] = block
    return out


def _axis_rotation(alpha_deg: float, phi_deg: float) -> np.ndarray:
    # Right-handed rotation by alpha about the in-plane axis at azimuth phi.
    a = math.radians(alpha_deg)
    p = math.radians(phi_deg)
    rx = np.array([[1, 0, 0],
                   [0, math.cos(a), -math.sin(a)],
                   [0, math.sin(a), math.cos(a)]])
    rz = np.array([[math.cos(p), -math.sin(p), 0],
                   [math.sin(p), math.cos(p), 0],
                   [0, 0, 1]])
    return rz @ rx @ rz.T


def bloch_isochromat_train(tissue: TissueParams, seq: SequenceParams,
                           n_isochromats: int) -> np.ndarray:
    """Brute-force oracle for `simulate_fse`: the (T,) echo train as the
    average of many isochromats over resonance offsets.

    Each isochromat accrues a fixed dephasing angle per half echo spacing,
    with the angles uniformly spaced over [0, 2pi). Once n_isochromats
    exceeds every populated dephasing order the average is an exact
    quadrature and reproduces the phase-graph result.
    """
    t = seq.n_echoes
    if n_isochromats < 2 * (t + 1):
        raise ValueError("need n_isochromats >= 2 * (n_echoes + 1)")
    psi = 2 * np.pi * np.arange(n_isochromats) / n_isochromats
    cs, sn = np.cos(psi), np.sin(psi)

    m = np.zeros((3, n_isochromats))
    m[2] = 1.0
    e1h = math.exp(-seq.echo_spacing_ms / 2 / tissue.t1)
    e2h = math.exp(-seq.echo_spacing_ms / 2 / tissue.t2)

    def relax_half(mm):
        mm[0] *= e2h
        mm[1] *= e2h
        mm[2] = mm[2] * e1h + (1.0 - e1h)

    def dephase(mm):
        mx = cs * mm[0] - sn * mm[1]
        my = sn * mm[0] + cs * mm[1]
        mm[0], mm[1] = mx, my

    m = _axis_rotation(tissue.eta * seq.excitation_deg,
                       seq.excitation_phase_deg) @ m
    samples = np.zeros(t, complex)
    for i in range(t):
        relax_half(m)
        dephase(m)
        m = _axis_rotation(tissue.eta * seq.flips_deg[i],
                           seq.flip_phases_deg[i]) @ m
        dephase(m)
        relax_half(m)
        samples[i] = tissue.rho * np.mean(m[0] + 1j * m[1])
    return samples

