"""Fast-spin-echo signal simulation.

One configuration-state (phase-graph) engine advances batches of spin
ensembles (tissues, trial flips) on an `EpgState`'s trailing axes through
one `advance_echo` step. Each period dephases twice around its refocusing
pulse, so only F+/- at even orders and Z at odd orders (at an echo) can
reach an echo; the state holds that family alone, in about T/2 rows, and
Z(0), its T1 recovery and all it feeds are never computed. In its phase
frame, with Z kept as -iZ, a pulse turns ((F+ - F-)/2, -iZ) in their plane;
other phases turn the frame between echoes. Only the phases decide, never
the data: CPMG-phased sequences (refocusing phases 0, excitation 90, mod
180 deg) keep float64 states and relaxation polynomials, and their mirror
F+(0) = F-(0)* is a copy: the run is analytic, so a complex step is exact.
`simulate_fse_ensemble` advances cache-sized column blocks over each echo's
live rows, bit-identical to a full run over every order, with the decay
factors and pulses built outside the echo loop (pulses once per call, on a
length-1 column axis, when all columns share them). A brute-force
isochromat integrator, kept apart from the engine, is its independent
oracle; the two agree to near machine precision.

Shared-pulse batches (`build_ensemble`, `build_dictionary`, the pipeline's
basis), in 4096-column blocks a caller may use one at a time, and every T2
fit's models with exact derivatives are relaxation polynomials from one
cached echo-loop run per sequence; per-column pulses take the engine.

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
    t1, t2 = (np.atleast_1d(np.asarray(x, float)) for x in (t1, t2))
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
    at dephasing order 2j and z[j] the longitudinal one (as -iZ) at 2j + 1,
    in the last pulse's frame, with fplus[0] and fminus[0] conjugate mirrors;
    between a period's two dephasings row j holds order 2j + 1. Trailing
    axes index independent ensembles, so one state advances a whole batch.
    """

    fplus: np.ndarray
    fminus: np.ndarray
    z: np.ndarray

    @classmethod
    def excited(cls, max_order: int, seq, eta=1.0, batch_shape=()):
        """F+(0) = excite sin a of `_frames` for seq's excitation a (times
        eta), and its mirror F-(0): float64 if real, max_order kept."""
        a = eta * seq.excitation_deg * (np.pi / 180)   # np.radians: no complex
        excite = _frames(seq)[3] * np.sin(a)
        state = cls(*np.zeros((3, max_order // 2 + 1, *batch_shape),
                              np.result_type(excite)))
        state.fplus[0] = excite
        state.fminus[0] = np.conj(state.fplus[0])
        return state


@functools.lru_cache(maxsize=64)
def _frames(seq: SequenceParams) -> tuple:
    """Immutable (sign, turns, readout, excite), as the cache hands them to
    every caller. Pulse i acts in the frame psi_i = phi_i mod 180 deg, its
    sine signed by sign_i / 2 = cos(phi_i - psi_i); turns[i] = e^(i(psi_(i-1)
    - psi_i)) (None if 1) carries F+ into it, F- by the conjugate; readout =
    (cos, sin) psi (None if 0) turns echoes back. F+(0) = excite sin a, a
    float if excite = -i e^(i(phi_e - psi_0)) is +/-1 and no frame turns."""
    phi = np.asarray(seq.flip_phases_deg)
    psi = phi % 180
    sign = tuple(np.where((phi - psi) / 180 % 2, -2.0, 2.0))
    turns = (None, *(np.exp(1j * np.radians(p - q)) if p != q else None
                     for p, q in zip(psi[:-1], psi[1:])))
    theta = seq.excitation_phase_deg - psi[0]
    excite = -1j * np.exp(1j * np.radians(theta))
    if (theta - 90) % 180 == 0 and np.all(psi == psi[0]):
        excite = float(round(excite.real))
    r = np.radians(psi)
    readout = (tuple(np.cos(r)), tuple(np.sin(r))) if np.any(psi) else None
    return sign, turns, readout, excite


def _pulses(seq: SequenceParams, flips_deg, eta=1.0, echo=slice(None)):
    """Refocusing pulses a = eta * flips_deg at seq's echoes `echo` (an
    index, or all T on flips' first axis) as `apply_rf`'s (4, *shape) stack,
    sin a signed by `_frames`, from two trig calls per flip; w/2 =
    -sin^2(a/2), or cos^2(a/2) nearer 180 deg."""
    half = np.multiply(eta, flips_deg) * (np.pi / 360)
    s2, c2 = np.sin(half), np.cos(half)
    m = np.empty((4, *half.shape), half.dtype)
    np.multiply(s2 * c2, np.asarray(_frames(seq)[0])[echo, None], out=m[1])
    np.multiply(m[1], 0.5, out=m[2])
    s2, c2 = s2 * s2, c2 * c2
    m[0], m[3] = np.where(c2.real < s2.real, c2, -s2), c2 - s2
    return m


def apply_rf(state: EpgState, m) -> None:
    """Refocus the state in place (it may be a view) by a pulse m = (w/2,
    sin a, sin a/2, cos a) of `_pulses`, in its phase frame: ((F+ - F-)/2,
    -iZ) turns by a. F+ becomes P + d and F- Q - d, d = sin a (-iZ) + w (F+
    - F-)/2, where (P, Q) = (F+, F-), w = cos a - 1, or nearer 180 deg the
    exact swap (F-, F+), w = cos a + 1 > 0, so small refocused parts keep
    their last bits. 9 array passes (10 if every column swaps, 11 if some
    do), real or complex; pulses broadcast against the batch axes."""
    hw, s, hs, c = m
    swap = c.real < 0
    diff = state.fplus - state.fminus
    base, other = state.fplus, state.fminus
    if swap.all():   # one copy, not two selects (most flip-design trials)
        base, other = state.fminus.copy(), state.fplus
    elif swap.any():
        base, other = (np.where(swap, state.fminus, state.fplus),
                       np.where(swap, state.fplus, state.fminus))
    d = s * state.z + hw * diff
    state.z *= c
    state.z -= hs * diff
    np.subtract(other, d, out=state.fminus)
    np.add(base, d, out=state.fplus)


def apply_relaxation(state: EpgState, e1, e2) -> None:
    """Relax all orders by e1 = exp(-t/T1), e2 = exp(-t/T2), scalars or batch
    arrays. Only Z(0) recovers toward equilibrium, and it is not kept."""
    state.fplus *= e2
    state.fminus *= e2
    state.z *= e1


def apply_gradient_shift(state: EpgState, after_rf: bool,
                         mirror=np.conj) -> None:
    """Advance every transverse state by one dephasing order: before the
    pulse F- moves down a row (F-(0) leaves the family), after it F+ moves
    up a row and F+(0) becomes mirror(F-(0)), a copy in a real frame."""
    if after_rf:
        state.fplus[1:] = state.fplus[:-1]
        state.fplus[0] = mirror(state.fminus[0])
    else:
        state.fminus[:-1] = state.fminus[1:]
        state.fminus[-1] = 0.0


def advance_echo(state: EpgState, m, e1, e2, turn=None,
                 mirror=np.conj) -> None:
    """One echo period in place: turn into the pulse's frame (`_frames`),
    relax Ts/2, dephase, refocus with the pulse m of `_pulses`, dephase (by
    `mirror`), relax Ts/2; e1 and e2 are the half-period decay factors. The
    echo is then state.fplus[0], in the pulse's frame. The top row only hands
    F- down to the pulse and takes F+ up from it, so the pulse skips it."""
    if turn is not None:
        state.fplus *= turn
        state.fminus *= turn.conjugate()
    apply_relaxation(state, e1, e2)
    apply_gradient_shift(state, after_rf=False)
    apply_rf(EpgState(state.fplus[:-1], state.fminus[:-1], state.z[:-1]), m)
    apply_gradient_shift(state, after_rf=True, mirror=mirror)
    apply_relaxation(state, e1, e2)


_BLOCK = 512  # columns per block; at T = 32: 0.4 MB state, 0.5 MB pulses


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
    (T, B) array to give each batch element its own refocusing train (flip
    design probes it, so it is not held to [0, 180] deg). Per echo: relax
    Ts/2, dephase, refocus with angle eta * RF_i, dephase, relax Ts/2, then
    record F+(0). Returns a (T, B) complex array of unit-density evolutions;
    scale by rho externally. A complex x + ih (real part checked) gives the
    run at x plus ih times its derivative, under CPMG phases (a complex step).
    """
    flips = seq.flips_deg if flips_deg is None else flips_deg
    dtype = np.result_type(*map(np.asarray, (t1, t2, eta, flips)), float)
    t1, t2 = (np.atleast_1d(np.asarray(x, dtype)) for x in (t1, t2))
    # t2 <= t1 is enforced by check_tissues; fitting may probe beyond it.
    if t1.shape != t2.shape or not np.all((t1.real > 0) & (t2.real > 0)):
        raise ValueError("relaxation times must be positive, of one shape")
    b = t1.size
    eta = np.broadcast_to(np.asarray(eta, dtype), (b,))
    if not np.all(np.isfinite(eta) & (eta.real > 0)):
        raise ValueError("eta must be finite and positive")
    t = seq.n_echoes
    flips = np.asarray(flips, dtype)
    if flips.ndim == 1:
        flips = np.broadcast_to(flips[:, None], (t, b))
    if flips.shape != (t, b) or not np.all(np.isfinite(flips)):
        raise ValueError(f"flips_deg must be finite, of shape ({t}, {b})")

    half = seq.echo_spacing_ms / 2
    shared_rf = np.all(eta == eta[0]) and np.all(flips == flips[:, :1])
    if shared_rf:   # pulses and the excitation's eta on one column
        m, rf_eta = _pulses(seq, flips[:, :1], eta[:1]), eta[:1]
    out = np.empty((t, b), complex)
    for lo in range(0, b, _BLOCK):
        cols = slice(lo, lo + _BLOCK)
        if not shared_rf:
            m, rf_eta = _pulses(seq, flips[:, cols], eta[cols]), eta[cols]
        out[:, cols] = _echo_loop(m, rf_eta, _decay(half, t1[cols]),
                                  _decay(half, t2[cols]), seq)
    return out


def _decay(half, t) -> np.ndarray:
    """e^(-half/t), a complex t by Smith's x (1 - iq) = -half/t: a complex
    step's real part then rounds as a real t's, unlike numpy's / and exp."""
    if not np.iscomplexobj(t):
        return np.exp(-half / t)
    x = -half / (t.real + t.imag * (q := t.imag / t.real))
    return np.exp(x) * np.exp(-1j * x * q)


def _echo_loop(m, eta, e1, e2, seq) -> np.ndarray:
    """The (T, cols) echoes of one column block: seq's excitation at eta,
    then one `advance_echo` per pulse m[:, i] with the turns and mirror of
    seq's `_frames`, each echo read back in the lab frame."""
    t, (_, turns, readout, excite) = m.shape[1], _frames(seq)
    mirror = np.copy if isinstance(excite, float) else np.conj
    block = EpgState.excited(required_max_order(t), seq, eta, e2.shape)
    out = np.empty((t, *e2.shape), block.z.dtype)
    for i in range(t):
        n = max(min(i + 1, t - i), 2) + 1  # see required_max_order
        live = EpgState(block.fplus[:n], block.fminus[:n], block.z[:n])
        advance_echo(live, m[:, i], e1, e2, turns[i], mirror)
        out[i] = live.fplus[0]
    if readout is not None:   # real arithmetic: numpy's complex products
        (c, s), re, im = np.array(readout)[..., None], out.real, out.imag
        out = (re * c - im * s) + 1j * (re * s + im * c)   # round by loop
    return out


# r = e2/e1 is evaluated on [0, R], R >= _R_MAX; the fits at their default
# bounds probe r up to 1.0025 (T2 = 2000, T1 = 1000, Ts = 10 ms)
_R_MAX = 1.01
_POLY_BLOCK = 4096   # 2 MB per block of Chebyshev values or echoes at T = 32


@functools.lru_cache(maxsize=32)
def _chebyshev_bank(seq: SequenceParams, r_max: float) -> np.ndarray:
    """Read-only (3, T, P) Chebyshev coefficients, real for a CPMG-phased
    seq (see `_frames`), on r in [0, r_max] of the relaxation polynomials p_i
    and their first two derivatives in s = 2r/r_max - 1. No path relaxes toward
    equilibrium, so echo i is e1^(2i+2) p_i(e2/e1), p_i of degree <= 2i + 2:
    the echo loop at e1 = 1 on P = 2T + 1 nodes and the closed-form DCT give
    the coefficients, the differentiation matrix those of p_i' and p_i''."""
    t, p = seq.n_echoes, 2 * seq.n_echoes + 1
    theta = np.pi * (np.arange(p) + 0.5) / p
    nodes = _echo_loop(_pulses(seq, np.asarray(seq.flips_deg)[:, None]), 1.0,
                       1.0, r_max / 2 * (1 + np.cos(theta)), seq)
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
    _POLY_BLOCK columns of relaxation polynomials times e1^(2i+2), float64
    for a real bank (CPMG phases), within about 1e-13 of the engine. Columns
    with r outside [0, _R_MAX], and all of a batch of at most P = 2T + 1,
    take the engine in their block: no column's path depends on another's."""
    half = seq.echo_spacing_ms / 2
    with np.errstate(all="ignore"):
        e1 = np.exp(-half / t1)
        r = np.exp(-half / t2) / e1
    rest = ~((t1 > 0) & (t2 > 0) & (r <= _R_MAX))   # NaN r included
    rest |= t1.size <= 2 * seq.n_echoes + 1
    r, e1 = np.where(rest, 0.0, r), np.where(rest, 0.0, e1)
    coef = _chebyshev_bank(seq, _R_MAX)[0]
    for lo in range(0, t1.size, _POLY_BLOCK):
        cols = slice(lo, lo + _POLY_BLOCK)
        block = _chebyshev_sum(coef, r[cols], _R_MAX)
        power = step = e1[cols] ** 2
        for row in block:   # e1^(2i+2) as a running product
            row *= power
            power = power * step
        if np.any(far := rest[cols]):
            echoes = simulate_fse_ensemble(t1[cols][far], t2[cols][far], seq)
            block[:, far] = echoes if block.dtype.kind == "c" else echoes.real
        yield cols, block


def _shared_pulse_ensemble(t1, t2, seq: SequenceParams) -> np.ndarray:
    """The (T, B) array of `_shared_pulse_blocks`."""
    out = np.empty((seq.n_echoes, np.size(t1)), complex)
    for cols, block in _shared_pulse_blocks(t1, t2, seq):
        out[:, cols] = block
    return out


def _axis_rotation(alpha_deg: float, phi_deg: float) -> np.ndarray:
    # Right-handed rotation by alpha about the in-plane axis at azimuth phi.
    a, p = math.radians(alpha_deg), math.radians(phi_deg)
    ca, sa, cp, sp = math.cos(a), math.sin(a), math.cos(p), math.sin(p)
    rx = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
    rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
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
        mm[0], mm[1] = cs * mm[0] - sn * mm[1], sn * mm[0] + cs * mm[1]

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

