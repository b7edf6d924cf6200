"""Fast-spin-echo signal simulation.

One configuration-state (phase-graph) engine tracks the dephasing orders of
spin ensembles: the step operators (RF mixing, relaxation, gradient shift)
act on an `EpgState` whose trailing axes index a batch, so a single tissue,
a dictionary of tissues, or a scan over trial flips all advance through the
same `advance_echo` step. `simulate_fse_ensemble` advances cache-sized
column blocks over each echo's live dephasing orders only; columns never mix
and the skipped orders cannot reach an echo, so the echoes are bit-identical
to a full-batch, all-orders run; a block's decay factors and refocusing
matrices are built once, outside the echo loop. A brute-force isochromat
integrator solves the rotation/relaxation recursion for each resonant
frequency separately; it is kept apart from the engine as its independent
oracle, and the two agree to near machine precision.

Units at the public boundary are milliseconds and degrees; radians are used
internally.
"""

from __future__ import annotations

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
        if not (self.t1 > 0 and self.t2 > 0):
            raise ValueError("t1 and t2 must be positive")
        if self.t2 > self.t1:
            raise ValueError("t2 must not exceed t1")
        if not self.eta > 0:
            raise ValueError("eta must be positive")


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
        if not self.echo_spacing_ms > 0:
            raise ValueError("echo_spacing_ms must be positive")
        if any(a < 0 or a > 180 for a in flips):
            raise ValueError("flip angles must lie in [0, 180] degrees")
        if self.flip_phases_deg is None:
            object.__setattr__(self, "flip_phases_deg", (0.0,) * len(flips))
        else:
            phases = tuple(float(p) for p in self.flip_phases_deg)
            if len(phases) != len(flips):
                raise ValueError("flip_phases_deg length must match flips_deg")
            object.__setattr__(self, "flip_phases_deg", phases)

    @property
    def n_echoes(self) -> int:
        return len(self.flips_deg)

    @property
    def echo_times_ms(self) -> np.ndarray:
        return self.echo_spacing_ms * np.arange(1, self.n_echoes + 1)

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
    """Configuration-state matrix of a batch of dephasing spin ensembles.

    fplus[k], fminus[k], z[k] hold the transverse (+/- helicity) and
    longitudinal populations at dephasing order k; the leading axis length
    sets the highest order kept. Any trailing axes index independent
    ensembles (tissues, trial flips), so one state advances a whole batch at
    once. The k = 0 transverse states are conjugate mirrors of each other.
    """

    fplus: np.ndarray
    fminus: np.ndarray
    z: np.ndarray

    @classmethod
    def equilibrium(cls, max_order: int, batch_shape=()) -> "EpgState":
        shape = (max_order + 1, *batch_shape)
        state = cls(np.zeros(shape, complex), np.zeros(shape, complex),
                    np.zeros(shape, complex))
        state.z[0] = 1.0
        return state


@dataclass(frozen=True)
class SignalEvolution:
    """Transverse magnetization sampled at the echo times i * Ts."""

    samples: np.ndarray
    echo_spacing_ms: float = 10.0

    @property
    def echo_times_ms(self) -> np.ndarray:
        return self.echo_spacing_ms * np.arange(1, len(self.samples) + 1)


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
    arrays; Z(0) recovers toward equilibrium 1."""
    state.fplus *= e2
    state.fminus *= e2
    state.z *= e1
    state.z[0] += 1.0 - e1


def apply_gradient_shift(state: EpgState) -> None:
    """Advance every transverse state by one dephasing order."""
    state.fplus[1:] = state.fplus[:-1]
    state.fminus[:-1] = state.fminus[1:]
    state.fminus[-1] = 0.0
    state.fplus[0] = np.conj(state.fminus[0])


def advance_echo(state: EpgState, m, e1, e2) -> None:
    """One echo period in place: relax Ts/2, dephase, refocus with the mixing
    matrix m, dephase, relax Ts/2; e1 and e2 are the half-period decay
    factors. The echo is then state.fplus[0]."""
    apply_relaxation(state, e1, e2)
    apply_gradient_shift(state)
    apply_rf(state, m)
    apply_gradient_shift(state)
    apply_relaxation(state, e1, e2)


_BLOCK = 512  # columns per block; at T = 32: 0.9 MB state, 2.4 MB matrices


def required_max_order(n_echoes: int) -> int:
    # Orders beyond T+2 can never return to order 0 within the train, so
    # capping there is exact for the recorded echoes. Echo by echo fewer are
    # live: each echo dephases twice, so echo i (0-based) starts with orders
    # above 2i at exact zeros and fills at most 0..2i+2, and an order above
    # 2(T-i) at its start cannot return to 0 by the last echo. Rows past
    # min(2i+3, 2(T-i)+1) <= T+2 hold zeros or values that cannot reach one.
    return n_echoes + 2


def simulate_fse(tissue: TissueParams, seq: SequenceParams) -> SignalEvolution:
    """Echo train of one tissue: the B = 1 case of simulate_fse_ensemble,
    scaled by the tissue's density."""
    f = simulate_fse_ensemble(tissue.t1, tissue.t2, seq, eta=tissue.eta)
    return SignalEvolution(samples=tissue.rho * f[:, 0],
                           echo_spacing_ms=seq.echo_spacing_ms)


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
    t1 = np.atleast_1d(np.asarray(t1, float))
    t2 = np.atleast_1d(np.asarray(t2, float))
    if t1.shape != t2.shape:
        raise ValueError("t1 and t2 must have the same length")
    # t2 <= t1 is enforced on TissueParams; fitting may probe beyond it.
    if np.any(t1 <= 0) or np.any(t2 <= 0):
        raise ValueError("relaxation times must be positive")
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
    phases = np.asarray(seq.flip_phases_deg, float)[:, None]
    out = np.empty((t, b), complex)
    for lo in range(0, b, _BLOCK):
        cols = slice(lo, lo + _BLOCK)
        e1, e2 = np.exp(-half / t1[cols]), np.exp(-half / t2[cols])
        m = rf_matrix(eta[cols] * flips[:, cols], phases)  # (3, 3, T, block)
        block = EpgState.equilibrium(required_max_order(t), e1.shape)
        apply_rf(block, rf_matrix(eta[cols] * seq.excitation_deg,
                                  seq.excitation_phase_deg))
        for i in range(t):
            n = min(2 * i + 3, 2 * (t - i) + 1)  # see required_max_order
            live = EpgState(block.fplus[:n], block.fminus[:n], block.z[:n])
            advance_echo(live, m[:, :, i], e1, e2)
            out[i, cols] = live.fplus[0]
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
                           n_isochromats: int) -> SignalEvolution:
    """Brute-force oracle: average many isochromats over resonance offsets.

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
    return SignalEvolution(samples=samples, echo_spacing_ms=seq.echo_spacing_ms)


_FD_REL_STEP = 1e-4          # relative step for T1/T2/eta
_FD_ANGLE_STEP_DEG = math.degrees(1e-4)  # absolute step for flip angles


def signal_jacobian(tissue: TissueParams, seq: SequenceParams,
                    wrt=("t2",)) -> np.ndarray:
    """Central-difference sensitivities of the echo train.

    wrt selects columns among 'rho', 't1', 't2', 'eta', 'rf_1'..'rf_T'.
    The density column is exact (the signal is linear in rho); the others use
    central differences with a relative step for relaxation parameters and a
    fixed small angular step for flips. The base train and every +/-h pair
    run as one batch.
    """
    wrt = tuple(wrt)
    n = 1 + 2 * len(wrt)
    values = {name: np.full(n, float(getattr(tissue, name)))
              for name in ("t1", "t2", "eta")}
    flips = np.repeat(np.asarray(seq.flips_deg, float)[:, None], n, axis=1)
    steps = []
    for col, name in enumerate(wrt, start=1):
        plus, minus = 2 * col - 1, 2 * col
        if name == "rho":
            h = None
        elif name in values:
            h = _FD_REL_STEP * abs(values[name][0])
            values[name][[plus, minus]] += (h, -h)
        elif name.startswith("rf_"):
            idx = int(name[3:]) - 1
            if not 0 <= idx < seq.n_echoes:
                raise ValueError(f"no refocusing pulse {name!r}")
            h = _FD_ANGLE_STEP_DEG
            flips[idx, [plus, minus]] += (h, -h)
        else:
            raise ValueError(f"unknown parameter {name!r}")
        steps.append(h)
    sig = tissue.rho * simulate_fse_ensemble(
        values["t1"], values["t2"], seq, eta=values["eta"], flips_deg=flips)
    cols = [sig[:, 0] / tissue.rho if h is None
            else (sig[:, 2 * c - 1] - sig[:, 2 * c]) / (2 * h)
            for c, h in enumerate(steps, start=1)]
    return np.stack(cols, axis=1)
