"""Open-system state-engineering protocols for the two-qubit register.

Periodic sequences alternate instantaneous gates with periods of free
relaxation.  One period composes, in chronological order, the exact affine
relaxation propagators and the orthogonal gate representations into an
affine map x -> M x + c on the full coherence space; attracting fixed
points (spectral radius of M below one) are the engineered steady states.

The polarization-averaging sequence [tau - V] uses the cyclic coordinate
permutation V: (x1, x2, x3) -> (x2, x3, x1); its fixed point approaches the
equal-coefficient direction as tau -> 0.  Conjugating the period with the
basis-change gate W (Hadamard on the carbon followed by a CNOT) turns the
same averaging core into a preparer of the maximally entangled state: the
period W o map_PPS o W^T has fixed point W applied to the PPS fixed point,
exactly.

Saturating one spin (strong resonant irradiation) is modeled by clamping
every coordinate that involves that spin to zero and solving the remaining
linear steady state; cross-relaxation then overpolarizes the other spin.

For robustness studies the gates are compiled from an explicit pulse-level
decomposition (single-spin rotations plus scalar-coupling delays) whose
rotation angles scale with per-channel amplitude errors.  Each pulse is the
closed-form rotation cos(angle/2) I - i sin(angle/2) P, exact because its
Pauli generator P squares to the identity.  The default decomposition wraps
every rotation in a BB1 composite, which suppresses amplitude miscalibration
to third order; a plain uncompensated variant is available for comparison.
"""

from dataclasses import dataclass

import numpy as np

from .diagonal import project
from .dynamics import relax_propagator
from .errors import NoUniqueFixedPoint, ValidationError
from .pauli import CoherenceVector, build_basis, unitary_rep, _readonly
from .unitary_bound import kappa_channel
from .chloroform import TrajectorySample

# ---------------------------------------------------------------------------
# sequence steps


@dataclass(frozen=True)
class RelaxStep:
    """Free relaxation for tau seconds."""

    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValidationError("relaxation time must be finite and >= 0")


@dataclass(frozen=True)
class GateStep:
    """Instantaneous gate, stored as its orthogonal coherence-space action."""

    rep: np.ndarray
    name: str = "gate"

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=float)
        if rep.ndim != 2 or rep.shape[0] != rep.shape[1]:
            raise ValidationError("gate representation must be square")
        if not np.allclose(rep.T @ rep, np.eye(len(rep)), atol=1e-9):
            raise ValidationError(f"gate {self.name!r} is not orthogonal")
        object.__setattr__(self, "rep", _readonly(rep.copy()))


def gate_step(unitary, name="gate", n=None):
    """GateStep from a Hilbert-space unitary."""
    return GateStep(rep=unitary_rep(unitary, n=n), name=name)


@dataclass(frozen=True)
class PeriodicSequence:
    """Ordered steps of one period, iterated `repeat` times."""

    steps: tuple
    repeat: int = 1

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValidationError("sequence must contain at least one step")
        for s in steps:
            if not isinstance(s, (RelaxStep, GateStep)):
                raise ValidationError(f"unsupported step {s!r}")
        if self.repeat < 1:
            raise ValidationError("repeat count must be >= 1")
        object.__setattr__(self, "steps", steps)

    @property
    def period_duration(self):
        return sum(s.tau for s in self.steps if isinstance(s, RelaxStep))


# ---------------------------------------------------------------------------
# standard gates

_PAULI = dict(zip(build_basis(2).labels, build_basis(2).matrices))


def averaging_permutation():
    """Unitary whose diagonal action is (x1, x2, x3) -> (x2, x3, x1).

    As a permutation of the computational basis it is the 3-cycle
    |01> -> |11> -> |10> -> |01>, fixing |00>.
    """
    P = np.zeros((4, 4), dtype=complex)
    for src, dst in [(0, 0), (1, 3), (2, 1), (3, 2)]:
        P[dst, src] = 1.0
    return P


def bell_basis_change():
    """W = CNOT(C -> H) . (Hadamard on C); maps |00> to the Bell state."""
    cnot = 0.5 * (_PAULI["II"] + _PAULI["ZI"] + _PAULI["IX"] - _PAULI["ZX"])
    return cnot @ ((_PAULI["XI"] + _PAULI["ZI"]) / np.sqrt(2))


def pps_direction():
    """Unit-effective-purity deviation of the pseudo-pure target.

    The state II/4 + (eta/4)(ZI + IZ + ZZ) has deviation coefficients
    eta/4 on each diagonal slot; this returns the eta = 1 direction.
    """
    basis = build_basis(2)
    r = np.zeros(basis.dim)
    for lab in ("ZI", "IZ", "ZZ"):
        r[basis.index(lab)] = 0.25
    return CoherenceVector(n=2, r=r)


def bell_direction():
    """Deviation direction of the pseudo-Bell target, W applied to PPS."""
    wrep = unitary_rep(bell_basis_change())
    return CoherenceVector(n=2, r=wrep @ pps_direction().r)


def pps_sequence(tau, repeat=1):
    """The averaging period [tau - V]: relax, then permute coefficients."""
    steps = (RelaxStep(tau), gate_step(averaging_permutation(), "V"))
    return PeriodicSequence(steps=steps, repeat=repeat)


def bell_sequence(tau, repeat=1):
    """The conjugated period: W^T first, averaging core, W last.

    Built so that the one-period map is exactly W o map_PPS o W^T, making
    the fixed point the W image of the averaging fixed point.
    """
    wrep = unitary_rep(bell_basis_change())
    steps = (GateStep(rep=wrep.T, name="Wt"), RelaxStep(tau),
             gate_step(averaging_permutation(), "V"), GateStep(rep=wrep, name="W"))
    return PeriodicSequence(steps=steps, repeat=repeat)


# ---------------------------------------------------------------------------
# period map and fixed points


def one_period_map(gen, seq):
    """Compose one period into the affine map x -> M x + c."""
    d = gen.dim
    M = np.eye(d)
    c = np.zeros(d)
    for s in seq.steps:
        if isinstance(s, RelaxStep):
            E, b = relax_propagator(gen, s.tau)
            M = E @ M
            c = E @ c + b
        else:
            if s.rep.shape[0] != d:
                raise ValidationError("gate dimension does not match generator")
            M = s.rep @ M
            c = s.rep @ c
    return M, c


def spectral_radius(M):
    return float(np.abs(np.linalg.eigvals(M)).max())


def _attracting_fixed_point(M, c):
    """(x, rho) with (I - M) x = c and rho the spectral radius of M.

    Raises NoUniqueFixedPoint unless rho < 1 and cond(I - M) <= 1e12.
    """
    sr = spectral_radius(M)
    eye_minus = np.eye(len(M)) - M
    cond = np.linalg.cond(eye_minus)
    if not (sr < 1.0 and cond <= 1e12):
        raise NoUniqueFixedPoint(
            "one-period map has no attracting fixed point "
            f"(spectral radius {sr:.6f}, cond(I - M) {cond:.3e})"
        )
    return np.linalg.solve(eye_minus, c), sr


@dataclass(frozen=True)
class FixedPointReport:
    """Fixed point of a periodic sequence and its quality diagnostics.

    eta_eff is the projection coefficient onto the target direction (None
    without a target); theta the angle between the fixed-point deviation
    and the target direction, radians.
    """

    x_star: CoherenceVector
    spectral_radius: float
    eta_eff: float = None
    theta: float = None


def fixed_point(gen, seq, target=None, kappa_tol=0.12):
    """Solve x* = M x* + c and report convergence and target alignment.

    Parameters
    ----------
    gen : AffineGenerator
    seq : PeriodicSequence
    target : CoherenceVector, optional
        Deviation direction for eta/theta diagnostics (e.g. pps_direction()).
    kappa_tol : float
        Proportionality tolerance forwarded to the channel projection.

    Raises
    ------
    NoUniqueFixedPoint
        If the fixed point is not attracting: the one-period map's spectral
        radius is not below one or cond(I - M) exceeds 1e12.
    """
    x, sr = _attracting_fixed_point(*one_period_map(gen, seq))
    x_star = CoherenceVector(n=gen.n, r=x)
    eta = theta = None
    if target is not None:
        eta = kappa_channel(x_star, target, tol=kappa_tol)
        theta = angle_to(x_star, target)
    return FixedPointReport(
        x_star=x_star, spectral_radius=sr, eta_eff=eta, theta=theta
    )


def angle_to(state, target):
    """Angle between two deviation vectors, radians."""
    nx, nt = np.linalg.norm(state.r), np.linalg.norm(target.r)
    if nx == 0.0 or nt == 0.0:
        return float("nan")
    cosine = float(state.r @ target.r) / (nx * nt)
    return float(np.arccos(np.clip(cosine, -1.0, 1.0)))


@dataclass(frozen=True)
class SequenceResult:
    """Recorded periodic trajectory with per-period target diagnostics."""

    trajectory: TrajectorySample
    states: np.ndarray
    eta: np.ndarray
    theta: np.ndarray


def simulate_sequence(gen, seq, start, record_every=1, target=None):
    """Iterate the one-period map, recording states every few periods.

    Parameters
    ----------
    gen : AffineGenerator
    seq : PeriodicSequence
        `seq.repeat` is the number of periods simulated.
    start : CoherenceVector
    record_every : int
        Record every k-th period (the final period is always recorded).
    target : CoherenceVector, optional
        Direction for the per-period (eta, theta) diagnostics; eta here is
        the plain projection coefficient (no proportionality requirement).

    Returns
    -------
    SequenceResult
    """
    if record_every < 1:
        raise ValidationError("record_every must be >= 1")
    M, c = one_period_map(gen, seq)
    basis = build_basis(gen.n)
    x = start.r.copy()
    dt = seq.period_duration if seq.period_duration > 0 else 1.0
    times, rows = [], []
    for m in range(1, seq.repeat + 1):
        x = M @ x + c
        if m % record_every == 0 or m == seq.repeat:
            times.append(m * dt)
            rows.append(x.copy())
    states = np.asarray(rows)
    if target is not None:
        t_sq = float(target.r @ target.r)
        eta = states @ target.r / t_sq
        norms = np.linalg.norm(states, axis=1)
        cosine = states @ target.r / np.maximum(
            norms * np.linalg.norm(target.r), 1e-300
        )
        theta = np.arccos(np.clip(cosine, -1.0, 1.0))
    else:
        eta = np.full(len(states), np.nan)
        theta = np.full(len(states), np.nan)
    observables = {
        lab: states[:, k] for k, lab in enumerate(basis.labels[1:])
    }
    traj = TrajectorySample(times=np.asarray(times), observables=observables)
    return SequenceResult(trajectory=traj, states=states, eta=eta, theta=theta)


# ---------------------------------------------------------------------------
# spin saturation


def saturation_system(gen, saturated):
    """Linear dynamics left free under continuous saturation of one spin.

    Every coordinate whose label involves the saturated spin (any non-I
    operator at its position) is clamped to zero; the remaining coordinates
    obey dx/dt = A x + v[free].

    Parameters
    ----------
    gen : AffineGenerator (two-qubit)
    saturated : str
        "C" (first position) or "H" (second position).

    Returns
    -------
    (free, A, x_free)
        Indices of the unclamped coordinates in the coherence vector, the
        drift restricted to them, and their stationary point.
    """
    if gen.n != 2:
        raise ValidationError("saturation model is defined for two qubits")
    pos = {"C": 0, "H": 1}.get(saturated)
    if pos is None:
        raise ValidationError('saturated spin must be "C" or "H"')
    basis = build_basis(2)
    free = [
        k - 1
        for k, lab in enumerate(basis.labels)
        if k > 0 and lab[pos] == "I"
    ]
    A = (gen.Hmat - gen.Rmat)[np.ix_(free, free)]
    x_free = np.linalg.solve(-A, gen.v[free])
    return free, A, x_free


def noe_steady_state(gen, saturated):
    """Steady state under continuous saturation of one spin.

    The stationary point of saturation_system, with the clamped coordinates
    at zero.  Cross-relaxation feeds the untouched spin, which can exceed
    its thermal polarization.

    Returns
    -------
    DiagonalVector
    """
    free, _, x_free = saturation_system(gen, saturated)
    full = np.zeros(gen.dim)
    full[free] = x_free
    return project(CoherenceVector(n=2, r=full))


# ---------------------------------------------------------------------------
# pulse-level gate model


@dataclass(frozen=True)
class XYPulse:
    """Rotation about cos(phase) X + sin(phase) Y on one channel."""

    channel: str
    phase: float
    angle: float


@dataclass(frozen=True)
class ZPulse:
    """Rotation about Z on one channel."""

    channel: str
    angle: float


@dataclass(frozen=True)
class CouplingDelay:
    """Free scalar-coupling evolution exp(-i angle/2 ZZ)."""

    angle: float


def compile_pulses(pulses, delta_c=0.0, delta_h=0.0):
    """Compose a pulse list into a 4x4 unitary.

    Rotation angles on the carbon channel scale by (1 + delta_c), on the
    proton channel by (1 + delta_h); coupling delays are unaffected.  Every
    generator P (ZZ, or Z or cos(phase) X + sin(phase) Y on one spin) squares
    to the identity, so a pulse acts as U <- cos(angle/2) U - i sin(angle/2) P U.
    A channel other than "C" or "H", or a scaled angle that overflows, raises
    ValidationError.
    """
    U = np.eye(4, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf angle is caught below
        for p in pulses:
            if isinstance(p, CouplingDelay):
                P, angle = _PAULI["ZZ"], p.angle
            elif p.channel not in ("C", "H"):
                raise ValidationError('pulse channel must be "C" or "H"')
            else:
                on = "{}I" if p.channel == "C" else "I{}"
                angle = p.angle * (1.0 + (delta_c if p.channel == "C" else delta_h))
                if isinstance(p, ZPulse):
                    P = _PAULI[on.format("Z")]
                else:
                    P = (np.cos(p.phase) * _PAULI[on.format("X")]
                         + np.sin(p.phase) * _PAULI[on.format("Y")])
            U = np.cos(0.5 * angle) * U - 1j * np.sin(0.5 * angle) * (P @ U)
    if not np.isfinite(U).all():
        raise ValidationError("a pulse angle overflows: amplitude error too large")
    return U


def bb1_composite(channel, phase, angle):
    """BB1 composite rotation: amplitude errors cancel to third order."""
    phi = float(np.arccos(-angle / (4.0 * np.pi)))
    return [
        XYPulse(channel, phase, angle / 2.0),
        XYPulse(channel, phase + phi, np.pi),
        XYPulse(channel, phase + 3.0 * phi, 2.0 * np.pi),
        XYPulse(channel, phase + phi, np.pi),
        XYPulse(channel, phase, angle / 2.0),
    ]


def cnot_pulses(control, target, compensated=True):
    """CNOT from two y-pulses around a coupling delay, one x-pulse, one z.

    Up to a global phase, CNOT = exp(i pi/4 (I - Z_c)(I - X_t)); the
    two-spin factor is realized by conjugating the coupling delay with
    +-pi/2 y-rotations on the target.
    """
    half = np.pi / 2.0
    seq = [
        XYPulse(target, half, -half),   # y(-pi/2)
        CouplingDelay(-half),
        XYPulse(target, half, half),    # y(+pi/2)
        XYPulse(target, 0.0, half),     # x(+pi/2)
        ZPulse(control, half),
    ]
    if not compensated:
        return seq
    out = []
    for p in seq:
        if isinstance(p, XYPulse):
            out.extend(bb1_composite(p.channel, p.phase, p.angle))
        else:
            out.append(p)
    return out


def averaging_gate_pulses(compensated=True):
    """Pulse decomposition of the coefficient-averaging gate V.

    V factors exactly as CNOT(H -> C) . CNOT(C -> H) (chronological order:
    C -> H first), verified against the permutation representation.
    """
    return cnot_pulses("C", "H", compensated) + cnot_pulses("H", "C", compensated)


def pps_pulse_sequence_builder(tau, compensated=True):
    """Factory of perturbed averaging sequences for robustness scans.

    Returns builder(delta_c, delta_h) -> PeriodicSequence with the V gate
    compiled from pulses at the given per-channel amplitude errors.
    """
    pulses = averaging_gate_pulses(compensated)

    def build(delta_c, delta_h):
        U = compile_pulses(pulses, delta_c, delta_h)
        return PeriodicSequence(
            steps=(RelaxStep(tau), gate_step(U, name="V(pulses)")),
        )

    return build


@dataclass(frozen=True)
class RobustnessResult:
    """Relative fixed-point error over an amplitude-error grid.

    delta[i, j] corresponds to (delta_c[i], delta_h[j]); cells where the
    perturbed map loses its attracting fixed point hold NaN and are flagged
    in `failed`.
    """

    delta_c: np.ndarray
    delta_h: np.ndarray
    delta: np.ndarray
    failed: np.ndarray

    @property
    def max_delta(self):
        return float(np.nanmax(self.delta))


def robustness_sweep(gen, seq_builder, delta_c_values, delta_h_values,
                     reference=None):
    """Fixed-point sensitivity to per-channel control-amplitude errors.

    Parameters
    ----------
    gen : AffineGenerator
    seq_builder : callable
        (delta_c, delta_h) -> PeriodicSequence.
    delta_c_values, delta_h_values : array-like
        Grid of relative amplitude errors per channel.
    reference : CoherenceVector, optional
        State against which errors are measured; defaults to the fixed
        point of seq_builder(0, 0).

    Returns
    -------
    RobustnessResult
        delta = |x_perturbed - x_reference| / |x_reference| on deviation
        parts (Frobenius norm of the operator difference divided by the
        reference norm equals exactly this vector-space ratio).
    """
    dc = np.asarray(delta_c_values, dtype=float)
    dh = np.asarray(delta_h_values, dtype=float)
    if reference is None:
        reference = fixed_point(gen, seq_builder(0.0, 0.0)).x_star
    ref = reference.r
    ref_norm = np.linalg.norm(ref)
    if ref_norm == 0.0:
        raise ValidationError("reference fixed point must be nonzero")
    delta = np.full((len(dc), len(dh)), np.nan)
    failed = np.zeros((len(dc), len(dh)), dtype=bool)
    for i, a in enumerate(dc):
        for j, b in enumerate(dh):
            M, c = one_period_map(gen, seq_builder(a, b))
            try:
                x, _ = _attracting_fixed_point(M, c)
            except NoUniqueFixedPoint:
                failed[i, j] = True
                continue
            delta[i, j] = np.linalg.norm(x - ref) / ref_norm
    return RobustnessResult(delta_c=dc, delta_h=dh, delta=delta, failed=failed)

