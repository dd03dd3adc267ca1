"""Open-system state-engineering protocols for the two-qubit register.

Periodic sequences alternate instantaneous gates with periods of free
relaxation.  One period composes, in chronological order, the exact affine
relaxation propagators and the orthogonal gate representations into an
affine map x -> M x + c on the full coherence space; attracting fixed
points, certified in closed form by a bound |M|_2 <= q (see
_attracting_fixed_point), are the engineered steady states.
simulate_sequence iterates the map and records, per period, the time, the
full coherence vector and its projection onto and angle to a target; the
fixed point's angle comes from the same formula.

The polarization-averaging sequence [tau - V] uses the cyclic coordinate
permutation V: (x1, x2, x3) -> (x2, x3, x1); its fixed point approaches the
equal-coefficient direction as tau -> 0.  Conjugating the period with the
basis-change gate W (Hadamard on the carbon followed by a CNOT) turns the
same averaging core into a preparer of the maximally entangled state: the
period W o map_PPS o W^T has fixed point W applied to the PPS fixed point,
exactly.  The gate steps V, W^T and W are built once and shared by every
standard sequence.

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
The robustness grid is swept as a stack: the pulse compiler, the gate
representation and the period map broadcast over a block of error cells,
whose fixed points come from one batched solve.  Every cell relaxes for the
same time, so one relaxation propagator serves the whole block.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .diagonal import DiagonalVector, diag_slots
from .dynamics import _check_relaxation_time, relax_propagator
from .errors import (NoUniqueFixedPoint, ValidationError, check_count, check_real, ldexp_normal,
                     pow2_scale)
from .pauli import CoherenceVector, build_basis, unitary_rep, _readonly
from .unitary_bound import kappa_channel

# ---------------------------------------------------------------------------
# sequence steps


@dataclass(frozen=True)
class RelaxStep:
    """Free relaxation for tau seconds, a real number stored as a float."""

    tau: float

    def __post_init__(self):
        tau = check_real(self.tau, "relaxation time")
        _check_relaxation_time(tau)
        object.__setattr__(self, "tau", tau)


@dataclass(frozen=True)
class GateStep:
    """Instantaneous gate, stored as its orthogonal coherence-space action.

    `rep` is one (d, d) matrix, or a (..., d, d) stack holding one variant
    of the gate per cell of a sweep; `norm_bound`, sqrt(1 + |G^T G - I|_F)
    at its largest over a stack, bounds |G|_2 of every variant.
    """

    rep: np.ndarray
    name: str = "gate"
    norm_bound: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rep = np.asarray(self.rep, dtype=float)
        if rep.ndim < 2 or rep.shape[-2] != rep.shape[-1]:
            raise ValidationError("gate representation must be square")
        orthogonal = np.isfinite(rep).all()  # first: the product warns on inf and NaN
        if orthogonal:
            excess = rep.swapaxes(-1, -2) @ rep - np.eye(rep.shape[-1])
            orthogonal = np.abs(excess).max(initial=0.0) <= 1e-9
        if not orthogonal:
            raise ValidationError(f"gate {self.name!r} is not orthogonal")
        object.__setattr__(self, "rep", _readonly(rep.copy()))
        frobenius = np.linalg.norm(excess, axis=(-2, -1)).max(initial=0.0)
        object.__setattr__(self, "norm_bound", float(np.sqrt(1.0 + frobenius)))


def gate_step(unitary, name="gate"):
    """GateStep from a Hilbert-space unitary or a stack of them."""
    return GateStep(rep=unitary_rep(unitary), name=name)


@dataclass(frozen=True)
class PeriodicSequence:
    """Ordered steps of one period, iterated `repeat` times (a positive
    integer)."""

    steps: tuple
    repeat: int = 1

    def __post_init__(self):
        steps = tuple(self.steps)
        if not steps:
            raise ValidationError("sequence must contain at least one step")
        for s in steps:
            if not isinstance(s, (RelaxStep, GateStep)):
                raise ValidationError(f"unsupported step {s!r}")
        object.__setattr__(self, "repeat", check_count(self.repeat, "repeat count"))
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


@lru_cache(maxsize=None)
def _standard_gates():
    """The GateSteps V, W^T and W, built once and shared by every sequence:
    steps are frozen and their reps read-only."""
    w = gate_step(bell_basis_change(), "W")
    return gate_step(averaging_permutation(), "V"), GateStep(rep=w.rep.T, name="Wt"), w


def bell_direction():
    """Deviation direction of the pseudo-Bell target, W applied to PPS."""
    return CoherenceVector(n=2, r=_standard_gates()[2].rep @ pps_direction().r)


def pps_sequence(tau, repeat=1):
    """The averaging period [tau - V]: relax, then permute coefficients."""
    v, _, _ = _standard_gates()
    return PeriodicSequence(steps=(RelaxStep(tau), v), repeat=repeat)


def bell_sequence(tau, repeat=1):
    """The conjugated period: W^T first, averaging core, W last.

    Built so that the one-period map is exactly W o map_PPS o W^T, making
    the fixed point the W image of the averaging fixed point.
    """
    v, wt, w = _standard_gates()
    return PeriodicSequence(steps=(wt, RelaxStep(tau), v, w), repeat=repeat)


# ---------------------------------------------------------------------------
# period map and fixed points


def one_period_map(gen, seq):
    """Compose one period into the affine map x -> M x + c.

    A gate step holding a stack of reps gives a stack of maps, M of shape
    (..., d, d) and c of shape (..., d); each relaxation step costs one
    propagator however many maps the stack holds.
    """
    d = gen.dim
    M = np.eye(d)
    c = np.zeros(d)
    for s in seq.steps:
        if isinstance(s, RelaxStep):
            E, b = relax_propagator(gen, s.tau)
            M = E @ M
            c = np.matvec(E, c) + b
        else:
            if s.rep.shape[-1] != d:
                raise ValidationError("gate dimension does not match generator")
            M = s.rep @ M
            c = np.matvec(s.rep, c)
    return M, c


def _one_period_map_of_one(gen, seq):
    """one_period_map of a sequence whose gates are single reps, not stacks."""
    M, c = one_period_map(gen, seq)
    if M.ndim != 2:
        raise ValidationError(
            f"expected one sequence, got gate variants of stack shape {M.shape[:-2]}")
    return M, c


def cond_bound(q):
    """(1 + q)/(1 - q), a bound on cond_2(I - M) for every M with |M|_2 <= q < 1."""
    return (1.0 + q) / (1.0 - q)


def _attracting_fixed_point(gen, seq, M, c):
    """(x, q): x solves (I - M) x = c for seq's period map, or each of a stack.

    q = e^{-gamma T} prod b_g >= |M|_2, with gamma the contraction_rate, T
    the period's total relaxation time and b_g each gate's norm_bound.
    Unless q < 1 and cond_bound(q) <= 1e12, NoUniqueFixedPoint is raised.
    """
    gates = [s.norm_bound for s in seq.steps if isinstance(s, GateStep)]
    q = float(np.exp(-gen.contraction_rate * seq.period_duration) * np.prod(gates))
    if not (q < 1.0 and cond_bound(q) <= 1e12):
        raise NoUniqueFixedPoint("one-period map is not certified attracting: its "
                                 f"bound q = {q:.15g} needs (1 + q)/(1 - q) <= 1e12")
    return np.linalg.solve(np.eye(M.shape[-1]) - M, c[..., None])[..., 0], q


@dataclass(frozen=True)
class FixedPointReport:
    """Fixed point of a periodic sequence and its quality diagnostics.

    contraction_bound is the q that certified x_star; spectral_radius, the
    period map's, decides nothing.  eta_eff is the projection coefficient
    onto the target direction (None without a target); theta the angle
    between the fixed-point deviation and the target direction, radians.
    """

    x_star: CoherenceVector
    spectral_radius: float
    contraction_bound: float
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
        If the bound q does not certify an attracting fixed point, as on
        the bundled model for every relaxation time below about 4.6e-11 s.
    ValidationError
        If a gate of `seq` is a stack of variants (see robustness_sweep).
    """
    M, c = _one_period_map_of_one(gen, seq)
    x, q = _attracting_fixed_point(gen, seq, M, c)
    x_star = CoherenceVector(n=gen.n, r=x)
    eta = theta = None
    if target is not None:
        eta = kappa_channel(x_star, target, tol=kappa_tol)
        theta = float(_angle(x_star.r, target))
    return FixedPointReport(
        x_star=x_star, spectral_radius=float(np.abs(np.linalg.eigvals(M)).max()),
        contraction_bound=q, eta_eff=eta, theta=theta,
    )


def _angle(states, target):
    """Angle of a deviation vector, or of each row of a stack, to target, radians.

    Each vector is first scaled by the power of two that brings its largest
    |entry| into [1/2, 1): exact, so no norm under- or overflows and a
    vector and an exact 2^k multiple of it get the same bits.  A zero
    vector has cosine 0 and so the angle pi/2.
    """
    x, _ = pow2_scale(states, axis=-1)
    t, _ = pow2_scale(target.r)
    norms = np.linalg.norm(x, axis=-1) * np.linalg.norm(t)
    cosine = x @ t / np.maximum(norms, 1e-300)
    return np.arccos(np.clip(cosine, -1.0, 1.0))


@dataclass(frozen=True)
class SequenceResult:
    """Recorded periods: row i of states is the coherence vector at times[i]
    (columns in basis-label order), eta[i] and theta[i] its projection onto
    and angle to the target (NaN without a target)."""

    times: np.ndarray
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
        Record every k-th period, k a positive integer (the final period is
        always recorded).
    target : CoherenceVector, optional
        Direction for the per-period (eta, theta) diagnostics; eta here is
        the plain projection coefficient (no proportionality requirement).

    Returns
    -------
    SequenceResult
        Recorded periods at times m * period_duration (m * 1 for a period
        without relaxation).

    Raises
    ------
    ValidationError
        If the last period's time overflows, or if a recorded period's eta
        lies outside the normal float range; eta is solved with each state
        and the target scaled by the powers of two that bring their largest
        |entry| into [1/2, 1), so it does not overflow on the way.
    """
    check_count(record_every, "record_every")
    dt = seq.period_duration if seq.period_duration > 0 else 1.0
    if not np.isfinite(seq.repeat * dt):
        raise ValidationError(f"{seq.repeat} periods of {dt:g} s overflow the time axis")
    M, c = _one_period_map_of_one(gen, seq)
    x = start.r.copy()
    times, rows = [], []
    for m in range(1, seq.repeat + 1):
        x = M @ x + c
        if m % record_every == 0 or m == seq.repeat:
            times.append(m * dt)
            rows.append(x.copy())
    states = np.asarray(rows)
    if target is not None:
        x, k = pow2_scale(states, axis=1)
        t, j = pow2_scale(target.r)
        eta = ldexp_normal(x @ t / float(t @ t), k - j,
                           "the states' scale puts a period's eta")
        theta = _angle(states, target)
    else:
        eta = np.full(len(states), np.nan)
        theta = np.full(len(states), np.nan)
    return SequenceResult(times=np.asarray(times), states=states, eta=eta, theta=theta)


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
    A = gen.drift[np.ix_(free, free)]
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
    return DiagonalVector(n=2, x=saturated_diagonal(gen, free, x_free))


def saturated_diagonal(gen, free, x_free):
    """Diagonal coordinates of saturation_system states, clamped ones at zero.

    x_free holds the free coordinates of one state, or of one state per row;
    the result has the same leading shape with the diagonal slots last.
    """
    full = np.zeros(np.shape(x_free)[:-1] + (gen.dim,))
    full[..., free] = x_free
    return full[..., list(diag_slots(gen.n))]


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
    """Compose a pulse list into a 4x4 unitary, or a stack of them.

    Rotation angles on the carbon channel scale by (1 + delta_c), on the
    proton channel by (1 + delta_h); coupling delays are unaffected.  Array
    errors broadcast against each other and give one unitary per element,
    shape (..., 4, 4).  Every generator P (ZZ, or Z or cos(phase) X +
    sin(phase) Y on one spin) squares to the identity, so a pulse acts as
    U <- cos(angle/2) U - i sin(angle/2) P U.  A channel other than "C" or
    "H", or a scaled angle that overflows, raises ValidationError.
    """
    delta_c, delta_h = np.broadcast_arrays(np.asarray(delta_c, dtype=float),
                                           np.asarray(delta_h, dtype=float))
    U = np.broadcast_to(np.eye(4, dtype=complex), delta_c.shape + (4, 4)).copy()
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
            half = 0.5 * np.asarray(angle)[..., None, None]
            U = np.cos(half) * U - 1j * np.sin(half) * (P @ U)
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

    Returns builder(delta_c, delta_h) -> PeriodicSequence.  The builder
    takes equal-shape arrays of per-channel amplitude errors (scalars
    included) and compiles the V gate from pulses once per element, so the
    sequence's gate step holds a stack of reps of that shape.
    """
    pulses = averaging_gate_pulses(compensated)

    def build(delta_c, delta_h):
        U = compile_pulses(pulses, delta_c, delta_h)
        return PeriodicSequence(
            steps=(RelaxStep(tau), gate_step(U, name="V(pulses)")),
        )

    return build


#: Sweep cells pushed through the period map and fixed-point solve at once;
#: bounds the working memory whatever the grid size.
SWEEP_CHUNK = 64


@dataclass(frozen=True)
class RobustnessResult:
    """Relative fixed-point error over an amplitude-error grid.

    delta[i, j] corresponds to (delta_c[i], delta_h[j]); contraction_bound,
    the largest q of the sweep's chunks, bounds |M|_2 of every perturbed map.
    """

    delta_c: np.ndarray
    delta_h: np.ndarray
    delta: np.ndarray
    contraction_bound: float

    @property
    def max_delta(self):
        return float(self.delta.max())


def robustness_sweep(gen, seq_builder, delta_c_values, delta_h_values, reference):
    """Fixed-point sensitivity to per-channel control-amplitude errors.

    The grid is swept as a stack: each block of SWEEP_CHUNK cells is one
    builder call, one one-period map (one relaxation propagator) and one
    batched fixed-point solve.

    Parameters
    ----------
    gen : AffineGenerator
    seq_builder : callable
        (delta_c, delta_h) -> PeriodicSequence, called with two equal-shape
        1-D arrays of errors, one entry per cell; the sequence's gate step
        holds the matching stack of reps (see pps_pulse_sequence_builder).
    delta_c_values, delta_h_values : array-like
        Grid of relative amplitude errors per channel.
    reference : CoherenceVector
        State against which errors are measured, such as the fixed point
        of the ideal pps_sequence.

    Returns
    -------
    RobustnessResult
        delta = |x_perturbed - x_reference| / |x_reference| on deviation
        parts (Frobenius norm of the operator difference divided by the
        reference norm equals exactly this vector-space ratio).  Both
        norms are taken after scaling by the power of two that brings the
        reference's largest |entry| into [1/2, 1), so delta neither under-
        nor overflows and an exact 2^k multiple of the model gets its bits.

    Raises
    ------
    NoUniqueFixedPoint
        If a chunk's bound q does not certify attraction, as in fixed_point.
    ValidationError
        If the reference is all zero.
    """
    dc = np.asarray(delta_c_values, dtype=float)
    dh = np.asarray(delta_h_values, dtype=float)
    ref = reference.r
    if not np.any(ref):
        raise ValidationError("reference fixed point must be nonzero")
    cells_c, cells_h = (g.ravel() for g in np.meshgrid(dc, dh, indexing="ij"))
    x, q = np.empty((cells_c.size, gen.dim)), 0.0
    for lo in range(0, cells_c.size, SWEEP_CHUNK):
        chunk = slice(lo, lo + SWEEP_CHUNK)
        seq = seq_builder(cells_c[chunk], cells_h[chunk])
        x[chunk], q_chunk = _attracting_fixed_point(gen, seq, *one_period_map(gen, seq))
        q = max(q, q_chunk)
    unit, e = pow2_scale(ref)
    diff = np.ldexp(x - ref, -e)  # exact, as is the reference's scaling
    delta = np.sqrt(np.vecdot(diff, diff)) / np.linalg.norm(unit)
    return RobustnessResult(delta_c=dc, delta_h=dh, delta=delta.reshape((len(dc), len(dh))),
                            contraction_bound=q)
