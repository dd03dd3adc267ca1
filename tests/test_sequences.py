import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from reachset import (
    CoherenceVector,
    GateStep,
    NoUniqueFixedPoint,
    PeriodicSequence,
    RelaxStep,
    ResidualTooLarge,
    ValidationError,
    bell_direction,
    bell_sequence,
    diag_slots,
    fixed_point,
    kappa_channel,
    noe_steady_state,
    one_period_map,
    pps_direction,
    pps_pulse_sequence_builder,
    pps_sequence,
    robustness_sweep,
    simulate_sequence,
    unitary_rep,
)
from reachset.chloroform import RateSet, assemble_generator
from reachset.dynamics import AffineGenerator, relax_propagator
from reachset.sequences import (
    SWEEP_CHUNK,
    CouplingDelay,
    ZPulse,
    _attracting_fixed_point,
    averaging_gate_pulses,
    averaging_permutation,
    bell_basis_change,
    compile_pulses,
    cond_bound,
    gate_step,
)


def thermal(gen):
    return CoherenceVector(n=2, r=gen.r_eq)


# ---------------------------------------------------------------------------
# gates and directions


def test_averaging_gate_is_cyclic_on_diagonal():
    rep = unitary_rep(averaging_permutation())
    slots = list(diag_slots(2))
    sub = rep[np.ix_(slots, slots)]
    np.testing.assert_allclose(sub, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], atol=1e-12)


def test_bell_gate_maps_ground_to_bell():
    w = bell_basis_change()
    ground = np.zeros(4, dtype=complex)
    ground[0] = 1.0
    bell = w @ ground
    np.testing.assert_allclose(
        bell, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-12
    )


def test_bell_direction_is_rotated_pps():
    wrep = unitary_rep(bell_basis_change())
    np.testing.assert_allclose(
        bell_direction().r, wrep @ pps_direction().r, atol=1e-15
    )


# ---------------------------------------------------------------------------
# period maps


def test_zero_relax_is_identity(chloroform_gen):
    M, c = one_period_map(chloroform_gen, PeriodicSequence((RelaxStep(0.0),)))
    np.testing.assert_allclose(M, np.eye(15), atol=1e-12)
    np.testing.assert_allclose(c, 0.0, atol=1e-12)


def test_pure_gate_period(chloroform_gen):
    step = gate_step(averaging_permutation(), "V")
    M, c = one_period_map(chloroform_gen, PeriodicSequence((step,)))
    np.testing.assert_allclose(M, step.rep, atol=1e-15)
    np.testing.assert_allclose(c, 0.0, atol=1e-15)


def test_averaging_period_is_attracting(chloroform_gen):
    seq = pps_sequence(1.5)
    M, c = one_period_map(chloroform_gen, seq)
    _, q = _attracting_fixed_point(chloroform_gen, seq, M, c)
    assert np.linalg.norm(M, 2) <= q < 1.0


def test_pure_gate_has_no_unique_fixed_point(chloroform_gen):
    seq = PeriodicSequence((gate_step(averaging_permutation(), "V"),))
    with pytest.raises(NoUniqueFixedPoint):
        fixed_point(chloroform_gen, seq)


# ---------------------------------------------------------------------------
# fixed points


def test_pps_fixed_point_quality(chloroform_gen):
    report = fixed_point(chloroform_gen, pps_sequence(1.5), target=pps_direction())
    assert 7.4 < report.eta_eff < 8.3
    assert report.theta < 0.06
    assert report.spectral_radius < 1.0
    # the fixed point solves the period map
    M, c = one_period_map(chloroform_gen, pps_sequence(1.5))
    np.testing.assert_allclose(M @ report.x_star.r + c, report.x_star.r, atol=1e-9)


def test_short_relax_aligns_with_target(chloroform_gen):
    report = fixed_point(chloroform_gen, pps_sequence(0.01), target=pps_direction())
    assert report.theta < 1e-3


def test_fixed_point_is_iteration_limit(chloroform_gen):
    M, c = one_period_map(chloroform_gen, pps_sequence(1.5))
    report = fixed_point(chloroform_gen, pps_sequence(1.5))
    x = chloroform_gen.r_eq.copy()
    for _ in range(500):
        x = M @ x + c
    assert np.linalg.norm(x - report.x_star.r) < 1e-8


def test_fixed_point_start_independent(chloroform_gen, rng):
    M, c = one_period_map(chloroform_gen, pps_sequence(1.5))
    finals = []
    for _ in range(3):
        x = rng.normal(size=15)
        for _ in range(600):
            x = M @ x + c
        finals.append(x)
    assert np.linalg.norm(finals[0] - finals[1]) < 1e-8
    assert np.linalg.norm(finals[0] - finals[2]) < 1e-8


def test_bell_period_is_conjugated_averaging(chloroform_gen):
    wrep = unitary_rep(bell_basis_change())
    Mp, cp = one_period_map(chloroform_gen, pps_sequence(1.5))
    Mb, cb = one_period_map(chloroform_gen, bell_sequence(1.5))
    np.testing.assert_allclose(Mb, wrep @ Mp @ wrep.T, atol=1e-10)
    np.testing.assert_allclose(cb, wrep @ cp, atol=1e-10)
    fp_p = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star.r
    fp_b = fixed_point(chloroform_gen, bell_sequence(1.5)).x_star.r
    np.testing.assert_allclose(fp_b, wrep @ fp_p, atol=1e-10)


def test_eta_and_theta_vs_relax_time(chloroform_gen):
    # the projection coefficient moves by less than a percent over the
    # usable range while the misalignment angle grows monotonically
    etas, thetas = [], []
    for tau in (0.01, 0.5, 1.5, 3.0):
        rep = fixed_point(
            chloroform_gen, pps_sequence(tau), target=pps_direction(),
            kappa_tol=0.5,
        )
        etas.append(rep.eta_eff)
        thetas.append(rep.theta)
    assert max(etas) / min(etas) < 1.01
    assert all(b > a for a, b in zip(thetas, thetas[1:]))
    assert thetas[0] < 1e-3


# ---------------------------------------------------------------------------
# saturation


def test_noe_carbon_saturation(chloroform_gen):
    x = noe_steady_state(chloroform_gen, "C")
    rs = RateSet()
    expected = (4 * rs.r4 + 16 * rs.r2) / (4 * rs.r2)
    np.testing.assert_allclose(x.x, [0.0, expected, 0.0], atol=1e-12)
    assert expected == pytest.approx(4.2309, abs=1e-3)


def test_noe_proton_saturation(chloroform_gen):
    x = noe_steady_state(chloroform_gen, "H")
    rs = RateSet()
    expected = (rs.r1 + 4 * rs.r4) / rs.r1
    np.testing.assert_allclose(x.x, [expected, 0.0, 0.0], atol=1e-12)


def test_noe_without_cross_relaxation():
    gen = assemble_generator(RateSet(r4=0.0, r5=0.0, r6=0.0))
    x = noe_steady_state(gen, "C")
    np.testing.assert_allclose(x.x, [0.0, 4.0, 0.0], atol=1e-12)


def test_noe_spin_validation(chloroform_gen):
    with pytest.raises(ValidationError):
        noe_steady_state(chloroform_gen, "N")


# ---------------------------------------------------------------------------
# simulation


def test_simulation_converges_at_map_rate(chloroform_gen):
    seq = pps_sequence(1.5, repeat=60)
    result = simulate_sequence(
        chloroform_gen, seq, thermal(chloroform_gen), target=pps_direction()
    )
    fp = fixed_point(chloroform_gen, pps_sequence(1.5))
    dist = np.linalg.norm(result.states - fp.x_star.r, axis=1)
    ratios = dist[40:] / dist[39:-1]
    assert np.abs(ratios - fp.spectral_radius).max() < 0.05
    assert result.theta[-1] == pytest.approx(fp.theta if fp.theta else 0.0, abs=1e-3) \
        or result.theta[-1] < 0.06


def test_simulation_from_fixed_point_is_constant(chloroform_gen):
    fp = fixed_point(chloroform_gen, pps_sequence(1.5))
    result = simulate_sequence(
        chloroform_gen, pps_sequence(1.5, repeat=10), fp.x_star
    )
    assert np.abs(result.states - fp.x_star.r).max() < 1e-9


def test_bell_simulation_aligns(chloroform_gen):
    seq = bell_sequence(1.5, repeat=400)
    result = simulate_sequence(
        chloroform_gen, seq, thermal(chloroform_gen), record_every=50,
        target=bell_direction(),
    )
    assert result.theta[-1] < 0.06


def test_trajectories_respect_purity_sphere(chloroform_gen, chloroform_bound):
    seq = pps_sequence(1.5, repeat=100)
    result = simulate_sequence(chloroform_gen, seq, thermal(chloroform_gen))
    norms_sq = np.sum(result.states ** 2, axis=1)
    assert norms_sq.max() <= chloroform_bound.radius_sq * (1 + 1e-6)


# ---------------------------------------------------------------------------
# pulse-level gates and robustness


def test_pulse_compilation_matches_permutation():
    target = unitary_rep(averaging_permutation())
    for compensated in (False, True):
        pulses = averaging_gate_pulses(compensated)
        rep = unitary_rep(compile_pulses(pulses))
        np.testing.assert_allclose(rep, target, atol=1e-12)


def _compile_with_expm(pulses, delta_c, delta_h):
    """Reference: one matrix exponential per pulse, generators built by kron."""
    pauli = {
        "I": np.eye(2),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.diag([1.0, -1.0]),
    }
    U = np.eye(4, dtype=complex)
    for p in pulses:
        if isinstance(p, CouplingDelay):
            gen_op, angle = np.kron(pauli["Z"], pauli["Z"]), p.angle
        else:
            angle = p.angle * (1.0 + (delta_c if p.channel == "C" else delta_h))
            if isinstance(p, ZPulse):
                axis = pauli["Z"]
            else:
                axis = np.cos(p.phase) * pauli["X"] + np.sin(p.phase) * pauli["Y"]
            ops = (axis, pauli["I"]) if p.channel == "C" else (pauli["I"], axis)
            gen_op = np.kron(*ops)
        U = expm(-0.5j * angle * gen_op) @ U
    return U


@pytest.mark.parametrize("compensated", [True, False])
def test_pulse_compilation_matches_expm_off_nominal(compensated):
    pulses = averaging_gate_pulses(compensated)
    deltas = np.random.default_rng(61).uniform(-0.1, 0.1, size=(24, 2))
    worst = max(
        np.abs(compile_pulses(pulses, dc, dh) - _compile_with_expm(pulses, dc, dh)).max()
        for dc, dh in deltas
    )
    assert worst <= 1e-13


def test_robustness_sweep_compensated(chloroform_gen):
    builder = pps_pulse_sequence_builder(1.5, compensated=True)
    grid = np.linspace(-0.05, 0.05, 5)
    reference = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star
    result = robustness_sweep(chloroform_gen, builder, grid, grid, reference)
    center = result.delta[2, 2]
    assert center < 1e-9
    assert result.max_delta <= 0.1
    assert np.isfinite(result.delta).all()
    # smoothness across neighbouring cells
    assert np.abs(np.diff(result.delta, axis=0)).max() < 0.05
    assert np.abs(np.diff(result.delta, axis=1)).max() < 0.05


def test_robustness_sweep_plain_is_worse(chloroform_gen):
    grid = np.array([-0.05, 0.0, 0.05])
    reference = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star
    compensated = robustness_sweep(
        chloroform_gen, pps_pulse_sequence_builder(1.5, True), grid, grid, reference
    )
    plain = robustness_sweep(
        chloroform_gen, pps_pulse_sequence_builder(1.5, False), grid, grid, reference
    )
    assert plain.max_delta > 10 * compensated.max_delta


# ---------------------------------------------------------------------------
# stacked sweeps: every cell's bytes equal a one-cell computation


def _off_nominal(shape, seed):
    return np.random.default_rng(seed).uniform(-0.1, 0.1, size=(2, *shape))


@pytest.mark.parametrize("compensated", [True, False])
def test_stacked_pulses_and_reps_match_one_cell(compensated):
    pulses = averaging_gate_pulses(compensated)
    dc, dh = _off_nominal((3, 4), 71)
    U = compile_pulses(pulses, dc, dh)
    rep = unitary_rep(U)
    assert U.shape == (3, 4, 4, 4) and rep.shape == (3, 4, 15, 15)
    for i, j in np.ndindex(3, 4):
        one = compile_pulses(pulses, dc[i, j], dh[i, j])
        assert np.array_equal(U[i, j], one)
        assert np.array_equal(rep[i, j], unitary_rep(one))
    # a scalar error broadcasts against an array
    assert np.array_equal(compile_pulses(pulses, dc, 0.0),
                          compile_pulses(pulses, dc, np.zeros_like(dh)))


@pytest.mark.parametrize("compensated", [True, False])
def test_stacked_period_map_matches_one_cell(chloroform_gen, compensated):
    build = pps_pulse_sequence_builder(1.5, compensated)
    dc, dh = _off_nominal((7,), 72)
    M, c = one_period_map(chloroform_gen, build(dc, dh))
    assert M.shape == (7, 15, 15) and c.shape == (7, 15)
    for k in range(7):
        M1, c1 = one_period_map(chloroform_gen, build(dc[k], dh[k]))
        assert np.array_equal(M[k], M1) and np.array_equal(c[k], c1)


def _cell_by_cell(gen, build, dc, dh, reference):
    """Reference: the sweep's delta as a loop of one-cell builds, period maps and solves."""
    E, b = relax_propagator(gen, 1.5)
    eye = np.eye(gen.dim)
    delta = np.empty((len(dc), len(dh)))
    for i, j in np.ndindex(len(dc), len(dh)):
        relax, gate = build(dc[i], dh[j]).steps
        assert relax.tau == 1.5
        M = gate.rep @ (E @ eye)
        c = gate.rep @ (E @ np.zeros(gen.dim) + b)
        x = np.linalg.solve(eye - M, c)
        delta[i, j] = np.linalg.norm(x - reference.r) / np.linalg.norm(reference.r)
    return delta


def _assert_sweep_matches_one_cell(gen, build, dc, dh):
    reference = fixed_point(gen, pps_sequence(1.5)).x_star
    result = robustness_sweep(gen, build, dc, dh, reference)
    assert np.isfinite(result.delta).all()
    assert np.array_equal(result.delta, _cell_by_cell(gen, build, dc, dh, reference))


@pytest.mark.parametrize("compensated", [True, False])
def test_robustness_sweep_matches_one_cell(chloroform_gen, compensated):
    build = pps_pulse_sequence_builder(1.5, compensated)
    _assert_sweep_matches_one_cell(
        chloroform_gen, build, np.linspace(-0.08, 0.08, 5), np.linspace(-0.1, 0.06, 4))


def _grid_shape(cells):
    rows = max(r for r in range(1, int(cells ** 0.5) + 1) if cells % r == 0)
    return rows, cells // rows


@pytest.mark.parametrize(
    "shape",
    [_grid_shape(SWEEP_CHUNK - 1), _grid_shape(SWEEP_CHUNK), _grid_shape(SWEEP_CHUNK + 1),
     (1, 2 * SWEEP_CHUNK + 3)],
    ids=["chunk-1", "chunk", "chunk+1", "1xN"],
)
def test_robustness_sweep_chunk_boundaries(chloroform_gen, shape):
    build = pps_pulse_sequence_builder(1.5, compensated=False)
    dc = np.linspace(-0.05, 0.04, shape[0])
    dh = np.linspace(-0.03, 0.05, shape[1])
    _assert_sweep_matches_one_cell(chloroform_gen, build, dc, dh)


def test_robustness_sweep_one_propagator_per_chunk(chloroform_gen, monkeypatch):
    import reachset.sequences

    reference = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star
    calls = []
    monkeypatch.setattr(reachset.sequences, "relax_propagator",
                        lambda gen, t: calls.append(t) or relax_propagator(gen, t))
    grid = np.linspace(-0.05, 0.05, SWEEP_CHUNK + 1)
    robustness_sweep(chloroform_gen, pps_pulse_sequence_builder(1.5), [0.0], grid,
                     reference)
    assert calls == [1.5, 1.5]


def test_sweep_and_fixed_point_decompose_the_drift_once(monkeypatch):
    # every propagator of one generator reads the eigensystem it cached
    import reachset.dynamics

    calls = []
    decompose = reachset.dynamics._eigensystem
    monkeypatch.setattr(reachset.dynamics, "_eigensystem",
                        lambda A: calls.append(1) or decompose(A))
    gen = assemble_generator()
    reference = fixed_point(gen, pps_sequence(1.5)).x_star
    robustness_sweep(gen, pps_pulse_sequence_builder(1.5), [0.0],
                     np.linspace(-0.05, 0.05, SWEEP_CHUNK + 1), reference)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# scale: polarizations are in units of eps, so every state scales with eps and
# the angle, the proportionality check and the robustness error do not


def _protocol_diagnostics(k):
    """theta at the fixed point and per period, the kappa_tol = 0.01 refusal,
    kappa_channel / 2^k and delta of the pps protocol at eps = 2^k, as bytes."""
    eps = 2.0 ** k
    gen = assemble_generator(RateSet(eps_C=eps, eps_H=4 * eps))
    seq, target = pps_sequence(1.5, repeat=5), pps_direction()
    report = fixed_point(gen, seq, target=target, kappa_tol=0.1)
    with pytest.raises(ResidualTooLarge) as refusal:  # relative residual 5.58e-2
        fixed_point(gen, seq, target=target, kappa_tol=0.01)
    run = simulate_sequence(gen, seq, thermal(gen), target=target)
    grid = np.array([-0.02, 0.0, 0.03])
    sweep = robustness_sweep(gen, pps_pulse_sequence_builder(1.5), grid, grid,
                             report.x_star)
    kappa = kappa_channel(report.x_star, target, tol=0.1)
    return (np.float64(report.theta).tobytes(), run.theta.tobytes(), str(refusal.value),
            np.ldexp(kappa, -k).tobytes(), np.ldexp(report.eta_eff, -k).tobytes(),
            sweep.delta.tobytes())


def test_protocol_diagnostics_scale_free_in_epsilon():
    # raw norms once overflowed above eps ~ 1e154 and underflowed below
    # 1e-154: theta read pi/2 or 0, the check passed a 5.58e-2 residual at
    # kappa_tol = 0.01, and delta was NaN, 0 or refused as a zero reference
    base = _protocol_diagnostics(0)
    assert np.frombuffer(base[0])[0] == pytest.approx(0.0558, abs=1e-4)
    for k in range(-900, 1001, 100):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _protocol_diagnostics(k) == base, k


def test_robustness_refuses_a_zero_reference(chloroform_gen):
    # a reference whose norm underflows is measured (eps = 2^-900 above)
    zero = CoherenceVector(n=2, r=np.zeros(15))
    with pytest.raises(ValidationError, match="nonzero"):
        robustness_sweep(chloroform_gen, pps_pulse_sequence_builder(1.5), [0.0], [0.0], zero)


def test_attracting_fixed_point_flags_non_attracting_maps(chloroform_gen):
    # tau = 0 leaves the bare gate (q = 1); at 4.5e-11 s the bound on
    # cond(I - M) is 1.01e12; at 1.5 s x* is the one solve of (I - M) x = c
    for tau in (0.0, 4.5e-11):
        seq = pps_sequence(tau)
        with pytest.raises(NoUniqueFixedPoint, match="not certified attracting"):
            _attracting_fixed_point(chloroform_gen, seq, *one_period_map(chloroform_gen, seq))
    seq = pps_sequence(1.5)
    M, c = one_period_map(chloroform_gen, seq)
    x, q = _attracting_fixed_point(chloroform_gen, seq, M, c)
    assert np.array_equal(x, np.linalg.solve(np.eye(15) - M, c))
    want = fixed_point(chloroform_gen, seq)
    assert np.array_equal(x, want.x_star.r) and q == want.contraction_bound


# ---------------------------------------------------------------------------
# the closed-form contraction bound q = e^{-gamma T} prod b_g


def _random_generator(rng):
    """A contracting 15-dim generator: antisymmetric H up to scale 100, R = B B^T + I/10."""
    h = rng.normal(size=(15, 15)) * rng.uniform(0.0, 100.0)
    b = rng.normal(size=(15, 15)) * rng.uniform(0.1, 2.0)
    return AffineGenerator(n=2, Hmat=h - h.T, Rmat=b @ b.T + 0.1 * np.eye(15),
                           r_eq=rng.normal(size=15))


def _random_orthogonal(rng, *stack):
    q, r = np.linalg.qr(rng.normal(size=(*stack, 15, 15)))
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def test_contraction_bound_covers_random_period_maps():
    rng = np.random.default_rng(3101)
    for _ in range(20):
        gen = _random_generator(rng)
        steps = [GateStep(rep=_random_orthogonal(rng, 4), name="variants")]
        for _ in range(rng.integers(1, 4)):
            steps += [RelaxStep(rng.uniform(0.01, 0.5)), GateStep(rep=_random_orthogonal(rng))]
        seq = PeriodicSequence(tuple(steps))
        M, c = one_period_map(gen, seq)
        _, q = _attracting_fixed_point(gen, seq, M, c)
        assert q == pytest.approx(np.exp(-gen.contraction_rate * seq.period_duration),
                                  rel=1e-13)
        for Mk in M:
            assert np.linalg.norm(Mk, 2) <= q
            assert np.linalg.cond(np.eye(15) - Mk) <= cond_bound(q)


@pytest.mark.parametrize("build", [pps_sequence, bell_sequence])
def test_contraction_bound_on_the_bundled_model(chloroform_gen, build):
    # the symmetric part of the drift is exactly -R, so gamma = lambda_min(R)
    assert chloroform_gen.contraction_rate == np.linalg.eigvalsh(chloroform_gen.Rmat)[0]
    for tau, want in ((0.1, 0.9956), (1.0, 0.9571), (1.5, 0.9364), (3.0, 0.8768)):
        report = fixed_point(chloroform_gen, build(tau))
        assert report.contraction_bound == pytest.approx(want, abs=5e-5)
        M, _ = one_period_map(chloroform_gen, build(tau))
        assert report.spectral_radius <= np.linalg.norm(M, 2) <= report.contraction_bound
        # T is the period's total relaxation time, however it is split
        steps = build(tau).steps
        k = next(i for i, s in enumerate(steps) if isinstance(s, RelaxStep))
        split = steps[:k] + (RelaxStep(tau / 2), RelaxStep(tau / 2)) + steps[k + 1:]
        assert fixed_point(chloroform_gen, PeriodicSequence(split)).contraction_bound \
            == pytest.approx(report.contraction_bound, rel=1e-14)


def test_smallest_certified_relaxation_time(chloroform_gen):
    # 2 / (gamma T) <= 1e12 needs T >= 4.57e-11 s
    with pytest.raises(NoUniqueFixedPoint):
        fixed_point(chloroform_gen, pps_sequence(4.5e-11))
    fixed_point(chloroform_gen, pps_sequence(5e-11))
    halves = PeriodicSequence((RelaxStep(2.5e-11), RelaxStep(2.5e-11),
                               gate_step(averaging_permutation(), "V")))
    fixed_point(chloroform_gen, halves)


def test_contraction_bound_covers_a_gate_off_by_its_tolerance(chloroform_gen):
    # a rep scaled by 1 + 1e-10 passes the orthogonality check, and its
    # norm bound keeps q above |M|_2 where relaxation leaves no margin
    rep = unitary_rep(averaging_permutation()) * (1 + 1e-10)
    assert GateStep(rep=rep).norm_bound > 1 + 1e-10
    for tau in (0.1, 1.5):
        seq = PeriodicSequence((RelaxStep(tau), GateStep(rep=rep)))
        M, c = one_period_map(chloroform_gen, seq)
        _, q = _attracting_fixed_point(chloroform_gen, seq, M, c)
        assert np.linalg.norm(M, 2) <= q


def test_sweep_without_relaxation_raises(chloroform_gen):
    reference = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star
    pulses = averaging_gate_pulses()

    def gates_only(delta_c, delta_h):
        return PeriodicSequence((gate_step(compile_pulses(pulses, delta_c, delta_h)),))

    with pytest.raises(NoUniqueFixedPoint):
        robustness_sweep(chloroform_gen, gates_only, [0.0, 0.01], [0.0], reference)


def test_gate_orthogonality_check_is_absolute():
    # G^T G off by 8e-6 once passed under numpy's default rtol = 1e-5
    rep = unitary_rep(averaging_permutation())
    GateStep(rep=rep * (1 + 1e-12))
    with pytest.raises(ValidationError, match="not orthogonal"):
        GateStep(rep=rep * (1 + 4e-6))


def test_stacks_rejected_at_the_boundary(chloroform_gen):
    reps = np.stack([unitary_rep(averaging_permutation())] * 3)
    GateStep(rep=reps)
    bad = reps.copy()
    bad[1] *= 1.01
    with pytest.raises(ValidationError, match="not orthogonal"):
        GateStep(rep=bad)
    # a sweep cell whose scaled BB1 angle overflows
    reference = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star
    with pytest.raises(ValidationError, match="overflows"):
        robustness_sweep(chloroform_gen, pps_pulse_sequence_builder(1.5),
                         [0.0, 1e308], [0.0], reference)
    # one-sequence functions take no stack of gate variants
    stacked = pps_pulse_sequence_builder(1.5)(np.zeros(2), np.zeros(2))
    with pytest.raises(ValidationError, match="stack"):
        fixed_point(chloroform_gen, stacked)
    with pytest.raises(ValidationError, match="stack"):
        simulate_sequence(chloroform_gen, stacked, thermal(chloroform_gen))


def test_sequence_validation():
    with pytest.raises(ValidationError):
        PeriodicSequence(())
    with pytest.raises(ValidationError):
        RelaxStep(-1.0)
    with pytest.raises(ValidationError):
        GateStep(rep=np.ones((15, 15)))
    with pytest.raises(ValidationError):
        PeriodicSequence((RelaxStep(1.0),), repeat=0)
    with pytest.raises(ValidationError, match="channel"):
        compile_pulses([ZPulse("N", 0.5)])


@pytest.mark.parametrize("tau", ["abc", "1", None, True, [1.0]])
def test_relaxation_time_is_a_real_number(tau):
    # "abc" once raised a raw ValueError, and "1" was kept as a string on
    # which one_period_map raised a raw UFuncTypeError
    with pytest.raises(ValidationError, match="relaxation time must be a real number"):
        RelaxStep(tau)


@pytest.mark.parametrize("tau", [1, np.float32(1.5), np.int64(2)])
def test_relaxation_time_is_stored_as_a_float(tau):
    step = RelaxStep(tau)
    assert type(step.tau) is float and step.tau == float(tau)


@pytest.mark.parametrize("repeat", [2.5, True, 0, np.float64(2.0)])
def test_repeat_is_a_positive_integer(repeat):
    # 2.5 was once accepted, and simulate_sequence then raised a raw TypeError
    with pytest.raises(ValidationError, match="repeat count"):
        pps_sequence(1.5, repeat=repeat)
    seq = pps_sequence(1.5, repeat=np.int64(2))
    assert seq.repeat == 2 and type(seq.repeat) is int


@pytest.mark.parametrize("every", [2.5, True, 0, -1])
def test_record_every_is_a_positive_integer(chloroform_gen, every):
    # 2.5 once recorded the last period alone
    with pytest.raises(ValidationError, match="record_every"):
        simulate_sequence(chloroform_gen, pps_sequence(1.5, repeat=4), thermal(chloroform_gen),
                          record_every=every)
