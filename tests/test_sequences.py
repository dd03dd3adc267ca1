import numpy as np
import pytest
from scipy.linalg import expm

from reachset import (
    CoherenceVector,
    GateStep,
    NoUniqueFixedPoint,
    PeriodicSequence,
    RelaxStep,
    ValidationError,
    bell_direction,
    bell_sequence,
    diag_slots,
    fixed_point,
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
from reachset.sequences import (
    CouplingDelay,
    ZPulse,
    averaging_gate_pulses,
    averaging_permutation,
    bell_basis_change,
    compile_pulses,
    gate_step,
    spectral_radius,
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
    M, _ = one_period_map(chloroform_gen, pps_sequence(1.5))
    assert spectral_radius(M) < 1.0


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
    assert not result.failed.any()
    # smoothness across neighbouring cells
    assert np.abs(np.diff(result.delta, axis=0)).max() < 0.05
    assert np.abs(np.diff(result.delta, axis=1)).max() < 0.05


def test_robustness_sweep_plain_is_worse(chloroform_gen):
    grid = np.array([-0.05, 0.0, 0.05])
    compensated = robustness_sweep(
        chloroform_gen, pps_pulse_sequence_builder(1.5, True), grid, grid
    )
    plain = robustness_sweep(
        chloroform_gen, pps_pulse_sequence_builder(1.5, False), grid, grid
    )
    assert plain.max_delta > 10 * compensated.max_delta


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
