import numpy as np
import pytest

from reachset import (
    AffineGenerator,
    ellipsoid_axis_intersections,
    max_purity_multistart,
    max_purity_on_ellipsoid,
)
from reachset import over_approx
from reachset.dynamics import relax_propagator
from reachset.over_approx import (
    CERTIFY_RTOL,
    ORACLE_SEED,
    ORACLE_STARTS,
    _ascend,
    _max_norm_on_sphere,
    _sphere_objective_data,
)
from oracles import max_purity_multistart_serial


def make_gen(R, r_eq):
    n = 1 if len(r_eq) == 3 else 2
    return AffineGenerator(
        n=n, Hmat=np.zeros_like(R), Rmat=np.asarray(R, float), r_eq=np.asarray(r_eq, float)
    )


def test_isotropic_case_solvable_by_hand(rng):
    e = rng.normal(size=3)
    gen = make_gen(np.eye(3), e)
    bound = max_purity_on_ellipsoid(gen)
    # constraint sphere |r - e/2| = |e|/2: farthest point from origin is e
    assert bound.radius_sq == pytest.approx(float(e @ e), rel=1e-10)
    np.testing.assert_allclose(bound.argmax_r.r, e, atol=1e-8)


def test_unital_equilibrium_gives_zero_radius():
    gen = make_gen(np.diag([1.0, 2.0, 3.0]), np.zeros(3))
    bound = max_purity_on_ellipsoid(gen)
    assert bound.radius_sq == 0.0


def test_chloroform_radius(chloroform_gen, chloroform_bound):
    assert chloroform_bound.radius_sq == pytest.approx(18.06, rel=0.10)
    assert chloroform_bound.solver_residual <= 1e-8 * np.abs(
        chloroform_gen.Rmat
    ).max() * chloroform_bound.radius_sq
    # maximizer lives in the population coordinates: coherence rates are two
    # orders of magnitude faster, so spending constraint budget there loses
    from reachset import diag_slots

    mask = np.ones(15, dtype=bool)
    mask[list(diag_slots(2))] = False
    assert np.abs(chloroform_bound.argmax_r.r[mask]).max() < 1e-8


def test_first_order_conditions(chloroform_gen, chloroform_bound):
    r = chloroform_bound.argmax_r.r
    grad_f = 2 * r
    grad_g = chloroform_gen.Rmat @ (2 * r - chloroform_gen.r_eq)
    mu = chloroform_bound.lagrange_mult
    rel = np.linalg.norm(grad_f - mu * grad_g) / np.linalg.norm(grad_f)
    assert rel < 1e-6


def test_controlled_trajectories_never_exit(
    chloroform_gen, chloroform_bound, two_qubit_controls, rng
):
    limit = chloroform_bound.radius_sq * (1 + 1e-6)
    r = chloroform_gen.r_eq.copy()
    for _ in range(200):
        k = rng.integers(len(two_qubit_controls.reps_full))
        r = two_qubit_controls.reps_full[k] @ r
        tau = float(rng.uniform(0.01, 1.5))
        E, c = relax_propagator(chloroform_gen, tau)
        r = E @ r + c
        assert float(r @ r) <= limit


def _random_problems(dim, rng):
    """Five (R, r_eq) pairs: R symmetric positive definite with spread eigenvalues."""
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        eigs = np.exp(rng.uniform(-2.5, 1.5, size=dim))
        R = 0.5 * ((q * eigs) @ q.T + ((q * eigs) @ q.T).T)
        yield R, rng.normal(size=dim)


def _hard_problems(case):
    """(c, M) near the hard case, where c has (almost) no component along
    the top eigenspace of M^T M."""
    M = np.diag([3.0, 1.0, 0.5])
    if case == "hard":  # the boundary solution: y(0) lies inside the sphere
        yield np.array([0.0, 0.2, 0.1]), M
    elif case == "near_hard":
        for k in range(5, 16):
            yield np.array([10.0 ** -k, 0.2, 0.1]), M
    else:  # a degenerate top eigenspace, rotated so that eigh splits it
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
        M = (q * [2.0, 2.0, 1.0]) @ q.T
        for c in (q @ [0.3, -0.4, 0.1], q @ [1e-9, 0.0, 0.1], q @ [0.0, 0.0, 0.1]):
            yield c, M


@pytest.mark.parametrize("case", [3, 5, 8, 15, "hard", "near_hard", "degenerate"])
def test_solver_matches_multistart_oracle(case, rng):
    if isinstance(case, str):
        problems = [(c, M, None, None) for c, M in _hard_problems(case)]
    else:
        problems = [(*_sphere_objective_data(R, r_eq), R, r_eq)
                    for R, r_eq in _random_problems(case, rng)]
    for c, M, R, r_eq in problems:
        r_opt = _max_norm_on_sphere(c, M)
        secular = float(r_opt @ r_opt)
        oracle, _ = max_purity_multistart(c, M)
        # never below a point the ascent reached, and certified
        assert oracle - 1e-14 * secular <= secular <= oracle + CERTIFY_RTOL * secular
        y = np.linalg.solve(M, r_opt - c)
        assert abs(y @ y - 1.0) <= 1e-14
        if case in (3, 15):
            gen = AffineGenerator(
                n=1 if case == 3 else 2, Hmat=np.zeros((case, case)), Rmat=R, r_eq=r_eq
            )
            assert max_purity_on_ellipsoid(gen).radius_sq == secular


@pytest.mark.parametrize("n_starts", [1, 50])
@pytest.mark.parametrize("dim", [3, 5, 8, 15])
def test_lockstep_oracle_matches_serial_ascent(dim, n_starts, rng, chloroform_gen):
    # the random problems of test_solver_matches_multistart_oracle, and the
    # bundled model with the run-time seed
    cases = [(*_sphere_objective_data(R, r_eq), 7) for R, r_eq in _random_problems(dim, rng)]
    if dim == 15:
        cases.append((*_sphere_objective_data(chloroform_gen.Rmat, chloroform_gen.r_eq),
                      ORACLE_SEED))
    for c, M, seed in cases:
        Y = np.random.default_rng(seed).normal(size=(n_starts, len(c)))
        Y /= np.linalg.norm(Y, axis=1, keepdims=True)
        val, Y, _ = _ascend(c, M, Y)
        lockstep, r = float(val.max()), c + M @ Y[np.argmax(val)]
        serial, _ = max_purity_multistart_serial(c, M, n_starts=n_starts, seed=seed)
        assert abs(lockstep - serial) <= 1e-12 * abs(serial)
        assert float(r @ r) == pytest.approx(lockstep, rel=1e-12)
        if (n_starts, seed) == (ORACLE_STARTS, ORACLE_SEED):
            # the run-time oracle is this ascent from its fixed starts
            assert max_purity_multistart(c, M)[0] == lockstep


def test_oracle_halves_steps_that_overshoot(rng):
    # with c large against M the trial step 1/L overshoots on the sphere, so
    # the backtracking has to halve it; a start that could not halve would
    # stop short of the maximum
    for _ in range(40):
        dim = int(rng.integers(3, 9))
        M = rng.normal(size=(dim, dim))
        c = 10.0 * rng.normal(size=dim)
        r_opt = _max_norm_on_sphere(c, M)
        secular = float(r_opt @ r_opt)
        oracle, _ = max_purity_multistart(c, M)
        assert abs(oracle - secular) <= CERTIFY_RTOL * secular


def test_oracle_start_at_the_maximizer_stops_in_round_zero(chloroform_gen, chloroform_bound):
    c, M = _sphere_objective_data(chloroform_gen.Rmat, chloroform_gen.r_eq)
    y_star = np.linalg.solve(M, chloroform_bound.argmax_r.r - c)
    Y = np.random.default_rng(3).normal(size=(6, len(c)))
    Y[2] = y_star
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    val, Y_end, rounds = _ascend(c, M, Y)
    assert rounds[2] == 0
    assert (np.delete(rounds, 2) > 0).all()  # the others keep climbing
    assert val[2] == pytest.approx(chloroform_bound.radius_sq, rel=1e-14)
    np.testing.assert_allclose(Y_end[2], Y[2], atol=1e-12)
    assert np.delete(val, 2) == pytest.approx(chloroform_bound.radius_sq, rel=1e-12)


def test_bound_builds_the_objective_once(chloroform_gen, chloroform_bound, monkeypatch):
    # the secular solve and the oracle share one (c, M)
    calls = []
    build = over_approx._sphere_objective_data
    monkeypatch.setattr(over_approx, "_sphere_objective_data",
                        lambda R, r_eq: calls.append(1) or build(R, r_eq))
    bound = max_purity_on_ellipsoid(chloroform_gen)
    assert len(calls) == 1
    assert bound.radius_sq == chloroform_bound.radius_sq
    assert bound.oracle_rel_gap == chloroform_bound.oracle_rel_gap


def test_bound_records_the_oracle_gap(chloroform_bound):
    assert 0.0 <= chloroform_bound.oracle_rel_gap <= CERTIFY_RTOL
    zero = max_purity_on_ellipsoid(make_gen(np.eye(3), np.zeros(3)))
    assert zero.oracle_rel_gap == 0.0


@pytest.mark.parametrize("k_r_eq, k_R", [(-500, 0), (-8, 0), (8, 0), (500, 0),
                                          (0, -200), (0, -30), (0, 1000)])
def test_bound_scales_exactly(chloroform_gen, chloroform_bound, k_r_eq, k_R):
    # radius_sq scales as |r_eq|^2 and not with R, the multiplier as 1/R and
    # not with r_eq.  Solved unscaled, r_eq * 2^-500 lost M^T M to underflow
    # and missed radius_sq by 1%, and R * 2^1000 overflowed the multiplier;
    # R * 2^-200 was refused as not positive definite
    gen = AffineGenerator(n=2, Hmat=chloroform_gen.Hmat,
                          Rmat=np.ldexp(chloroform_gen.Rmat, k_R),
                          r_eq=np.ldexp(chloroform_gen.r_eq, k_r_eq))
    bound = max_purity_on_ellipsoid(gen)
    assert bound.radius_sq == np.ldexp(chloroform_bound.radius_sq, 2 * k_r_eq)
    assert np.array_equal(bound.argmax_r.r,
                          np.ldexp(chloroform_bound.argmax_r.r, k_r_eq))
    assert bound.lagrange_mult == np.ldexp(chloroform_bound.lagrange_mult, -k_R)


def test_ellipsoid_axis_crossings(chloroform_gen):
    vals = ellipsoid_axis_intersections(chloroform_gen)
    # proton axis: thermal polarization plus the cross-relaxation boost
    assert vals[1] == pytest.approx(4.2309, abs=1e-3)
    # the proton-axis crossing and the sphere radius do not coincide
    assert vals[1] < np.sqrt(18.673)
