import numpy as np
import pytest

from reachset import (
    BLOCKS,
    CHLOROFORM,
    RankDeficient,
    RateSet,
    ValidationError,
    assemble_generator,
    build_basis,
    fit_rates,
    simulate_block,
    synthesize_trajectories,
)
from reachset import chloroform
from reachset.chloroform import (
    BLOCK_RATES,
    TrajectorySample,
    block_matrices,
)
from reachset.dynamics import relax_propagator

from oracles import least_squares_reference, superoperator_matrix


def test_default_rates_are_the_fits():
    np.testing.assert_allclose(
        CHLOROFORM.rates_array(),
        [0.0532, 0.0918, 0.0798, 0.0212, 0.0, 0.0022,
         3.495, 6.536, 0.0100, 2.955, 6.118, 0.030, 9.523, 0.008],
    )
    assert CHLOROFORM.J == 214.5
    assert (CHLOROFORM.eps_C, CHLOROFORM.eps_H) == (1.0, 4.0)


def test_equilibrium_vector():
    # the thermal state (eps_C, eps_H, 0) is the fixed point in any unit
    basis = build_basis(2)
    pop = [basis.index(lab) for lab in BLOCKS["population"]]
    for eps in (1.0, 1e20):
        gen = assemble_generator(RateSet(eps_C=eps, eps_H=4.0 * eps))
        expected = np.zeros(15)
        expected[basis.index("ZI")] = eps
        expected[basis.index("IZ")] = 4.0 * eps
        np.testing.assert_array_equal(gen.r_eq, expected)
        # r1*eps_C + r4*eps_H balances the ZI drive, and so on, to rounding
        resid = gen.Rmat[np.ix_(pop, pop)] @ expected[pop] - gen.v[pop]
        assert np.abs(resid).max() <= 1e-14 * np.abs(gen.v).max()
        np.testing.assert_allclose(gen.fixed_point, expected, rtol=0,
                                   atol=1e-12 * 4.0 * eps)


def _coupling_hamiltonian(J):
    """The rotating-frame coupling (pi J / 2) ZZ as a 4x4 matrix, rad/s."""
    basis = build_basis(2)
    return np.pi * J / 2.0 * basis.matrices[basis.labels.index("ZZ")]


def test_coupling_terms_match_hamiltonian():
    # the +-pi J block entries are the projected ZZ coupling, for any J: the
    # brute-force matrix of X -> -i [H, X] on the traceless block
    for J in (214.5, 0.0, -37.25, 1e-3, 1e6):
        gen = assemble_generator(RateSet(J=J))
        H = _coupling_hamiltonian(J)
        direct = superoperator_matrix(lambda X: -1j * (H @ X - X @ H), 2)[1:, 1:]
        np.testing.assert_allclose(gen.Hmat, direct, rtol=0,
                                   atol=1e-12 * np.pi * abs(J), err_msg=f"J={J}")


def test_zero_cross_rates_block_diagonal():
    rates = RateSet(r4=0.0, r5=0.0, r6=0.0, r9=0.0, r12=0.0, r14=0.0)
    gen = assemble_generator(rates)
    R = gen.Rmat
    # within each block only the diagonal survives
    basis = build_basis(2)
    for labels in BLOCKS.values():
        idx = [basis.index(lab) for lab in labels]
        sub = R[np.ix_(idx, idx)]
        np.testing.assert_allclose(sub, np.diag(np.diagonal(sub)), atol=1e-15)
        assert np.diagonal(sub).min() > 0


def test_secular_blocks_partition(chloroform_gen):
    blocks = BLOCKS
    all_labels = [lab for labs in blocks.values() for lab in labs]
    assert len(all_labels) == 15 and len(set(all_labels)) == 15
    basis = build_basis(2)
    R = chloroform_gen.Rmat
    H = chloroform_gen.Hmat
    for name_a, labs_a in blocks.items():
        for name_b, labs_b in blocks.items():
            if name_a == name_b:
                continue
            ia = [basis.index(lab) for lab in labs_a]
            ib = [basis.index(lab) for lab in labs_b]
            assert np.abs(R[np.ix_(ia, ib)]).max() == 0.0
            assert np.abs(H[np.ix_(ia, ib)]).max() == 0.0


def test_coherence_block_positive():
    sym, _ = block_matrices(CHLOROFORM, "carbon_coherence")
    assert np.linalg.eigvalsh(sym).min() > 0


def test_free_evolution_settles_at_equilibrium(chloroform_gen):
    # slowest population eigenvalue is ~0.044 1/s, so the 1e-9 residual
    # needs t >= ~510 s; 600 s gives margin
    _, final = relax_propagator(chloroform_gen, 600.0)  # E @ 0 + c, from r0 = 0
    assert np.linalg.norm(final - chloroform_gen.r_eq) < 1e-9


def test_assembly_guards():
    with pytest.raises(ValidationError):
        assemble_generator(RateSet(r1=-0.1))
    with pytest.raises(ValidationError):
        assemble_generator(RateSet(r7=float("nan")))


def test_trajectory_sample_validation():
    with pytest.raises(ValidationError):
        TrajectorySample(times=[0.0, 0.0, 1.0], observables={})
    with pytest.raises(ValidationError):
        TrajectorySample(times=[0.0, 1.0], observables={"QQ": [0.0, 1.0]})
    with pytest.raises(ValidationError):
        TrajectorySample(times=[0.0, 1.0], observables={"ZI": [0.0]})
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError):
            TrajectorySample(times=[0.0, bad], observables={"ZI": [0.0, 1.0]})
        with pytest.raises(ValidationError):
            TrajectorySample(times=[0.0, 1.0], observables={"ZI": [0.0, bad]})


POP_STARTS = [
    np.array([-1.0, 4.0, 0.0]),
    np.array([1.0, -4.0, 0.0]),
    np.array([0.0, 0.0, 3.0]),
]


def _synthesize(block, noise=0.0, seed=None):
    if block == "population":
        times = np.linspace(0.0, 40.0, 40)
        starts = POP_STARTS
    else:
        times = np.linspace(0.0, 1.2, 25)
        k = len(BLOCKS[block])
        starts = [np.eye(k)[0] * 2.0, np.eye(k)[2] * 1.5]
    return synthesize_trajectories(
        CHLOROFORM, block, starts, times, noise=noise, seed=seed
    )


def test_population_fit_round_trip_zero_noise():
    trajs = _synthesize("population")
    guess = CHLOROFORM.with_rates(
        ("r1", "r2", "r3", "r4", "r5", "r6"),
        np.array([0.0532, 0.0918, 0.0798, 0.0212, 0.0, 0.0022]) * 1.5 + 0.003,
    )
    fitted, rms = fit_rates(trajs, "population", init_guess=guess, n_starts=2)
    assert rms < 1e-8
    for name in ("r1", "r2", "r3", "r4", "r6"):
        assert getattr(fitted, name) == pytest.approx(
            getattr(CHLOROFORM, name), rel=1e-4
        )
    assert abs(fitted.r5) < 1e-4


def test_population_fit_with_noise():
    errs = []
    for seed in range(3):
        trajs = _synthesize("population", noise=0.01, seed=seed)
        fitted, _ = fit_rates(trajs, "population", n_starts=1, seed=seed)
        errs.append(
            [
                abs(fitted.r1 - CHLOROFORM.r1) / CHLOROFORM.r1,
                abs(fitted.r2 - CHLOROFORM.r2) / CHLOROFORM.r2,
                abs(fitted.r3 - CHLOROFORM.r3) / CHLOROFORM.r3,
            ]
        )
    assert np.mean(errs, axis=0).max() < 0.05


def test_fit_budget_below_one_jacobian_keeps_start():
    # max_iter counts simulations, and the residuals plus a finite-difference
    # Jacobian of the six population rates cost seven: a budget below that
    # takes no step, and twice that allows one trial step
    free = BLOCK_RATES["population"]
    trajs = _synthesize("population", noise=0.01, seed=0)
    guess = CHLOROFORM.with_rates(free, CHLOROFORM.rates_array()[:6] * 1.4 + 1e-3)
    kept, rms_kept = fit_rates(trajs, "population", init_guess=guess,
                               n_starts=1, max_iter=len(free))
    assert kept == guess
    moved, rms_moved = fit_rates(trajs, "population", init_guess=guess,
                                 n_starts=1, max_iter=2 * (len(free) + 1))
    assert moved != guess
    assert rms_moved < rms_kept


def _bench_fit_data(block, seed):
    """The benchmark's fit layout: 1%-noise trajectories of one block and a
    start 40% off the generating rates."""
    if block == "population":
        times, starts = np.linspace(0.0, 40.0, 20), POP_STARTS
    else:
        k = len(BLOCKS[block])
        times, starts = np.linspace(0.0, 1.2, 10), [np.eye(k)[0] * 2.0, np.eye(k)[2] * 1.5]
    trajs = synthesize_trajectories(CHLOROFORM, block, starts, times, noise=0.01, seed=seed)
    free = BLOCK_RATES[block]
    truth = np.array([getattr(CHLOROFORM, name) for name in free])
    return trajs, CHLOROFORM.with_rates(free, truth * 1.4 + 1e-3)


def _rss(rates, block, trajs):
    """The fit's objective: the squared deviation of the simulated block
    from every sample of trajectories that carry all its observables."""
    labels = BLOCKS[block]
    total = 0.0
    for traj in trajs:
        data = np.column_stack([traj.observables[lab] for lab in labels])
        total += float(((simulate_block(rates, block, data[0], traj.times) - data) ** 2).sum())
    return total


#: How far the fit's cost may exceed scipy's, relative.  The coherence
#: blocks' valleys are flat, and a forward-difference Jacobian stops either
#: solver up to about 1e-7 above their minimum.
FIT_COST_RTOL = {"population": 1e-9, "carbon_coherence": 1e-7,
                 "proton_coherence": 1e-7, "multi_quantum": 1e-9}


@pytest.mark.parametrize("seed", [301, 302, 303, 304])
def test_fit_cost_matches_scipy(seed, monkeypatch):
    # from the same starts and budget, on the benchmark's data, the numpy
    # Levenberg-Marquardt ends no higher than scipy's least_squares, and
    # below the generating rates
    for k, block in enumerate(BLOCKS):
        trajs, guess = _bench_fit_data(block, seed + k)
        truth_rss = _rss(CHLOROFORM, block, trajs)
        for n_starts in (1, 4):
            fitted, rms = fit_rates(trajs, block, init_guess=guess, n_starts=n_starts, seed=seed)
            with monkeypatch.context() as patch:
                patch.setattr(chloroform, "_levenberg_marquardt", least_squares_reference)
                _, rms_scipy = fit_rates(trajs, block, init_guess=guess, n_starts=n_starts,
                                         seed=seed)
            assert rms ** 2 <= rms_scipy ** 2 * (1 + FIT_COST_RTOL[block]), (block, n_starts)
            assert _rss(fitted, block, trajs) <= truth_rss, (block, n_starts)


@pytest.mark.parametrize("block", list(BLOCKS))
def test_fit_never_exceeds_its_simulation_budget(block, monkeypatch):
    # max_iter bounds the simulations of each start, the Jacobian's columns
    # included; from one trajectory, each residual evaluation is one
    # simulation.  A budget below one Jacobian returns the start, simulated once
    trajs, guess = _bench_fit_data(block, 7)
    trajs = trajs[:1]
    calls = []

    def counting(*args):
        calls.append(args)
        return simulate_block(*args)

    monkeypatch.setattr(chloroform, "simulate_block", counting)
    p = len(BLOCK_RATES[block])
    for max_iter in (1, p, p + 1, 2 * p + 3, 10 * p + 5, 6000):
        for n_starts in (1, 3):
            calls.clear()
            fitted, _ = fit_rates(trajs, block, init_guess=guess, n_starts=n_starts,
                                  max_iter=max_iter)
            assert len(calls) <= n_starts * max_iter, (max_iter, n_starts)
            if max_iter < p + 1:
                assert len(calls) == n_starts
                if n_starts == 1:
                    assert fitted == guess


@pytest.mark.parametrize("init_guess", ["x", 1.0, CHLOROFORM.to_json_dict()])
def test_fit_start_is_a_rate_set(init_guess):
    # "x" once raised a raw AttributeError
    with pytest.raises(ValidationError, match="init_guess must be a RateSet"):
        fit_rates(_synthesize("population"), "population", init_guess=init_guess)


@pytest.mark.parametrize("x0", [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0]])
def test_non_finite_initial_state_is_refused(x0):
    # [nan, 0, 0] once gave rows of NaN
    with pytest.raises(ValidationError, match="finite"):
        simulate_block(CHLOROFORM, "population", x0, [0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        synthesize_trajectories(CHLOROFORM, "population", [x0], [0.0, 1.0])


def test_single_time_point_is_rank_deficient():
    traj = TrajectorySample(times=[0.0], observables={"ZI": [1.0]})
    with pytest.raises(RankDeficient):
        fit_rates([traj], "population")


def test_under_determined_data_rejected():
    times = np.array([0.0, 1.0, 2.0])
    sim = simulate_block(CHLOROFORM, "population", POP_STARTS[0], times)
    traj = TrajectorySample(times=times, observables={"ZI": sim[:, 0]})
    # 2 informative residuals (t>0) against 6 free rates
    with pytest.raises(RankDeficient):
        fit_rates([traj], "population")


def test_fit_requires_time_zero_start():
    times = np.array([0.5, 1.0, 2.0, 3.0])
    sim = simulate_block(CHLOROFORM, "population", POP_STARTS[0], times)
    traj = TrajectorySample(
        times=times,
        observables={lab: sim[:, j] for j, lab in enumerate(BLOCKS["population"])},
    )
    with pytest.raises(ValidationError):
        fit_rates([traj], "population")


def test_fit_needs_a_start():
    # zero and negative counts are refused rather than silently run as the
    # one start from the initial guess
    trajs = _synthesize("population")
    for n_starts in (0, -3):
        with pytest.raises(ValidationError, match="n_starts >= 1"):
            fit_rates(trajs, "population", n_starts=n_starts)
    for seed in (-1, 1.5, None):
        with pytest.raises(ValidationError, match="non-negative integer"):
            fit_rates(trajs, "population", seed=seed)


def test_rates_json_round_trip():
    d = CHLOROFORM.to_json_dict()
    back = RateSet.from_json_dict(d)
    assert back == CHLOROFORM
    with pytest.raises(ValidationError):
        RateSet.from_json_dict({"r": [1.0] * 10, "J_hz": 214.5})
    # JSON true and false are not numbers, though numpy reads them as 1 and 0
    for key, value in (("J_hz", True), ("J_hz", [False]), ("r", [True] + d["r"][1:])):
        with pytest.raises(ValidationError, match=repr(key)):
            RateSet.from_json_dict({**d, key: value})


@pytest.mark.parametrize("block, rates", [("population", {"r1": -1e3}),
                                          ("population", {"r1": -1e300, "r4": 1e300}),
                                          ("carbon_coherence", {"r7": -1e3})])
def test_overflowing_start_rates_are_refused(block, rates):
    # the trajectory overflows at the start rates: an error, with no
    # RuntimeWarning (tier-1 turns those into errors)
    guess = CHLOROFORM.with_rates(list(rates), list(rates.values()))
    with pytest.raises(ValidationError, match="non-finite trajectory"):
        fit_rates(_synthesize(block), block, init_guess=guess, n_starts=2)


@pytest.mark.parametrize("block", ["nope", "", ["population"], None])
def test_unknown_block_is_refused(block):
    # simulate_block and synthesize_trajectories once raised a raw KeyError
    trajs = _synthesize("population")
    calls = (lambda: block_matrices(CHLOROFORM, block),
             lambda: simulate_block(CHLOROFORM, block, [1.0, 2.0, 3.0], [0.0, 1.0]),
             lambda: synthesize_trajectories(CHLOROFORM, block, POP_STARTS, [0.0, 1.0]),
             lambda: fit_rates(trajs, block))
    for call in calls:
        with pytest.raises(ValidationError, match="unknown block"):
            call()


@pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0, -1e-300])
def test_noise_is_finite_and_non_negative(noise):
    # NaN and -1 once added no noise, silently
    with pytest.raises(ValidationError, match="noise must be finite and >= 0"):
        synthesize_trajectories(CHLOROFORM, "population", POP_STARTS, [0.0, 1.0], noise=noise)


@pytest.mark.parametrize("noise", [None, "a", "0.01", True])
def test_noise_is_a_real_number(noise):
    # None and "a" once raised a raw TypeError
    with pytest.raises(ValidationError, match="noise must be a real number"):
        synthesize_trajectories(CHLOROFORM, "population", POP_STARTS, [0.0, 1.0], noise=noise)


@pytest.mark.parametrize("name, value", [("n_starts", 2.5), ("n_starts", True),
                                         ("max_iter", -5), ("max_iter", 0), ("max_iter", 2.5),
                                         ("max_iter", True), ("seed", True)])
def test_fit_counts_are_integers(name, value):
    # n_starts = 2.5 once raised a raw TypeError, and max_iter = -5 ran
    trajs = _synthesize("population")
    with pytest.raises(ValidationError, match=name):
        fit_rates(trajs, "population", **{name: value})
