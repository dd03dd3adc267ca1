"""End-to-end acceptance checks.

One test per claim, each printing a PASS/FAIL line so the suite doubles as
a checklist.

* Criterion 04 is knowingly red for the bundled relaxation model and is
  asserted as stated rather than weakened: the tau = 1.5 s averaging fixed
  point sits 0.0558 rad from the equal-coefficient direction, against a
  required 0.05 rad.  The test first certifies the fixed point with an
  independent population-block solve, so the red result is a fact about
  the model, not about the solver; the source of the 0.05 rad target is
  not in the repository, and its failure message says what would settle it.
* Criterion 06 checks that the local-controllability machinery classifies
  the free equilibrium correctly: it is a boundary point of the
  controllable set, not an interior point.  The identity field vanishes
  there and the direction cone is not full, which the test certifies in
  exact rational arithmetic independently of the float cone tests; points
  just toward the origin are controllable, and a ray traced from the
  origin exits at the equilibrium.
"""

import sys
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from reachset import (
    CoherenceVector,
    build_basis,
    diag_slots,
    diagonal_vertex_coords,
    fit_rates,
    fixed_point,
    kappa_unitary_max,
    noe_steady_state,
    polytope_ray_exit,
    polytope_vertices,
    pps_direction,
    pps_pulse_sequence_builder,
    pps_sequence,
    purity,
    purity_rate,
    robustness_sweep,
    stlc_boundary_rays,
    stlc_test_3d,
    stlc_test_lp,
    unitary_rep,
)
from reachset.chloroform import BLOCKS, CHLOROFORM, synthesize_trajectories
from reachset.cli import main as cli_main
from reachset.diagonal import projected_field_stack, stacked_directions
from reachset.dynamics import relax_propagator
from reachset.sequences import (
    PeriodicSequence,
    RelaxStep,
    averaging_permutation,
    bell_basis_change,
    bell_sequence,
    gate_step,
    one_period_map,
)
from reachset.serialize import load_json

from conftest import haar_unitary
from oracles import rk4_evolve

SPHERE_TARGET = 18.06  # squared radius of the purity sphere, eps^2 units
UNITARY_BOUND = 20.0 / 3.0


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr)


# Z patterns of the diagonal coordinates (ZI, IZ, ZZ) over the two bits of
# a computational-basis index s = 2 * s_carbon + s_proton.
_Z_PATTERNS = ((1, 0), (0, 1), (1, 1))


def _walsh_sign(z, s):
    return -1 if (z[0] * (s >> 1) + z[1] * (s & 1)) % 2 else 1


def _diagonal_action(perm):
    """Exact action of a basis permutation (s -> perm[s]) on (ZI, IZ, ZZ).

    With populations p_s = 1/4 + sum_z x_z (-1)^(z.s), relabelling p into
    p'_{perm[s]} = p_s gives x'_z = sum_z' T[z][z'] x_z' with
    T[z][z'] = (1/4) sum_s (-1)^(z.perm[s]) (-1)^(z'.s).  Built from the
    Walsh characters alone, so it shares no code with the Pauli-conjugation
    representations of the library.
    """
    return [
        [
            Fraction(sum(_walsh_sign(z, perm[s]) * _walsh_sign(zp, s)
                         for s in range(4)), 4)
            for zp in _Z_PATTERNS
        ]
        for z in _Z_PATTERNS
    ]


def _population_block(rates):
    """Population relaxation matrix and equilibrium, as in the rate table."""
    R = [[rates.r1, rates.r4, rates.r5],
         [rates.r4, rates.r2, rates.r6],
         [rates.r5, rates.r6, rates.r3]]
    return R, [rates.eps_C, rates.eps_H, 0.0]


def _exact_directions(rates, x):
    """The 24 permutation fields at x in exact rational arithmetic.

    Under control T the diagonal field is T^T R (x_eq - T x): relax from
    the relabelled state, pulled back to the unrelabelled frame.  Rates and
    coordinates enter as the exact values of their decimal strings.
    """
    R, x_eq = _population_block(rates)
    R = [[Fraction(repr(e)) for e in row] for row in R]
    x_eq = [Fraction(repr(e)) for e in x_eq]
    x = [Fraction(repr(float(e))) for e in x]
    dirs = []
    for perm in permutations(range(4)):
        T = _diagonal_action(perm)
        gap = [x_eq[i] - sum(T[i][j] * x[j] for j in range(3))
               for i in range(3)]
        pull = [sum(R[i][j] * gap[j] for j in range(3)) for i in range(3)]
        dirs.append([sum(T[j][i] * pull[j] for j in range(3))
                     for i in range(3)])
    return dirs


def _strict_separating_planes(dirs):
    """Pairs (i, j) whose spanned plane has every other nonzero direction
    strictly on one side (exact arithmetic, no tolerance)."""
    def cross(a, b):
        return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0]]

    planes = []
    for i, j in combinations(range(len(dirs)), 2):
        normal = cross(dirs[i], dirs[j])
        if not any(normal):
            continue
        sides = [sum(a * b for a, b in zip(normal, dirs[k]))
                 for k in range(len(dirs)) if k not in (i, j) and any(dirs[k])]
        if all(c > 0 for c in sides) or all(c < 0 for c in sides):
            planes.append((i, j))
    return planes


def _population_fixed_point(rates, tau, gate):
    """Fixed point of [relax tau - gate] on the population block alone.

    The coherent part and the coherence blocks never touch the populations,
    so x* solves (I - T E) x = T (I - E) x_eq with E = exp(-R tau) taken from
    the eigendecomposition of the symmetric rate matrix and T the Walsh
    action of the gate's basis permutation.
    """
    R, x_eq = _population_block(rates)
    lam, Q = np.linalg.eigh(np.array(R))
    E = Q @ np.diag(np.exp(-lam * tau)) @ Q.T
    perm = [int(np.argmax(np.abs(gate[:, s]))) for s in range(4)]
    T = np.array(_diagonal_action(perm), dtype=float)
    x_eq = np.array(x_eq)
    return np.linalg.solve(np.eye(3) - T @ E, T @ (x_eq - E @ x_eq))


def test_criterion_01_purity_bound_cli(tmp_path, chloroform_bound):
    out = tmp_path / "bound.json"
    code = cli_main(["bound", "--preset", "chloroform", "--out", str(out)])
    payload = load_json(out)
    radius = payload["radius_sq"]
    ok = code == 0 and abs(radius - SPHERE_TARGET) <= 0.10 * SPHERE_TARGET
    _report(1, "purity bound", ok,
            f"radius_sq={radius:.4f}, target {SPHERE_TARGET} +-10%, "
            "certified by the 50-start projected-gradient oracle")
    assert code == 0
    assert abs(radius - SPHERE_TARGET) <= 0.10 * SPHERE_TARGET
    # certification ran inside the command (it raises on disagreement); the
    # residual confirms the constraint is met at the reported maximizer
    assert payload["residual"] <= 1e-8 * max(1.0, radius)


def test_criterion_02_noe_enhancement(chloroform_gen, chloroform_bound):
    x = noe_steady_state(chloroform_gen, "C")
    x2 = x.x[1]
    axis_bound = np.sqrt(chloroform_bound.radius_sq)
    ok = abs(x2 - 4.25) <= 0.15 and x2 <= axis_bound
    _report(2, "saturation enhancement", ok,
            f"x2={x2:.4f} vs measured 4.25 +-0.15, axis bound {axis_bound:.4f}")
    assert abs(x2 - 4.25) <= 0.15
    assert x2 <= axis_bound


def test_criterion_03_unitary_bound(chloroform_gen, rng):
    source = CoherenceVector(n=2, r=chloroform_gen.r_eq)
    target = pps_direction()
    kappa = kappa_unitary_max(source, target)
    exact = Fraction(20, 3)
    worst = -np.inf
    for _ in range(1000):
        # kappa of one unitary: Tr(U rho U+ sigma) / Tr(sigma^2)
        moved = unitary_rep(haar_unitary(rng, 4)) @ source.r
        worst = max(worst, float(moved @ target.r) / float(target.r @ target.r))
    ok = abs(kappa - float(exact)) < 1e-9 and worst <= kappa + 1e-9
    _report(3, "unitary transfer bound", ok,
            f"kappa={kappa:.12f} (=20/3 to 1e-9), "
            f"max over 1000 Haar samples {worst:.6f}")
    assert abs(kappa - float(exact)) < 1e-9
    assert worst <= kappa + 1e-9


def test_criterion_04_pps_fixed_point(chloroform_gen):
    report = fixed_point(
        chloroform_gen, pps_sequence(1.5), target=pps_direction(), kappa_tol=0.2
    )
    eta, theta = report.eta_eff, report.theta
    ok_eta = abs(eta - 7.48) <= 0.10 * 7.48
    ok_beats_unitary = eta > UNITARY_BOUND
    ok_theta = theta < 0.05
    _report(4, "averaging fixed point", ok_eta and ok_beats_unitary and ok_theta,
            f"eta={eta:.4f} (7.48 +-10%: {ok_eta}), beats 20/3: "
            f"{ok_beats_unitary}, theta={theta:.4f} (<0.05: {ok_theta})")
    assert ok_eta, f"eta {eta} outside 10% of 7.48"
    assert ok_beats_unitary, f"eta {eta} does not beat the unitary bound"

    # the fixed point itself is certified before its angle is judged
    expected = np.zeros_like(report.x_star.r)
    expected[list(diag_slots(2))] = _population_fixed_point(
        CHLOROFORM, 1.5, averaging_permutation()
    )
    err_fp = float(np.abs(report.x_star.r - expected).max())
    assert err_fp <= 1e-8, (
        f"fixed point differs from the population-block solve by {err_fp:.2e}"
    )

    inverse = PeriodicSequence(
        steps=(RelaxStep(1.5), gate_step(averaging_permutation().T, "V^-1"))
    )
    theta_inv = fixed_point(
        chloroform_gen, inverse, target=pps_direction(), kappa_tol=0.2
    ).theta
    assert ok_theta, (
        f"fixed-point angle {theta:.4f} rad >= 0.05 at tau = 1.5 s. The fixed "
        "point is not a solver artifact: an independent population-block "
        f"solve agrees to {err_fp:.1e}. The angle grows with tau from 0 "
        "at tau -> 0 and first reaches 0.05 rad near tau = 1.34 s; reading "
        "out after the relaxation instead of after the gate permutes the "
        "coordinates and gives the same angle, and the inverse 3-cycle gives "
        f"{theta_inv:.4f} rad. The same rates also miss acceptance 01's "
        "18.06 (radius^2 18.67), which suggests the targets come from a "
        "different rate table; settling this needs the paper's full text "
        "and rate table"
    )


def test_criterion_05_bell_conjugation(chloroform_gen):
    wrep = unitary_rep(bell_basis_change())
    Mp, cp = one_period_map(chloroform_gen, pps_sequence(1.5))
    Mb, cb = one_period_map(chloroform_gen, bell_sequence(1.5))
    err_m = np.abs(Mb - wrep @ Mp @ wrep.T).max()
    err_c = np.abs(cb - wrep @ cp).max()
    fp_p = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star.r
    fp_b = fixed_point(chloroform_gen, bell_sequence(1.5)).x_star.r
    err_fp = np.abs(fp_b - wrep @ fp_p).max()
    ok = err_m < 1e-10 and err_c < 1e-10 and err_fp < 1e-10
    _report(5, "Bell conjugation identity", ok,
            f"|M_Bell - W M W^T|={err_m:.2e}, |c_Bell - W c|={err_c:.2e}, "
            f"fixed-point image error={err_fp:.2e}")
    assert err_m < 1e-10
    assert err_c < 1e-10
    assert err_fp < 1e-10


def test_criterion_06_stlc_correctness(
    chloroform_gen, two_qubit_controls, chloroform_bound, rng
):
    # (a) triple-product test against the LP oracle on random instances
    agree = 0
    for _ in range(200):
        dirs = rng.normal(size=(24, 3))
        if stlc_test_3d(dirs).is_full == stlc_test_lp(dirs).is_full:
            agree += 1
    ok_agree = agree == 200

    # (b) the equilibrium is a boundary point of the controllable set
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    x_eq = chloroform_gen.r_eq[list(diag_slots(2))]
    dirs_eq = stacked_directions(A, b, x_eq)
    verdict_eq = stlc_test_3d(dirs_eq)
    ok_not_full = not verdict_eq.is_full and not stlc_test_lp(dirs_eq).is_full
    # exact certificate: the float fields are the exact ones to rounding,
    # and some plane spanned by two of them has every other field strictly
    # on one side, so the verdict does not rest on the degeneracy band
    exact = _exact_directions(CHLOROFORM, x_eq)
    planes = _strict_separating_planes(exact)
    exact_err = float(np.abs(dirs_eq - np.array(exact, dtype=float)).max())
    ok_exact = bool(planes) and exact_err <= 1e-12
    inner = stacked_directions(A, b, 0.999 * x_eq)
    ok_inner = stlc_test_3d(inner).is_full and stlc_test_lp(inner).is_full
    eq_radius = float(np.linalg.norm(x_eq))
    t_exit = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, (x_eq / eq_radius)[None, :],
        tol=1e-3, origin=np.zeros(3),
    )[0]
    ok_exit = eq_radius - 1e-3 <= t_exit <= eq_radius
    ok_eq = ok_not_full and ok_exact and ok_inner and ok_exit

    # (c) traced boundary radii stay inside the purity sphere
    from reachset import fibonacci_sphere

    rays = fibonacci_sphere(50)
    radii = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, rays, tol=1e-3, origin=np.zeros(3)
    )
    ok_sphere = bool(
        np.all(radii ** 2 <= chloroform_bound.radius_sq * (1 + 1e-6))
    )

    _report(6, "local-controllability machinery",
            ok_agree and ok_eq and ok_sphere,
            f"oracle agreement {agree}/200, equilibrium on the boundary: "
            f"{ok_eq} ({len(planes)} strictly separating planes in exact "
            f"arithmetic, ray exit {t_exit:.6f} vs |x_eq| {eq_radius:.6f}), "
            f"50 traced radii inside sphere: {ok_sphere}")
    assert ok_agree, f"triple-product and LP verdicts agree on {agree}/200"
    assert ok_sphere, "a traced boundary radius escapes the purity sphere"
    assert ok_not_full, "a cone test reports the equilibrium as controllable"
    assert ok_exact, (
        f"exact certificate failed: {len(planes)} strictly separating planes, "
        f"float fields off the exact ones by {exact_err:.2e}"
    )
    assert ok_inner, "0.999 x_eq, just toward the origin, is not controllable"
    assert ok_exit, (
        f"ray toward the equilibrium exits at {t_exit:.6f}, not within 1e-3 "
        f"below |x_eq| = {eq_radius:.6f}"
    )


def test_criterion_07_sandwich_along_pps_ray(
    chloroform_gen, two_qubit_controls, chloroform_bound
):
    d = np.ones(3) / np.sqrt(3)
    vertices = polytope_vertices(CoherenceVector(n=2, r=chloroform_gen.r_eq))
    t_unitary = polytope_ray_exit(diagonal_vertex_coords(vertices), d)
    t_stlc = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, d[None, :], tol=1e-4,
        origin=np.zeros(3),
    )[0]
    t_sphere = np.sqrt(chloroform_bound.radius_sq)
    ok = (t_unitary <= t_stlc * (1 + 1e-6)) and (t_stlc <= t_sphere * (1 + 1e-6))
    _report(7, "bound nesting along the target ray", ok,
            f"unitary {t_unitary:.4f} <= controllable {t_stlc:.4f} "
            f"<= sphere {t_sphere:.4f}")
    assert t_unitary <= t_stlc * (1 + 1e-6)
    assert t_stlc <= t_sphere * (1 + 1e-6)


def test_criterion_08_soundness_sweep(
    chloroform_gen, two_qubit_controls, chloroform_bound, rng
):
    from reachset import PeriodicSequence, RelaxStep, GateStep
    from reachset.dynamics import relax_propagator

    limit = chloroform_bound.radius_sq * (1 + 1e-6)
    worst = 0.0
    for _ in range(100):
        r = chloroform_gen.r_eq.copy()
        for _ in range(50):
            k = int(rng.integers(24))
            r = two_qubit_controls.reps_full[k] @ r
            tau = float(rng.uniform(0.01, 2.0))
            E, c = relax_propagator(chloroform_gen, tau)
            r = E @ r + c
            worst = max(worst, float(r @ r))
    ok = worst <= limit
    _report(8, "outer-bound soundness sweep", ok,
            f"max |r|^2 over 100 random sequences = {worst:.4f} "
            f"<= {limit:.4f}")
    assert worst <= limit


def test_criterion_09_rate_fit_round_trip(rng):
    # zero-noise synthetic data re-fit per block
    max_rel = 0.0
    for block in BLOCKS:
        free = {
            "population": ("r1", "r2", "r3", "r4", "r5", "r6"),
            "carbon_coherence": ("r7", "r8", "r9"),
            "proton_coherence": ("r10", "r11", "r12"),
            "multi_quantum": ("r13", "r14"),
        }[block]
        if block == "population":
            times = np.linspace(0.0, 40.0, 40)
            starts = [np.array([-1.0, 4.0, 0.0]), np.array([1.0, -4.0, 0.0]),
                      np.array([0.0, 0.0, 3.0])]
        else:
            times = np.linspace(0.0, 1.2, 20)
            k = len(BLOCKS[block])
            starts = [np.eye(k)[0] * 2.0, np.eye(k)[2] * 1.5]
        trajs = synthesize_trajectories(CHLOROFORM, block, starts, times)
        truth = np.array([getattr(CHLOROFORM, nm) for nm in free])
        guess = CHLOROFORM.with_rates(free, truth * 1.4 + 1e-3)
        fitted, _ = fit_rates(trajs, block, init_guess=guess, n_starts=2)
        for nm in free:
            t, f = getattr(CHLOROFORM, nm), getattr(fitted, nm)
            rel = abs(f - t) / (abs(t) if t != 0.0 else 1.0)
            max_rel = max(max_rel, rel)
    ok_zero = max_rel <= 1e-4

    # 1% noise, 20 Monte Carlo repetitions, population block
    errs = []
    for seed in range(20):
        times = np.linspace(0.0, 40.0, 50)
        starts = [np.array([-1.0, 4.0, 0.0]), np.array([1.0, -4.0, 0.0]),
                  np.array([0.0, 0.0, 3.0])]
        trajs = synthesize_trajectories(
            CHLOROFORM, "population", starts, times, noise=0.01, seed=seed
        )
        fitted, _ = fit_rates(
            trajs, "population", n_starts=1, seed=seed, max_iter=2500
        )
        errs.append(
            [
                abs(fitted.r1 - CHLOROFORM.r1) / CHLOROFORM.r1,
                abs(fitted.r2 - CHLOROFORM.r2) / CHLOROFORM.r2,
                abs(fitted.r3 - CHLOROFORM.r3) / CHLOROFORM.r3,
            ]
        )
    mc_err = np.mean(errs, axis=0)
    ok_noise = mc_err.max() < 0.05
    _report(9, "rate-fit round trip", ok_zero and ok_noise,
            f"zero-noise worst relative error {max_rel:.2e} (<=1e-4), "
            f"1%-noise mean errors r1-r3 {np.round(mc_err, 4)} (<5%)")
    assert ok_zero, f"zero-noise refit misses a rate by {max_rel:.2e}"
    assert ok_noise, f"noisy refit errors {mc_err}"


def test_criterion_10_dynamics_oracles(chloroform_gen, rng):
    # exact propagator vs classic fixed-step RK4 across the time span
    r0 = CoherenceVector(n=2, r=rng.normal(size=15) * 0.3)
    worst = 0.0
    for t in (0.5, 2.0, 10.0):
        E, c = relax_propagator(chloroform_gen, t)
        rk = rk4_evolve(chloroform_gen, r0, t, int(2e5 * max(t, 1.0)))
        worst = max(worst, float(np.abs(E @ r0.r + c - rk.r).max()))
    ok_rk = worst <= 1e-8

    # purity rate vs first-order finite differences
    rate = purity_rate(chloroform_gen, r0)
    errs = {}
    for h in (1e-4, 1e-5):
        E, c = relax_propagator(chloroform_gen, h)
        fd = (purity(CoherenceVector(n=2, r=E @ r0.r + c)) - purity(r0)) / h
        errs[h] = abs(rate - fd)
    c_est = errs[1e-4] / 1e-4
    ok_fd = errs[1e-5] <= 1.2 * c_est * 1e-5

    # free relaxation settles at the equilibrium (slowest eigenvalue
    # ~0.044 1/s, so the 1e-9 residual needs ~510 s; checked at 600 s)
    _, final = relax_propagator(chloroform_gen, 600.0)  # E @ 0 + c, from r0 = 0
    resid = float(np.linalg.norm(final - chloroform_gen.r_eq))
    ok_eq = resid < 1e-9

    _report(10, "dynamics oracles", ok_rk and ok_fd and ok_eq,
            f"RK4 max deviation {worst:.2e} (<=1e-8), finite-difference "
            f"first-order ok: {ok_fd}, equilibrium residual {resid:.2e}")
    assert ok_rk
    assert ok_fd
    assert ok_eq


def test_criterion_11_robustness_sweep(chloroform_gen):
    grid = np.linspace(-0.05, 0.05, 11)
    builder = pps_pulse_sequence_builder(1.5, compensated=True)
    reference = fixed_point(chloroform_gen, pps_sequence(1.5)).x_star
    result = robustness_sweep(chloroform_gen, builder, grid, grid, reference)
    center = result.delta[5, 5]
    solved = np.isfinite(result.delta).all()
    ok = center < 1e-9 and result.max_delta <= 0.1 and solved
    _report(11, "pulse-error robustness", ok,
            f"delta(0,0)={center:.2e} (<1e-9), max delta={result.max_delta:.4f} "
            f"(<=0.1), every cell solved: {solved}")
    assert center < 1e-9
    assert result.max_delta <= 0.1
    assert solved
