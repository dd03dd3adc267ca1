"""Output checks for the benchmark workloads.

Every check compares a result with a computation made here, apart from the
library's own code path, or with a property the method must have.  None
compares with a stored copy of earlier output.  A failed check raises
CheckFailed; the harness turns that into ``"correct": false``.

The independent computations use plain numpy/scipy:

* relaxation propagators from an eigendecomposition of the drift, never
  ``scipy.linalg.expm``;
* pulse unitaries from the closed form exp(-i a P / 2) = cos(a/2) I -
  i sin(a/2) P, valid because every pulse generator P squares to I;
* gate actions on coherence vectors from a Pauli basis built here;
* block trajectories for the rate fits from an eigendecomposition of the
  block generator.
"""

from itertools import permutations, product

import numpy as np

from reachset import chloroform, sequences, under_approx

#: kappa_max of the thermal state onto the pseudo-pure target is 20/3; the
#: periodic protocols must beat it.
UNITARY_CEILING = 20.0 / 3.0
ELLIPSOID_SAMPLES = 4096
RANDOM_UNITARIES = 256


class CheckFailed(AssertionError):
    """A benchmark output violates a property it must have."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# independent two-qubit algebra

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
#: Lexicographic {I,X,Y,Z}^2 labels without II: the coherence-vector order.
LABELS = tuple(a + b for a, b in product("IXYZ", repeat=2))[1:]
_BASIS = np.array([np.kron(_P1[a], _P1[b]) for a, b in LABELS])
#: Diagonal coordinates (ZI, IZ, ZZ) as indices into a coherence vector.
DIAG = [LABELS.index(lab) for lab in ("ZI", "IZ", "ZZ")]


def gate_action(U):
    """Orthogonal action of U on 15-dim coherence vectors."""
    moved = np.einsum("ab,jbc,dc->jad", U, _BASIS, U.conj())
    return np.einsum("iba,jab->ij", _BASIS, moved).real / 4.0


def relax_map(gen, tau):
    """(E, c) with r(tau) = E r(0) + c, from an eigendecomposition of the drift."""
    A = np.asarray(gen.Hmat) - np.asarray(gen.Rmat)
    w, V = np.linalg.eig(A)
    E = (V * np.exp(w * tau)) @ np.linalg.inv(V)
    E = E.real
    rstar = np.linalg.solve(-A, np.asarray(gen.v))
    return E, rstar - E @ rstar


def period_map(gen, seq):
    """One period of a PeriodicSequence, composed here step by step."""
    M, c = np.eye(15), np.zeros(15)
    for step in seq.steps:
        if isinstance(step, sequences.RelaxStep):
            E, b = relax_map(gen, step.tau)
            M, c = E @ M, E @ c + b
        else:
            M, c = step.rep @ M, step.rep @ c
    return M, c


def compile_closed_form(pulses, delta_c, delta_h):
    """Pulse list to a 4x4 unitary with closed-form Pauli rotations."""
    U = np.eye(4, dtype=complex)
    for p in pulses:
        if isinstance(p, sequences.CouplingDelay):
            P, angle = np.kron(_P1["Z"], _P1["Z"]), p.angle
        else:
            angle = p.angle * (1.0 + (delta_c if p.channel == "C" else delta_h))
            if isinstance(p, sequences.ZPulse):
                single = _P1["Z"]
            else:
                single = np.cos(p.phase) * _P1["X"] + np.sin(p.phase) * _P1["Y"]
            if p.channel == "C":
                P = np.kron(single, _P1["I"])
            else:
                P = np.kron(_P1["I"], single)
        U = (np.cos(angle / 2) * np.eye(4) - 1j * np.sin(angle / 2) * P) @ U
    return U


def fixed_point_of(M, c):
    return np.linalg.solve(np.eye(len(M)) - M, c)


def pps_fixed_point(gen, tau):
    """Fixed point of the ideal averaging period [tau - V], composed here."""
    E, b = relax_map(gen, tau)
    V = gate_action(sequences.averaging_permutation())
    return fixed_point_of(V @ E, V @ b)


# ---------------------------------------------------------------------------
# bounds


def check_ray_radii_lp(A, b, origin, dirs, radii, tol):
    """The LP cone test calls origin + r d full and origin + (r + tol) d not."""
    for k, (d, r) in enumerate(zip(dirs, radii)):
        require(np.isfinite(r), f"ray {k}: radius {r} is not finite")
        inside = under_approx.stlc_test_lp(
            b - np.einsum("kab,b->ka", A, origin + r * d)
        )
        require(inside.is_full, f"ray {k}: LP test finds radius {r} not controllable")
        outside = under_approx.stlc_test_lp(
            b - np.einsum("kab,b->ka", A, origin + (r + tol) * d)
        )
        require(
            not outside.is_full,
            f"ray {k}: LP test finds radius {r} + tol still controllable",
        )


def check_radii_in_sphere(origin, dirs, radii, radius_sq):
    """Every traced boundary point lies inside the certified purity sphere."""
    points = origin + np.asarray(radii)[:, None] * dirs
    worst = float((points ** 2).sum(axis=1).max())
    require(
        worst <= radius_sq * (1 + 1e-12),
        f"boundary point with |x|^2 = {worst} outside the sphere {radius_sq}",
    )


def check_sphere_contains_ellipsoid(gen, radius_sq, seed):
    """No seeded point of the zero-purity-rate ellipsoid r.R.(r - r_eq) = 0
    lies outside the sphere.

    The ellipsoid is (r - c).R.(r - c) = c.R.c with c = r_eq / 2; each
    seeded direction u is scaled to meet it.
    """
    R = np.asarray(gen.Rmat)
    c = np.asarray(gen.r_eq) / 2.0
    u = np.random.default_rng(seed).normal(size=(ELLIPSOID_SAMPLES, len(c)))
    pts = c + u * np.sqrt(float(c @ R @ c) / np.einsum("ki,ij,kj->k", u, R, u))[:, None]
    worst = float((pts ** 2).sum(axis=1).max())
    require(
        worst <= radius_sq * (1 + 1e-12),
        f"ellipsoid point with |r|^2 = {worst} beyond radius_sq {radius_sq}",
    )


def check_sphere(gen, radius_sq, argmax, seed):
    """The argmax sits on the ellipsoid and no sampled ellipsoid point is outside."""
    R, r_eq = np.asarray(gen.Rmat), np.asarray(gen.r_eq)
    a = np.asarray(argmax, dtype=float)
    require(np.isfinite(radius_sq) and np.all(np.isfinite(a)), "sphere output not finite")
    on = abs(float(a @ R @ (a - r_eq)))
    require(on <= 1e-9 * max(1.0, float(a @ R @ a)), f"argmax is {on} off the ellipsoid")
    require(
        abs(float(a @ a) - radius_sq) <= 1e-9 * radius_sq,
        f"|argmax|^2 = {float(a @ a)} differs from radius_sq {radius_sq}",
    )
    check_sphere_contains_ellipsoid(gen, radius_sq, seed)


def _deviation_diag(r):
    """Diagonal of the deviation operator sum_k r_k B_k of a diagonal state."""
    return np.asarray(r)[DIAG] @ np.array([np.diag(_BASIS[k]).real for k in DIAG])


def check_kappa(source_r, target_r, kappa, seed):
    """kappa is attained by a permutation unitary; no random unitary beats it."""
    lam_rho, lam_sig = _deviation_diag(source_r), _deviation_diag(target_r)
    norm = float(lam_sig @ lam_sig)
    best = max(float(lam_rho[list(p)] @ lam_sig) for p in permutations(range(4))) / norm
    require(
        abs(best - kappa) <= 1e-12 * max(1.0, abs(kappa)),
        f"kappa {kappa} is not the best permutation value {best}",
    )
    rho, sig = np.diag(lam_rho), np.diag(lam_sig)
    rng = np.random.default_rng(seed)
    shape = (RANDOM_UNITARIES, 4, 4)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, _ = np.linalg.qr(z)
    vals = np.einsum("kab,bc,kdc,da->k", q, rho, q.conj(), sig).real / norm
    require(
        float(vals.max()) <= kappa + 1e-12 * max(1.0, abs(kappa)),
        f"a random unitary reaches {float(vals.max())} above kappa {kappa}",
    )


# ---------------------------------------------------------------------------
# protocols


def check_fixed_point(gen, seq, x_star, spectral_radius, eta):
    """x* solves the independently composed period map and beats the ceiling."""
    M, c = period_map(gen, seq)
    x = np.asarray(x_star, dtype=float)
    resid = float(np.abs(M @ x + c - x).max())
    require(resid <= 1e-10, f"|M x* + c - x*| = {resid} exceeds 1e-10")
    rho = float(np.abs(np.linalg.eigvals(M)).max())
    require(rho < 1.0 and spectral_radius < 1.0, f"spectral radius {rho} not below 1")
    require(
        abs(rho - spectral_radius) <= 1e-9,
        f"spectral radius {spectral_radius} differs from {rho}",
    )
    require(eta > UNITARY_CEILING, f"eta {eta} does not beat the unitary 20/3")


def check_converged(final_state, x_star):
    gap = float(np.linalg.norm(np.asarray(final_state) - np.asarray(x_star)))
    require(gap <= 1e-6, f"the simulation ends {gap} from the fixed point")


def check_sweep(gen, tau, compensated, delta_c, delta_h, delta):
    """Every cell matches an independent recomputation; the zero cell is ~0."""
    delta = np.asarray(delta, dtype=float)
    require(np.all(np.isfinite(delta)), "sweep has non-finite cells")
    E, b = relax_map(gen, tau)
    ref = pps_fixed_point(gen, tau)
    pulses = sequences.averaging_gate_pulses(compensated)
    for i, a in enumerate(delta_c):
        for j, h in enumerate(delta_h):
            G = gate_action(compile_closed_form(pulses, a, h))
            x = fixed_point_of(G @ E, G @ b)
            want = np.linalg.norm(x - ref) / np.linalg.norm(ref)
            require(
                abs(delta[i, j] - want) <= 1e-9,
                f"cell ({a}, {h}): delta {delta[i, j]} against {want}",
            )
            if a == 0.0 and h == 0.0:
                require(delta[i, j] <= 1e-9, f"zero-error cell has delta {delta[i, j]}")
    require(
        any(a == 0.0 for a in delta_c) and any(h == 0.0 for h in delta_h),
        "the sweep grid lacks its zero-error cell",
    )


def check_bb1_beats_plain(bb1_max, plain_max):
    require(bb1_max < plain_max, f"BB1 max delta {bb1_max} not below plain {plain_max}")


def check_noe(gen, diag_x, saturated):
    """The diagonal steady state solves the clamped system; C saturation enhances H."""
    pos = {"C": 0, "H": 1}[saturated]
    x = np.zeros(15)
    x[DIAG] = diag_x
    free = [k for k, lab in enumerate(LABELS) if lab[pos] == "I"]
    clamped = [k for k in range(15) if k not in free]
    require(np.all(np.isfinite(x)), "steady state not finite")
    require(np.all(x[clamped] == 0.0), "a saturated coordinate is not clamped to zero")
    A = (np.asarray(gen.Hmat) - np.asarray(gen.Rmat))[np.ix_(free, free)]
    resid = float(np.abs(A @ x[free] + np.asarray(gen.v)[free]).max())
    require(resid <= 1e-12 * max(1.0, np.abs(gen.v).max()), f"clamped residual {resid}")
    if saturated == "C":
        gain = x[LABELS.index("IZ")] / gen.r_eq[LABELS.index("IZ")]
        require(gain > 1.0, f"carbon saturation gives enhancement {gain} <= 1")


# ---------------------------------------------------------------------------
# rate fits


def block_trajectory(rates, block, x0, times):
    """Block evolution from an eigendecomposition of its generator."""
    sym, antisym = chloroform.block_matrices(rates, block)
    w, V = np.linalg.eig(antisym - sym)
    x_fix = np.zeros(len(x0))
    if block == "population":
        x_fix = np.array([rates.eps_C, rates.eps_H, 0.0])
    y0 = np.linalg.solve(V, np.asarray(x0) - x_fix)
    return (np.exp(np.outer(times, w)) * y0 @ V.T).real + x_fix


def residual_sum(rates, block, trajs):
    labels = chloroform.BLOCKS[block]
    total = 0.0
    for tr in trajs:
        x0 = np.array([tr.observables[lab][0] for lab in labels])
        sim = block_trajectory(rates, block, x0, tr.times)
        data = np.column_stack([tr.observables[lab] for lab in labels])
        total += float(((sim - data)[1:] ** 2).sum())
    return total


def check_fit(block, trajs, fitted, truth):
    """The fit explains the data at least as well as the generating rates."""
    free = chloroform.BLOCK_RATES[block]
    require(
        all(np.isfinite(getattr(fitted, n)) for n in free), "fitted rates not finite"
    )
    got, ref = residual_sum(fitted, block, trajs), residual_sum(truth, block, trajs)
    require(
        got <= ref * (1 + 1e-9),
        f"{block}: fitted RSS {got} above the generating rates' {ref}",
    )


def check_exact_refit(block, fitted, truth):
    for name in chloroform.BLOCK_RATES[block]:
        t, f = getattr(truth, name), getattr(fitted, name)
        rel = abs(f - t) / (abs(t) if t != 0.0 else 1.0)
        require(rel <= 1e-4, f"{block}: zero-noise refit misses {name} by {rel:.2e}")
