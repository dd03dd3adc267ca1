"""Independent numerical oracles used only by the tests.

Kept outside the library on purpose: the production propagator is the
exact matrix-exponential solution, the rate fit is a numpy
Levenberg-Marquardt, the unitary ray exit is a closed form,
boundary rays are traced in lockstep and the sphere oracle runs its
starts in lockstep, the cone test answers most sets by a tetrahedron or a
facet before it looks at every plane through three fields, and these
slower/brute-force routes exist to check them from a different direction.
"""

import numpy as np

from reachset import CoherenceVector, stlc_test_3d
from reachset.diagonal import projected_field_stack, stacked_directions
from reachset.over_approx import (
    ORACLE_MAX_ITER,
    ORACLE_SEED,
    ORACLE_STARTS,
    ORACLE_STEP_TOL,
)

#: The sweep's band: products inside it count as "on the hyperplane".
DEGENERACY_TOL = 1e-12


def rk4_evolve(gen, r0, t, n_steps):
    """Classic fixed-step fourth-order Runge-Kutta on the affine ODE.

    For a linear system the four stages compose into one affine step
    r <- Phi r + psi with Phi the degree-4 Taylor polynomial of exp(A h),
    which is algebraically identical to running the textbook scheme.
    """
    A = gen.drift
    h = t / n_steps
    Ah = A * h
    Ah2 = Ah @ Ah
    phi = np.eye(len(A)) + Ah + Ah2 / 2 + Ah2 @ Ah / 6 + Ah2 @ Ah2 / 24
    rstar = gen.fixed_point
    psi = (np.eye(len(A)) - phi) @ rstar
    r = np.asarray(r0.r if isinstance(r0, CoherenceVector) else r0, dtype=float).copy()
    for _ in range(n_steps):
        r = phi @ r + psi
    return CoherenceVector(n=gen.n, r=r)


def lindblad_dissipator(jump_ops):
    """Relaxation superoperator sum_k (L rho L+ - {L+L, rho}/2) as a callable."""
    ops = [np.asarray(L, dtype=complex) for L in jump_ops]
    pairs = [(L, L.conj().T @ L) for L in ops]

    def dissipator(rho):
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for L, LdL in pairs:
            out += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
        return out

    return dissipator


def superoperator_matrix(superop, n):
    """Brute-force matrix of a superoperator on the full Pauli coefficient
    space (including the identity slot), entries Tr(B_k S(B_j))/2^n."""
    from reachset import build_basis

    basis = build_basis(n)
    dim = 4 ** n
    m = np.empty((dim, dim))
    for j in range(dim):
        img = superop(basis.matrices[j])
        m[:, j] = np.einsum("kab,ba->k", basis.matrices, img).real / 2 ** n
    return m


def least_squares_reference(fun, x, f, max_nfev):
    """(x, cost) from scipy's trust-region reflective least squares at its
    default tolerances, in place of chloroform._levenberg_marquardt: same
    arguments, same budget of max_nfev evaluations of fun besides the
    Jacobian's.  f = fun(x) is unused; scipy evaluates it again."""
    from scipy.optimize import least_squares

    res = least_squares(fun, x, max_nfev=max_nfev)
    return res.x, res.cost


def lp_ray_exit(vertices_coords, direction):
    """Largest t with t * direction in the hull of the vertices, by LP.

    Variables (t, convex weights w): maximize t subject to V^T w = t d,
    sum w = 1, w >= 0.  Independent of the majorization route.
    """
    from scipy.optimize import linprog

    V = np.asarray(vertices_coords, dtype=float)
    d = np.asarray(direction, dtype=float)
    nv, m = V.shape
    cost = np.zeros(nv + 1)
    cost[0] = -1.0
    A_eq = np.zeros((m + 1, nv + 1))
    A_eq[:m, 0] = -d
    A_eq[:m, 1:] = V.T
    A_eq[m, 1:] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    res = linprog(cost, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.x[0])


def first_exit(A, b, origin, direction, step, max_radius, tol):
    """March outward then bisect the first STLC sign change on one ray.

    One cone test per point and one ray at a time: the tracer that lockstep
    tracing replaced.
    """
    t_lo = 0.0
    t_hi = None
    t = step
    while t <= max_radius:
        if stlc_test_3d(stacked_directions(A, b, origin + t * direction)).is_full:
            t_lo = t
        else:
            t_hi = t
            break
        t += step
    if t_hi is None:
        return max_radius
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if not t_lo < mid < t_hi:  # the bracket is one ulp wide
            break
        if stlc_test_3d(stacked_directions(A, b, origin + mid * direction)).is_full:
            t_lo = mid
        else:
            t_hi = mid
    return t_lo


def boundary_rays_one_by_one(gen, controls, ray_dirs, tol, origin):
    """stlc_boundary_rays ray by ray, with its march step and cutoff."""
    origin = np.asarray(origin, dtype=float)
    A, b = projected_field_stack(gen, controls.reps_full)
    scale = float(np.linalg.norm(origin))
    step = max(scale, 1.0) / 20.0
    max_radius = 3.0 * (scale + float(np.linalg.norm(gen.r_eq))) + 1.0
    return np.array([first_exit(A, b, origin, d, step, max_radius, tol)
                     for d in np.asarray(ray_dirs, dtype=float)])


def hull_depth(v):
    """Depth of the origin in the convex hull of the (K, 3) rows of v, in
    units of the largest row norm: its smallest distance to a facet plane,
    negative where it lies outside, and 0 for a hull that is not
    three-dimensional.  The facets come from scipy's Quickhull (Barber,
    Dobkin & Huhdanpaa 1996)."""
    from scipy.spatial import ConvexHull, QhullError

    v = np.asarray(v, dtype=float)
    top = np.linalg.norm(v, axis=1).max()
    if len(v) < 4 or top == 0 or np.linalg.matrix_rank(v - v[0], tol=1e-12 * top) < 3:
        return 0.0
    try:
        hull = ConvexHull(v / top)
    except QhullError:
        return 0.0
    return float(-hull.equations[:, 3].max())  # outward unit normals: n . x + c <= 0


def cone_verdicts_sweep(v):
    """Verdicts of the triple-product plane sweep on (N, K, 3) sets.

    The library's cone test before its tetrahedron certificate: the
    power-of-two rescale, every plane v_i x v_j with its products inside a
    band of +-1e-12 counted as on the plane, two prefilters and a rank
    check.  That band answers "full" for sets whose hull holds the origin
    only a rounding error deep, which the library now answers "not full".
    """
    _, e = np.frexp(np.abs(v).max(axis=(1, 2)))
    v = np.ldexp(v, -e[:, None, None])  # exact: every |entry| now below 1
    i, j = np.triu_indices(v.shape[1], k=1)  # each unordered plane once
    w = v.transpose(2, 0, 1)
    (a0, a1, a2), (b0, b1, b2) = w[:, :, i], w[:, :, j]  # np.cross, term by term
    crosses = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=1)
    cross_norms = np.linalg.norm(crosses, axis=1)  # (N, pairs)
    norms = np.linalg.norm(v, axis=-1)
    prods = v @ crosses  # (N, K, pairs): (v_i x v_j) . v_k
    top, bottom = prods.max(axis=1), prods.min(axis=1)
    band = 4 * DEGENERACY_TOL * np.maximum(
        cross_norms * norms.max(axis=-1, keepdims=True), 1e-300)
    valid = cross_norms > 1e-12 * (norms[:, i] * norms[:, j])
    rows, pairs = np.nonzero(valid & ~((top > band) & (bottom < -band)))
    c = prods[rows, :, pairs]
    scale = np.maximum(cross_norms[rows, pairs][:, None] * norms[rows], 1e-300)
    hit = ((c <= DEGENERACY_TOL * scale).all(axis=1)
           | (c >= -DEGENERACY_TOL * scale).all(axis=1))
    full = np.ones(len(v), dtype=bool)
    full[rows[hit]] = False

    rank_tol = 1e-12
    widest = np.maximum(top.max(axis=1, initial=0.0), -bottom.min(axis=1, initial=0.0))
    frobenius_sq = (v * v).sum(axis=(1, 2))
    unsure = np.flatnonzero(~(widest > 2.0 * frobenius_sq * rank_tol))
    if unsure.size:
        full[unsure[np.linalg.matrix_rank(v[unsure], tol=rank_tol) < 3]] = False
    return full


def max_purity_multistart_serial(c, M, n_starts=ORACLE_STARTS, seed=ORACLE_SEED):
    """The purity-sphere oracle one start at a time: the ascent that the
    lockstep max_purity_multistart replaced, with the same seeded starts,
    step rule and stopping rules, on the problem max |c + M y|^2, |y| = 1."""
    G = M.T @ M
    rng = np.random.default_rng(seed)
    dim = len(c)
    best_val, best_r = -np.inf, None
    lipschitz = 2.0 * np.linalg.eigvalsh(G)[-1] + 1e-300
    for _ in range(n_starts):
        y = rng.normal(size=dim)
        y /= np.linalg.norm(y)
        val = float(c @ c + 2 * (M.T @ c) @ y + y @ (G @ y))
        step = 1.0 / lipschitz
        for _ in range(ORACLE_MAX_ITER):
            grad = 2.0 * (M.T @ c + G @ y)
            tangent = grad - (grad @ y) * y
            if np.linalg.norm(tangent) <= 1e-15 * max(1.0, abs(val)):
                break
            alpha = step
            improved = False
            for _ in range(60):
                y_new = y + alpha * tangent
                y_new /= np.linalg.norm(y_new)
                val_new = float(
                    c @ c + 2 * (M.T @ c) @ y_new + y_new @ (G @ y_new)
                )
                if val_new > val:
                    improved = True
                    break
                alpha *= 0.5
            if not improved or (val_new - val) < ORACLE_STEP_TOL * max(1.0, abs(val)):
                y, val = y_new, max(val, val_new)
                break
            y, val = y_new, val_new
        if val > best_val:
            best_val, best_r = val, c + M @ y
    return best_val, best_r
