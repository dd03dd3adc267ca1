"""Outer bound on the controllable region from the purity derivative.

The states with vanishing purity derivative form the ellipsoid
r.Rmat.(r - r_eq) = 0, which passes through the origin and through r_eq.
Outside it the purity strictly decreases, for every choice of coherent
control, so the smallest origin-centered sphere containing the ellipsoid can
never be left once the state starts inside.  Its squared radius is

    radius_sq = max r.r   subject to   r.Rmat.(r - r_eq) = 0,

a quadratic program over an ellipsoid.  The solver transforms by the
Cholesky factor Rmat = L L^T, centers the constraint (center r_eq/2, level
rho^2 = r_eq.Rmat.r_eq / 4) and maximizes |c + M y|^2 over the unit sphere
|y| = 1 with c = r_eq/2 and M = rho L^{-T}.  The stationary condition
reduces to a one-dimensional secular equation in the Lagrange multiplier,
solved by Newton's method in its gap above the top eigenvalue of M^T M,
whose iterates rise monotonically to the root.  The problem is homogeneous
in r_eq, so it is solved for r_eq scaled by a power of two and the results
are scaled back exactly.  An independent projected-gradient
ascent on the same (c, M), from ORACLE_STARTS fixed starts drawn with
ORACLE_SEED, certifies the result.  The starts ascend in lockstep, as one
(ORACLE_STARTS, d) array with one stacked gradient per round, and each
stops by its own rules, so a start's path does not depend on the others.
"""

from dataclasses import dataclass

import numpy as np

from .diagonal import diag_slots
from .errors import CertificationFailed, ldexp_normal, pow2_scale
from .pauli import CoherenceVector

#: Relative agreement demanded between solver and certification oracle.
CERTIFY_RTOL = 1e-6

#: Oracle starts and their seed; ascent steps per start, and the relative
#: gain that ends a start.
ORACLE_STARTS = 50
ORACLE_SEED = 0
ORACLE_MAX_ITER = 2000
ORACLE_STEP_TOL = 1e-14


@dataclass(frozen=True)
class PurityBound:
    """Result of the purity-sphere optimization.

    Attributes
    ----------
    radius_sq : float
        max r.r on the zero-purity-derivative surface (squared polarization
        units).
    argmax_r : CoherenceVector
        A maximizer.
    lagrange_mult : float
        Multiplier of the constraint in the original coordinates, from
        grad(r.r) = mu grad(constraint) at the maximizer.
    solver_residual : float
        |constraint(argmax)|, absolute.
    oracle_rel_gap : float
        |oracle - radius_sq| / radius_sq, the certification oracle's
        relative disagreement (at most CERTIFY_RTOL); 0 when r_eq = 0.
    """

    radius_sq: float
    argmax_r: CoherenceVector
    lagrange_mult: float
    solver_residual: float
    oracle_rel_gap: float


def _sphere_objective_data(R, r_eq):
    """Transform the QP into max |c + M y|^2 over the unit sphere."""
    rho_sq = float(r_eq @ (R @ r_eq)) / 4.0
    return r_eq / 2.0, np.sqrt(rho_sq) * np.linalg.inv(np.linalg.cholesky(R).T)


def _max_norm_on_sphere(c, M):
    """The maximizer c + M y of |c + M y|^2 over |y| = 1, by monotone Newton.

    In the eigenbasis of G = M^T M (eigenvalues g, the top set within 1e-12
    of g_max) the maximizer is y_i = bt_i / (delta + d_i), with bt = V^T M^T c
    (assumed nonzero), d_i = g_max - g_i (0 on the top set) and delta >= 0
    the root of f(delta) = 1/|y(delta)| - 1 (Moré & Sorensen 1983); y_i = 0
    where bt_i = 0.  f is concave and increasing and |y| >= 1 at
    delta = |bt_top|, so Newton's iterates from there rise monotonically to
    the root, and the first that does not rise ends the iteration.  In the
    hard case (bt_top = 0 and |y(0)| <= 1) delta stays 0 and a top
    eigenvector takes up the norm that y(0) leaves.
    """
    g, V = np.linalg.eigh(M.T @ M)
    bt = V.T @ (M.T @ c)
    top = g >= g[-1] - 1e-12 * max(g[-1], 1e-300)
    d = np.where(top, 0.0, g[-1] - g)
    live = bt != 0.0
    delta = np.linalg.norm(bt[top])
    while True:
        w = delta + d[live]
        y = bt[live] / w
        yy = y @ y
        rise = delta + (np.sqrt(yy) - 1.0) * yy / (y @ (y / w))
        if not rise > delta:
            break
        delta = rise
    yt = np.zeros_like(bt)
    yt[live] = y
    if delta == 0.0:
        yt[np.argmax(top)] = np.sqrt(max(1.0 - yt @ yt, 0.0))
    return c + M @ (V @ yt)


def max_purity_multistart(c, M):
    """Projected-gradient certification oracle: max |c + M y|^2 over |y| = 1.

    Ascends from ORACLE_STARTS random unit directions drawn with
    ORACLE_SEED, all in lockstep with backtracking line search, and returns
    the best (value, maximizer c + M y) found.  Independent of the
    secular-equation path.
    """
    Y = np.random.default_rng(ORACLE_SEED).normal(size=(ORACLE_STARTS, len(c)))
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)
    val, Y, _ = _ascend(c, M, Y)
    best = int(np.argmax(val))
    return float(val[best]), c + M @ Y[best]


def _ascend(c, M, Y):
    """Projected-gradient ascent of |c + M y|^2 from each unit row of Y.

    Every round takes one step for each start still climbing: a stacked
    gradient and tangent, then backtracking from step 1/L (L = 2
    lambda_max(M^T M)) by up to 60 halvings until the value improves.  A
    start stops when its tangent norm is at most 1e-15 max(1, |value|),
    when no halving improves it, or when its gain falls below
    ORACLE_STEP_TOL max(1, |value|); starts never interact.

    Returns (val, Y, rounds): the final values and unit points, and the
    round in which each start stopped.
    """
    G = M.T @ M
    b = M.T @ c
    cc = float(c @ c)

    def value(y):
        return cc + 2.0 * (y @ b) + np.vecdot(y, y @ G)

    Y = Y.copy()
    val = value(Y)
    rounds = np.full(len(Y), ORACLE_MAX_ITER)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(G)[-1] + 1e-300)
    live = np.arange(len(Y))
    for k in range(ORACLE_MAX_ITER):
        y, v = Y[live], val[live]
        scale = np.maximum(1.0, np.abs(v))
        grad = 2.0 * (b + y @ G)
        tangent = grad - np.vecdot(grad, y)[:, None] * y
        trying = np.flatnonzero(np.linalg.norm(tangent, axis=1) > 1e-15 * scale)
        y_new, v_new = np.empty_like(y), np.full(len(live), -np.inf)
        alpha = step  # every start still trying has been halved alike
        for _ in range(60):
            if not trying.size:
                break
            trial = y[trying] + alpha * tangent[trying]
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            tv = value(trial)
            up = tv > v[trying]
            y_new[trying[up]], v_new[trying[up]] = trial[up], tv[up]
            trying = trying[~up]
            alpha *= 0.5
        improved = v_new > v
        Y[live[improved]], val[live[improved]] = y_new[improved], v_new[improved]
        climbing = improved & (v_new - v >= ORACLE_STEP_TOL * scale)
        rounds[live[~climbing]] = k
        live = live[climbing]
        if not live.size:
            break
    return val, Y, rounds


def max_purity_on_ellipsoid(gen):
    """Smallest origin-centered sphere no controlled trajectory can leave.

    The secular-equation solution is cross-checked against the multi-start
    projected-gradient oracle to relative CERTIFY_RTOL.  Both run on r_eq
    scaled by 2^-k so that its largest entry lies in [0.5, 1); radius_sq,
    the maximizer and the residual are scaled back by 2^2k, 2^k and 2^2k.

    Parameters
    ----------
    gen : AffineGenerator
        Its relaxation matrix is positive definite, as every generator's is.

    Returns
    -------
    PurityBound

    Raises
    ------
    ValidationError
        If r_eq's scale puts radius_sq outside the normal float range.
    CertificationFailed
        If the oracle disagrees with the secular solution.
    """
    if not np.any(gen.r_eq):
        zero = CoherenceVector(n=gen.n, r=np.zeros(gen.dim))
        return PurityBound(0.0, zero, 0.0, 0.0, 0.0)

    # the problem is homogeneous in r_eq: solve it for r_eq / 2^k, whose
    # largest entry lies in [0.5, 1), and scale the results back exactly
    r_eq, k = pow2_scale(gen.r_eq)
    c, M = _sphere_objective_data(gen.Rmat, r_eq)
    r_opt = _max_norm_on_sphere(c, M)
    val = float(r_opt @ r_opt)
    radius_sq = float(ldexp_normal(val, 2 * k, "r_eq's scale puts radius_sq"))

    # multiplier, unchanged by the scaling: 2 r = mu * R (2 r - r_eq); gc is
    # divided by a power of two once so that gc.gc cannot overflow
    gc = gen.Rmat @ (2.0 * r_opt - r_eq)
    u, _ = pow2_scale(gc)
    mu = float((2.0 * r_opt) @ u / (gc @ u))
    residual = abs(float(r_opt @ (gen.Rmat @ (r_opt - r_eq))))

    oracle_val, _ = max_purity_multistart(c, M)
    gap = abs(oracle_val - val) / val
    if gap > CERTIFY_RTOL:
        raise CertificationFailed(
            f"secular solution {val!r} disagrees with projected-gradient "
            f"oracle {oracle_val!r} beyond relative {CERTIFY_RTOL}"
        )
    return PurityBound(
        radius_sq=radius_sq,
        argmax_r=CoherenceVector(n=gen.n, r=np.ldexp(r_opt, k)),
        lagrange_mult=mu,
        solver_residual=float(np.ldexp(residual, 2 * k)),
        oracle_rel_gap=gap,
    )


def ellipsoid_axis_intersections(gen):
    """Exact zero-purity-derivative crossings on the diagonal axes.

    On axis i the constraint t (R_ii t - (R r_eq)_i) = 0 has the nontrivial
    root t = (R r_eq)_i / R_ii; returned per diagonal coordinate.  Reported
    alongside the sphere value because the two do not coincide in general.
    """
    slots = list(diag_slots(gen.n))
    return gen.v[slots] / np.diagonal(gen.Rmat)[slots]
