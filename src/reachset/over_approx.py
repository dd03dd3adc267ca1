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
solved by bracketed root finding.  An independent projected-gradient
ascent on the same (c, M), from ORACLE_STARTS fixed starts drawn with
ORACLE_SEED, certifies the result.  The starts ascend in lockstep, as one
(ORACLE_STARTS, d) array with one stacked gradient per round, and each
stops by its own rules, so a start's path does not depend on the others.
"""

from dataclasses import dataclass

import numpy as np

from .diagonal import diag_slots
from .errors import ContractivityViolation, ValidationError
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


def _sphere_objective_data(gen):
    """Transform the QP into max |c + M y|^2 over the unit sphere."""
    from scipy.linalg import cholesky, solve_triangular

    R = gen.Rmat
    c = gen.r_eq / 2.0
    rho_sq = float(gen.r_eq @ (R @ gen.r_eq)) / 4.0
    L = cholesky(R, lower=True)
    Minv_t = solve_triangular(L.T, np.eye(len(c)), lower=False)
    M = np.sqrt(rho_sq) * Minv_t
    return c, M


def _max_norm_on_sphere(c, M):
    """The maximizer c + M y of |c + M y|^2 over |y| = 1, via the secular equation.

    Works in the eigenbasis of G = M^T M: with btilde the transformed
    linear term, the maximizer satisfies y_i = btilde_i / (lam - g_i) with
    lam >= g_max and sum_i btilde_i^2 / (lam - g_i)^2 = 1.  The degenerate
    case (no linear component along the top eigenspace) admits a boundary
    solution at lam = g_max.
    """
    G = M.T @ M
    b = M.T @ c
    g, V = np.linalg.eigh(G)
    bt = V.T @ b
    gmax = g[-1]
    scale = max(gmax, 1e-300)
    top = g >= gmax - 1e-12 * scale
    b_top = np.linalg.norm(bt[top])

    def phi(lam):
        return float(np.sum((bt / (lam - g)) ** 2)) - 1.0

    hard_probe = gmax + max(1e-14 * scale, 1e-300)
    if b_top <= 1e-14 * max(np.linalg.norm(bt), 1.0) or phi(hard_probe) <= 0.0:
        # boundary case: pseudo-solve off the top eigenspace, spend the
        # remaining norm on the top eigenvector
        yt = np.where(top, 0.0, bt / np.where(top, 1.0, gmax - g))
        t_sq = 1.0 - float(yt @ yt)
        if t_sq < 0.0:
            t_sq = 0.0
        k = np.argmax(top)
        yt[k] = np.sqrt(t_sq)
    else:
        from scipy.optimize import brentq

        lo = gmax + max(b_top * (1 - 1e-12), 1e-14 * scale)
        hi = gmax + np.linalg.norm(bt) + 1e-12 * scale
        while phi(hi) > 0.0:
            hi = gmax + 2 * (hi - gmax)
        if phi(lo) < 0.0:
            lo = hard_probe
        lam = brentq(phi, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
        yt = bt / (lam - g)
    y = V @ yt
    return c + M @ y


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
    projected-gradient oracle to relative CERTIFY_RTOL.

    Parameters
    ----------
    gen : AffineGenerator
        Must have a strictly positive definite relaxation matrix.

    Returns
    -------
    PurityBound

    Raises
    ------
    ContractivityViolation
        If the generator is unital/PSD.
    ValidationError
        If the oracle disagrees with the secular solution.
    """
    if gen.unital:
        raise ContractivityViolation(
            "purity bound requires a strictly contractive relaxation matrix"
        )
    if not np.any(gen.r_eq):
        zero = CoherenceVector(n=gen.n, r=np.zeros(gen.dim))
        return PurityBound(0.0, zero, 0.0, 0.0, 0.0)

    c, M = _sphere_objective_data(gen)
    r_opt = _max_norm_on_sphere(c, M)
    radius_sq = float(r_opt @ r_opt)

    # multiplier in the original coordinates: 2 r = mu * R (2 r - r_eq)
    gc = gen.Rmat @ (2.0 * r_opt - gen.r_eq)
    mu = float((2.0 * r_opt) @ gc / (gc @ gc))
    residual = abs(float(r_opt @ (gen.Rmat @ (r_opt - gen.r_eq))))

    oracle_val, _ = max_purity_multistart(c, M)
    gap = abs(oracle_val - radius_sq)
    if gap > CERTIFY_RTOL * max(radius_sq, 1e-30):
        raise ValidationError(
            f"secular solution {radius_sq!r} disagrees with projected-"
            f"gradient oracle {oracle_val!r} beyond relative {CERTIFY_RTOL}"
        )
    return PurityBound(
        radius_sq=radius_sq,
        argmax_r=CoherenceVector(n=gen.n, r=r_opt),
        lagrange_mult=mu,
        solver_residual=residual,
        oracle_rel_gap=gap / max(radius_sq, 1e-30),
    )


def ellipsoid_axis_intersections(gen):
    """Exact zero-purity-derivative crossings on the diagonal axes.

    On axis i the constraint t (R_ii t - (R r_eq)_i) = 0 has the nontrivial
    root t = (R r_eq)_i / R_ii; returned per diagonal coordinate.  Reported
    alongside the sphere value because the two do not coincide in general.
    """
    slots = list(diag_slots(gen.n))
    w = gen.Rmat @ gen.r_eq
    return np.array([w[i] / gen.Rmat[i, i] for i in slots])
