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
solved by bracketed root finding; an independent projected-gradient
ascent from ORACLE_STARTS fixed seeded starts certifies the result.
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
    """

    radius_sq: float
    argmax_r: CoherenceVector
    lagrange_mult: float
    solver_residual: float


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


def max_purity_multistart(gen, n_starts=ORACLE_STARTS, seed=ORACLE_SEED):
    """Projected-gradient certification oracle for the purity bound.

    Ascends |c + M y|^2 on the unit sphere from `n_starts` seeded random
    directions with backtracking line search, and returns the best
    (radius_sq, maximizer) found.  Independent of the secular-equation path.
    """
    c, M = _sphere_objective_data(gen)
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
        return PurityBound(0.0, zero, 0.0, 0.0)

    c, M = _sphere_objective_data(gen)
    r_opt = _max_norm_on_sphere(c, M)
    radius_sq = float(r_opt @ r_opt)

    # multiplier in the original coordinates: 2 r = mu * R (2 r - r_eq)
    gc = gen.Rmat @ (2.0 * r_opt - gen.r_eq)
    mu = float((2.0 * r_opt) @ gc / (gc @ gc))
    residual = abs(float(r_opt @ (gen.Rmat @ (r_opt - gen.r_eq))))

    oracle_val, _ = max_purity_multistart(gen)
    if abs(oracle_val - radius_sq) > CERTIFY_RTOL * max(radius_sq, 1e-30):
        raise ValidationError(
            f"secular solution {radius_sq!r} disagrees with projected-"
            f"gradient oracle {oracle_val!r} beyond relative {CERTIFY_RTOL}"
        )
    return PurityBound(
        radius_sq=radius_sq,
        argmax_r=CoherenceVector(n=gen.n, r=r_opt),
        lagrange_mult=mu,
        solver_residual=residual,
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
