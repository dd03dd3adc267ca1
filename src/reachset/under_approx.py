"""Inner bound on the controllable region via local controllability tests.

Restricting the instantaneous controls to the 2^n! permutations of the
diagonal entries yields, at each spectral point x, a finite set of
admissible evolution directions.  The point is small-time locally
controllable (STLC) exactly when the convex cone of those directions is all
of R^{2^n - 1}.  By the separating-hyperplane characterization, the cone
fails to be full iff some hyperplane spanned by directions from the set has
every direction on one side.

Two implementations are provided and cross-validated:

* ``stlc_test_3d`` - the run-time test, so tracing is two-qubit only: for
  each unordered pair (i, j), c_k = (v_i x v_j) . v_k must change sign.
* ``stlc_test_lp`` - its oracle, a linear-programming membership test in
  any dimension: the cone is full iff every +-unit coordinate target
  admits a nonnegative conical decomposition.

Both classify degenerate configurations conservatively: a hyperplane with
all products inside +-1e-12 counts as separating.  The free equilibrium of
the bundled chloroform model does not depend on that band: the identity
field vanishes there, and planes spanned by pairs of the other 23 fields
have every remaining field strictly on one side, so the cone is not full.
Points just toward the origin (0.999 x_eq) are STLC, which makes the
equilibrium a boundary point of the STLC set.

The boundary of the STLC set is traced by marching along rays from a
verified interior point and bisecting the first sign change; the reported
radius is the last radius at which the test succeeded, which keeps the
trace a certified inner bound.
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np
from scipy.optimize import linprog

from .diagonal import diag_slots, projected_field_stack, stacked_directions
from .errors import (
    OriginNotControllable,
    SingularCombination,
    ValidationError,
)
from .pauli import build_basis, unitary_rep

#: Products inside this band count as "on the hyperplane".
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class PermutationControlSet:
    """The 2^n! basis-state permutations and their vector representations.

    Attributes
    ----------
    n : int
    perms : tuple of tuples
        Permutations of range(2^n); entry t = perm[s] means basis state s
        is sent to t.
    reps_full : ndarray, shape (K, 4^n - 1, 4^n - 1), read-only
        Orthogonal action on full coherence vectors, in `perms` order; the
        action on diagonal coordinates is the diag_slots(n) block of each.
    """

    n: int
    perms: tuple
    reps_full: np.ndarray


def build_permutation_set(n):
    """Enumerate all permutation controls for an n-qubit register.

    Guarded at n <= 2: at n = 3 the 8! = 40320 full representations alone
    would take about 1.28 GB, and boundary tracing runs on two qubits only.
    """
    if not 1 <= n <= 2:
        raise ValidationError("permutation control sets are built for n <= 2")
    basis = build_basis(n)
    dim = 2 ** n
    perms = tuple(permutations(range(dim)))
    reps_full = np.empty((len(perms), basis.dim, basis.dim))
    P = np.zeros((dim, dim), dtype=complex)
    for i, pm in enumerate(perms):
        P[:] = 0.0
        P[list(pm), range(dim)] = 1.0
        reps_full[i] = unitary_rep(P, n=n)
    reps_full.setflags(write=False)
    return PermutationControlSet(n=n, perms=perms, reps_full=reps_full)


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of a cone-fullness test.

    ``witness`` is a separating normal with witness . v_k <= 0 for all k
    (within DEGENERACY_TOL) when the cone is not full, else None.
    """

    is_full: bool
    witness: np.ndarray = None


def _rank_witness(dirs):
    """Separating normal when the directions do not span the space."""
    _, s, vt = np.linalg.svd(dirs, full_matrices=True)
    normal = vt[-1]
    if (normal @ dirs.T).max() > 0:
        normal = -normal
    return normal


def stlc_test_3d(directions):
    """Triple-product cone test in three dimensions.

    Parameters
    ----------
    directions : array-like, shape (K, 3)
        Admissible evolution directions (K >= 2; typically the 24
        permutation fields of a two-qubit register).

    Returns
    -------
    ConeVerdict
    """
    v = np.asarray(directions, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValidationError("directions must be a (K, 3) array")
    if not np.all(np.isfinite(v)):
        raise ValidationError("directions must be finite")
    if np.linalg.matrix_rank(v, tol=1e-12 * max(1.0, np.abs(v).max())) < 3:
        return ConeVerdict(is_full=False, witness=_rank_witness(v))

    i, j = np.triu_indices(len(v), k=1)  # each unordered plane once
    crosses = np.cross(v[i], v[j])
    cross_norms = np.linalg.norm(crosses, axis=1)
    norms = np.linalg.norm(v, axis=1)
    prods = crosses @ v.T  # (pairs, K): (v_i x v_j) . v_k
    scale = np.maximum(cross_norms[:, None] * norms, 1e-300)
    below = (prods <= DEGENERACY_TOL * scale).all(axis=1)
    above = (prods >= -DEGENERACY_TOL * scale).all(axis=1)
    valid = cross_norms > 1e-12 * (norms[i] * norms[j])
    hits = np.flatnonzero((below | above) & valid)
    if hits.size == 0:
        return ConeVerdict(is_full=True)
    h = hits[0]
    normal = crosses[h] / cross_norms[h]
    return ConeVerdict(is_full=False, witness=normal if below[h] else -normal)


def _conical_feasible(v, target):
    res = linprog(
        np.zeros(len(v)),
        A_eq=v.T,
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


def _lp_witness(v, target):
    """Farkas certificate: n with n . v_k <= 0 for all k and n . target > 0."""
    m = v.shape[1]
    res = linprog(
        -target,
        A_ub=v,
        b_ub=np.zeros(len(v)),
        bounds=[(-1.0, 1.0)] * m,
        method="highs",
    )
    if res.status == 0 and res.x is not None and np.linalg.norm(res.x) > 0:
        return res.x / np.linalg.norm(res.x)
    return None


def stlc_test_lp(directions):
    """Linear-programming cone test in any dimension.

    The cone equals the full space iff each of the 2m targets +-e_i admits
    a nonnegative conical combination; otherwise a Farkas dual provides a
    separating witness.
    """
    v = np.asarray(directions, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValidationError("directions must be a (K, m) array")
    m = v.shape[1]
    if np.linalg.matrix_rank(v, tol=1e-12 * max(1.0, np.abs(v).max())) < m:
        return ConeVerdict(is_full=False, witness=_rank_witness(v))
    for axis in range(m):
        for sign in (1.0, -1.0):
            target = np.zeros(m)
            target[axis] = sign
            if not _conical_feasible(v, target):
                return ConeVerdict(is_full=False, witness=_lp_witness(v, target))
    return ConeVerdict(is_full=True)


def hypersurface_point(gen, controls, sigma, mu):
    """Stationary point of a simplex combination of control generators.

    For a subset sigma of 2^n - 1 control indices and simplex weights mu,
    returns

        x = (sum_k mu_k A_k)^{-1} (sum_k mu_k b_k),

    with A_k, b_k the projected field coefficients of control k.  A vertex
    weight recovers the steady state of a constant control.

    Returns
    -------
    ndarray, shape (2^n - 1,)
    """
    sigma = list(sigma)
    mu = np.asarray(mu, dtype=float)
    m = 2 ** gen.n - 1
    if len(sigma) != m:
        raise ValidationError(f"subset must have {m} elements for n={gen.n}")
    if mu.shape != (len(sigma),) or np.any(mu < -1e-12) or abs(mu.sum() - 1) > 1e-9:
        raise ValidationError("weights must be nonnegative and sum to one")
    A, b = projected_field_stack(gen, controls.reps_full[sigma])
    Aw = np.tensordot(mu, A, axes=1)
    bw = mu @ b
    if np.linalg.cond(Aw) > 1e12:
        raise SingularCombination("weighted field matrix is singular")
    try:
        return np.linalg.solve(Aw, bw)
    except np.linalg.LinAlgError as exc:
        raise SingularCombination("weighted field matrix is singular") from exc


def _first_exit(A, b, origin, direction, step, max_radius, tol):
    """March outward then bisect the first STLC sign change on one ray."""
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


def stlc_boundary_rays(gen, controls, ray_dirs, tol=1e-3, origin=None, workers=1):
    """Trace the STLC boundary along rays from an interior point.

    Parameters
    ----------
    gen : AffineGenerator
        A two-qubit generator; any other qubit count raises ValidationError.
    controls : PermutationControlSet
    ray_dirs : ndarray, shape (R, 3)
        Unit-norm directions.
    tol : float
        Bisection tolerance on the ray radius, finite and positive.  A tol
        below the radius' ulp stops once the bracket can no longer split.
    origin : ndarray, optional
        Base point; defaults to the diagonal part of r_eq.  Must test STLC.
        For the chloroform model the free equilibrium is a boundary point of
        the STLC set: its cone fails strictly, not through the degeneracy
        band, while points just toward the origin pass.  Chloroform scans
        are therefore anchored at the maximally mixed state.
    workers : int
        Ray-level parallelism (1 = serial).

    Returns
    -------
    ndarray, shape (R,)
        Per-ray radius of the last STLC sample before the first exit; the
        reported point origin + radius * direction is itself certified.
        Monotonicity along a ray is not assumed; connectedness of the STLC
        set justifies reporting the first exit.

    Notes
    -----
    The march steps outward by max(|origin|, 1)/20 up to the cutoff
    3 (|origin| + |r_eq|) + 1, which is reported for rays that never exit.
    """
    if gen.n != 2:
        raise ValidationError(f"boundary tracing is implemented for n=2, got n={gen.n}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"bisection tol must be finite and positive, got {tol}")
    dirs = np.asarray(ray_dirs, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or len(dirs) < 1:
        raise ValidationError("ray directions must be (R, 3) with R >= 1")
    norms = np.linalg.norm(dirs, axis=1)
    if not (np.abs(norms - 1.0) <= 1e-9).all():
        raise ValidationError("ray directions must have unit norm")
    if origin is None:
        origin = gen.r_eq[list(diag_slots(gen.n))]
    origin = np.asarray(origin, dtype=float)
    A, b = projected_field_stack(gen, controls.reps_full)
    if not stlc_test_3d(stacked_directions(A, b, origin)).is_full:
        raise OriginNotControllable(
            "ray origin fails the local-controllability test"
        )
    scale = float(np.linalg.norm(origin))
    step = max(scale, 1.0) / 20.0
    max_radius = 3.0 * (scale + float(np.linalg.norm(gen.r_eq))) + 1.0

    from .parallel import parallel_map  # multiprocessing loads on first trace

    args = [(A, b, origin, d, step, max_radius, tol) for d in dirs]
    return np.asarray(parallel_map(_first_exit, args, workers))


def fibonacci_sphere(count):
    """Deterministic quasi-uniform unit vectors on S^2 (golden-angle spiral)."""
    if count < 1:
        raise ValidationError("need at least one direction")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden * i
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
