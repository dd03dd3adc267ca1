"""Inner bound on the controllable region via local controllability tests.

Restricting the instantaneous controls to the 2^n! permutations of the
diagonal entries yields, at each spectral point x, a finite set of
admissible evolution directions.  The point is small-time locally
controllable (STLC) exactly when the convex cone of those directions is all
of R^{2^n - 1}.  By the separating-hyperplane characterization, the cone
fails to be full iff some hyperplane spanned by directions from the set has
every direction on one side.

Two implementations are provided and cross-validated.  Each answers with
a ``ConeVerdict``: the verdict and a certified depth (0 from the LP).

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
radius is the last march point or midpoint that was tested or certified,
which keeps the trace a certified inner bound.  All rays of a fan are
traced in lockstep: each round stacks every bisecting ray's midpoint and
every marching ray's next few march points into one call of
``stlc_test_3d``, whose verdict on each set is bit for bit that of a call
on the set alone, so the radii do not depend on which rays are traced
together or how far ahead they look.  The march passes over the points
that the depth of an earlier certificate on the ray already covers: the
fields are affine in x, so a tetrahedron that holds the origin deep at one
point still holds it a little further on, and each point passed over
would test "full".
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .diagonal import projected_field_stack, stacked_directions
from .errors import OriginNotControllable, ValidationError
from .pauli import _readonly, unitary_rep

#: Products inside this band count as "on the hyperplane".
DEGENERACY_TOL = 1e-12

#: Most direction sets a stacked cone test evaluates at once: the
#: (CHUNK, 276, 24) triple products of 24 fields take about 3.4 MB.
CHUNK = 64


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
    dim = 2 ** n
    perms = tuple(permutations(range(dim)))
    matrices = np.zeros((len(perms), dim, dim), dtype=complex)
    matrices[np.arange(len(perms))[:, None], perms, np.arange(dim)] = 1.0
    return PermutationControlSet(n=n, perms=perms, reps_full=unitary_rep(matrices))


@dataclass(frozen=True)
class ConeVerdict:
    """Outcome of a cone-fullness test: a verdict and a depth.

    ``is_full`` says whether the cone of the directions is all of R^m.
    ``depth`` is the radius of a ball about the origin that the hull of the
    directions is certified to hold, in the directions' units: 0.88 times
    the largest smallest-facet distance over the tetrahedra that certify
    the set (see ``_cone_verdicts``), and 0 where none does, so always 0
    when the cone is not full and for the LP test.
    """

    is_full: bool
    depth: float = 0.0


def stlc_test_3d(directions):
    """Triple-product cone test in three dimensions.

    Parameters
    ----------
    directions : array-like, shape (..., K, 3)
        Admissible evolution directions (K >= 1; typically the 24
        permutation fields of a two-qubit register).  Leading axes stack
        independent direction sets, tested CHUNK sets at a time.

    Returns
    -------
    ConeVerdict
        The verdict and the depth.  For one set of shape (K, 3),
        ``is_full`` is a bool and ``depth`` a float; for a stack, both are
        arrays of the leading shape, and each entry equals the one-set call
        on its set, bit for bit.

    Raises
    ------
    ValidationError
        If the directions are not a finite (..., K, 3) array with K >= 1;
        any finite set, however large or small, gets a verdict.
    """
    v = np.asarray(directions, dtype=float)
    if v.ndim < 2 or v.shape[-1] != 3 or v.shape[-2] < 1:
        raise ValidationError("directions must be a (..., K, 3) array with K >= 1")
    if not np.all(np.isfinite(v)):
        raise ValidationError("directions must be finite")
    lead = v.shape[:-2]
    sets = v.reshape(-1, *v.shape[-2:])
    chunks = [_cone_verdicts(sets[s:s + CHUNK]) for s in range(0, max(len(sets), 1), CHUNK)]
    full, depth = (np.concatenate(parts) for parts in zip(*chunks))
    if lead:
        return ConeVerdict(is_full=full.reshape(lead), depth=depth.reshape(lead))
    return ConeVerdict(is_full=bool(full[0]), depth=float(depth[0]))


def _cone_verdicts(v):
    """Verdicts and depths of the triple-product test on (N, K, 3) sets.

    Each set is first scaled by the power of two that brings its largest
    |entry| into [1/2, 1): exact (an entry below 2^-1021 times the largest
    may round, deep inside every band), safe from overflow, and unseen by
    the thresholds below, which are all homogeneous; so a set and an exact
    2^k multiple of it get the same bits.  A set whose directions do not
    span R^3 is not full.  Otherwise the cone is not full iff some valid
    plane (v_i x v_j, |v_i x v_j| above 1e-12 |v_i| |v_j|) has every
    product c_k = (v_i x v_j) . v_k on one side of the band
    +-DEGENERACY_TOL |v_i x v_j| |v_k|.

    Three sound prefilters keep the exact work small.  First, a set is
    full, with no plane swept, when a tetrahedron of its six axis-extreme
    fields (the argmax and argmin of each coordinate) holds the origin at
    depth at least delta = 1e-8 max|v_k|: its four signed volumes, the
    barycentric weights by Cramer's rule, share a strict sign, and each
    facet (a, b, c) lies at distance |det(a, b, c)| / |a x b + b x c + c x a|
    >= delta, with that normal above 1e-6 (|a||b| + |b||c| + |c||a|) and
    each vertex at least delta from the origin.  Then each volume exceeds
    1e-14 |a||b||c|, ten times its rounding, so the computed signs are
    exact and each computed facet distance is within 12% of the exact one.
    The ball of radius 0.88 times the tetrahedron's smallest computed facet
    distance, at least 0.88 delta, lies in the hull of the set's fields;
    the largest such radius over the certifying tetrahedra is the set's
    reported depth.  So for every n, each computed plane normal included,
    max_k n . v_k >= 0.88 delta |n| and min_k n . v_k <= -0.88 delta |n|:
    2000 times the widest band, and
    far beyond matmul rounding near 1e-15 |n| |v_k|.  Every valid plane
    thus passes the next prefilter, and the smallest singular value, at
    least 0.88 delta, is far above the rank tolerance, so the sweep would
    answer "full" too.  Second, a plane with products
    beyond four times the widest band on both sides cannot separate, and
    third, a set with some |c_k| above twice |V|_F^2 times the rank
    tolerance 1e-12 has rank 3 (by Cauchy-Binet, every 3x3 minor is at
    most s1^2 s3), so only the other sets take the SVD.
    """
    _, e = np.frexp(np.abs(v).max(axis=(1, 2)))
    v = np.ldexp(v, -e[:, None, None])  # exact: every |entry| now below 1
    w = v.transpose(2, 0, 1)
    norms = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])  # (N, K)
    full = np.ones(len(v), dtype=bool)
    depth = _deep_tetrahedron(v, norms)
    rest = np.flatnonzero(depth == 0)
    if rest.size:
        full[rest] = _sweep(v[rest], norms[rest])
    return full, np.ldexp(depth, e)


#: Six fields span 15 tetrahedra (a, b, c, d), built from 20 vertex
#: triples (x, y, z) and 15 pairs.  Per triple: its pairs (x, y), (y, z) and
#: (x, z).  Per tetrahedron: its facets (b, c, d), (a, c, d), (a, b, d) and
#: (a, b, c), whose volumes det(v_x, v_y, v_z) times _FACET_SIGNS are the
#: barycentric weights of the origin up to one common factor.
_PAIRS = list(combinations(range(6), 2))
_TRIPLES = list(combinations(range(6), 3))
_TETRAHEDRA = list(combinations(range(6), 4))
_TRIPLE_PAIRS = np.array([[_PAIRS.index(q) for q in ((x, y), (y, z), (x, z))]
                          for x, y, z in _TRIPLES])
_FACETS = np.array([[_TRIPLES.index(t[:k] + t[k + 1:]) for k in range(4)]
                    for t in _TETRAHEDRA])
_FACET_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])
_PAIRS, _TRIPLES, _TETRAHEDRA = (np.array(a) for a in (_PAIRS, _TRIPLES, _TETRAHEDRA))


def _deep_tetrahedron(v, norms):
    """Certified depth of each set whose axis-extreme fields hold the origin
    deep inside a tetrahedron (the first prefilter of ``_cone_verdicts``),
    0 for the other sets, from power-of-two-scaled (N, K, 3) sets and their
    (N, K) field norms."""
    ext = np.concatenate([v.argmax(axis=1), v.argmin(axis=1)], axis=1)  # (N, 6)
    rows = np.arange(len(v))[:, None]
    p, r = v[rows, ext].transpose(2, 0, 1), norms[rows, ext]
    (a0, a1, a2), (b0, b1, b2) = p[:, :, _PAIRS[:, 0]], p[:, :, _PAIRS[:, 1]]
    crosses = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])
    x, y, z = _TRIPLES.T
    xy, yz, xz = _TRIPLE_PAIRS.T
    det = (crosses[:, :, xy] * p[:, :, z]).sum(axis=0)  # (N, 20)
    n0, n1, n2 = crosses[:, :, xy] + crosses[:, :, yz] - crosses[:, :, xz]
    normal_norms = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    delta = 1e-8 * norms.max(axis=1, keepdims=True)
    facet_ok = ((normal_norms >= 1e-6 * (r[:, x] * r[:, y] + r[:, y] * r[:, z]
                                         + r[:, z] * r[:, x]))
                & (np.abs(det) >= delta * normal_norms))
    weights = det[:, _FACETS] * _FACET_SIGNS  # (N, 15, 4)
    deep = (((weights > 0).all(axis=2) | (weights < 0).all(axis=2))
            & facet_ok[:, _FACETS].all(axis=2)
            & (r >= delta)[:, _TETRAHEDRA].all(axis=2))  # (N, 15)
    # a deep facet's normal is nonzero: collinear vertices give det = 0
    distance = np.divide(np.abs(det), normal_norms, out=np.zeros_like(det),
                         where=normal_norms > 0)
    return 0.88 * np.where(deep, distance[:, _FACETS].min(axis=2), 0.0).max(axis=1)


@lru_cache(maxsize=None)
def _planes(k):
    """Read-only index arrays (i, j), i < j, of the planes v_i x v_j."""
    return tuple(_readonly(a) for a in np.triu_indices(k, k=1))


def _sweep(v, norms):
    """The verdicts of the plane sweep and rank check of ``_cone_verdicts``
    on scaled (N, K, 3) sets with their (N, K) field norms."""
    i, j = _planes(v.shape[1])  # each unordered plane once
    w = v.transpose(2, 0, 1)
    (a0, a1, a2), (b0, b1, b2) = w[:, :, i], w[:, :, j]  # np.cross, term by term
    c0, c1, c2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    crosses = np.stack([c0, c1, c2], axis=1)
    cross_norms = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)  # (N, pairs)
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


def _conical_feasible(v, target):
    from scipy.optimize import linprog

    res = linprog(
        np.zeros(len(v)),
        A_eq=v.T,
        b_eq=target,
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


def stlc_test_lp(directions):
    """Linear-programming cone test in any dimension.

    The cone equals the full space iff the directions span R^m and each of
    the 2m targets +-e_i admits a nonnegative conical combination; the test
    returns its verdict after the first target that admits none, with depth
    0.  The set is first scaled by the power of two that brings its largest
    |entry| into [1/2, 1), as in ``_cone_verdicts``, so a set and an exact
    2^k multiple of it get the same verdict.

    Raises
    ------
    ValidationError
        If the directions are not a finite (K, m) array with K >= 1.
    """
    v = np.asarray(directions, dtype=float)
    if v.ndim != 2 or v.shape[0] < 1:
        raise ValidationError("directions must be a (K, m) array")
    if not np.all(np.isfinite(v)):
        raise ValidationError("directions must be finite")
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])  # exact: every |entry| now below 1
    m = v.shape[1]
    if np.linalg.matrix_rank(v, tol=1e-12) < m:
        return ConeVerdict(is_full=False)
    for axis in range(m):
        for sign in (1.0, -1.0):
            target = np.zeros(m)
            target[axis] = sign
            if not _conical_feasible(v, target):
                return ConeVerdict(is_full=False)
    return ConeVerdict(is_full=True)


def _trace_lockstep(A, b, origin, dirs, step, max_radius, tol):
    """March outward then bisect the first STLC sign change, all rays at once.

    Each ray runs the march-and-bisect of a lone ray: radii step, 2 step,
    ... (by repeated addition) up to max_radius, then bisection of the
    first failing step until the bracket is tol or one ulp wide.  Every
    round makes one stacked cone test: each bisecting ray's midpoint, and
    each marching ray's next k march radii, with k as large as keeps the
    round within one CHUNK (at least 1).  A marching ray brackets its first
    failing radius by the last passing one before it, as the lone march
    would; the radii it tested beyond that go unused.

    A marching ray that passes all its radii then passes over, untested,
    the next march radii that their certificates cover, and the following
    round starts at the first radius none covers.  Each skipped radius
    would test "full", so the radii are those of the lone march.  The
    fields are affine, v_k(x + s d) = v_k(x) - s A_k d, so from a tested
    point x = origin + t d to a march point x' = origin + (t + s) d each
    field moves by at most s L_d, L_d = max_k |A_k d|, plus rounding: of
    the two points, of ``stacked_directions`` at both and of the skip test
    itself.  With S = max_k |A_k|_F (|origin| + t + s) + max_k |b_k|, which
    bounds |A_k||x'| + |b_k| and |A_k||x| + |b_k| up to the 1e-9 by which
    the directions may miss unit norm, all of it is below 1e-14 S.  It
    scales with S, not with |v_k|: near an equilibrium the fields cancel,
    and S can be far larger than max_k |v_k(x')|.  If the tested set at x
    has certified depth rho (``ConeVerdict.depth``, a ball of radius rho
    about the origin inside the hull of its fields), moving each field by
    at most m keeps the ball of radius rho - m inside the moved hull, since
    every support value max_k n . v_k falls by at most m |n|.  A radius is
    therefore skipped only where rho - s L_d > 2e-8 S, computed as
    (rho + t L_d) - (t + s) L_d over the round's tested radii t: the set at
    x' then holds a ball of radius above 2e-8 S - 1e-14 S, more than
    1e-8 max_k |v_k(x')|, the depth past which ``_cone_verdicts`` shows
    that the plane sweep answers "full".  The test runs
    on A and b scaled by a power of two, so no norm in it under- or
    overflows, and every term scales alike.
    """
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), np.inf)  # inf while the ray is still marching
    t = np.full(len(dirs), step)
    radius = np.full(len(dirs), max_radius)  # for rays that never exit
    # the skip test in units of 2^e
    _, e = np.frexp(max(np.abs(A).max(), np.abs(b).max()))
    A_e, b_e = np.ldexp(A, -e), np.ldexp(b, -e)
    slope = np.linalg.norm(np.einsum("kab,rb->rka", A_e, dirs), axis=2).max(axis=1)  # L_d
    grow = np.linalg.norm(A_e, axis=(1, 2)).max()
    base = grow * float(np.linalg.norm(origin)) + np.linalg.norm(b_e, axis=1).max()
    live = np.arange(len(dirs))
    while True:
        marching = live[np.isinf(hi[live])]
        marching = marching[t[marching] <= max_radius]
        halving = live[np.isfinite(hi[live])]
        mid = 0.5 * (lo[halving] + hi[halving])
        # stop at tol, or once the bracket is one ulp wide
        split = ((hi[halving] - lo[halving] > tol)
                 & (lo[halving] < mid) & (mid < hi[halving]))
        radius[halving[~split]] = lo[halving[~split]]
        halving, mid = halving[split], mid[split]
        live = np.concatenate([marching, halving])
        if not live.size:
            return radius
        k = max(1, (CHUNK - len(halving)) // max(len(marching), 1))
        ahead = np.empty((len(marching), k))
        ahead[:, 0] = t[marching]
        for j in range(1, k):
            ahead[:, j] = ahead[:, j - 1] + step
        rows, cols = np.nonzero(ahead <= max_radius)  # a prefix of each row
        radii = np.concatenate([ahead[rows, cols], mid])
        points = origin + radii[:, None] * dirs[np.concatenate([marching[rows], halving])]
        verdict = stlc_test_3d(stacked_directions(A, b, points))
        verdicts = np.ones_like(ahead, dtype=bool)
        verdicts[rows, cols] = verdict.is_full[:len(rows)]
        depth = np.full_like(ahead, -np.inf)  # a radius beyond max_radius covers none
        depth[rows, cols] = np.ldexp(verdict.depth[:len(rows)], -e)
        full = verdict.is_full[len(rows):]
        first = np.argmin(verdicts, axis=1)  # first failing radius, 0 if none
        exits = ~verdicts[np.arange(len(marching)), first]
        last = np.bincount(rows, minlength=len(marching)) - 1  # last radius tested
        passed = np.where(exits, first - 1, last)
        moved = passed >= 0
        lo[marching[moved]] = ahead[moved, passed[moved]]
        t[marching[~exits]] = ahead[~exits, last[~exits]] + step
        hi[marching[exits]] = ahead[exits, first[exits]]
        lo[halving[full]] = mid[full]
        hi[halving[~full]] = mid[~full]
        # pass over the march radii that this round's certificates cover
        ray = marching[~exits]
        rate = slope[ray]
        reach = (depth[~exits] + ahead[~exits] * rate[:, None]).max(axis=1)  # rho + t L_d
        r, skipped = t[ray], lo[ray]
        go = r <= max_radius
        while True:
            go &= reach - r * rate > 2e-8 * (base + grow * r)
            if not go.any():
                break
            skipped = np.where(go, r, skipped)
            r = np.where(go, r + step, r)
            go &= r <= max_radius
        lo[ray], t[ray] = skipped, r


def stlc_boundary_rays(gen, controls, ray_dirs, tol=1e-3, *, origin, workers=1):
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
    origin : ndarray, shape (3,)
        Base point, keyword only, finite; it must test STLC.  For the chloroform
        model the free equilibrium is a boundary point of the STLC set: its
        cone fails strictly, not through the degeneracy band, while points
        just toward the origin pass.  Chloroform scans are therefore
        anchored at the maximally mixed state, np.zeros(3).
    workers : int
        Processes to trace with, a positive integer (1 = serial).

    Returns
    -------
    ndarray, shape (R,)
        Per-ray radius of the last STLC sample before the first exit, a
        march point or bisection midpoint that was tested or certified:
        the reported point origin + radius * direction is itself certified.
        Monotonicity along a ray is not assumed; connectedness of the STLC
        set justifies reporting the first exit.

    Notes
    -----
    The march steps outward by max(|origin|, 1)/20 up to the cutoff
    3 (|origin| + |r_eq|) + 1, which is reported for rays that never exit.
    Rays are traced in lockstep: each round tests, in one stacked cone
    test, the midpoint of every ray still bisecting and the next k march
    points of every ray still marching, with k the most that keeps the
    round within one CHUNK of points, and at least 1 (k = 3 for 20
    marching rays and none bisecting).  A marching ray takes its first
    failing point and the last passing one before it as the bracket,
    exactly as a lone march would.  After each round a ray that did not
    exit passes over the march points its certificates cover: a tested
    point at depth rho (``ConeVerdict.depth``) covers the march radii r
    that lie s further on while rho - s max_k |A_k d| stays above the
    margin 2e-8 (max_k |A_k|_F (|origin| + r) + max_k |b_k|), which
    grows with the fields' rounding.  Each of them would test "full"
    (``_trace_lockstep`` gives the proof), so a reported radius is the last
    march point or midpoint that was tested or certified, and the radii
    are those of testing every march point; on fibonacci_sphere(20) from
    the origin at tol 1e-3 the trace makes 20 stacked calls on 888 sets
    instead of 34 on 1705.  Points are evaluated CHUNK at a time
    so memory stays near 3.4 MB per chunk whatever the fan size.  With
    workers > 1 the fan is split into contiguous parts, one per process
    (at most the CPUs available), each traced in lockstep, and the radii
    are joined in ray order; every ray's radius equals that of tracing it
    alone.
    """
    if gen.n != 2:
        raise ValidationError(f"boundary tracing is implemented for n=2, got n={gen.n}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"bisection tol must be finite and positive, got {tol}")
    if not (isinstance(workers, (int, np.integer)) and workers >= 1):
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    dirs = np.asarray(ray_dirs, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3 or len(dirs) < 1:
        raise ValidationError("ray directions must be (R, 3) with R >= 1")
    norms = np.linalg.norm(dirs, axis=1)
    if not (np.abs(norms - 1.0) <= 1e-9).all():
        raise ValidationError("ray directions must have unit norm")
    try:
        origin = np.asarray(origin, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"origin must be a finite vector of 3 numbers: {exc}") from exc
    if origin.shape != (3,) or not np.isfinite(origin).all():
        raise ValidationError(
            f"origin must be a finite vector of 3 numbers, got shape {origin.shape}")
    A, b = projected_field_stack(gen, controls.reps_full)
    if not stlc_test_3d(stacked_directions(A, b, origin)).is_full:
        raise OriginNotControllable(
            "ray origin fails the local-controllability test"
        )
    scale = float(np.linalg.norm(origin))
    step = max(scale, 1.0) / 20.0
    max_radius = 3.0 * (scale + float(np.linalg.norm(gen.r_eq))) + 1.0

    from .parallel import parallel_map, pool_size  # multiprocessing loads on first trace

    parts = np.array_split(dirs, pool_size(workers, len(dirs)))
    args = [(A, b, origin, part, step, max_radius, tol) for part in parts]
    return np.concatenate(parallel_map(_trace_lockstep, args, workers))


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
