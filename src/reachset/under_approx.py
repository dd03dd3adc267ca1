"""Inner bound on the controllable region via local controllability tests.

Restricting the instantaneous controls to the 2^n! permutations of the
diagonal entries yields, at each spectral point x, a finite set of
admissible evolution directions.  The point is small-time locally
controllable (STLC) exactly when the convex cone of those directions is all
of R^{2^n - 1}.  By the separating-hyperplane characterization, the cone
fails to be full iff some hyperplane spanned by directions from the set has
every direction on one side.

Two implementations are provided and cross-validated.  Each answers with
a ``ConeVerdict``: the verdict, a certified depth and the tetrahedron of
directions that certifies it (0 and none from the LP).

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
would test "full".  For the same reason each ray hands the tetrahedron
that certified its farthest point to its next cone test as a start, in
place of the axis-extreme tetrahedra a set without a start scans.  Past
the exit, the vertex exchange that searches for a certifying tetrahedron
finds a facet plane with the origin on one side and every field on the
other, which answers "not full"; so of the 826.6 sets of a 20-ray fan of
the benchmark, 119.5 are answered that way and 1.9 go to the plane sweep.
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
    """Outcome of a cone-fullness test: a verdict, a depth and a tetrahedron.

    ``is_full`` says whether the cone of the directions is all of R^m.
    ``depth`` is the radius of a ball about the origin that the hull of the
    directions is certified to hold, in the directions' units: 0.88 times
    the smallest facet distance of the one tetrahedron that certifies the
    set (see ``_cone_verdicts``), and 0 where it does not, so always 0 when
    the cone is not full and for the LP test.  ``tetrahedron`` holds the
    indices of that tetrahedron's four directions (the caller's start, or
    for a set without one the deepest axis-extreme tetrahedron, after the
    vertex exchange), and -1 four times where it does not certify.  A set
    that a facet plane separates from the origin, which answers "not full"
    without the plane sweep, reports depth 0 and tetrahedron -1 too.
    """

    is_full: bool
    depth: float = 0.0
    tetrahedron: tuple = (-1, -1, -1, -1)


def stlc_test_3d(directions, start=None):
    """Triple-product cone test in three dimensions.

    Parameters
    ----------
    directions : array-like, shape (..., K, 3)
        Admissible evolution directions (K >= 1; typically the 24
        permutation fields of a two-qubit register).  Leading axes stack
        independent direction sets, tested CHUNK sets at a time.
    start : array-like of int, shape (..., 4), optional
        Per set, the indices of four directions to try as a certifying
        tetrahedron in place of the axis-extreme ones, or -1 four times for
        none; typically the tetrahedron that certified a nearby set.  It
        can change the depth and the tetrahedron reported, never the
        verdict, and the caller's array is not modified.

    Returns
    -------
    ConeVerdict
        The verdict, the depth and the certifying tetrahedron.  For one set
        of shape (K, 3), ``is_full`` is a bool, ``depth`` a float and
        ``tetrahedron`` a tuple of 4 ints; for a stack, they are arrays of
        the leading shape (plus an axis of 4 for the tetrahedron), and each
        entry equals the one-set call on its set and start, bit for bit.

    Raises
    ------
    ValidationError
        If the directions are not a finite (..., K, 3) array with K >= 1,
        or a start row is neither four indices in [0, K) nor four -1; any
        finite set, however large or small, gets a verdict.
    """
    v = np.asarray(directions, dtype=float)
    if v.ndim < 2 or v.shape[-1] != 3 or v.shape[-2] < 1:
        raise ValidationError("directions must be a (..., K, 3) array with K >= 1")
    if not np.all(np.isfinite(v)):
        raise ValidationError("directions must be finite")
    lead, k = v.shape[:-2], v.shape[-2]
    sets = v.reshape(-1, k, 3)
    starts = None
    if start is not None:
        starts = np.asarray(start)
        if starts.shape != lead + (4,) or not np.issubdtype(starts.dtype, np.integer):
            raise ValidationError("start must hold 4 integer indices per direction set")
        starts = starts.reshape(-1, 4)
        if not (((starts >= 0) & (starts < k)).all(axis=1) | (starts == -1).all(axis=1)).all():
            raise ValidationError(f"start indices must lie in [0, {k}), or all be -1")
    chunks = [_cone_verdicts(sets[s:s + CHUNK], None if starts is None else starts[s:s + CHUNK])
              for s in range(0, max(len(sets), 1), CHUNK)]
    full, depth, tetrahedron = (np.concatenate(parts) for parts in zip(*chunks))
    if lead:
        return ConeVerdict(is_full=full.reshape(lead), depth=depth.reshape(lead),
                           tetrahedron=tetrahedron.reshape(lead + (4,)))
    return ConeVerdict(is_full=bool(full[0]), depth=float(depth[0]),
                       tetrahedron=tuple(int(i) for i in tetrahedron[0]))


def _cone_verdicts(v, start=None):
    """Verdicts, depths and certifying tetrahedra of the triple-product test
    on (N, K, 3) sets, with optional (N, 4) start tetrahedra.

    Each set is first scaled by the power of two that brings its largest
    |entry| into [1/2, 1): exact (an entry below 2^-1021 times the largest
    may round, deep inside every band), safe from overflow, and unseen by
    the thresholds below, which are all homogeneous; so a set and an exact
    2^k multiple of it get the same bits.  A set whose directions do not
    span R^3 is not full.  Otherwise the cone is not full iff some valid
    plane (v_i x v_j, |v_i x v_j| above 1e-12 |v_i| |v_j|) has every
    product c_k = (v_i x v_j) . v_k on one side of the band
    +-DEGENERACY_TOL |v_i x v_j| |v_k|; ``_sweep`` applies these rules.

    Two sound certificates answer most sets without the sweep.  First, a
    set is full, with no plane swept, when some tetrahedron of its fields
    holds the origin at depth at least delta = 1e-8 max|v_k| (``_certify``
    applies these rules): its four signed volumes, the barycentric weights
    by Cramer's rule, share a strict sign, and each facet (a, b, c) lies at
    distance |det(a, b, c)| / |a x b + b x c + c x a| >= delta, with that
    normal above 1e-6 (|a||b| + |b||c| + |c||a|) and each vertex at least
    delta from the origin.  Then each volume exceeds 1e-14 |a||b||c|, ten
    times its rounding, so the computed signs are exact and each computed
    facet distance is within 12% of the exact one.  The ball of radius 0.88
    times the tetrahedron's smallest computed facet distance, at least 0.88
    delta, lies in the hull of the set's fields.  So for every n, each
    computed plane normal included, max_k n . v_k >= 0.88 delta |n| and
    min_k n . v_k <= -0.88 delta |n|: 2000 times the widest band, and far
    beyond matmul rounding near 1e-15 |n| |v_k|.  Every valid plane thus
    passes the sweep's first prefilter, and the smallest singular value, at
    least 0.88 delta, is far above the rank tolerance, so the sweep would
    answer "full" too.  The argument holds for any four fields, so which
    tetrahedron is tried changes the depth, never the verdict.  Each set
    gets one: its start, or, for a set without one, the deepest certifying
    tetrahedron of its six axis-extreme fields (the argmax and argmin of
    each coordinate; the last of the 15 where none certifies).
    ``_exchange`` improves it from its first evaluation, keeping a
    tetrahedron that holds the origin, and the tetrahedron it ends on is
    checked once.

    Second, a set is not full, with depth 0 and tetrahedron -1, when one of
    the exchange's evaluations finds a facet plane n . x = det that passes
    three rules (``_exchange`` applies them to the computed values).  With
    V = max_k |v_k| and g(x) = +-(n . x - det), signed as the exchange
    computes x's barycentric weight for the tetrahedron's fourth vertex
    (times the total weight):

    * the origin lies more than 1e-6 V from the plane, on the far side:
      g(0) < -1e-6 |n| V;
    * no field, the four vertices included, lies more than 1e-12 V across
      it: g(v_k) >= -1e-12 |n| V;
    * the facet is not thin: |n| >= 5e-4 K V^2.

    The sweep answers such a set "not full" too.  Each g(v_k) is a dot
    product with the computed n minus the computed det, which errs by under
    4e-16 |n| V, so the unit vector m = +-n/|n| has m . v_k >= h for every
    k, with h > (1e-6 - 1.1e-12) V: the cone lies in an open half space, and
    each |v_k| >= h, so no product below comes near underflow.  Project the
    fields centrally onto the plane m . x = h: u_k = h v_k / (m . v_k), with
    |u_k| <= |v_k| <= V.  The computed n and det err by at most 1.7e-15 V^2
    and 6.5e-16 V^3, so the facet's vertices lie within
    2.3e-15 V^3 / |n| <= 1.6e-12 V of the computed plane (|n| is nonzero
    only for three distinct fields, so K >= 3).  They project with factors
    within 3e-6 of 1, onto a triangle of doubled area at least 0.98 |n|.
    The hull of the u_k holds that triangle and has at most K edges, and
    over its edges the sum of edge length times the distance r from h m to
    the edge's line is at least twice its area; so some edge (u_i, u_j) has
    |u_i - u_j| r >= 0.98 |n| / K.  Its line lies at least r from the
    origin, so |u_i x u_j| >= |u_i - u_j| r, and
    sin angle(v_i, v_j) = |u_i x u_j| / (|u_i| |u_j|) >= 0.98 |n| / (K V^2),
    at least 4.9e-4: the plane v_i x v_j is valid.  Every u_k lies on one
    side of the edge's line, so every exact product c_k of that plane has
    one sign or is 0.  The computed cross product errs by at most
    3.2e-16 |v_i| |v_j|, under 6.5e-13 |v_i x v_j|, and the products by
    3.4e-16 |v_i x v_j| |v_k| more in any summation order, with or without
    fused multiply-adds; entries that underflow add far less.  So every
    computed c_k lies on its side of the band
    +-DEGENERACY_TOL |v_i x v_j| |v_k|, which the computed norms move by a
    few ulps.  The plane passes the first prefilter and hits, and the rank
    check only adds "not full" answers, so the sweep answers "not full".
    Sets that are not full only through the band, or whose hull misses the
    origin by less than the margin, are never separated: they go to the
    sweep.

    The sweep has two prefilters of its own.  A plane with products beyond
    four times the widest band on both sides cannot separate, and a set with
    some |c_k| above twice |V|_F^2 times the rank tolerance 1e-12 has rank
    3 (by Cauchy-Binet, every 3x3 minor is at most s1^2 s3), so only the
    other sets take the SVD.
    """
    _, e = np.frexp(np.abs(v).max(axis=(1, 2)))
    v = np.ldexp(v, -e[:, None, None])  # exact: every |entry| now below 1
    w = v.transpose(2, 0, 1)
    norms = np.sqrt(w[0] * w[0] + w[1] * w[1] + w[2] * w[2])  # (N, K)
    top = norms.max(axis=1)
    delta = 1e-8 * top
    tet = np.full((len(v), 4), -1) if start is None else start.astype(np.intp)  # a copy
    alone = np.flatnonzero(tet[:, 0] < 0)
    if alone.size:
        # the deepest certifying axis-extreme tetrahedron, else the last
        extremes = np.concatenate([v[alone].argmax(axis=1), v[alone].argmin(axis=1)], axis=1)
        candidates = extremes[:, _EXTREMES]  # (n, 15, 4)
        rows = alone[:, None, None]
        depths = _certify(*_facets(w[:, rows, candidates]), norms[rows, candidates],
                          delta[alone, None])
        best = np.where(depths.max(axis=1) > 0, depths.argmax(axis=1), len(_EXTREMES) - 1)
        tet[alone] = candidates[np.arange(len(alone)), best]
    tet, det, normal, separated = _exchange(w, tet, top)
    depth = _certify(det, normal, norms[np.arange(len(v))[:, None], tet], delta)
    tetrahedron = np.where((depth > 0)[:, None], tet, -1)
    full = ~separated
    rest = np.flatnonzero((depth == 0) & ~separated)
    if rest.size:
        full[rest] = _sweep(v[rest], norms[rest])
    return full, np.ldexp(depth, e), tetrahedron


#: The 15 tetrahedra that a set's six axis-extreme fields span (the argmax
#: and argmin of each coordinate), as positions among those six.
_EXTREMES = np.array(list(combinations(range(6), 4)))

#: Facet q of a tetrahedron (a, b, c, d) omits vertex q: (b, c, d),
#: (a, c, d), (a, b, d) and (a, b, c), as vertex positions (x, y, z).
_FACETS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

#: Signs that turn the facet volumes det(b, c, d), det(a, c, d),
#: det(a, b, d) and det(a, b, c) of a tetrahedron (a, b, c, d) into the
#: barycentric weights of the origin, up to one common factor.
_FACET_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])

#: Most vertex exchanges the search for a containing tetrahedron or a
#: separating facet makes.  On the benchmark's fans, two leave 2.8 sets per
#: fan to the sweep (12 on one fan), three leave 1.9 (at most 7), and a
#: fourth changes no count.
_EXCHANGES = 3

#: The separation rules of ``_cone_verdicts``, for a facet plane n . x = det
#: of a set of K fields with V = max_k |v_k|: the origin lies more than
#: _ORIGIN_MARGIN V from the plane, no field more than _FIELD_TOL V across
#: it, and |n| is at least _FACET_FLOOR K V^2.
_ORIGIN_MARGIN = 1e-6
_FIELD_TOL = 1e-12
_FACET_FLOOR = 5e-4


def _cross(a, b):
    """a × b of (3, ...) coordinates, term by term as np.cross."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _facets(p):
    """Facet volumes det(x, y, z) and normals x × y + y × z + z × x of
    tetrahedra given by (3, ..., 4) vertex coordinates, facet q omitting
    vertex q: shapes (..., 4) and (3, ..., 4)."""
    x, y, z = (p[..., i] for i in _FACETS.T)
    first = _cross(x, y)
    return (first * z).sum(axis=0), first + _cross(y, z) - _cross(x, z)


def _certify(det, normal, r, delta):
    """The rules of ``_cone_verdicts``'s certificate.

    From the facet volumes (..., 4) and normals (3, ..., 4) of tetrahedra in
    power-of-two-scaled sets (facet q omitting vertex q), the (..., 4) norms
    of their vertices and the floor delta (...), return each tetrahedron's
    certified depth, 0 where the rules fail: shape (...).
    """
    n0, n1, n2 = normal
    normal_norms = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    x, y, z = (r[..., i] for i in _FACETS.T)
    delta = delta[..., None]
    facet_ok = ((normal_norms >= 1e-6 * (x * y + y * z + z * x))
                & (np.abs(det) >= delta * normal_norms))
    weights = det * _FACET_SIGNS
    deep = (((weights > 0).all(axis=-1) | (weights < 0).all(axis=-1))
            & facet_ok.all(axis=-1) & (r >= delta).all(axis=-1))
    # a deep facet's normal is nonzero: collinear vertices give det = 0
    distance = np.divide(np.abs(det), normal_norms, out=np.zeros_like(det),
                         where=normal_norms > 0)
    return 0.88 * np.where(deep, distance.min(axis=-1), 0.0)


def _exchange(w, tet, top):
    """Search for a tetrahedron that holds the origin, or a facet that
    separates the origin from the fields.

    From (N, 4) field indices into power-of-two-scaled (3, N, K) sets and
    their largest field norms (N,): evaluate the tetrahedron, and while the
    origin lies beyond the facet opposite the most negative barycentric
    weight, swap that vertex for the field farthest beyond the facet, at
    most _EXCHANGES times, so _EXCHANGES + 1 evaluations.  A set stops once
    its tetrahedron holds the origin, is flat, has no field beyond that
    facet, or is separated: that facet's plane has the origin and the
    fields on its two sides by the margins of ``_cone_verdicts``.  Returns
    the final tetrahedra (``tet``, updated in place), their facet volumes
    (N, 4) and normals (3, N, 4), facet q omitting vertex q, and the (N,)
    mask of separated sets.
    """
    det, normal = np.empty(tet.shape), np.empty((3,) + tet.shape)
    separated = np.zeros(len(tet), dtype=bool)
    live = np.arange(len(tet))
    for swaps in range(_EXCHANGES + 1):
        det[live], normal[:, live] = _facets(w[:, live[:, None], tet[live]])
        weights = det[live] * _FACET_SIGNS
        sign = np.sign(weights.sum(axis=1))  # of the weights' common factor
        weights *= sign[:, None]
        q = weights.argmin(axis=1)
        rows = np.arange(len(live))
        n = normal[:, live, q]
        # each field's barycentric weight for vertex q, times |total|: the
        # facet's plane is n . x = det, and vertex q lies on its other side
        beyond = (-_FACET_SIGNS[q] * sign)[:, None] * (
            (w[:, live] * n[..., None]).sum(axis=0) - det[live, q][:, None])
        # the facet's plane separates the origin from every field, the
        # vertices included; weights[rows, q] is the origin's weight
        n0, n1, n2 = n
        unit = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2) * top[live]  # |n| V
        apart = ((weights[rows, q] < -_ORIGIN_MARGIN * unit)
                 & (beyond.min(axis=1) >= -_FIELD_TOL * unit)
                 & (unit >= _FACET_FLOOR * w.shape[2] * top[live] ** 3))
        separated[live[apart]] = True
        beyond[rows[:, None], tet[live]] = np.inf  # the vertices stay out
        k = beyond.argmin(axis=1)
        # a flat tetrahedron (sign 0) has no field beyond
        go = (weights[rows, q] <= 0) & (beyond[rows, k] < 0) & ~apart
        live = live[go]
        if not live.size or swaps == _EXCHANGES:
            break
        tet[live, q[go]] = k[go]
    return tet, det, normal, separated


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

    Each ray also carries the tetrahedron that certified its farthest
    passing point of the round (``ConeVerdict.tetrahedron``) into the next
    round, as the start of all its sets there.  A start can change a depth,
    and so which radii are skipped, but never a verdict, so the radii are
    still those of the lone march.
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
    carry = np.full((len(dirs), 4), -1)  # each ray's last certifying tetrahedron
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
        rays = np.concatenate([marching[rows], halving])
        points = origin + radii[:, None] * dirs[rays]
        verdict = stlc_test_3d(stacked_directions(A, b, points), start=carry[rays])
        verdicts = np.ones_like(ahead, dtype=bool)
        verdicts[rows, cols] = verdict.is_full[:len(rows)]
        depth = np.full_like(ahead, -np.inf)  # a radius beyond max_radius covers none
        depth[rows, cols] = np.ldexp(verdict.depth[:len(rows)], -e)
        tetrahedra = np.full(ahead.shape + (4,), -1)
        tetrahedra[rows, cols] = verdict.tetrahedron[:len(rows)]
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
        # carry the tetrahedron of each ray's farthest certified point
        held = (tetrahedra[..., 0] >= 0) & (np.arange(k) <= passed[:, None])
        farthest = k - 1 - np.argmax(held[:, ::-1], axis=1)
        some = held.any(axis=1)
        carry[marching[some]] = tetrahedra[some, farthest[some]]
        mids = verdict.tetrahedron[len(rows):]
        carry[halving[mids[:, 0] >= 0]] = mids[mids[:, 0] >= 0]
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
        Processes to trace with, a positive integer (1 = serial).  Workers
        are spawned and re-import the main module, so a script that passes
        workers > 1 must call this under ``if __name__ == "__main__":``.
        Lockstep tracing gains nothing from the pool, which is due for
        deletion (ROADMAP.md, item 1).

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
    are those of testing every march point.  Each ray hands the
    tetrahedron that certified its farthest point to its next round's cone
    test as a start, and past the exit a facet of the vertex exchange
    separates most sets from the origin, so the plane sweep runs on few
    sets: on fibonacci_sphere(20) from the origin at tol 1e-3 the trace
    makes 19 stacked calls on 820 sets, 112 of them separated and none
    swept, where the axis-extreme certificate alone made 20 calls on 888
    sets with 507 swept, and testing every march point 34 calls on 1705
    sets.  Points are evaluated CHUNK at a time so memory stays near 3.4 MB
    per chunk whatever the fan size.  With
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
