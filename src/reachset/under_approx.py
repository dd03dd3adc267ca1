"""Inner bound on the controllable region via local controllability tests.

Restricting the instantaneous controls to the 2^n! permutations of the
diagonal entries yields, at each spectral point x, a finite set of
admissible evolution directions.  The point is small-time locally
controllable (STLC) exactly when the convex cone of those directions is all
of R^{2^n - 1}: when the directions positively span the space (Regis 2016),
that is, when the origin lies inside their convex hull.

Two implementations are provided and cross-validated.  Each answers with
a ``ConeVerdict``: the verdict, a certified depth and the tetrahedron of
directions that certifies it (0 and none from the LP).

* ``stlc_test_3d`` - the run-time test, so tracing is two-qubit only.  It
  calls a set full when the hull of its directions holds the origin at
  least 5e-9 V deep, V the largest direction norm, so a set whose hull
  holds it less deep, or touches it, counts as not STLC: conservative for
  an inner bound.
* ``stlc_test_lp`` - its oracle, a linear-programming membership test in
  any dimension: the cone is full iff every +-unit coordinate target
  admits a nonnegative conical decomposition.

At the free equilibrium of the bundled chloroform model the identity field
vanishes, and planes spanned by pairs of the other 23 fields have every
remaining field strictly on one side, so the cone is not full.  Points just
toward the origin (0.999 x_eq) are STLC, which makes the equilibrium a
boundary point of the STLC set.

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
finds a facet plane with the origin beyond it and no field across it,
which answers "not full"; so of the 826.6 sets of a 20-ray fan of the
benchmark, 121.4 are answered that way and none is left to the exhaustive
test on every plane through three fields.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .diagonal import projected_field_stack, stacked_directions
from .errors import OriginNotControllable, ValidationError, check_count, pow2_scale
from .pauli import _readonly, unitary_rep

#: Most direction sets a stacked cone test evaluates at once: a chunk of
#: 24-field sets takes under 1 MB, or 2.3 MB where some reach the
#: exhaustive rule (``_hull_depth``).
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

    ``is_full`` says whether the cone of the directions is all of R^m; for
    ``stlc_test_3d``, whether the hull of the directions holds the origin
    at least 5e-9 V deep, V the largest direction norm.  ``depth`` is the
    radius of a ball about the origin that the hull of the directions is
    certified to hold, in the directions' units: 0.88 times the smallest
    facet distance of the one tetrahedron that certifies the set (see
    ``_cone_verdicts``), and 0 where it does not, so always 0 when the
    cone is not full and for the LP test.  ``tetrahedron`` holds the
    indices of that tetrahedron's four directions (the caller's start, or
    for a set without one the deepest axis-extreme tetrahedron, after the
    vertex exchange), and -1 four times where it does not certify.  A set
    that no tetrahedron certifies reports depth 0 and tetrahedron -1,
    whichever rule answers it.
    """

    is_full: bool
    depth: float = 0.0
    tetrahedron: tuple = (-1, -1, -1, -1)


def stlc_test_3d(directions, start=None):
    """Cone test in three dimensions: whether the directions' cone is full.

    A set is full when the convex hull of its directions holds the origin
    at least 5e-9 V deep, V the largest direction norm: every plane through
    three directions with all of them on one side lies at least that far
    from the origin, on their side.  A set whose hull holds the origin less
    deep, touches it or misses it is not full.  A tetrahedron of
    directions that holds the origin deep, or a facet plane that separates
    it from them, answers most sets; the rest are decided from all the
    planes through three directions (see ``_cone_verdicts``).

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
        can change the depth and the tetrahedron reported, not the verdict
        (barring the exception ``_hull_depth`` names), and the caller's
        array is not modified.

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
    """Verdicts, depths and certifying tetrahedra of the cone test on
    (N, K, 3) sets, with optional (N, 4) start tetrahedra.

    A set is full when the hull of its fields holds the origin at least
    delta / 2 deep, delta = 1e-8 V, V = max_k |v_k|: min_m max_k m . v_k
    >= delta / 2 over unit vectors m.  Each set is first scaled by the
    power of two that brings its largest |entry| into [1/2, 1): exact (an
    entry below 2^-1021 times the largest may round, far below delta),
    safe from overflow, and unseen by the thresholds below, which are all
    homogeneous; so a set and an exact 2^k multiple of it get the same
    bits.  Three rules decide, in order.

    1. Certificate: full, with a depth and a tetrahedron, when some
       tetrahedron of its fields holds the origin at least delta deep
       (``_certify``): its four signed volumes, the barycentric weights by
       Cramer's rule, share a strict sign, and each facet (a, b, c) lies at
       distance |det(a, b, c)| / |a x b + b x c + c x a| >= delta, with that
       normal above 1e-6 (|a||b| + |b||c| + |c||a|) and each vertex at least
       delta from the origin.  Then each volume exceeds 1e-14 |a||b||c|, ten
       times its rounding, so the computed signs are exact and each computed
       facet distance is within 12% of the exact one: the hull holds the
       ball of radius 0.88 times the smallest, the reported depth.  Each set
       tries one tetrahedron: its start, or, for a set without one, the
       deepest certifying tetrahedron of its six axis-extreme fields (the
       argmax and argmin of each coordinate; the last of the 15 where none
       certifies), which ``_exchange`` improves, keeping a tetrahedron that
       holds the origin; the one it ends on is checked once.
    2. Facet: not full when one of the exchange's evaluations finds a
       facet plane n . x = det with the origin beyond it and no field more
       than 1e-12 V across it: g(0) < 0 and g(v_k) >= -1e-12 |n| V for
       every k, with g(x) = +-(n . x - det) signed as the exchange computes
       x's barycentric weight for the fourth vertex.  Taking the computed n
       and det as exact, g(0) is the computed weight and each g(v_k) errs
       by under 4e-16 |n| V, so the fields lie within 1.001e-12 V of a half
       space that misses the origin: for its inward unit normal m,
       max_k (-m) . v_k < 1.001e-12 V, and the depth is below that.
    3. Hull depth: every other set, none on the benchmark's fans, goes to
       ``_hull_depth``, which decides it from the planes through every
       three fields, C(24, 3) = 2,024 of them.

    Rule 3 answers every set as rules 1 and 2 do: those are at least
    0.88 delta and under 1.001e-12 V deep, and its depth is never above the
    exact one and less than 0.25 delta below it (``_hull_depth`` names the
    one exception).  So a start, which changes the tetrahedron tried and so
    the rule that answers, changes the depth and the tetrahedron, not the
    verdict.  Uncertified sets report depth 0 and tetrahedron -1.
    """
    v, e = pow2_scale(v, axis=(1, 2))  # exact: every |entry| now below 1
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
    full = depth > 0
    rest = np.flatnonzero(~full & ~separated)
    if rest.size:
        full[rest] = _hull_depth(v[rest], top[rest])
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
#: separating facet makes.  On the benchmark's fans three leave no set to
#: ``_hull_depth``.
_EXCHANGES = 3

#: How far, in units of V = max_k |v_k|, a field may lie across the
#: separating facet of ``_cone_verdicts``'s second rule.
_FIELD_TOL = 1e-12

#: Direction sets that ``_hull_depth`` evaluates at once: the products of
#: 24 fields with their 2,024 triple planes and the planes themselves take
#: about 1.1 MB per set.
_HULL_SETS = 2


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
    facet, or is separated: that facet's plane has the origin beyond it and
    no field more than _FIELD_TOL V across it (``_cone_verdicts``, rule 2).
    Returns the final tetrahedra (``tet``, updated in place), their facet
    volumes (N, 4) and normals (3, N, 4), facet q omitting vertex q, and
    the (N,) mask of separated sets.
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
        # the origin beyond the facet's plane, and no field, the vertices
        # included, across it; weights[rows, q] is the origin's weight
        n0, n1, n2 = n
        unit = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2) * top[live]  # |n| V
        apart = (weights[rows, q] < 0) & (beyond.min(axis=1) >= -_FIELD_TOL * unit)
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
def _triples(count):
    """Read-only index arrays (i, j, k), i < j < k, of the planes through
    three of `count` fields."""
    index = np.array(list(combinations(range(count), 3)), dtype=np.intp).reshape(-1, 3)
    return tuple(_readonly(a) for a in index.T)


def _hull_depth(v, top):
    """Whether the hull of each power-of-two-scaled (N, K, 3) set holds the
    origin at least delta / 2 deep, delta = 1e-8 V, V = top (N,) its
    largest field norm: rule 3 of ``_cone_verdicts``, (N,) bools.

    The depth is the origin's smallest distance to a facet plane of the
    hull, negative beyond one, and each facet plane passes through three
    fields.  For a triple (a, b, c), n = (b - a) x (c - a) errs by at most
    5.4e-16 |b - a| |c - a| and p_k = n . v_k - n . a by 9e-16 |n| V more,
    so with t = 3e-15 |b - a| |c - a| V the plane is kept when every
    p_k <= t, or every p_k >= -t: every facet plane is kept, and the hull
    lies within 1.3 t / |n| of each kept plane's side.  The set's depth is
    the origin's smallest distance to a kept plane, on the fields' side
    (the lesser where both sides qualify), less t / |n|, the most a facet
    plane's computed distance can exceed the exact one; the set is full
    when it is at least delta / 2.  So a "full" holds the origin that deep
    in every facet plane, and the depth is at most 2.41 t / |n| below the
    exact one: under 0.25 delta unless a kept plane has t / |n| >
    delta / 10, which takes three fields on the hull's boundary collinear
    to within 3e-6, the one case where rule 3 may answer a set of rule 1
    otherwise.

    A triple with |n| <= 1e-12 |b - a| |c - a|, collinear to within 1e-12,
    is skipped: its normal may point anywhere, and the tolerance would keep
    its plane through any edge of the hull.  A facet is lost only when all
    its vertex triples are, a sliver whose vertices lie within
    1e-12 D <= 2e-12 V of the chord between its two farthest ones; the
    kept planes of the facets around it close any pocket between them and
    the sliver within that width, far below delta.  A set with no kept
    plane (collinear fields, or fewer than three) is not full.  The sets
    are taken _HULL_SETS at a time.
    """
    i, j, k = _triples(v.shape[1])
    full = np.zeros(len(v), dtype=bool)
    for s in range(0, len(v), _HULL_SETS):
        sets, V = v[s:s + _HULL_SETS], top[s:s + _HULL_SETS, None]
        w = sets.transpose(2, 0, 1)
        a = w[:, :, i]
        e1, e2 = w[:, :, j] - a, w[:, :, k] - a
        n = _cross(e1, e2)  # (3, n, T)
        size = np.sqrt((n * n).sum(axis=0))
        spread = np.sqrt((e1 * e1).sum(axis=0) * (e2 * e2).sum(axis=0))
        tol = 3e-15 * spread * V
        d = (n * a).sum(axis=0)  # each plane is n . x = d
        prods = sets @ n.transpose(1, 0, 2)  # (n, K, T): n . v_k
        prods -= d[:, None]
        below, above = prods.max(axis=1) <= tol, prods.min(axis=1) >= -tol
        kept = (below | above) & (size > 1e-12 * spread)
        inside = np.minimum(np.where(below, d, np.inf), np.where(above, -d, np.inf)) - tol
        depth = np.divide(inside, size, out=np.full_like(d, np.inf), where=kept)
        full[s:s + _HULL_SETS] = (kept.any(axis=1)
                                  & (depth.min(axis=1, initial=np.inf) >= 5e-9 * V[:, 0]))
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
    v, _ = pow2_scale(v)  # exact: every |entry| now below 1
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
    1e-8 max_k |v_k(x')|: at least 0.75 times that depth is enough for
    ``_cone_verdicts`` to answer "full" (barring the exception its
    ``_hull_depth`` names).  The test runs on A and b scaled by a power of
    two, so no norm in it under- or overflows, and every term scales
    alike.

    Each ray also carries the tetrahedron that certified its farthest
    passing point of the round (``ConeVerdict.tetrahedron``) into the next
    round, as the start of all its sets there.  A start can change a depth,
    and so which radii are skipped, but not a verdict, so the radii are
    still those of the lone march.
    """
    lo = np.zeros(len(dirs))
    hi = np.full(len(dirs), np.inf)  # inf while the ray is still marching
    t = np.full(len(dirs), step)
    radius = np.full(len(dirs), max_radius)  # for rays that never exit
    # the skip test in units of 2^e
    _, e = pow2_scale(max(np.abs(A).max(), np.abs(b).max()))
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
        cone fails strictly, the origin a vertex of the fields' hull, while
        points just toward the origin pass.  Chloroform scans are therefore
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
    separates most sets from the origin, so the exhaustive rule
    (``_hull_depth``) runs on few sets: on fibonacci_sphere(20) from the
    origin at tol 1e-3 the trace makes 19 stacked calls on 820 sets, 112
    of them separated and none left to that rule, where the axis-extreme
    certificate alone made 20 calls on 888 sets, and testing every march
    point 34 calls on 1705 sets.  Points are evaluated CHUNK at a time so
    memory stays under 1 MB per chunk (2.3 MB where the exhaustive rule
    runs) whatever the fan size.  With
    workers > 1 the fan is split into contiguous parts, one per process
    (at most the CPUs available), each traced in lockstep, and the radii
    are joined in ray order; every ray's radius equals that of tracing it
    alone.
    """
    if gen.n != 2:
        raise ValidationError(f"boundary tracing is implemented for n=2, got n={gen.n}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"bisection tol must be finite and positive, got {tol}")
    workers = check_count(workers, "workers")
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
    """Deterministic quasi-uniform unit vectors on S^2 (golden-angle spiral);
    count is a positive integer."""
    count = check_count(count, "direction count")
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    radius = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    theta = golden * i
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])
