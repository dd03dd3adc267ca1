import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachset import (
    AffineGenerator,
    CoherenceVector,
    OriginNotControllable,
    ValidationError,
    build_permutation_set,
    diag_slots,
    fibonacci_sphere,
    stlc_boundary_rays,
    stlc_test_3d,
    stlc_test_lp,
    unitary_rep,
)
from reachset import parallel, under_approx
from reachset.diagonal import projected_field_stack, stacked_directions
from oracles import boundary_rays_one_by_one, cone_verdicts_sweep, first_exit, hull_depth


# ---------------------------------------------------------------------------
# permutation control sets


def _diag_reps(controls):
    """Each control's action on diagonal coordinates, (K, 2^n - 1, 2^n - 1)."""
    s = list(diag_slots(controls.n))
    return controls.reps_full[:, s][:, :, s]


def test_single_qubit_permutations():
    controls = build_permutation_set(1)
    assert len(controls.perms) == 2
    flat = sorted(float(m[0, 0]) for m in _diag_reps(controls))
    assert flat == [-1.0, 1.0]


def test_two_qubit_permutation_count(two_qubit_controls):
    assert len(two_qubit_controls.perms) == 24
    assert _diag_reps(two_qubit_controls).shape == (24, 3, 3)
    assert two_qubit_controls.reps_full.shape == (24, 15, 15)


def test_cyclic_averaging_member(two_qubit_controls):
    cyclic = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]])
    assert any(
        np.allclose(m, cyclic, atol=1e-12) for m in _diag_reps(two_qubit_controls)
    )


def test_group_closure_on_sampled_pairs(two_qubit_controls, rng):
    perms = two_qubit_controls.perms
    index = {p: i for i, p in enumerate(perms)}
    for _ in range(20):
        i, j = rng.integers(24), rng.integers(24)
        composed = tuple(perms[i][perms[j][s]] for s in range(4))
        k = index[composed]
        np.testing.assert_allclose(
            two_qubit_controls.reps_full[k],
            two_qubit_controls.reps_full[i] @ two_qubit_controls.reps_full[j],
            atol=1e-10,
        )


def test_diag_reps_preserve_norm(two_qubit_controls, rng):
    x = rng.normal(size=3)
    for m in _diag_reps(two_qubit_controls)[:8]:
        assert np.linalg.norm(m @ x) == pytest.approx(np.linalg.norm(x), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_permutation_reps_match_one_by_one(n):
    # one stacked unitary_rep call gives the bytes of one call per matrix
    controls = build_permutation_set(n)
    for perm, rep in zip(controls.perms, controls.reps_full):
        P = np.zeros((2 ** n, 2 ** n), dtype=complex)
        P[list(perm), range(2 ** n)] = 1.0
        assert np.array_equal(rep, unitary_rep(P))


def test_permutation_set_guard():
    # n = 3 would fill (40320, 63, 63) full representations, about 1.28 GB
    for n in (3, 4):
        with pytest.raises(ValidationError):
            build_permutation_set(n)


# ---------------------------------------------------------------------------
# cone tests


def test_full_cone_with_axis_vectors(rng):
    dirs = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(18, 3))])
    assert stlc_test_3d(dirs).is_full


def test_half_space_detected():
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(24, 3))
    dirs[:, 0] = np.abs(dirs[:, 0]) + 0.1
    verdict = stlc_test_3d(dirs)
    assert not verdict.is_full and verdict.depth == 0.0
    assert not stlc_test_lp(dirs).is_full


def test_lp_one_dimensional():
    assert stlc_test_lp(np.array([[1.0], [-1.0]])).is_full
    verdict = stlc_test_lp(np.array([[1.0], [2.0]]))
    assert not verdict.is_full


def test_lp_upper_half_plane():
    rng = np.random.default_rng(4)
    dirs = rng.normal(size=(12, 2))
    dirs[:, 1] = np.abs(dirs[:, 1])
    verdict = stlc_test_lp(dirs)
    assert not verdict.is_full and verdict.depth == 0.0
    # one field below the half plane closes the cone
    assert stlc_test_lp(np.vstack([dirs, [[0.0, -1.0]]])).is_full


def test_rank_deficient_directions():
    dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    for verdict in (stlc_test_3d(dirs), stlc_test_lp(dirs)):
        assert not verdict.is_full and verdict.depth == 0.0
    assert not cone_verdicts_sweep(dirs[None]).any()


def test_triple_product_agrees_with_lp(rng):
    for _ in range(60):
        dirs = rng.normal(size=(24, 3))
        assert stlc_test_3d(dirs).is_full == stlc_test_lp(dirs).is_full


#: Scales of the LP cone test's inputs, by test id.
LP_SCALES = {"2^-1000": 2.0 ** -1000, "1e-20": 1e-20, "2^-70": 2.0 ** -70, "1/2": 0.5,
             "1": 1.0, "2^70": 2.0 ** 70, "1e20": 1e20, "2^1000": 2.0 ** 1000, "1e300": 1e300}


@pytest.mark.parametrize("scale", LP_SCALES.values(), ids=LP_SCALES.keys())
def test_lp_verdict_is_scale_free(scale):
    # the six +-unit axes fill R^3 at any scale; an absolute rank floor once
    # called them rank deficient at 1e-20 and the LP refused them at 1e20
    axes = np.vstack([np.eye(3), -np.eye(3)]) * scale
    assert stlc_test_lp(axes).is_full
    assert stlc_test_3d(axes).is_full


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lp_rejects_non_finite_directions(bad):
    # an infinite entry once hung the rank test's SVD, and a NaN raised
    # a raw LinAlgError
    axes = np.vstack([np.eye(3), -np.eye(3)])
    axes[0, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        stlc_test_lp(axes)


def test_chloroform_equilibrium_agreement(chloroform_gen, two_qubit_controls):
    # the equilibrium is itself a constant-control steady state: one field
    # vanishes there and both routes classify it as not locally controllable
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    x_eq = chloroform_gen.r_eq[list(diag_slots(2))]
    dirs = stacked_directions(A, b, x_eq)
    v3 = stlc_test_3d(dirs)
    vlp = stlc_test_lp(dirs)
    assert v3.is_full == vlp.is_full == False  # noqa: E712
    # while every nearby interior point toward the origin passes
    assert stlc_test_3d(stacked_directions(A, b, 0.999 * x_eq)).is_full


# ---------------------------------------------------------------------------
# stacked cone tests: each set of a stack gets the one-set verdict and depth


def _assert_rows_match_one_set_calls(sets, start=None):
    stacked = stlc_test_3d(sets, start=start)
    lead = sets.shape[:-2]
    assert stacked.is_full.shape == lead and stacked.depth.shape == lead
    assert stacked.tetrahedron.shape == lead + (4,)
    for idx in np.ndindex(*lead):
        one = stlc_test_3d(sets[idx], start=None if start is None else start[idx])
        assert stacked.is_full[idx] == one.is_full, idx
        assert isinstance(one.depth, float) and stacked.depth[idx] == one.depth, idx
        assert tuple(stacked.tetrahedron[idx]) == one.tetrahedron, idx
        if not one.is_full:
            assert one.depth == 0.0 and one.tetrahedron == (-1, -1, -1, -1)
    return stacked


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.sampled_from([1, 63, 64, 65, 129]))
def test_stacked_cone_test_on_random_fields(seed, count):
    rng = np.random.default_rng(seed)
    sets = rng.normal(size=(count, 24, 3))
    half = rng.random(count) < 0.5  # about half lie in an open half space
    sets[half, :, 0] = np.abs(sets[half, :, 0]) + 0.05
    _assert_rows_match_one_set_calls(sets)


def test_stacked_cone_test_near_the_chloroform_boundary(chloroform_gen, two_qubit_controls):
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    x_eq = chloroform_gen.r_eq[list(diag_slots(2))]
    rays = fibonacci_sphere(12)
    radii = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=1e-6,
                               origin=np.zeros(3))
    # x_eq, where the identity field vanishes, points along the ray toward
    # it, and points within 1e-6 of traced boundary points on both sides
    scales = np.concatenate([[1.0], 1.0 + np.linspace(-1e-3, 1e-3, 21)])
    offsets = np.array([-1e-6, 0.0, 1e-6, 2e-6])
    points = np.vstack([scales[:, None] * x_eq,
                        ((radii[:, None] + offsets)[..., None] * rays[:, None]).reshape(-1, 3)])
    stacked = _assert_rows_match_one_set_calls(stacked_directions(A, b, points))
    assert not stacked.is_full[0]  # the equilibrium is a boundary point
    assert stacked.is_full.any() and not stacked.is_full.all()


def test_stacked_cone_test_rank_deficient_sets(rng):
    planar = rng.normal(size=(5, 24, 3))
    planar[..., 2] = 0.0  # coplanar fields
    line = rng.normal(size=(5, 24, 1)) * rng.normal(size=(5, 1, 3))  # collinear
    generic = rng.normal(size=(5, 24, 3))
    sets = np.concatenate([planar, np.zeros((3, 24, 3)), line, generic])
    stacked = _assert_rows_match_one_set_calls(sets)
    assert not stacked.is_full[:13].any()
    _assert_matches_the_sweep(sets)


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(-8.0, 8.0), count=st.sampled_from([1, 65]))
def test_stacked_cone_test_products_at_the_band(factor, count):
    # +-x and +-y, fields above the xy plane and one within 8e-12 of it:
    # the old plane sweep's band of 1e-12 called the set full once the last
    # field lay a band below the plane, but the hull then holds the origin
    # only about 1e-12 deep, far below the 5e-9 that "full" asks for
    rng = np.random.default_rng(7)
    up = np.column_stack([rng.uniform(-1, 1, size=(19, 2)), rng.uniform(0.1, 1, 19)])
    low = np.array([0.5, 0.5, 0.0])
    low[2] = factor * 1e-12 * np.linalg.norm(low)
    base = np.vstack([np.eye(3)[:2], -np.eye(3)[:2], up, low])
    assert abs(hull_depth(base)) < 1e-11
    sets = np.repeat(base[None], count, axis=0)
    stacked = _assert_rows_match_one_set_calls(sets)
    assert not stacked.is_full.any()


def test_stacked_cone_test_chunk_sizes_and_shapes(rng):
    sets = rng.normal(size=(129, 24, 3))
    sets[::3, :, 1] = np.abs(sets[::3, :, 1])
    sets[5] = 0.0
    whole = stlc_test_3d(sets)
    for count in (63, 64, 65, 129):
        part = stlc_test_3d(sets[:count])
        np.testing.assert_array_equal(part.is_full, whole.is_full[:count])
        assert part.depth.tobytes() == whole.depth[:count].tobytes()
    # two leading axes, and an empty stack
    grid = stlc_test_3d(sets[:65].reshape(5, 13, 24, 3))
    np.testing.assert_array_equal(grid.is_full.ravel(), whole.is_full[:65])
    empty = stlc_test_3d(np.empty((0, 24, 3)))
    assert empty.is_full.shape == (0,) and empty.depth.shape == (0,)
    for bad in (np.empty((24,)), np.empty((24, 2)), np.empty((4, 0, 3))):
        with pytest.raises(ValidationError):
            stlc_test_3d(bad)


#: Scales of R across the exponent range, powers of two and not.
R_SCALES = [2.0 ** -1000, 2.0 ** -200, 1e-60, 2.0 ** -8, 2.0 ** 8, 2.0 ** 40, 1e77,
            1e100, 1e160, 1e200, 2.0 ** 900, 1e300]


def test_cone_test_is_scale_free(chloroform_gen, two_qubit_controls, rng):
    # each set is rescaled by a power of two before any product is taken,
    # so 2^k times a set gets its verdicts and depths bit for bit, with
    # no overflow at 2^900 and no lost rank at 2^-900
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    points = rng.normal(size=(100, 3)) * rng.uniform(0.5, 5.0, size=(100, 1))
    sets = np.concatenate([stacked_directions(A, b, points), rng.normal(size=(30, 24, 3))])
    sets[100::3, :, 1] = np.abs(sets[100::3, :, 1])  # not full through a plane
    sets[101, :, 2] = 0.0  # not full through the rank
    base = stlc_test_3d(sets)
    assert base.is_full.any() and not base.is_full.all()
    assert base.is_full.tobytes() == cone_verdicts_sweep(sets).tobytes()
    for k in (-900, 900):
        scaled_sets = np.ldexp(sets, k)
        assert np.array_equal(np.ldexp(scaled_sets, -k), sets)  # the scaling is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = stlc_test_3d(scaled_sets)
        assert scaled.is_full.tobytes() == base.is_full.tobytes()
        assert scaled.depth.tobytes() == np.ldexp(base.depth, k).tobytes()


@pytest.mark.parametrize("dirs", [
    [[1e200, 0, 0], [-1e200, 0, 0]],  # every plane vanishes: 0 * inf once
    [[1e200, 0, 0], [-1e200, 0, 0], [0, 1, 0], [0, -1, 0]],  # |v_i x v_j|^2 overflowed
], ids=["rank", "plane"])
def test_cone_test_answers_huge_directions(dirs):
    # both sets once printed RuntimeWarnings or were refused as overflowing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = stlc_test_3d(dirs)
    assert not verdict.is_full and verdict.depth == 0.0
    assert not stlc_test_lp(dirs).is_full


def test_traced_radii_scale_free_in_R(chloroform_gen, two_qubit_controls):
    # scaling R scales every field and leaves the STLC set alone; at R * 1e100
    # and above the products once overflowed, and at R * 1e-60 the absolute
    # rank floor once failed the origin
    rays = fibonacci_sphere(20)

    def radii(scale):
        gen = AffineGenerator(n=2, Hmat=chloroform_gen.Hmat,
                              Rmat=scale * chloroform_gen.Rmat, r_eq=chloroform_gen.r_eq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return stlc_boundary_rays(gen, two_qubit_controls, rays, origin=np.zeros(3))

    base = radii(1.0)
    for scale in R_SCALES:
        assert radii(scale).tobytes() == base.tobytes(), scale


# ---------------------------------------------------------------------------
# the tetrahedron certificate: sets it answers skip the plane sweep, and every
# verdict stays that of the sweep alone


def _assert_matches_the_sweep(sets):
    sets = np.asarray(sets, dtype=float).reshape(-1, *np.shape(sets)[-2:])
    full = cone_verdicts_sweep(sets)
    assert stlc_test_3d(sets).is_full.tobytes() == full.tobytes()
    return full


def _count_certified(monkeypatch):
    """Patch the cone test to append (sets certified, sets tested) per call."""
    counts = []
    verdicts = under_approx._cone_verdicts

    def counting(v, start=None):
        full, depth, tetrahedron = verdicts(v, start)
        counts.append((int((tetrahedron[:, 0] >= 0).sum()), len(v)))
        return full, depth, tetrahedron

    monkeypatch.setattr(under_approx, "_cone_verdicts", counting)
    return counts


def _count_hull_and_separated(monkeypatch):
    """Patch the cone test's last two rules to append, per call, the sets
    that ``_hull_depth`` decides and the sets the exchange's facet
    separates; return both lists."""
    decided, separated = [], []
    depth, exchange = under_approx._hull_depth, under_approx._exchange

    def deciding(v, top):
        decided.append(len(v))
        return depth(v, top)

    def exchanging(*args):
        found = exchange(*args)
        separated.append(int(found[3].sum()))
        return found

    monkeypatch.setattr(under_approx, "_hull_depth", deciding)
    monkeypatch.setattr(under_approx, "_exchange", exchanging)
    return decided, separated


def _assert_matches_the_hull(sets):
    """Each set's verdict against the hull depth of scipy's Quickhull, in
    units of its largest field norm: full where that is at least 2e-8,
    twice delta, and not full where it is below 4e-9, under the 5e-9 that
    "full" asks for; return the verdicts and the depths."""
    sets = np.asarray(sets, dtype=float).reshape(-1, *np.shape(sets)[-2:])
    full = stlc_test_3d(sets).is_full
    depth = np.array([hull_depth(v) for v in sets])
    assert full[depth >= 2e-8].all() and not full[depth < 4e-9].any()
    return full, depth


def _traced_fan(gen, controls, monkeypatch):
    """Radii of a fibonacci_sphere(20) fan traced from the origin, and the
    direction stacks of its cone tests in call order."""
    stacks = []

    def recording(directions, start=None):
        stacks.append(np.array(directions))
        return stlc_test_3d(directions, start=start)

    with monkeypatch.context() as m:
        m.setattr(under_approx, "stlc_test_3d", recording)
        radii = stlc_boundary_rays(gen, controls, fibonacci_sphere(20), origin=np.zeros(3))
    return radii, stacks


def test_cone_test_matches_the_sweep_on_random_stacks(rng, monkeypatch):
    counts = _count_certified(monkeypatch)
    decided, separated = _count_hull_and_separated(monkeypatch)
    deep = rng.normal(size=(64, 24, 3))
    # +-y, +-z and (-t, 0.6, 0.8) in or just across the plane x = 0, the
    # rest beyond it: full at a depth near t once t leaves the band
    shallow = rng.normal(size=(64, 24, 3))
    shallow[..., 0] = np.abs(shallow[..., 0]) + 0.05
    shallow[:, :5] = [[0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1], [0, 0.6, 0.8]]
    shallow[:, 4, 0] = -np.logspace(-14, -3, 64)
    half = rng.normal(size=(32, 24, 3))
    half[..., 1] = np.abs(half[..., 1])  # not full: y = 0 separates
    planar = rng.normal(size=(8, 24, 3))
    planar[..., 2] = 0.0
    line = rng.normal(size=(8, 24, 1)) * rng.normal(size=(8, 1, 3))
    # +-x, +-y, fields above the xy plane and one within a few bands of it
    band = np.repeat(np.vstack([np.eye(3)[:2], -np.eye(3)[:2],
                                np.column_stack([rng.uniform(-1, 1, (19, 2)),
                                                 rng.uniform(0.1, 1, 19)]),
                                [[0.5, 0.5, 0.0]]])[None], 17, axis=0)
    band[:, -1, 2] = np.linspace(-8, 8, 17) * 1e-12 * np.sqrt(0.5)
    sets = np.concatenate([deep, shallow, half, planar, np.zeros((2, 24, 3)), line, band])
    full, depth = _assert_matches_the_hull(sets)
    assert full[64:128].any() and not full[64:128].all()
    # the old plane sweep answers alike but for sets that the hull holds
    # the origin less than 5e-9 deep, which it called full
    sweep = cone_verdicts_sweep(sets)
    assert (sweep[full]).all() and (depth[sweep & ~full] < 5e-9).all()
    for few in (1, 3, 5):  # fewer than six fields: the extremes repeat
        _assert_matches_the_hull(rng.normal(size=(16, few, 3)))
    answered = sum(a for a, _ in counts)
    assert 0 < answered < full.sum()
    # the half-space sets are separated, the in-band ones decided by the hull
    assert sum(separated) >= 32 and sum(decided) >= 17


def test_cone_test_matches_the_sweep_on_traced_stacks(chloroform_gen, two_qubit_controls,
                                                      monkeypatch):
    _, stacks = _traced_fan(chloroform_gen, two_qubit_controls, monkeypatch)
    for directions in stacks:
        _assert_matches_the_sweep(directions)


def test_certificate_answers_most_traced_sets(chloroform_gen, two_qubit_controls,
                                              monkeypatch):
    with monkeypatch.context() as m:
        counts = _count_certified(m)
        radii, stacks = _traced_fan(chloroform_gen, two_qubit_controls, m)
    answered, tested = np.sum(counts, axis=0)
    assert tested == sum(len(s) if s.ndim == 3 else 1 for s in stacks)
    # the sweep alone certifies no depth, so its march skips no point and
    # tests every point of the lone march (34 calls, 1705 sets)
    with monkeypatch.context() as m:
        m.setattr(under_approx, "_cone_verdicts",
                  lambda v, start: (cone_verdicts_sweep(v), np.zeros(len(v)),
                                    np.full((len(v), 4), -1)))
        swept_radii, swept_stacks = _traced_fan(chloroform_gen, two_qubit_controls, m)
    assert radii.tobytes() == swept_radii.tobytes()
    swept = sum(len(s) if s.ndim == 3 else 1 for s in swept_stacks)
    # the certificate answers most of those sets: by its own verdict, or by
    # the depth that lets the march pass over them untested
    assert answered + (swept - tested) > swept / 2
    # the counts repeat exactly: 19 stacked calls on 820 sets, the origin's
    # included, of which 112 are not certified, and the exchange's facet
    # separates all 112 from the origin, so none goes to the sweep (20 calls
    # on 888 sets, 507 of them swept, with the axis-extreme tetrahedra alone)
    assert len(stacks) <= 19 < len(swept_stacks)
    assert tested <= 830 < swept
    assert tested - answered <= 120


def test_certificate_leaves_a_tetrahedron_inside_the_band_to_the_sweep():
    # the axis-extreme tetrahedron (e3, -e1, -e2, low) holds the origin, but
    # only about 1e-13 deep, far below the 5e-9 max|v_k| that "full" asks
    # for: the certificate, which needs 1e-8 max|v_k|, must not answer it,
    # and the hull depth answers "not full", as the old sweep's band did
    low = np.array([0.5, 0.5, -1e-13])
    dirs = np.vstack([np.eye(3)[:2], -np.eye(3)[:2], [[0.0, 0.0, 1.0]], low])
    facet = dirs[[2, 3, 5]]
    normal = np.cross(facet[1] - facet[0], facet[2] - facet[0])
    depth = abs(np.linalg.det(facet)) / np.linalg.norm(normal)
    assert 1e-14 < depth < 1e-12
    verdict = stlc_test_3d(dirs)
    assert not verdict.is_full and verdict.depth == 0.0
    _assert_matches_the_sweep(dirs)


def test_depth_is_a_ball_inside_the_hull(chloroform_gen, two_qubit_controls, rng,
                                         monkeypatch):
    # a certified depth rho means every support value max_k n . v_k is at
    # least rho; a set the certificate leaves reports 0
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    points = rng.normal(size=(150, 3)) * rng.uniform(0.5, 5.0, size=(150, 1))
    sets = np.concatenate([stacked_directions(A, b, points), rng.normal(size=(50, 24, 3)),
                           rng.normal(size=(20, 24, 3)) + [0.0, 0.0, 1.5]])
    decided, separated = _count_hull_and_separated(monkeypatch)
    verdict = stlc_test_3d(sets)
    certified = verdict.depth > 0
    # each set the certificate leaves is either decided by the hull or
    # separated, and a separated set, which never reaches the hull, is not
    # full
    assert sum(decided) + sum(separated) == (~certified).sum()
    count = sum(separated)
    alone = 0
    for i in np.flatnonzero(~certified):
        decided.clear()
        one = stlc_test_3d(sets[i])
        if not decided:  # separated
            assert not one.is_full, i
            alone += 1
    assert alone == count > 0
    assert 0 < certified.sum() < len(sets) and not verdict.is_full.all()
    assert (verdict.is_full[certified]).all() and (verdict.depth[~verdict.is_full] == 0).all()
    n = rng.normal(size=(1000, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    support = (sets[certified] @ n.T).max(axis=1)  # (certified sets, 1000)
    assert (support >= verdict.depth[certified, None]).all()
    # the reported tetrahedron holds the origin 0.88 times its smallest facet
    # distance deep, by brute force; these sets carry no start, so where an
    # axis-extreme tetrahedron certifies, the deepest one is reported, and
    # the exchange answers the others
    def brute_depth(hull):
        system = np.vstack([hull.T, np.ones(4)])
        if np.linalg.matrix_rank(system) < 4:  # a flat or repeated vertex set
            return 0.0
        if not (np.linalg.solve(system, [0.0, 0.0, 0.0, 1.0]) > 0).all():
            return 0.0
        facets = [hull[[j for j in range(4) if j != i]] for i in range(4)]
        return min(abs(np.linalg.det(f)) / np.linalg.norm(np.cross(f[1] - f[0], f[2] - f[0]))
                   for f in facets)

    exchanged = 0
    for v, depth, tet in zip(sets[certified], verdict.depth[certified],
                             verdict.tetrahedron[certified]):
        assert depth == pytest.approx(0.88 * brute_depth(v[tet]), rel=1e-9)
        ext = np.concatenate([v.argmax(axis=0), v.argmin(axis=0)])
        extremes = [ext[list(t)] for t in combinations(range(6), 4)]
        if any(sorted(tet) == sorted(t) for t in extremes):
            best = max(brute_depth(v[t]) for t in extremes)
            assert depth == pytest.approx(0.88 * best, rel=1e-9)
        else:
            exchanged += 1
    assert 0 < exchanged < certified.sum()


# ---------------------------------------------------------------------------
# start tetrahedra and the exchange: the tetrahedron that certifies a set may
# be the caller's start, for a set without one an axis-extreme tetrahedron, or
# the exchange's, and whichever it is, the verdict is the sweep's


def _holds_origin(sets, tetrahedra):
    """Whether each (N, 4) tetrahedron of (N, K, 3) sets holds the origin
    strictly inside, by a dense solve for its barycentric weights."""
    hulls = np.take_along_axis(sets, tetrahedra[..., None], axis=1)  # (N, 4, 3)
    systems = np.concatenate([hulls.transpose(0, 2, 1), np.ones((len(sets), 1, 4))], axis=1)
    flat = np.linalg.matrix_rank(systems) < 4
    systems[flat] = np.eye(4)
    weights = np.linalg.solve(systems, np.tile([[0.0], [0.0], [0.0], [1.0]], (len(sets), 1, 1)))
    return ~flat & (weights[..., 0] > 0).all(axis=1)


def _sources(sets, start, tetrahedra):
    """Per set, which tetrahedron certified it: "start", "axis" (a
    tetrahedron of its six axis-extreme fields), "exchange", or "" for
    none."""
    labels = []
    for v, given, tet in zip(sets, start, tetrahedra):
        ext = np.concatenate([v.argmax(axis=0), v.argmin(axis=0)])
        found = sorted(tet)
        if found[0] < 0:
            labels.append("")
        elif found == sorted(given):
            labels.append("start")
        elif any(found == sorted(ext[list(t)]) for t in combinations(range(6), 4)):
            labels.append("axis")
        else:
            labels.append("exchange")
    return np.array(labels)


def _degenerate_and_random_sets(gen, controls, rng):
    A, b = projected_field_stack(gen, controls.reps_full)
    points = rng.normal(size=(100, 3)) * rng.uniform(0.5, 4.0, size=(100, 1))
    half = rng.normal(size=(20, 24, 3))
    half[..., 1] = np.abs(half[..., 1])  # not full: y = 0 separates
    planar = rng.normal(size=(6, 24, 3))
    planar[..., 2] = 0.0
    line = rng.normal(size=(6, 24, 1)) * rng.normal(size=(6, 1, 3))
    return np.concatenate([stacked_directions(A, b, points), rng.normal(size=(40, 24, 3)),
                           half, planar, np.zeros((2, 24, 3)), line])


def test_certificates_on_the_bounds_fans_match_the_sweep(chloroform_gen, two_qubit_controls,
                                                         monkeypatch):
    # every cone test of the eight benchmark fans, with the start its ray
    # carried: each verdict is the sweep's, and each certified set is full
    calls = []

    def recording(directions, start=None):
        verdict = stlc_test_3d(directions, start=start)
        calls.append((np.array(directions, ndmin=3), start, verdict))
        return verdict

    with monkeypatch.context() as m:
        m.setattr(under_approx, "stlc_test_3d", recording)
        for seed in range(101, 109):
            stlc_boundary_rays(chloroform_gen, two_qubit_controls,
                               fibonacci_sphere(20) @ _rotation(seed).T, origin=np.zeros(3))
    labels = []
    for sets, start, verdict in calls:
        full = cone_verdicts_sweep(sets)
        assert np.reshape(verdict.is_full, -1).tobytes() == full.tobytes()
        tetrahedra = np.reshape(verdict.tetrahedron, (-1, 4))
        certified = tetrahedra[:, 0] >= 0
        assert full[certified].all() and _holds_origin(sets[certified], tetrahedra[certified]).all()
        starts = np.full((len(sets), 4), -1) if start is None else start
        labels.extend(_sources(sets, starts, tetrahedra))
    labels = np.array(labels)
    # the carried start and the exchange each certify many sets
    assert ((labels == "start").sum() > 1000 and (labels == "exchange").sum() > 500
            and (labels == "").sum() < 1000)


def test_the_sweep_answers_few_sets_of_the_bounds_fans(chloroform_gen, two_qubit_controls,
                                                      monkeypatch):
    # a guard on the work: the certificate and the facet leave at most 2
    # sets per fan to the hull depth over every triple of fields (none when
    # this was written, against 1.9 per fan for the plane sweep it replaced
    # and 122 per fan before the separating facet)
    decided, separated = _count_hull_and_separated(monkeypatch)
    for seed in range(101, 109):
        decided.clear()
        separated.clear()
        stlc_boundary_rays(chloroform_gen, two_qubit_controls,
                           fibonacci_sphere(20) @ _rotation(seed).T, tol=1e-3, origin=np.zeros(3))
        assert sum(decided) <= 2 and sum(separated) > 100, seed


def test_start_never_changes_the_verdict(chloroform_gen, two_qubit_controls, rng):
    sets = _degenerate_and_random_sets(chloroform_gen, two_qubit_controls, rng)
    base = stlc_test_3d(sets)
    assert base.is_full.tobytes() == cone_verdicts_sweep(sets).tobytes()
    assert base.is_full.any() and not base.is_full.all()
    for trial in range(6):
        start = rng.integers(0, 24, size=(len(sets), 4))
        start[::5] = -1  # no start
        start[1::7] = start[1::7, :1]  # four times one field
        verdict = _assert_rows_match_one_set_calls(sets, start)
        assert verdict.is_full.tobytes() == base.is_full.tobytes()
        certified = verdict.tetrahedron[:, 0] >= 0
        # the reported tetrahedron holds the origin, and a start that does
        # not hold it is never reported
        assert _holds_origin(sets[certified], verdict.tetrahedron[certified]).all()
        outside = (start[:, 0] >= 0) & ~_holds_origin(sets, np.maximum(start, 0))
        reported = (np.sort(verdict.tetrahedron, axis=1) == np.sort(start, axis=1)).all(axis=1)
        assert outside.any() and not (outside & reported).any()
        # a start replaces the axis-extreme tetrahedra: a row whose start
        # holds the origin reports its start where it certifies
        inside = (start[:, 0] >= 0) & _holds_origin(sets, np.maximum(start, 0))
        assert (inside & certified).any()
        assert (verdict.tetrahedron[inside & certified] == start[inside & certified]).all()


def test_a_deep_start_is_the_certificate():
    # a regular tetrahedron of fields holds the origin deep; the other fields
    # lie far above the xy plane, so the axis-extreme tetrahedra, which take
    # five of those, hold it only shallowly or not at all
    u = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    u = u @ _rotation(3).T
    angles = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    far = 3.0 * np.column_stack([np.cos(angles), np.sin(angles), np.full(20, 2.0)])
    dirs = np.vstack([far, u])
    start = np.arange(20, 24)
    alone, started = stlc_test_3d(dirs), stlc_test_3d(dirs, start=start)
    assert alone.is_full and started.is_full
    assert sorted(started.tetrahedron) == list(start)
    assert started.depth > max(alone.depth, 0.25)  # u's inradius is 1/3
    for bad in (start[:3], start.astype(float), [0, 1, 2, 24], [0, 1, 2, -1], [[0, 1, 2, 3]]):
        with pytest.raises(ValidationError):
            stlc_test_3d(dirs, start=bad)


def test_a_shallow_start_is_reported_over_a_deeper_axis_tetrahedron():
    # the regular tetrahedron u holds the origin 1/3 deep and spans the
    # axis-extreme fields; the start s, a flat tetrahedron 0.1 wide, holds it
    # only 1e-4 deep, above its base, yet certifies, so it is reported
    u = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    u = u @ _rotation(3).T
    angles = 2 * np.pi * np.arange(3) / 3
    s = 0.1 * np.vstack([np.column_stack([np.cos(angles), np.sin(angles), np.full(3, -1e-3)]),
                         [[0.0, 0.0, 1.0]]]) @ _rotation(5).T
    dirs = np.vstack([u, s])
    alone, started = stlc_test_3d(dirs), stlc_test_3d(dirs, start=[4, 5, 6, 7])
    assert alone.is_full and started.is_full and cone_verdicts_sweep(dirs[None])[0]
    assert sorted(alone.tetrahedron) == [0, 1, 2, 3] and alone.depth > 0.25
    assert started.tetrahedron == (4, 5, 6, 7)
    facets = [s[[j for j in range(4) if j != i]] for i in range(4)]
    depth = min(abs(np.linalg.det(f)) / np.linalg.norm(np.cross(f[1] - f[0], f[2] - f[0]))
                for f in facets)
    assert 0.9e-4 < depth < 1.1e-4
    assert started.depth == pytest.approx(0.88 * depth, rel=1e-9)


def test_a_stacked_call_certifies_one_tetrahedron_per_set(chloroform_gen, two_qubit_controls,
                                                          rng, monkeypatch):
    # a guard on the work: a row with a start has its start as its only
    # tetrahedron, and only a row without one scans the 15 axis-extreme ones
    sets = _degenerate_and_random_sets(chloroform_gen, two_qubit_controls, rng)
    start = rng.integers(0, 24, size=(len(sets), 4))
    base = stlc_test_3d(sets)
    certify, counts = under_approx._certify, []

    def counting(det, normal, r, delta):
        counts.append(np.size(det) // 4)  # tetrahedra certified
        return certify(det, normal, r, delta)

    monkeypatch.setattr(under_approx, "_certify", counting)
    verdict = stlc_test_3d(sets, start=start)
    assert sum(counts) == len(sets)
    assert verdict.is_full.tobytes() == base.is_full.tobytes()
    counts.clear()
    start[::5] = -1
    stlc_test_3d(sets, start=start)
    assert sum(counts) == len(sets) + 15 * len(sets[::5])


def test_the_exchange_leaves_the_callers_start_alone():
    # the exchange swaps -u3 for u3 in the start's own row of tetrahedra; the
    # caller's array keeps its indices, for one set and for a stack
    u = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    u = 0.5 * u @ _rotation(3).T
    fields = np.vstack([u, -u[3], 0.5 * u[3], 0.2 * u[0] + 0.3 * u[3]])
    start = np.array([0, 1, 2, 4])
    assert stlc_test_3d(fields, start=start).tetrahedron == (0, 1, 2, 3)
    assert start.tolist() == [0, 1, 2, 4]
    starts = np.array([[0, 1, 2, 4], [0, 1, 2, 4]])
    verdict = stlc_test_3d(np.stack([fields, fields]), start=starts)
    assert verdict.tetrahedron.tolist() == [[0, 1, 2, 3]] * 2
    assert starts.tolist() == [[0, 1, 2, 4]] * 2


def _exchange_one_set(fields, start):
    """The exchange's final tetrahedron, sorted, and whether it separated the
    origin from the fields, for one set of fields from a start tetrahedron."""
    w = np.asarray(fields, dtype=float).T[:, None]  # (3, 1, K)
    top = np.linalg.norm(fields, axis=1).max(keepdims=True)
    found, _, _, separated = under_approx._exchange(w, np.array([start]), top)
    return sorted(found[0]), bool(separated[0])


def test_exchange_swaps_the_vertex_behind_the_origin():
    # the start (u0, u1, u2, -u3) misses the origin: -u3 lies beyond the facet
    # (u0, u1, u2), and of the fields beyond it on the origin's side u3 is
    # the farthest, so one exchange gives the regular tetrahedron
    u = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    u = 0.5 * u @ _rotation(3).T
    fields = np.vstack([u, -u[3], 0.5 * u[3], 0.2 * u[0] + 0.3 * u[3]])
    assert _exchange_one_set(fields, [0, 1, 2, 4]) == ([0, 1, 2, 3], False)
    assert _exchange_one_set(fields, [0, 1, 2, 3]) == ([0, 1, 2, 3], False)  # holds: no exchange
    # no field lies beyond the facet: it separates the origin from them all
    assert _exchange_one_set(fields[[0, 1, 2, 4]], [0, 1, 2, 3]) == ([0, 1, 2, 3], True)


def _slab(height, across=None):
    """24 fields of norm about 1: a triangle in the plane z = height, 21
    fields above it, and one field `across` below the plane near its middle
    (or one more above it)."""
    rng = np.random.default_rng(5)
    angles = 2 * np.pi * np.arange(3) / 3
    triangle = np.column_stack([np.cos(angles), np.sin(angles), np.full(3, height)])
    above = np.column_stack([rng.uniform(-0.5, 0.5, (20, 2)), rng.uniform(0.2, 0.8, 20)])
    last = [0.1, 0.2, 0.5 if across is None else height - across]
    return np.vstack([triangle, above, [last]])


def test_exchange_separates_by_a_facet_with_no_field_beyond(monkeypatch):
    # the start's facet (0, 1, 2) has the origin `height` below it and the
    # start's fourth vertex above it; one evaluation, no exchange
    start = [0, 1, 2, 3]
    with monkeypatch.context() as m:
        m.setattr(under_approx, "_EXCHANGES", 0)
        assert _exchange_one_set(_slab(1e-3), start) == (start, True)
        # a field across the plane by less than the tolerance 1e-12 V is on it
        assert _exchange_one_set(_slab(1e-3, 1e-13), start) == (start, True)
        # one across it by 1e-9 V is not: the facet no longer separates
        assert _exchange_one_set(_slab(1e-3, 1e-9), start) == (start, False)
        # the origin may lie any distance beyond the facet: the hull then
        # holds it less than 1e-12 V deep, whatever its shape
        assert _exchange_one_set(_slab(1e-8), start) == (start, True)
        # but not on its plane or inside it
        assert _exchange_one_set(_slab(0.0), start) == (start, False)
        assert _exchange_one_set(_slab(-1e-3), start) == (start, False)
    # the exchange swaps the field across the plane in, and a facet through
    # it separates; no set is left to the hull depth
    assert _exchange_one_set(_slab(1e-3, 1e-9), start) == ([0, 1, 2, 23], True)
    decided, separated = _count_hull_and_separated(monkeypatch)
    for height, across in ((1e-3, None), (1e-3, 1e-9), (1e-8, None)):
        decided.clear()
        verdict = stlc_test_3d(_slab(height, across), start=start)
        assert not verdict.is_full and verdict.depth == 0.0
        assert verdict.tetrahedron == (-1, -1, -1, -1) and not decided
        assert hull_depth(_slab(height, across)) < 0


@pytest.mark.parametrize("height", [1e-3, 2e-6, 5e-7, 1e-12, 0.0, -1e-6, -1e-3])
def test_separation_matches_the_sweep_on_straddling_sets(height, monkeypatch):
    # the slab's triangle `height` above the origin and one field beyond or
    # across its plane by 1, 10 and 100 times 1e-12 V, in 10 rotations:
    # whichever sets a facet separates, each verdict is the hull depth's
    offsets = [sign * bands * 1e-12 for bands in (1, 10, 100) for sign in (1, -1)]
    sets = np.array([_slab(height, across) @ _rotation(seed).T
                     for across in offsets for seed in range(10)])
    decided, separated = _count_hull_and_separated(monkeypatch)
    full, depth = _assert_matches_the_hull(sets)
    if height > 1e-10:  # the origin lies beyond every field's side of the plane
        assert not full.any() and sum(separated) > len(sets) / 2
    elif height >= 0:  # the hull holds the origin at most 1e-10 deep
        assert not full.any() and (np.abs(depth) <= 1e-10).all()
    else:  # the hull holds the origin about |height| deep
        assert full.all() and sum(separated) == 0
    _assert_rows_match_one_set_calls(sets[::7])


def _octahedra(count, seed, scales=(1.0,)):
    """`count` randomly rotated sets of the six +-unit axes, each taken at
    every one of `scales`: the origin lies on an edge of every tetrahedron
    of them and inside their hull, 1/sqrt(3) deep, so neither the
    certificate nor a facet answers them."""
    axes = np.vstack([np.eye(3), -np.eye(3)])
    fields = np.vstack([scale * axes for scale in scales])
    return np.array([fields @ _rotation(seed + i).T for i in range(count)])


def _random_families(rng):
    """Direction sets of five kinds, most of them near the cone test's
    boundary: shifted Gaussian sets, Gaussian sets, sets of 4 to 8 fields,
    flattened sets, and sets moved so that the origin lies 1e-7 to 1e-1
    inside or outside a facet of their hull."""
    from scipy.spatial import ConvexHull

    shifted = rng.normal(size=(600, 24, 3)) + rng.normal(size=(600, 1, 3))
    gaussian = rng.normal(size=(200, 24, 3))
    few = [rng.normal(size=(k, 3)) + rng.normal(size=(1, 3)) for k in rng.integers(4, 9, 200)]
    flat = rng.normal(size=(200, 24, 3)) * [1.0, 1.0, 1e-6] + rng.normal(size=(200, 1, 3)) * 1e-6
    near = []
    for height in np.logspace(-7, -1, 100)[:, None] * [1.0, -1.0]:
        for h in height:
            v = rng.normal(size=(24, 3))
            facet = ConvexHull(v).equations[0]  # n . x + c <= 0 inside, |n| = 1
            near.append(v + (facet[3] + h) * facet[:3])  # the origin h inside the facet
    return list(shifted) + list(gaussian) + few + list(flat) + near


def test_cone_test_matches_the_hull_depth_on_random_families(rng):
    # full where scipy's Quickhull puts the origin at least 2e-8 V deep, not
    # full where it is less than 4e-9 V deep or outside
    sets = _random_families(rng) + list(_octahedra(4, 11))
    full = np.array([stlc_test_3d(v).is_full for v in sets])
    depth = np.array([hull_depth(v) for v in sets])
    assert full[depth >= 2e-8].all() and not full[depth < 4e-9].any()
    assert 100 < full.sum() < len(sets) - 100 and full[-4:].all()
    # the stacked call agrees with the one-set calls
    stacked = np.array(sets[:800])
    assert stlc_test_3d(stacked).is_full.tobytes() == full[:800].tobytes()


@pytest.mark.parametrize("angle", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_pointed_cones_are_not_full(angle):
    # 24 unit fields within about `angle` rad of one direction lie in an
    # open half space; the old plane sweep's band called 1 of 200 such sets
    # full at 1e-6 rad
    rng = np.random.default_rng(70)
    axis = rng.normal(size=(200, 1, 3))
    fields = axis / np.linalg.norm(axis, axis=2, keepdims=True)
    fields = fields + angle * rng.normal(size=(200, 24, 3))
    fields /= np.linalg.norm(fields, axis=2, keepdims=True)
    assert not stlc_test_3d(fields).is_full.any()


@pytest.mark.parametrize("depth, full", [(1e-12, False), (1e-10, False), (2e-9, False),
                                         (2e-8, True), (1e-6, True)])
def test_hull_depth_decides_at_half_delta(depth, full, monkeypatch):
    # rotated octahedra moved so that the origin lies `depth` inside the
    # facet (e1, e2, e3), with largest field norm sqrt(2): below
    # 5e-9 sqrt(2) the set is not full, though its hull holds the origin,
    # and no certificate answers it there
    decided, _ = _count_hull_and_separated(monkeypatch)
    normal = np.ones(3) / np.sqrt(3)
    sets = np.array([(np.vstack([np.eye(3), -np.eye(3)]) - (normal / np.sqrt(3) - depth * normal))
                     @ _rotation(seed).T for seed in range(8)])
    deep = [hull_depth(v) * np.linalg.norm(v, axis=1).max() for v in sets]
    assert deep == pytest.approx([depth] * 8, rel=1e-6)
    verdict = stlc_test_3d(sets)
    assert (verdict.is_full == full).all()
    if not full:
        assert sum(decided) == 8


def test_hull_depth_of_a_chunk_stays_small(monkeypatch):
    # a guard on memory: 64 sets of 24 fields that all reach the hull depth
    # (2,024 planes each) stay within 4 MB, as the plane sweep's 3.4 MB did
    sets = _octahedra(64, 20, scales=(1.0, 0.75, 0.5, 0.25))
    decided, _ = _count_hull_and_separated(monkeypatch)
    stlc_test_3d(sets[0])  # builds the triple index once
    decided.clear()
    tracemalloc.start()
    try:
        verdict = stlc_test_3d(sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_full.all() and sum(decided) == 64
    assert peak <= 4e6


def _rotation(seed):
    """Seeded 3x3 rotation, as the benchmark rotates its fans."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


SKIP_FANS = {
    "fibonacci20": (fibonacci_sphere(20), np.zeros(3), 1e-3),
    "rotated20": (fibonacci_sphere(20) @ _rotation(101).T, np.zeros(3), 1e-3),
    "off_origin50": (fibonacci_sphere(50), np.full(3, 0.3), 1e-6),
}


@pytest.mark.parametrize("rays, origin, tol", SKIP_FANS.values(), ids=SKIP_FANS.keys())
def test_skipped_march_points_test_full(chloroform_gen, two_qubit_controls, monkeypatch,
                                        rays, origin, tol):
    # record every point whose fields the tracer hands to the cone test,
    # rebuild each ray's march radii by repeated addition, and test each
    # march point the trace passed over, alone
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    tested = set()

    def recording(A, b, x):
        tested.update(p.tobytes() for p in np.array(x, ndmin=2))
        return stacked_directions(A, b, x)

    with monkeypatch.context() as m:
        m.setattr(under_approx, "stacked_directions", recording)
        radii = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=tol,
                                   origin=origin)
    scale = float(np.linalg.norm(origin))
    step = max(scale, 1.0) / 20.0
    skipped = marched = 0
    for d, radius in zip(rays, radii):
        t = step
        while t <= radius:
            point = origin + t * d
            marched += 1
            if point.tobytes() not in tested:
                skipped += 1
                assert stlc_test_3d(stacked_directions(A, b, point)).is_full, (d, t)
            t += step
    assert marched / 4 < skipped < marched


@pytest.mark.parametrize("shift", [0.0, 2.0 ** 51], ids=["tight", "cancelling"])
def test_skip_keeps_the_lone_march_where_its_bounds_are_tight(shift, monkeypatch):
    # four fields v_k(x) = 3 u_k - (x - B), u_k the vertices of a regular
    # tetrahedron (each an axis extreme, so the tetrahedron certifies): every
    # field moves by exactly L_d = 1 per unit radius, and along a facet
    # normal the depth shrinks at that rate to 0 at radius 1, so a
    # certificate's reach is tight up to its factor 0.88.  At B = 2^51 the
    # fields, about 3 long, cancel against S near 2^53, and rounding the
    # points to multiples of 0.5 (the ulp of 2^51) moves them by up to 0.5
    # per coordinate: the margin's S term must keep the march from passing
    # over points that fail
    u = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    u = u @ _rotation(101).T
    A = np.repeat(np.eye(3)[None], 4, axis=0)
    b = shift + 3.0 * u
    origin = np.full(3, shift)
    rays = (-u[:, None] + 1e-3 * fibonacci_sphere(16)[None]).reshape(-1, 3)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    sizes = []
    with monkeypatch.context() as m:
        m.setattr(under_approx, "stlc_test_3d",
                  lambda directions, start: (sizes.append(len(directions))
                                             or stlc_test_3d(directions, start)))
        radii = under_approx._trace_lockstep(A, b, origin, rays, 0.05, 3.0, 1e-3)
    lone = [first_exit(A, b, origin, d, 0.05, 3.0, 1e-3) for d in rays]
    np.testing.assert_array_equal(radii, lone)
    if not shift:
        assert (radii > 0.95).all() and sum(sizes) < 12 * len(rays)  # lone: 27 each


# ---------------------------------------------------------------------------
# symmetry: the 24 signed permutations Q_k of the diagonal coordinates map the
# field set at x onto the field set at Q_k x, whatever the rates


def test_cone_verdicts_invariant_under_signed_permutations(
    chloroform_gen, two_qubit_controls, rng
):
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    points = rng.normal(size=(200, 3)) * rng.uniform(0.5, 5.0, size=(200, 1))
    verdicts = stlc_test_3d(stacked_directions(A, b, points)).is_full
    assert verdicts.any() and not verdicts.all()
    for q in _diag_reps(two_qubit_controls):
        moved = stlc_test_3d(stacked_directions(A, b, points @ q.T)).is_full
        np.testing.assert_array_equal(moved, verdicts)


def test_traced_radii_invariant_under_signed_permutations(
    chloroform_gen, two_qubit_controls
):
    rays = fibonacci_sphere(5)
    qs = _diag_reps(two_qubit_controls)
    fan = np.concatenate([rays @ q.T for q in qs])
    radii = stlc_boundary_rays(chloroform_gen, two_qubit_controls, fan, tol=1e-4,
                               origin=np.zeros(3)).reshape(len(qs), len(rays))
    for row in radii:
        np.testing.assert_array_equal(row, radii[0])



# ---------------------------------------------------------------------------
# constant-control steady states


def test_vertex_on_identity_is_equilibrium(chloroform_gen, two_qubit_controls):
    identity_idx = two_qubit_controls.perms.index(tuple(range(4)))
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    x = np.linalg.solve(A[identity_idx], b[identity_idx])
    np.testing.assert_allclose(x, [1.0, 4.0, 0.0], atol=1e-10)


def test_vertex_points_stay_inside_sphere(
    chloroform_gen, two_qubit_controls, chloroform_bound
):
    limit = chloroform_bound.radius_sq * (1 + 1e-6)
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    for k in range(24):
        x = np.linalg.solve(A[k], b[k])
        assert float(x @ x) <= limit


# ---------------------------------------------------------------------------
# boundary rays


def test_equilibrium_origin_raises(chloroform_gen, two_qubit_controls):
    rays = fibonacci_sphere(4)
    with pytest.raises(OriginNotControllable):
        stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=1e-2,
                           origin=chloroform_gen.r_eq[list(diag_slots(2))])


def test_rays_from_mixed_state(chloroform_gen, two_qubit_controls, chloroform_bound):
    rays = np.vstack(
        [
            np.ones(3) / np.sqrt(3),
            -chloroform_gen.r_eq[list(diag_slots(2))]
            / np.linalg.norm(chloroform_gen.r_eq),
            np.array([0.0, 1.0, 0.0]),
        ]
    )
    radii = stlc_boundary_rays(
        chloroform_gen,
        two_qubit_controls,
        rays,
        tol=1e-3,
        origin=np.zeros(3),
    )
    assert np.all(radii > 0.5)
    assert np.all(radii ** 2 <= chloroform_bound.radius_sq * (1 + 1e-6))
    # determinism
    radii2 = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, rays, tol=1e-3, origin=np.zeros(3)
    )
    np.testing.assert_array_equal(radii, radii2)


def test_pps_ray_bracketed_by_unitary_and_sphere(
    chloroform_gen, two_qubit_controls, chloroform_bound
):
    from reachset import diagonal_vertex_coords, polytope_ray_exit, polytope_vertices

    d = np.ones(3) / np.sqrt(3)
    radius = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, d[None, :], tol=1e-3, origin=np.zeros(3)
    )[0]
    vertices = polytope_vertices(CoherenceVector(n=2, r=chloroform_gen.r_eq))
    unitary_exit = polytope_ray_exit(diagonal_vertex_coords(vertices), d)
    assert unitary_exit <= radius <= np.sqrt(chloroform_bound.radius_sq)


def test_bounds_nest_across_a_fan(chloroform_gen, two_qubit_controls, chloroform_bound):
    # unitary <= STLC <= sphere on a 60-ray fan and the 24 vertex directions.
    # The vertices are the signed permutations of x_eq, a certified boundary
    # point (acceptance 06), so the polytope touches the STLC boundary at
    # each of them: the traced radius lies within tol below the vertex
    from reachset import diagonal_vertex_coords, polytope_ray_exit, polytope_vertices

    tol = 1e-3
    source = CoherenceVector(n=2, r=chloroform_gen.r_eq)
    coords = diagonal_vertex_coords(polytope_vertices(source))
    norms = np.linalg.norm(coords, axis=1)
    assert len(coords) == 24
    rays = np.vstack([fibonacci_sphere(60), coords / norms[:, None]])
    radii = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=tol,
                               origin=np.zeros(3))
    unitary = np.array([polytope_ray_exit(coords, d) for d in rays])
    assert np.all(unitary <= radii + tol)
    assert np.all(radii ** 2 <= chloroform_bound.radius_sq)
    at_vertex = radii[60:]
    assert np.all(norms - tol <= at_vertex) and np.all(at_vertex <= norms)


def test_ray_validation(chloroform_gen, two_qubit_controls):
    for bad in (
        np.array([[1.0, 1.0, 0.0]]),  # not unit norm
        np.empty((0, 3)),  # no rays
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),  # zero row
        np.array([[np.nan, 0.0, 1.0]]),  # a normalized zero row
    ):
        with pytest.raises(ValidationError):
            stlc_boundary_rays(
                chloroform_gen, two_qubit_controls, bad, origin=np.zeros(3)
            )
    # a one-qubit register: tracing is two-qubit only
    one = AffineGenerator(n=1, Hmat=np.zeros((3, 3)), Rmat=np.eye(3),
                          r_eq=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError, match="n=2"):
        stlc_boundary_rays(one, build_permutation_set(1), np.array([[1.0]]),
                           origin=np.zeros(1))
    # an origin that is not a finite point of the three diagonal coordinates
    # (a length-2 origin once ended in a raw numpy broadcast error)
    for origin in (np.zeros(2), np.zeros((1, 3)), [0.0, np.nan, 0.0], [np.inf, 0.0, 0.0],
                   "abc", None):
        with pytest.raises(ValidationError, match="origin"):
            stlc_boundary_rays(chloroform_gen, two_qubit_controls, fibonacci_sphere(1),
                               origin=origin)
    # a bisection tolerance that never ends the loop, or never starts it
    for tol in (np.nan, np.inf, -1.0, 0.0):
        with pytest.raises(ValidationError, match="tol"):
            stlc_boundary_rays(
                chloroform_gen, two_qubit_controls, fibonacci_sphere(1),
                tol=tol, origin=np.zeros(3),
            )


def test_parallel_rays_match_serial(chloroform_gen, two_qubit_controls):
    rays = fibonacci_sphere(4)
    serial = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, rays, tol=1e-2,
        origin=np.zeros(3), workers=1,
    )
    parallel = stlc_boundary_rays(
        chloroform_gen, two_qubit_controls, rays, tol=1e-2,
        origin=np.zeros(3), workers=2,
    )
    np.testing.assert_array_equal(serial, parallel)


def test_worker_count_validated(chloroform_gen, two_qubit_controls):
    for workers in (0, -3, 1.5, "2", None, True, np.float64(1.0)):
        with pytest.raises(ValidationError, match="workers"):
            stlc_boundary_rays(chloroform_gen, two_qubit_controls, fibonacci_sphere(1),
                               origin=np.zeros(3), workers=workers)


class _RecordingContext:
    """A stand-in for the spawn context: records pool sizes, maps serially."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes):
        self.processes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, items):
        return [fn(*it) for it in items]


def test_pool_never_exceeds_available_cpus(
    monkeypatch, chloroform_gen, two_qubit_controls
):
    ctx = _RecordingContext()
    monkeypatch.setattr(parallel, "get_context", lambda method: ctx)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert parallel.parallel_map(pow, [(k, 2) for k in range(10)], 1000) == [
        k * k for k in range(10)]
    assert parallel.parallel_map(pow, [(3, 2), (4, 2)], 1000) == [9, 16]
    assert parallel.parallel_map(pow, [(3, 2)], 1000) == [9]  # serial, no pool
    assert ctx.processes == [3, 2]
    rays = fibonacci_sphere(7)
    serial = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=1e-2,
                                origin=np.zeros(3))
    capped = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=1e-2,
                                origin=np.zeros(3), workers=1000)
    assert ctx.processes == [3, 2, 3]  # one lockstep part per process
    np.testing.assert_array_equal(capped, serial)



@pytest.fixture(scope="module")
def reference_fan(chloroform_gen, two_qubit_controls):
    """200 rays traced one by one, one cone test per point."""
    rays = fibonacci_sphere(200)
    return rays, boundary_rays_one_by_one(chloroform_gen, two_qubit_controls, rays,
                                          tol=1e-2, origin=np.zeros(3))


@pytest.mark.parametrize("count", [1, 64, 65, 200])
def test_lockstep_radii_match_one_by_one_tracing(
    chloroform_gen, two_qubit_controls, reference_fan, count
):
    rays, reference = reference_fan
    radii = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays[:count],
                               tol=1e-2, origin=np.zeros(3))
    np.testing.assert_array_equal(radii, reference[:count])


@pytest.mark.parametrize("tol, workers", [(1e-5, 1), (1e-20, 1), (1e-3, 2)])
def test_lockstep_radii_match_one_by_one_at_fine_tol_and_in_parallel(
    chloroform_gen, two_qubit_controls, tol, workers
):
    # 1e-20 lies below the radius' ulp: bisection ends on a one-ulp bracket
    rays = fibonacci_sphere(5)
    origin = np.array([0.1, -0.2, 0.05])
    radii = stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=tol,
                               origin=origin, workers=workers)
    reference = boundary_rays_one_by_one(chloroform_gen, two_qubit_controls, rays,
                                         tol=tol, origin=origin)
    np.testing.assert_array_equal(radii, reference)


def test_rays_without_exit_report_the_cutoff(chloroform_gen, two_qubit_controls):
    # a cutoff below the first exit: every ray marches to it, in lockstep
    # as one by one
    gen = chloroform_gen
    rays = fibonacci_sphere(3)
    A, b = projected_field_stack(gen, two_qubit_controls.reps_full)
    lockstep = under_approx._trace_lockstep(A, b, np.zeros(3), rays, 0.05, 0.3, 1e-3)
    reference = [first_exit(A, b, np.zeros(3), d, 0.05, 0.3, 1e-3) for d in rays]
    np.testing.assert_array_equal(lockstep, reference)
    np.testing.assert_array_equal(lockstep, 0.3)


def _lockstep_and_lone(gen, controls, rays, step, max_radius, tol):
    A, b = projected_field_stack(gen, controls.reps_full)
    lockstep = under_approx._trace_lockstep(A, b, np.zeros(3), rays, step, max_radius, tol)
    reference = [first_exit(A, b, np.zeros(3), d, step, max_radius, tol) for d in rays]
    np.testing.assert_array_equal(lockstep, reference)
    return lockstep


@pytest.mark.parametrize("max_radius", [2.25, 3.75])
def test_look_ahead_stops_at_a_cutoff_between_its_radii(
    chloroform_gen, two_qubit_controls, max_radius
):
    # 20 marching rays look 3 radii ahead: 0.5, 1, 1.5 | 2, 2.5, 3 | 3.5, 4, 4.5,
    # so each cutoff falls inside a round; the first exits lie near 3.45-4.07
    radii = _lockstep_and_lone(chloroform_gen, two_qubit_controls,
                               fibonacci_sphere(20), 0.5, max_radius, 1e-3)
    if max_radius == 2.25:
        np.testing.assert_array_equal(radii, 2.25)
    else:
        assert (radii == 3.75).any() and (radii < 3.5).any()


def test_look_ahead_ray_that_fails_its_first_march_point(
    chloroform_gen, two_qubit_controls
):
    # a march step beyond every exit: each ray brackets [0, step] at once
    radii = _lockstep_and_lone(chloroform_gen, two_qubit_controls,
                               fibonacci_sphere(4), 5.0, 13.0, 1e-3)
    assert (radii > 3.0).all() and (radii < 5.0).all()


def test_look_ahead_call_holds_march_points_and_midpoints(
    chloroform_gen, two_qubit_controls, monkeypatch
):
    stacks = []
    stacked = under_approx.stacked_directions
    monkeypatch.setattr(under_approx, "stacked_directions",
                        lambda A, b, x: stacks.append(np.array(x, ndmin=2)) or stacked(A, b, x))
    step = 0.05
    _lockstep_and_lone(chloroform_gen, two_qubit_controls, fibonacci_sphere(20),
                       step, 13.0, 1e-2)
    assert len(stacks[0]) == 3 * 20  # 20 marching rays, 3 radii each
    assert all(len(points) <= under_approx.CHUNK for points in stacks)
    # march radii are multiples of the step, bisection midpoints are not
    multiples = [np.linalg.norm(points, axis=1) / step for points in stacks]
    on_grid = [np.abs(m - np.round(m)) < 1e-6 for m in multiples]
    assert any(g.any() and not g.all() for g in on_grid)



def test_fibonacci_sphere_properties():
    dirs = fibonacci_sphere(50)
    assert dirs.shape == (50, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(dirs, fibonacci_sphere(50))
    # 2.5 once gave 3 directions, and True one
    for count in (0, -1, 2.5, True, np.float64(3.0)):
        with pytest.raises(ValidationError, match="direction count"):
            fibonacci_sphere(count)
    assert fibonacci_sphere(np.int64(3)).tobytes() == fibonacci_sphere(3).tobytes()

