import numpy as np
import pytest

from reachset import (
    AffineGenerator,
    CoherenceVector,
    OriginNotControllable,
    SingularCombination,
    ValidationError,
    build_permutation_set,
    diag_slots,
    fibonacci_sphere,
    hypersurface_point,
    stlc_boundary_rays,
    stlc_test_3d,
    stlc_test_lp,
)
from reachset.diagonal import projected_field_stack, stacked_directions


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
    assert not verdict.is_full
    # witness points against the positive-x1 half space
    assert verdict.witness is not None
    assert (dirs @ verdict.witness).max() <= 1e-10
    assert verdict.witness[0] < -0.5


def test_lp_one_dimensional():
    assert stlc_test_lp(np.array([[1.0], [-1.0]])).is_full
    verdict = stlc_test_lp(np.array([[1.0], [2.0]]))
    assert not verdict.is_full


def test_lp_upper_half_plane():
    rng = np.random.default_rng(4)
    dirs = rng.normal(size=(12, 2))
    dirs[:, 1] = np.abs(dirs[:, 1])
    verdict = stlc_test_lp(dirs)
    assert not verdict.is_full
    assert (dirs @ verdict.witness).max() <= 1e-9
    assert verdict.witness[1] < -0.5


def test_rank_deficient_directions():
    dirs = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    for verdict in (stlc_test_3d(dirs), stlc_test_lp(dirs)):
        assert not verdict.is_full
        assert abs(abs(verdict.witness[2]) - 1.0) < 1e-9


def test_triple_product_agrees_with_lp(rng):
    for _ in range(60):
        dirs = rng.normal(size=(24, 3))
        assert stlc_test_3d(dirs).is_full == stlc_test_lp(dirs).is_full


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
# hypersurfaces


def test_vertex_on_identity_is_equilibrium(chloroform_gen, two_qubit_controls):
    identity_idx = two_qubit_controls.perms.index(tuple(range(4)))
    sigma = [identity_idx, 3, 7]
    mu = [1.0, 0.0, 0.0]
    x = hypersurface_point(chloroform_gen, two_qubit_controls, sigma, mu)
    np.testing.assert_allclose(x, [1.0, 4.0, 0.0], atol=1e-10)


def test_centroid_matches_direct_solve(chloroform_gen, two_qubit_controls):
    sigma = [2, 9, 17]
    mu = np.ones(3) / 3
    x = hypersurface_point(chloroform_gen, two_qubit_controls, sigma, mu)
    A, b = projected_field_stack(
        chloroform_gen, two_qubit_controls.reps_full[sigma]
    )
    Aw = np.tensordot(mu, A, axes=1)
    bw = mu @ b
    np.testing.assert_allclose(x, np.linalg.solve(Aw, bw), atol=1e-12)


def test_vertex_points_stay_inside_sphere(
    chloroform_gen, two_qubit_controls, chloroform_bound
):
    limit = chloroform_bound.radius_sq * (1 + 1e-6)
    for k in range(24):
        x = hypersurface_point(
            chloroform_gen, two_qubit_controls, [k, (k + 1) % 24, (k + 2) % 24],
            [1.0, 0.0, 0.0],
        )
        assert float(x @ x) <= limit


def test_singular_combination_detected():
    gen = AffineGenerator(
        n=1,
        Hmat=np.zeros((3, 3)),
        Rmat=np.zeros((3, 3)),
        r_eq=np.zeros(3),
        unital=True,
    )
    controls = build_permutation_set(1)
    with pytest.raises(SingularCombination):
        hypersurface_point(gen, controls, [0], [1.0])


def test_hypersurface_weight_validation(chloroform_gen, two_qubit_controls):
    with pytest.raises(ValidationError):
        hypersurface_point(chloroform_gen, two_qubit_controls, [0, 1], [0.5, 0.5])
    with pytest.raises(ValidationError):
        hypersurface_point(
            chloroform_gen, two_qubit_controls, [0, 1, 2], [0.5, 0.6, 0.5]
        )


# ---------------------------------------------------------------------------
# boundary rays


def test_equilibrium_origin_raises(chloroform_gen, two_qubit_controls):
    rays = fibonacci_sphere(4)
    with pytest.raises(OriginNotControllable):
        stlc_boundary_rays(chloroform_gen, two_qubit_controls, rays, tol=1e-2)


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


def test_fibonacci_sphere_properties():
    dirs = fibonacci_sphere(50)
    assert dirs.shape == (50, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(dirs, fibonacci_sphere(50))
    with pytest.raises(ValidationError):
        fibonacci_sphere(0)
