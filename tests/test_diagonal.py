import numpy as np
import pytest

from reachset import (
    AffineGenerator,
    CoherenceVector,
    DiagonalVector,
    ValidationError,
    build_basis,
    diag_labels,
    diag_slots,
    embed,
    project,
    unitary_rep,
)
from reachset.diagonal import projected_field_stack, stacked_directions


def test_diag_slots_orders():
    basis1 = build_basis(1)
    assert diag_labels(1) == ("Z",)
    assert diag_slots(1) == (basis1.index("Z"),)
    assert diag_labels(2) == ("ZI", "IZ", "ZZ")
    basis2 = build_basis(2)
    assert diag_slots(2) == tuple(basis2.index(lab) for lab in ("ZI", "IZ", "ZZ"))
    labels3 = diag_labels(3)
    assert len(labels3) == 7
    assert all(set(lab) <= {"I", "Z"} and "Z" in lab for lab in labels3)
    assert labels3[:3] == ("ZII", "IZI", "IIZ")


def test_embed_project_round_trip(rng):
    x = DiagonalVector(n=2, x=rng.normal(size=3))
    v = embed(x)
    assert np.count_nonzero(v.r) == 3
    np.testing.assert_array_equal(project(v).x, x.x)


def test_free_field_vanishes_at_equilibrium(chloroform_gen):
    x_eq = project(CoherenceVector(n=2, r=chloroform_gen.r_eq))
    A, b = projected_field_stack(chloroform_gen, [unitary_rep(np.eye(4))])
    np.testing.assert_allclose(stacked_directions(A, b, x_eq.x), 0.0, atol=1e-12)


def test_far_states_flow_inward(chloroform_gen, two_qubit_controls, rng):
    # outside the purity sphere every admissible direction loses radius
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    for _ in range(20):
        x = rng.normal(size=3)
        x *= 10.0 / np.linalg.norm(x)
        dirs = stacked_directions(A, b, x)
        assert (dirs @ x).max() < 0
    assert A.shape == (24, 3, 3) and b.shape == (24, 3)


def test_projected_field_matches_full_space_restriction(
    chloroform_gen, two_qubit_controls, rng
):
    slots = list(diag_slots(2))
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    for k in (1, 5, 17):
        rep_full = two_qubit_controls.reps_full[k]
        x = rng.normal(size=3)
        # full-space oracle: rotate the embedded state, evolve, pull back
        r_full = rep_full @ embed(DiagonalVector(n=2, x=x)).r
        rdot = chloroform_gen.drift @ r_full + chloroform_gen.v
        oracle = (rep_full.T @ rdot)[slots]
        np.testing.assert_allclose(
            stacked_directions(A, b, x)[k], oracle, atol=1e-10
        )


def test_coherent_part_does_not_contribute(chloroform_gen, two_qubit_controls, rng):
    stripped = AffineGenerator(
        n=2,
        Hmat=np.zeros((15, 15)),
        Rmat=chloroform_gen.Rmat,
        r_eq=chloroform_gen.r_eq,
    )
    x = rng.normal(size=3)
    reps = two_qubit_controls.reps_full[[0, 3, 11]]
    with_h = stacked_directions(*projected_field_stack(chloroform_gen, reps), x)
    without = stacked_directions(*projected_field_stack(stripped, reps), x)
    np.testing.assert_allclose(with_h, without, atol=1e-12)


def test_stacked_directions_order_and_duplicates(chloroform_gen, two_qubit_controls):
    x_eq = project(CoherenceVector(n=2, r=chloroform_gen.r_eq)).x
    controls = two_qubit_controls.reps_full
    dirs = stacked_directions(*projected_field_stack(chloroform_gen, controls), x_eq)
    assert dirs.shape == (24, 3)

    # order follows the controls: each row is that control's own field
    for k in (0, 7, 23):
        single = stacked_directions(
            *projected_field_stack(chloroform_gen, [controls[k]]), x_eq
        )
        np.testing.assert_array_equal(single[0], dirs[k])

    dup = stacked_directions(
        *projected_field_stack(chloroform_gen, [controls[3], controls[3]]), x_eq
    )
    np.testing.assert_array_equal(dup[0], dup[1])


def test_dimension_guard(chloroform_gen):
    with pytest.raises(ValidationError):
        projected_field_stack(chloroform_gen, [unitary_rep(np.eye(2))])
