import numpy as np
import pytest

from reachset import (
    AffineGenerator,
    ValidationError,
    build_basis,
    diag_labels,
    diag_slots,
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


def test_free_field_vanishes_at_equilibrium(chloroform_gen):
    x_eq = chloroform_gen.r_eq[list(diag_slots(2))]
    A, b = projected_field_stack(chloroform_gen, [unitary_rep(np.eye(4))])
    np.testing.assert_allclose(stacked_directions(A, b, x_eq), 0.0, atol=1e-12)


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
        embedded = np.zeros(15)
        embedded[slots] = x
        r_full = rep_full @ embedded
        rdot = chloroform_gen.drift @ r_full + chloroform_gen.v
        oracle = (rep_full.T @ rdot)[slots]
        np.testing.assert_allclose(
            stacked_directions(A, b, x)[k], oracle, atol=1e-10
        )


def test_projected_field_stack_is_the_slice_of_the_full_product(
    chloroform_gen, two_qubit_controls
):
    # A and b come from the diagonal columns of each representation only;
    # they must be bit for bit the diagonal block of the full (K, 15, 15)
    # product U^T R U and the diagonal entries of U^T R r_eq
    rng = np.random.default_rng(11)
    m = rng.normal(size=(15, 15))
    spd = AffineGenerator(n=2, Hmat=np.zeros((15, 15)), Rmat=m @ m.T + 0.1 * np.eye(15),
                          r_eq=rng.normal(size=15))
    slots = list(diag_slots(2))
    reps = two_qubit_controls.reps_full
    for gen in (chloroform_gen, spd):
        A, b = projected_field_stack(gen, reps)
        full = np.einsum("kia,ij,kjb->kab", reps, gen.Rmat, reps)
        assert A.tobytes() == full[:, slots, :][:, :, slots].tobytes()
        assert b.tobytes() == np.einsum("kia,i->ka", reps, gen.Rmat @ gen.r_eq)[:, slots].tobytes()


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
    x_eq = chloroform_gen.r_eq[list(diag_slots(2))]
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


def test_stacked_directions_of_a_point_stack(chloroform_gen, two_qubit_controls, rng):
    # one direction set per point, each bit for bit the one-point call
    A, b = projected_field_stack(chloroform_gen, two_qubit_controls.reps_full)
    points = rng.normal(size=(4, 5, 3)) * 3.0
    stack = stacked_directions(A, b, points)
    assert stack.shape == (4, 5, 24, 3)
    for idx in np.ndindex(4, 5):
        assert stack[idx].tobytes() == stacked_directions(A, b, points[idx]).tobytes()


def test_dimension_guard(chloroform_gen):
    with pytest.raises(ValidationError):
        projected_field_stack(chloroform_gen, [unitary_rep(np.eye(2))])
