import warnings

import numpy as np
import pytest

from reachset import (
    CoherenceVector,
    GateStep,
    ValidationError,
    build_basis,
    build_permutation_set,
    decode,
    encode,
    unitary_rep,
)

from conftest import haar_unitary, random_density_matrix
from oracles import unitary_rep_reference


def test_single_qubit_basis():
    basis = build_basis(1)
    assert basis.labels == ("I", "X", "Y", "Z")
    X, Y = basis.matrices[1], basis.matrices[2]
    assert abs(np.trace(X @ Y)) == 0
    assert np.trace(X @ X).real / 2 == 1.0


def test_two_qubit_basis_traceless():
    basis = build_basis(2)
    assert len(basis.labels) == 16
    for mat in basis.matrices[1:]:
        assert abs(np.trace(mat)) < 1e-15


def test_gram_matrix_is_identity():
    basis = build_basis(2)
    gram = np.einsum("kab,jba->kj", basis.matrices, basis.matrices).real / 4
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-14)


@pytest.mark.parametrize("n", [0, 5, 2.5, True, np.float64(2.0)])
def test_basis_size_guard(n):
    with pytest.raises(ValidationError, match="qubit count"):
        build_basis(n)


def test_encode_maximally_mixed():
    v = encode(np.eye(4) / 4)
    assert v.n == 2
    np.testing.assert_allclose(v.r, 0.0, atol=1e-15)


def test_encode_thermal_two_spin():
    eps = 1e-5
    basis = build_basis(2)
    rho = np.eye(4) / 4 + eps * basis.matrices[basis.labels.index("ZI")] \
        + 4 * eps * basis.matrices[basis.labels.index("IZ")]
    v = encode(rho)
    nonzero = {basis.labels[k + 1]: x for k, x in enumerate(v.r) if abs(x) > 1e-12}
    assert set(nonzero) == {"ZI", "IZ"}
    assert nonzero["ZI"] == pytest.approx(eps, abs=1e-12)
    assert nonzero["IZ"] == pytest.approx(4 * eps, abs=1e-12)


def test_encode_ground_state_single_qubit():
    v = encode(np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(v.r, [0.0, 0.0, 0.5], atol=1e-15)


def test_encode_rejects_bad_input():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        encode(bad)
    with pytest.raises(ValidationError):
        encode(np.eye(2))  # trace 2


def test_encode_hermiticity_check_is_absolute():
    # the uniform superposition's entries are all 1/4, so a relative
    # tolerance of 1e-5 once passed a 1e-6 asymmetry
    rho = np.full((4, 4), 0.25, dtype=complex)
    encode(rho + np.triu(np.full((4, 4), 1e-12), 1))
    rho[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="Hermitian"):
        encode(rho)


def test_decode_trivial_cases():
    np.testing.assert_allclose(
        decode(CoherenceVector(n=2, r=np.zeros(15))), np.eye(4) / 4, atol=1e-15
    )
    v = CoherenceVector(n=1, r=np.array([0.0, 0.0, 0.5]))
    np.testing.assert_allclose(decode(v), np.diag([1.0, 0.0]), atol=1e-15)


def test_decode_length_guard():
    with pytest.raises(ValidationError):
        CoherenceVector(n=2, r=np.zeros(7))


def test_encode_decode_round_trip(rng):
    for _ in range(100):
        n = int(rng.integers(1, 3))
        rho = random_density_matrix(rng, n)
        np.testing.assert_allclose(decode(encode(rho)), rho, atol=1e-10)


def test_unitary_rep_identity():
    rep = unitary_rep(np.eye(4))
    np.testing.assert_allclose(rep, np.eye(15), atol=1e-14)


def test_unitary_rep_cnot_maps_iz_to_zz():
    basis = build_basis(2)
    cnot = np.zeros((4, 4))
    cnot[0, 0] = cnot[1, 1] = 1.0
    cnot[2, 3] = cnot[3, 2] = 1.0
    rep = unitary_rep(cnot)
    iz, zz, zi = (basis.index(lab) for lab in ("IZ", "ZZ", "ZI"))
    src = np.zeros(15)
    src[iz] = 1.0
    out = rep @ src
    assert out[zz] == pytest.approx(1.0, abs=1e-12)
    assert abs(out[iz]) < 1e-12
    src_zi = np.zeros(15)
    src_zi[zi] = 1.0
    np.testing.assert_allclose(rep @ src_zi, src_zi, atol=1e-12)


def test_unitary_rep_preserves_norm(rng):
    for _ in range(10):
        rep = unitary_rep(haar_unitary(rng, 4))
        r = rng.normal(size=15)
        assert np.linalg.norm(rep @ r) == pytest.approx(
            np.linalg.norm(r), abs=1e-10
        )


def test_unitary_rep_is_homomorphism(rng):
    for _ in range(20):
        u, w = haar_unitary(rng, 4), haar_unitary(rng, 4)
        lhs = unitary_rep(u @ w)
        rhs = unitary_rep(u) @ unitary_rep(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_unitary_rep_rejects_nonunitary():
    with pytest.raises(ValidationError):
        unitary_rep(np.diag([1.0, 2.0]))


def test_unitary_rep_unitarity_check_is_absolute(rng):
    # U^dag U off by 8e-6 once passed under numpy's default rtol = 1e-5
    U = haar_unitary(rng, 4)
    unitary_rep(U * (1 + 1e-12))
    with pytest.raises(ValidationError, match="not unitary"):
        unitary_rep(U * (1 + 4e-6))


def test_unitary_rep_of_a_stack_matches_one_by_one(rng):
    stack = np.array([[haar_unitary(rng, 4) for _ in range(3)] for _ in range(2)])
    reps = unitary_rep(stack)
    assert reps.shape == (2, 3, 15, 15)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(reps[i, j], unitary_rep(stack[i, j]))


def test_unitary_rep_rejects_a_stack_with_one_nonunitary(rng):
    stack = np.array([haar_unitary(rng, 4) for _ in range(5)])
    unitary_rep(stack)
    stack[3] = np.diag([1.0, 1.0, 1.0, 1.001])
    with pytest.raises(ValidationError, match="not unitary"):
        unitary_rep(stack)
    with pytest.raises(ValidationError, match="4x4"):
        unitary_rep(np.zeros((5, 4, 3)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", [(), (5,), (2, 3)])
def test_unitary_rep_matches_the_einsum_oracle(rng, n, shape):
    d = 2 ** n
    stack = np.array([haar_unitary(rng, d) for _ in range(int(np.prod(shape)))])
    stack = stack.reshape(shape + (d, d))
    rep = unitary_rep(stack)
    assert rep.shape == shape + (4 ** n - 1, 4 ** n - 1)
    assert np.abs(rep - unitary_rep_reference(stack)).max() <= 4e-16
    # each rep passes GateStep's orthogonality check
    GateStep(rep=rep)
    excess = rep.swapaxes(-1, -2) @ rep - np.eye(4 ** n - 1)
    assert np.abs(excess).max() <= 1e-9


def test_unitary_rep_of_permutations_is_exact():
    # 0/1 entries times {0, +-1, +-i}: every product and sum is exact, so
    # reps_full, and every radius traced from it, keeps the oracle's bits
    controls = build_permutation_set(2)
    P = np.zeros((24, 4, 4), dtype=complex)
    P[np.arange(24)[:, None], controls.perms, np.arange(4)] = 1.0
    assert np.array_equal(unitary_rep(P), unitary_rep_reference(P))
    assert np.array_equal(controls.reps_full, unitary_rep_reference(P))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_unitary_rep_refuses_non_finite_entries_without_a_warning(rng, bad):
    one = np.eye(4, dtype=complex)
    one[1, 2] = bad
    stack = np.array([haar_unitary(rng, 4) for _ in range(5)])
    stack[3, 0, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for U in (one, stack):
            with pytest.raises(ValidationError, match="not unitary"):
                unitary_rep(U)


def test_unitary_rep_of_an_empty_stack():
    rep = unitary_rep(np.zeros((0, 4, 4)))
    assert rep.shape == (0, 15, 15)


def test_conjugation_matches_rep(rng):
    u = haar_unitary(rng, 4)
    rep = unitary_rep(u)
    rho = random_density_matrix(rng, 2)
    lhs = encode(u @ rho @ u.conj().T).r
    rhs = rep @ encode(rho).r
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_coherence_vector_json_round_trip(rng):
    v = CoherenceVector(n=2, r=rng.normal(size=15))
    d = v.to_json_dict()
    assert d["order"] == "lex-IXYZ"
    w = CoherenceVector.from_json_dict(d)
    np.testing.assert_array_equal(v.r, w.r)
    with pytest.raises(ValidationError):
        CoherenceVector.from_json_dict({"n": 2, "order": "other", "r": list(v.r)})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_coherence_vector_entries_are_finite(bad):
    # kappa_unitary_max and polytope_vertices once ended in a raw LinAlgError
    r = np.zeros(15)
    r[3] = bad
    with pytest.raises(ValidationError, match="entries must be finite"):
        CoherenceVector(n=2, r=r)
    with pytest.raises(ValidationError, match="entries must be finite"):
        CoherenceVector.from_json_dict({"n": 2, "r": list(r)})
