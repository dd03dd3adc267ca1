import numpy as np
import pytest

from reachset import (
    AffineGenerator,
    CoherenceVector,
    ContractivityViolation,
    ValidationError,
    build_basis,
    evolve,
    lindblad_to_bloch,
    purity,
    purity_rate,
)
from reachset.dynamics import affine_trajectory

from conftest import random_density_matrix
from oracles import lindblad_dissipator, rk4_evolve, superoperator_matrix


def zz_coupling(J=214.5):
    basis = build_basis(2)
    return np.pi * J / 2 * basis.matrices[basis.labels.index("ZZ")]


def test_pure_coupling_rejected_without_unital_flag():
    with pytest.raises(ContractivityViolation):
        lindblad_to_bloch(zz_coupling(), None)


def test_pure_coupling_unital_structure():
    gen = lindblad_to_bloch(zz_coupling(), None, unital=True)
    basis = build_basis(2)
    assert np.abs(gen.Rmat).max() == 0.0
    piJ = np.pi * 214.5
    block = [basis.index(lab) for lab in ("XI", "YI", "XZ", "YZ")]
    sub = gen.Hmat[np.ix_(block, block)]
    expected = piJ * np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(sub, expected, atol=1e-9)
    # nothing couples population coordinates
    pop = [basis.index(lab) for lab in ("ZI", "IZ", "ZZ")]
    assert np.abs(gen.Hmat[pop, :]).max() < 1e-12


def test_amplitude_damping_bloch_form():
    gamma = 0.7
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    diss = lindblad_dissipator([np.sqrt(gamma) * sigma_minus])
    gen = lindblad_to_bloch(np.zeros((2, 2)), diss)
    np.testing.assert_allclose(
        gen.Rmat, np.diag([gamma / 2, gamma / 2, gamma]), atol=1e-12
    )
    np.testing.assert_allclose(gen.r_eq, [0.0, 0.0, 0.5], atol=1e-12)
    # brute-force superoperator matrix agrees on the traceless block
    m = superoperator_matrix(diss, 1)
    np.testing.assert_allclose(-m[1:, 1:], gen.Rmat, atol=1e-12)
    np.testing.assert_allclose(m[1:, 0] / 2, gen.v, atol=1e-12)


def test_dissipator_preserves_trace_on_random_states(rng):
    gamma = 0.3
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    diss = lindblad_dissipator([np.sqrt(gamma) * sigma_minus])
    for _ in range(10):
        rho = random_density_matrix(rng, 1)
        assert abs(np.trace(diss(rho))) < 1e-12


def test_evolve_fixed_point_and_t0(chloroform_gen):
    r_eq = CoherenceVector(n=2, r=chloroform_gen.r_eq)
    out = evolve(chloroform_gen, r_eq, 3.7)
    np.testing.assert_allclose(out.r, r_eq.r, atol=1e-12)
    r0 = CoherenceVector(n=2, r=np.linspace(-0.2, 0.2, 15))
    np.testing.assert_allclose(evolve(chloroform_gen, r0, 0.0).r, r0.r, atol=1e-14)


def test_evolve_composes(chloroform_gen, rng):
    r0 = CoherenceVector(n=2, r=rng.normal(size=15) * 0.1)
    two_steps = evolve(chloroform_gen, evolve(chloroform_gen, r0, 0.8), 0.6)
    direct = evolve(chloroform_gen, r0, 1.4)
    np.testing.assert_allclose(two_steps.r, direct.r, atol=1e-9)


def test_evolve_matches_rk4(chloroform_gen, rng):
    r0 = CoherenceVector(n=2, r=rng.normal(size=15) * 0.3)
    exact = evolve(chloroform_gen, r0, 1.0)
    rk = rk4_evolve(chloroform_gen, r0, 1.0, 200_000)
    np.testing.assert_allclose(exact.r, rk.r, atol=1e-8)


def test_affine_trajectory_matches_expm_per_time(rng):
    # the eigendecomposition branch (exactly symmetric A) and the expm branch
    # (A with an antisymmetric part) both reproduce e^{At} (x0 - x*) + x*
    from scipy.linalg import expm

    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    sym = -(q * rng.uniform(0.1, 2.0, size=4)) @ q.T
    sym = 0.5 * (sym + sym.T)
    skew = rng.normal(size=(4, 4))
    x_fix, x0 = rng.normal(size=4), rng.normal(size=4)
    times = np.linspace(0.0, 3.0, 7)
    for A in (sym, sym + skew - skew.T):
        expected = [expm(A * t) @ (x0 - x_fix) + x_fix for t in times]
        got = affine_trajectory(A, x_fix, x0, times)
        assert got.shape == (7, 4)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)


def test_free_relaxation_contracts_monotonically(chloroform_gen):
    r0 = CoherenceVector(n=2, r=np.zeros(15))
    r_eq = chloroform_gen.r_eq
    dists = []
    for t in np.linspace(0.0, 40.0, 20):
        dists.append(np.linalg.norm(evolve(chloroform_gen, r0, t).r - r_eq))
    assert all(b < a for a, b in zip(dists, dists[1:]))


def test_purity_values(chloroform_gen):
    assert purity(CoherenceVector(n=2, r=np.zeros(15))) == pytest.approx(0.25)
    assert purity(CoherenceVector(n=1, r=np.array([0, 0, 0.5]))) == pytest.approx(1.0)
    p = purity(CoherenceVector(n=2, r=chloroform_gen.r_eq))
    assert p == pytest.approx(0.25 + 4 * 17, rel=1e-12)  # 1/4 + 4(1 + 16)
    # cross-check against Tr rho^2 by matrix square
    from reachset import decode

    rho = decode(CoherenceVector(n=2, r=chloroform_gen.r_eq))
    assert p == pytest.approx(np.trace(rho @ rho).real, rel=1e-12)


def test_purity_rate_signs(chloroform_gen):
    r_eq = chloroform_gen.r_eq
    assert purity_rate(chloroform_gen, CoherenceVector(n=2, r=r_eq)) == pytest.approx(
        0.0, abs=1e-12
    )
    assert purity_rate(chloroform_gen, CoherenceVector(n=2, r=2 * r_eq)) < 0
    assert purity_rate(chloroform_gen, CoherenceVector(n=2, r=r_eq / 2)) > 0


def test_purity_rate_matches_finite_differences(chloroform_gen, rng):
    r0 = CoherenceVector(n=2, r=rng.normal(size=15) * 0.5)
    rate = purity_rate(chloroform_gen, r0)
    errs = {}
    for h in (1e-4, 1e-5):
        fd = (purity(evolve(chloroform_gen, r0, h)) - purity(r0)) / h
        errs[h] = abs(rate - fd)
    # first-order convergence: one constant C bounds err <= C h at both h
    c_est = errs[1e-4] / 1e-4
    assert errs[1e-5] <= 1.2 * c_est * 1e-5
    assert errs[1e-5] <= 0.02 * max(1.0, abs(rate))


def test_unital_purity_never_increases(rng):
    gamma = 0.4
    Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    gen = lindblad_to_bloch(
        np.zeros((2, 2)), lindblad_dissipator([np.sqrt(gamma) * Z]), unital=True
    )
    assert not np.any(gen.r_eq)
    for _ in range(100):
        r = rng.normal(size=3) * 0.2
        assert purity_rate(gen, CoherenceVector(n=1, r=r)) <= 1e-14


def test_contractivity_quadratic_form(chloroform_gen, rng):
    R = chloroform_gen.Rmat
    r_eq = chloroform_gen.r_eq
    for _ in range(100):
        r = rng.normal(size=15)
        if np.linalg.norm(r - r_eq) < 1e-9:
            continue
        assert (r - r_eq) @ (R @ (r - r_eq)) > 0


def test_generator_validation():
    eye = np.eye(3)
    with pytest.raises(ValidationError):
        AffineGenerator(n=1, Hmat=eye, Rmat=eye, r_eq=np.zeros(3))  # H not antisym
    asym = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]])
    bad_r = asym.copy()
    with pytest.raises(ValidationError):
        AffineGenerator(n=1, Hmat=asym, Rmat=bad_r, r_eq=np.zeros(3))
    with pytest.raises(ContractivityViolation):
        AffineGenerator(n=1, Hmat=asym, Rmat=-eye, r_eq=np.zeros(3))
    with pytest.raises(ValidationError):
        AffineGenerator(
            n=1, Hmat=asym, Rmat=eye, r_eq=np.zeros(3), v=np.ones(3)
        )


def test_generator_json_round_trip(chloroform_gen):
    d = chloroform_gen.to_json_dict()
    gen2 = AffineGenerator.from_json_dict(d)
    np.testing.assert_allclose(gen2.Hmat, chloroform_gen.Hmat, atol=1e-15)
    np.testing.assert_allclose(gen2.Rmat, chloroform_gen.Rmat, atol=1e-15)
    np.testing.assert_allclose(gen2.r_eq, chloroform_gen.r_eq, atol=1e-15)
