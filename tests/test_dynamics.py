import numpy as np
import pytest

from reachset import (
    AffineGenerator,
    CoherenceVector,
    ContractivityViolation,
    ValidationError,
    build_basis,
    lindblad_to_bloch,
    purity,
    purity_rate,
)
from reachset.chloroform import CHLOROFORM, simulate_block
from reachset.dynamics import EIG_COND_MAX, affine_trajectory, relax_propagator

from conftest import random_density_matrix
from oracles import lindblad_dissipator, rk4_evolve, superoperator_matrix


def zz_coupling(J=214.5):
    basis = build_basis(2)
    return np.pi * J / 2 * basis.matrices[basis.labels.index("ZZ")]


def test_pure_coupling_rejected_without_unital_flag():
    # R = 0 is not contractive, whether the dissipator is absent or zero
    for dissipator in (None, lambda X: 0 * X):
        with pytest.raises(ContractivityViolation):
            lindblad_to_bloch(zz_coupling(), dissipator)


def test_pure_coupling_unital_structure():
    # a depolarizing dissipator makes R = 1.6 I (each Pauli anticommutes with
    # 8 of the 15 jumps, each at 2 * 0.1) and leaves the coherent part to
    # the coupling alone
    basis = build_basis(2)
    depolarizing = lindblad_dissipator([np.sqrt(0.1) * B for B in basis.matrices[1:]])
    gen = lindblad_to_bloch(zz_coupling(), depolarizing)
    np.testing.assert_allclose(gen.Rmat, 1.6 * np.eye(15), atol=1e-12)
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


@pytest.mark.parametrize("scale", [1e-12, 1e-60, 2.0 ** -200],
                         ids=["1e-12", "1e-60", "2^-200"])
def test_positive_definite_check_is_relative(chloroform_gen, scale):
    # slow relaxation in any unit is accepted: the check compares the
    # smallest eigenvalue with the largest, not with an absolute floor
    R = chloroform_gen.Rmat * scale
    gen = AffineGenerator(n=2, Hmat=chloroform_gen.Hmat, Rmat=R,
                          r_eq=chloroform_gen.r_eq)
    assert np.array_equal(gen.Rmat, R)
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    diss = lindblad_dissipator([np.sqrt(0.7 * scale) * sigma_minus])
    gen = lindblad_to_bloch(np.zeros((2, 2)), diss)
    np.testing.assert_allclose(gen.r_eq, [0.0, 0.0, 0.5], atol=1e-12)
    asym = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]])
    for bad in (np.zeros((3, 3)), -np.eye(3)):
        with pytest.raises(ContractivityViolation):
            AffineGenerator(n=1, Hmat=asym, Rmat=bad * scale, r_eq=np.zeros(3))
    # a master equation whose R is singular under a drive, indefinite or
    # nearly singular is refused alike, by the one check AffineGenerator makes
    for slow in (0.0, -1.0, 1e-14):
        diss = _linear_dissipator(np.diag([1.0, slow, 1.0]) * scale, np.eye(3)[2] * scale)
        with pytest.raises(ContractivityViolation):
            lindblad_to_bloch(np.zeros((2, 2)), diss)


def _linear_dissipator(M, drive):
    """One-qubit D(X) = sum_k (drive_k Tr X / 2 - (M r_X)_k) B_k: Rmat = M, v = drive/2."""
    B = build_basis(1).matrices
    def diss(X):
        r = np.einsum("kab,ba->k", B[1:], X) / 2  # coherence vector of X
        return np.tensordot(np.trace(X) / 2 * drive - M @ r, B[1:], axes=1)
    return diss


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e20])
def test_generator_checks_are_relative(scale):
    # each check compares with the matrices' own size: a relative asymmetry
    # of 1e-3 was once accepted at 1e-20 and refused at 1
    asym = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0.0]])
    tilt = np.zeros((3, 3))
    tilt[0, 1] = 1e-3
    with pytest.raises(ValidationError, match="antisymmetric"):
        AffineGenerator(n=1, Hmat=scale * (asym + tilt), Rmat=np.eye(3), r_eq=np.zeros(3))
    with pytest.raises(ValidationError, match="not symmetric"):
        AffineGenerator(n=1, Hmat=asym, Rmat=scale * (np.eye(3) + tilt), r_eq=np.zeros(3))
    no_drive = np.zeros(3)
    with pytest.raises(ValidationError, match="not symmetric"):
        lindblad_to_bloch(np.zeros((2, 2)),
                          _linear_dissipator(scale * (np.eye(3) + tilt), no_drive))


@pytest.mark.parametrize("scale", [1e-20, 1.0, 1e6, 1e8, 1e10, 1e100])
def test_lindblad_checks_are_relative(scale):
    # a random Hamiltonian and random Hermitian jump operators, whose
    # rounding grows with their size: absolute tolerances once refused the
    # dissipator at 1e6 (traces) and the coherent part from 1e8 on
    # (imaginary elements), and accepted a non-Hermitian Hamiltonian at 1e-20
    rng = np.random.default_rng(1)
    M = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    H, *jumps = (M + M.conj().transpose(0, 2, 1)) / 2
    diss = lindblad_dissipator(jumps)
    base = lindblad_to_bloch(H, diss)
    scaled = lindblad_dissipator([np.sqrt(scale) * L for L in jumps])
    gen = lindblad_to_bloch(scale * H, scaled)
    np.testing.assert_allclose(gen.Hmat, scale * base.Hmat, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(gen.Rmat, scale * base.Rmat, rtol=0, atol=1e-13 * scale)
    with pytest.raises(ValidationError, match="not Hermitian"):
        lindblad_to_bloch(scale * (H + 1e-3j * np.eye(4)), diss)

    def leaky(X):  # adds a trace of 1e-3 Tr X times the scale
        return scale * (diss(X) + 1e-3 * np.trace(X) * np.eye(4) / 4)

    def skewed(X):  # adds a traceless anti-Hermitian part
        return scale * (diss(X) + 1e-3j * (X - np.trace(X) * np.eye(4) / 4))

    with pytest.raises(ValidationError, match="annihilate traces"):
        lindblad_to_bloch(np.zeros((4, 4)), leaky)
    with pytest.raises(ValidationError, match="preserve Hermiticity"):
        lindblad_to_bloch(np.zeros((4, 4)), skewed)


def test_dissipator_preserves_trace_on_random_states(rng):
    gamma = 0.3
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    diss = lindblad_dissipator([np.sqrt(gamma) * sigma_minus])
    for _ in range(10):
        rho = random_density_matrix(rng, 1)
        assert abs(np.trace(diss(rho))) < 1e-12


def test_evolve_fixed_point_and_t0(chloroform_gen):
    r_eq = chloroform_gen.r_eq
    E, c = relax_propagator(chloroform_gen, 3.7)
    np.testing.assert_allclose(E @ r_eq + c, r_eq, atol=1e-12)
    r0 = np.linspace(-0.2, 0.2, 15)
    E, c = relax_propagator(chloroform_gen, 0.0)
    np.testing.assert_allclose(E @ r0 + c, r0, atol=1e-14)


def test_evolve_composes(chloroform_gen, rng):
    r0 = rng.normal(size=15) * 0.1
    (E1, c1), (E2, c2), (E, c) = (relax_propagator(chloroform_gen, t) for t in (0.8, 0.6, 1.4))
    np.testing.assert_allclose(E2 @ (E1 @ r0 + c1) + c2, E @ r0 + c, atol=1e-9)


def test_evolve_matches_rk4(chloroform_gen, rng):
    r0 = rng.normal(size=15) * 0.3
    E, c = relax_propagator(chloroform_gen, 1.0)
    rk = rk4_evolve(chloroform_gen, r0, 1.0, 200_000)
    np.testing.assert_allclose(E @ r0 + c, rk.r, atol=1e-8)


#: Unit roundoff of a double.
_U = np.finfo(float).eps / 2


def _expm_40_digits(A, t):
    """e^{At} of the float matrix A in 40-digit arithmetic, rounded to doubles."""
    import mpmath

    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(A.tolist()) * mpmath.mpf(t)).tolist(),
                        dtype=float)


def _errors(gen, t):
    """Max-norm errors of relax_propagator's E and of scipy's expm, 40-digit reference."""
    from scipy.linalg import expm

    A = np.asarray(gen.drift)
    ref = _expm_40_digits(A, t)
    E, _ = relax_propagator(gen, t)
    return np.abs(E - ref).max(), np.abs(expm(A * t) - ref).max()


def test_drift_eigensystem_is_cached_and_read_only(chloroform_gen):
    eig = chloroform_gen.drift_eig
    assert chloroform_gen.drift_eig is eig
    assert eig.path == "eig" and eig.cond == pytest.approx(1.1935, abs=1e-4)
    for a in (eig.w, eig.V, eig.Vinv):
        assert not a.flags.writeable
    np.testing.assert_allclose((eig.V * eig.w) @ eig.Vinv, chloroform_gen.drift, atol=1e-12)


@pytest.mark.parametrize("t", [0.1, 1.0, 1.5, 3.0])
def test_eig_propagator_beats_expm_on_the_bundled_drift(chloroform_gen, t):
    # the protocols run at tau in [1, 3]; the coupling's 337 rad/s makes
    # expm square many times (8.1e-13 against 4.1e-14 at 0.1 s)
    eig_err, expm_err = _errors(chloroform_gen, t)
    assert eig_err <= expm_err


def test_eig_propagator_within_its_bound_on_random_generators():
    # 20 contracting 15-dimensional drifts, couplings from 1 to 300 times the
    # rates: each generator's own eigensystem gives an E within scipy's
    # error or within the stated 4 u cond(V) (d + |A| t), whichever is larger
    rng = np.random.default_rng(30)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(15, 15)))
        R = (q * rng.uniform(0.05, 2.0, size=15)) @ q.T
        S = rng.normal(size=(15, 15)) * 10 ** rng.uniform(0.0, 2.5)
        gen = AffineGenerator(n=2, Hmat=S - S.T, Rmat=0.5 * (R + R.T),
                              r_eq=rng.normal(size=15))
        t = rng.uniform(0.1, 3.0)
        eig = gen.drift_eig
        assert eig.path == "eig" and eig.cond < 100
        eig_err, expm_err = _errors(gen, t)
        bound = 4 * _U * eig.cond * (15 + np.linalg.norm(gen.drift, 2) * t)
        assert eig_err <= max(expm_err, bound)


def _exceptional_point_generator():
    """One qubit whose x-y block of H - R, [[-1, 1], [-1, -3]], is defective."""
    H = np.zeros((3, 3))
    H[0, 1], H[1, 0] = 1.0, -1.0
    return AffineGenerator(n=1, Hmat=H, Rmat=np.diag([1.0, 3.0, 2.0]),
                           r_eq=np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
def test_near_defective_drift_takes_expm(t):
    # eig there errs by 2.8e-9 at 0.1 s: the guard sends it to scipy's expm
    gen = _exceptional_point_generator()
    assert gen.drift_eig.path == "expm" and gen.drift_eig.cond > EIG_COND_MAX
    assert gen.drift_eig.Vinv is None
    eig_err, expm_err = _errors(gen, t)
    assert eig_err <= expm_err
    x_fix, x0 = gen.fixed_point, np.array([0.3, -0.2, 0.5])
    row = affine_trajectory(np.asarray(gen.drift), x_fix, x0, [t])[0]
    want = _expm_40_digits(np.asarray(gen.drift), t) @ (x0 - x_fix) + x_fix
    np.testing.assert_allclose(row, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
def test_symmetric_drift_takes_eigh(t):
    # Hmat = 0, as in cli_matrix's hard.json, leaves the drift -Rmat exactly
    # symmetric: eigh gives an orthogonal V, so cond is 1 and Vinv is V^T
    q, _ = np.linalg.qr(np.random.default_rng(33).normal(size=(3, 3)))
    for R in (np.diag([0.1, 1.0, 2.0]), (q * [0.1, 1.0, 2.0]) @ q.T):
        gen = AffineGenerator(n=1, Hmat=np.zeros((3, 3)), Rmat=R, r_eq=np.array([0.0, 0.0, 1.0]))
        eig = gen.drift_eig
        assert eig.path == "eig" and eig.cond == 1.0
        assert np.array_equal(eig.Vinv, eig.V.T) and not eig.Vinv.flags.writeable
        eig_err, expm_err = _errors(gen, t)
        assert eig_err <= max(expm_err, 4 * _U * (3 + np.linalg.norm(gen.drift, 2) * t))


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")])
def test_propagator_refuses_bad_times(chloroform_gen, t):
    # simulate_block once returned NaN rows at NaN, and -36187 at t = -100
    with pytest.raises(ValidationError, match="must be finite and >= 0"):
        relax_propagator(chloroform_gen, t)
    for A in (np.asarray(chloroform_gen.drift), -np.asarray(chloroform_gen.Rmat)):
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            affine_trajectory(A, chloroform_gen.fixed_point, np.zeros(15), [0.0, t])
    with pytest.raises(ValidationError, match="must be finite and >= 0"):
        simulate_block(CHLOROFORM, "population", [1.0, 2.0, 3.0], [0.0, t])


def test_propagator_finite_at_every_scale(chloroform_gen):
    # a mode that underflows is 0 whatever its phase: w t overflows in its
    # imaginary part at 1e306 and 1e307, where e^(wt) alone is NaN
    for t in [10.0 ** k for k in range(309)] + [1.7e308]:
        E, c = relax_propagator(chloroform_gen, t)
        assert np.isfinite(E).all() and np.isfinite(c).all(), t
    E, c = relax_propagator(chloroform_gen, 1e300)
    assert not E.any() and np.array_equal(c, chloroform_gen.fixed_point)


def test_affine_trajectory_matches_expm_per_time(rng):
    # the eigh branch (exactly symmetric A) and the eig branch (A with an
    # antisymmetric part) both reproduce scipy's e^{At} (x0 - x*) + x*
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
    r_eq = chloroform_gen.r_eq
    dists = []
    for t in np.linspace(0.0, 40.0, 20):
        _, c = relax_propagator(chloroform_gen, t)  # from r0 = 0, E @ r0 + c is c
        dists.append(np.linalg.norm(c - r_eq))
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
        E, c = relax_propagator(chloroform_gen, h)
        fd = (purity(CoherenceVector(n=2, r=E @ r0.r + c)) - purity(r0)) / h
        errs[h] = abs(rate - fd)
    # first-order convergence: one constant C bounds err <= C h at both h
    c_est = errs[1e-4] / 1e-4
    assert errs[1e-5] <= 1.2 * c_est * 1e-5
    assert errs[1e-5] <= 0.02 * max(1.0, abs(rate))


def test_unital_purity_never_increases(rng):
    # dephasing along Z, X and Y at unequal rates: a unital channel whose R,
    # diag(2.5, 3, 1.5) * gamma, is positive definite
    gamma = 0.4
    _, X, Y, Z = build_basis(1).matrices
    jumps = [np.sqrt(gamma) * Z, np.sqrt(gamma / 2) * X, np.sqrt(gamma / 4) * Y]
    gen = lindblad_to_bloch(np.zeros((2, 2)), lindblad_dissipator(jumps))
    np.testing.assert_allclose(gen.Rmat, gamma * np.diag([2.5, 3.0, 1.5]), atol=1e-12)
    assert np.array_equal(gen.r_eq, np.zeros(3))
    assert not np.signbit(gen.r_eq).any()  # +0.0, not the -0.0 a solve gives
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


@pytest.mark.parametrize("scale", [2.0 ** -1060, 1e-300, 1.0, 1e300, 2.0 ** 1020])
def test_exact_parts_keep_their_bits(rng, scale):
    # an exactly antisymmetric Hmat and an exactly symmetric Rmat are stored
    # as given, subnormal or near the float range alike
    X = rng.normal(size=(15, 15))
    H = scale * (X - X.T)
    R = scale * (np.eye(15) + 0.01 * (X + X.T))
    gen = AffineGenerator(n=2, Hmat=H, Rmat=R, r_eq=np.zeros(15))
    assert gen.Hmat.tobytes() == H.tobytes() and gen.Rmat.tobytes() == R.tobytes()
    assert gen.contraction_rate == np.linalg.eigvalsh(R)[0]


def test_nearly_antisymmetric_hmat_keeps_the_generator_contractive(chloroform_gen):
    # one entry of an Hmat of scale 1e6 off by 0.9e-10 of its largest entry,
    # within the accepted asymmetry, against R = 1e-5 I: stored as given,
    # the drift's symmetric part had an eigenvalue of +1.4e-4, and no
    # period map could be certified to attract
    from reachset import fixed_point, pps_sequence

    X = np.random.default_rng(0).normal(size=(15, 15))
    H = 1e6 * (X - X.T)
    H[0, 1] += 0.9e-10 * np.abs(H).max()
    R = 1e-5 * np.eye(15)
    gen = AffineGenerator(n=2, Hmat=H, Rmat=R, r_eq=chloroform_gen.r_eq)
    assert np.array_equal(gen.Hmat, -gen.Hmat.T) and np.array_equal(gen.Rmat, R)
    assert np.abs(gen.Hmat - H).max() <= 0.5e-10 * np.abs(H).max()
    assert gen.contraction_rate == 1e-5
    symmetric = 0.5 * (gen.drift + gen.drift.T)
    assert np.linalg.eigvalsh(symmetric)[-1] == pytest.approx(-1e-5, rel=1e-6)
    report = fixed_point(gen, pps_sequence(1.0))
    assert report.contraction_bound < 1.0


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
    # the drive is derived from Rmat and r_eq, never passed
    with pytest.raises(TypeError):
        AffineGenerator(
            n=1, Hmat=asym, Rmat=eye, r_eq=np.zeros(3), v=np.ones(3)
        )
    gen = AffineGenerator(n=1, Hmat=asym, Rmat=2.0 * eye, r_eq=np.array([1.0, 0.5, 3.0]))
    assert gen.v.tobytes() == (gen.Rmat @ gen.r_eq).tobytes()
    assert not gen.v.flags.writeable


def test_generator_json_round_trip(chloroform_gen):
    d = chloroform_gen.to_json_dict()
    gen2 = AffineGenerator.from_json_dict(d)
    np.testing.assert_allclose(gen2.Hmat, chloroform_gen.Hmat, atol=1e-15)
    np.testing.assert_allclose(gen2.Rmat, chloroform_gen.Rmat, atol=1e-15)
    np.testing.assert_allclose(gen2.r_eq, chloroform_gen.r_eq, atol=1e-15)
    # JSON true and false are not numbers, at any depth of a numeric field
    H = [list(row) for row in d["H"]]
    H[3][7] = True
    r_eq = list(d["r_eq"])
    r_eq[0] = False
    for key, value in (("H", H), ("r_eq", r_eq), ("R", True)):
        with pytest.raises(ValidationError, match=repr(key)):
            AffineGenerator.from_json_dict({**d, key: value})
