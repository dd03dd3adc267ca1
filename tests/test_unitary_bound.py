from fractions import Fraction

import numpy as np
import pytest

from reachset import (
    CoherenceVector,
    ResidualTooLarge,
    ValidationError,
    build_basis,
    diagonal_vertex_coords,
    embed,
    kappa_channel,
    kappa_unitary,
    kappa_unitary_max,
    polytope_ray_exit,
    polytope_vertices,
    unitary_rep,
)
from reachset.sequences import pps_direction

from conftest import haar_unitary
from oracles import lp_ray_exit


def thermal_state(gen=None):
    basis = build_basis(2)
    r = np.zeros(15)
    r[basis.index("ZI")] = 1.0
    r[basis.index("IZ")] = 4.0
    return CoherenceVector(n=2, r=r)


def test_kappa_of_self_is_one():
    v = thermal_state()
    assert kappa_unitary_max(v, v) == pytest.approx(1.0, abs=1e-12)


def test_kappa_of_maximally_mixed_is_zero():
    zero = CoherenceVector(n=2, r=np.zeros(15))
    assert kappa_unitary_max(zero, pps_direction()) == pytest.approx(0.0, abs=1e-12)


def test_kappa_rejects_zero_target():
    with pytest.raises(ValidationError):
        kappa_unitary_max(thermal_state(), CoherenceVector(n=2, r=np.zeros(15)))


def test_thermal_to_pps_bound_is_twenty_thirds():
    kappa = kappa_unitary_max(thermal_state(), pps_direction())
    assert abs(kappa - 20.0 / 3.0) < 1e-9


def test_thermal_to_pps_bound_exact_rational():
    # deviation operators are diagonal with exactly representable entries;
    # redo the sorted-spectra alignment in rational arithmetic
    lam_rho = sorted([5, -3, 3, -5], reverse=True)
    lam_sig = sorted(
        [Fraction(3, 4), Fraction(-1, 4), Fraction(-1, 4), Fraction(-1, 4)],
        reverse=True,
    )
    num = sum(Fraction(a) * b for a, b in zip(lam_rho, lam_sig))
    den = sum(b * b for b in lam_sig)
    assert num / den == Fraction(20, 3)
    # and the diagonal entries really are those spectra
    from reachset import deviation_matrix

    np.testing.assert_array_equal(
        np.sort(np.diagonal(deviation_matrix(thermal_state())).real),
        [-5, -3, 3, 5],
    )


def test_sampled_unitaries_never_exceed_bound(rng):
    rho, sig = thermal_state(), pps_direction()
    bound = kappa_unitary_max(rho, sig)
    worst = -np.inf
    for _ in range(200):
        rep = unitary_rep(haar_unitary(rng, 4))
        worst = max(worst, kappa_unitary(rho, sig, rep))
    assert worst <= bound + 1e-9


def test_kappa_channel_projection():
    sig = pps_direction()
    out = CoherenceVector(n=2, r=3.0 * sig.r)
    assert kappa_channel(out, sig) == pytest.approx(3.0, abs=1e-12)


def test_kappa_channel_rejects_unwanted_components():
    sig = pps_direction()
    basis = build_basis(2)
    r = sig.r.copy()
    r[basis.index("XY")] += 0.5
    with pytest.raises(ResidualTooLarge):
        kappa_channel(CoherenceVector(n=2, r=r), sig, tol=1e-3)


def test_kappa_channel_on_saturation_steady_state(chloroform_gen):
    from reachset import DiagonalVector, noe_steady_state

    x = noe_steady_state(chloroform_gen, "C")
    basis = build_basis(2)
    target = np.zeros(15)
    target[basis.index("IZ")] = 1.0
    kappa = kappa_channel(
        embed(x), CoherenceVector(n=2, r=target), tol=1e-9
    )
    assert kappa == pytest.approx(4.2309, abs=1e-3)


def test_polytope_vertices_thermal():
    vertices = polytope_vertices(thermal_state())
    assert vertices.shape == (24, 4)
    sums = vertices.sum(axis=1)
    np.testing.assert_allclose(sums, 0.0, atol=1e-9)
    for row in vertices:
        assert sorted(np.round(row).astype(int)) == [-5, -3, 3, 5]


def test_polytope_degenerate_spectra():
    zero = CoherenceVector(n=2, r=np.zeros(15))
    assert polytope_vertices(zero).shape == (1, 4)
    basis = build_basis(2)
    r = np.zeros(15)
    r[basis.index("ZZ")] = 0.3  # spectrum (c, -c, -c, c)
    assert polytope_vertices(CoherenceVector(n=2, r=r)).shape[0] == 6


def test_polytope_vertices_guard():
    # four qubits would loop over 16! ~ 2.1e13 permutations
    with pytest.raises(ValidationError):
        polytope_vertices(CoherenceVector(n=4, r=np.zeros(255)))


def test_orbit_samples_stay_inside_polytope(rng):
    rho = thermal_state()
    coords = diagonal_vertex_coords(polytope_vertices(rho))
    from reachset import diag_slots, encode, decode

    slots = list(diag_slots(2))
    for _ in range(10):
        u = haar_unitary(rng, 4)
        rotated = encode(u @ decode(rho) @ u.conj().T)
        x = rotated.r[slots]
        norm = np.linalg.norm(x)
        if norm < 1e-12:
            continue
        exit_radius = polytope_ray_exit(coords, x / norm)
        assert norm <= exit_radius + 1e-9


def test_vertex_coords_contain_thermal_state():
    coords = diagonal_vertex_coords(polytope_vertices(thermal_state()))
    assert any(np.allclose(c, [1, 4, 0], atol=1e-9) for c in coords)
    assert any(np.allclose(c, [4, 1, 0], atol=1e-9) for c in coords)


def test_vertex_coords_read_n_from_row_width():
    # one qubit: spectrum (a, -a) is the state a Z, so x = a
    np.testing.assert_allclose(diagonal_vertex_coords([[0.5, -0.5]]), [[0.5]])
    for n in (1, 2, 3):
        r = np.zeros(4 ** n - 1)
        r[-1] = 0.2  # the all-Z label, a diagonal state
        coords = diagonal_vertex_coords(polytope_vertices(CoherenceVector(n=n, r=r)))
        assert coords.shape[1] == 2 ** n - 1
    for bad in (np.ones((2, 3)), np.ones((2, 1)), np.ones((2, 0)), np.ones(4),
                np.ones((1, 2, 2))):
        with pytest.raises(ValidationError):
            diagonal_vertex_coords(bad)


def test_ray_exit_along_pps_direction():
    coords = diagonal_vertex_coords(polytope_vertices(thermal_state()))
    d = np.ones(3) / np.sqrt(3)
    t = polytope_ray_exit(coords, d)
    # the exit point (5/3)(1,1,1) has radius 5/sqrt(3); consistent with the
    # alignment bound: kappa_max * |target diag coords| = (20/3)(sqrt(3)/4)
    assert t == pytest.approx(5.0 / np.sqrt(3), abs=1e-7)
    kappa = kappa_unitary_max(thermal_state(), pps_direction())
    assert t == pytest.approx(kappa * np.sqrt(3) / 4.0, abs=1e-7)


def test_ray_exit_matches_lp_oracle(rng):
    # majorization against an LP over the same vertices: random states with
    # coherences, degenerate spectra rotated off the diagonal, and diagonal
    # degenerate spectra, each along a random direction
    from reachset import encode

    states = [CoherenceVector(n=2, r=rng.normal(size=15) * rng.uniform(0.1, 5))
              for _ in range(120)]
    for lam in ([1, 1, -1, -1], [3, -1, -1, -1], [2, 0, 0, -2], [1, 1, 1, -3]):
        for _ in range(15):
            u = haar_unitary(rng, 4)
            dev = u @ np.diag(np.multiply(lam, rng.uniform(0.1, 5))) @ u.conj().T
            states.append(encode(np.eye(4) / 4 + dev))
    basis = build_basis(2)
    for label in ("ZI", "IZ", "ZZ"):
        for _ in range(7):
            r = np.zeros(15)
            r[basis.index(label)] = rng.uniform(-5, 5)
            states.append(CoherenceVector(n=2, r=r))
    assert len(states) >= 200
    worst = 0.0
    for state in states:
        coords = diagonal_vertex_coords(polytope_vertices(state))
        d = rng.normal(size=3) * rng.uniform(0.1, 10)
        t, t_lp = polytope_ray_exit(coords, d), lp_ray_exit(coords, d)
        worst = max(worst, abs(t - t_lp) / abs(t_lp))
    assert worst <= 1e-12
    # the maximally mixed state's polytope is the origin alone
    zero = diagonal_vertex_coords(polytope_vertices(CoherenceVector(n=2, r=np.zeros(15))))
    assert polytope_ray_exit(zero, np.ones(3)) == lp_ray_exit(zero, np.ones(3)) == 0.0
    # a zero, non-finite or misshapen direction, and rows of two spectra
    coords = diagonal_vertex_coords(polytope_vertices(thermal_state()))
    for direction in (np.zeros(3), np.array([np.nan, 0, 1]), np.array([np.inf, 0, 0]),
                      np.ones(2)):
        with pytest.raises(ValidationError):
            polytope_ray_exit(coords, direction)
    mixed = coords.copy()
    mixed[0] *= 2  # one row's spectrum is not a permutation of the others'
    # the exit is read off the spectrum, so a subset or a repeat of the
    # distinct permutations (4!/(2! 2!) = 6 for the spectrum (c, -c, -c, c))
    # would pass for the whole polytope
    r = np.zeros(15)
    r[basis.index("ZZ")] = 0.3
    degenerate = diagonal_vertex_coords(polytope_vertices(CoherenceVector(n=2, r=r)))
    for vertices in (mixed, coords[:, :2], np.ones(3), coords[:1], coords[[0, 0, 0]],
                     coords[:23], np.vstack([coords[:23], coords[:1]]),
                     np.vstack([coords, coords[:1]]), degenerate[:5],
                     degenerate[[0, 1, 2, 3, 4, 4]]):
        with pytest.raises(ValidationError):
            polytope_ray_exit(vertices, np.ones(3))

