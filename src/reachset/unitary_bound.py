"""Universal bound on polarization transfer under unitary control.

Unitary conjugation permutes the spectrum of the deviation operator and
nothing more, so the diagonal states reachable from rho by unitaries alone
fill the convex polytope whose vertices are the distinct permutations of
rho's deviation spectrum.  By Rado's theorem (1952) it holds exactly the
spectra that rho's spectrum majorizes, so a ray leaves it at the smallest
ratio of partial sums of the two sorted spectra, with no linear program
and no enumeration: the exit works for any qubit count, and only the
vertex list itself is guarded at n <= 3.  The transfer efficiency
toward a target deviation sigma,

    kappa = Tr(E(rho) sigma) / Tr(sigma^2),

is maximized over unitaries by aligning the sorted spectra (von Neumann's
trace inequality); a channel-level kappa is defined only when the output is
proportional to sigma, with no unwanted components.

All computations here use traceless deviation parts; the identity component
never contributes.
"""

from itertools import permutations

import numpy as np

from .diagonal import diag_slots
from .errors import ResidualTooLarge, ValidationError, ldexp_normal
from .pauli import CoherenceVector, build_basis, deviation_matrix, _readonly


def deviation_spectrum(v):
    """Eigenvalues of the traceless part of a state, descending order."""
    eigs = np.linalg.eigvalsh(deviation_matrix(v))
    return eigs[::-1]


def kappa_unitary_max(rho, sigma):
    """Best unitary transfer efficiency from rho onto direction sigma.

    Sorting both deviation spectra in descending order aligns them
    optimally, so

        kappa_max = <lambda_sorted(rho), lambda_sorted(sigma)> / Tr(sigma_dev^2).

    It is solved for sigma / 2^k, largest entry in [0.5, 1), and scaled
    back exactly: kappa_max is homogeneous of degree -1 in sigma.

    Raises
    ------
    ValidationError
        If sigma has no deviation part, or its scale puts kappa_max outside
        the normal float range.
    """
    if rho.n != sigma.n:
        raise ValidationError("states have different qubit counts")
    k = int(np.frexp(np.abs(sigma.r).max())[1])
    unit = CoherenceVector(n=sigma.n, r=np.ldexp(sigma.r, -k))
    s_norm_sq = 2 ** sigma.n * float(unit.r @ unit.r)
    if s_norm_sq <= 0.0:
        raise ValidationError("target direction must be nonzero")
    val = float(deviation_spectrum(rho) @ deviation_spectrum(unit)) / s_norm_sq
    return float(ldexp_normal(val, -k, "target's scale puts kappa_max"))


def kappa_channel(output, sigma, tol=1e-6):
    """Projection coefficient of a channel output onto a target direction.

    The output must be proportional to sigma: the least-squares residual
    relative to |output| has to stay within `tol`, otherwise the transfer
    carries unwanted components and ResidualTooLarge is raised.  Both are
    solved scaled by the powers of two that bring their largest |entry|
    into [0.5, 1), and kappa is scaled back exactly, so the check neither
    under- nor overflows and an exact 2^k multiple of the output gets the
    same verdict and 2^k times kappa.  A kappa outside the normal float
    range raises ValidationError.
    """
    if output.n != sigma.n:
        raise ValidationError("states have different qubit counts")
    k = int(np.frexp(np.abs(output.r).max())[1])
    j = int(np.frexp(np.abs(sigma.r).max())[1])
    out, sig = np.ldexp(output.r, -k), np.ldexp(sigma.r, -j)
    s_sq = float(sig @ sig)
    if s_sq <= 0.0:
        raise ValidationError("target direction must be nonzero")
    kappa = float(out @ sig) / s_sq
    out_norm = np.linalg.norm(out)
    residual = np.linalg.norm(out - kappa * sig)
    if residual > tol * max(out_norm, 1e-300):
        raise ResidualTooLarge(
            f"output deviates from the target direction by a relative "
            f"{residual / max(out_norm, 1e-300):.3e} (tolerance {tol})"
        )
    return float(ldexp_normal(kappa, k - j, "the output's scale puts kappa"))


def polytope_vertices(rho):
    """All distinct permutations of the deviation spectrum of rho.

    Returns a read-only (V, 2^n) array: every row has the same multiset of
    entries and zero sum.  Rows are told apart by the spectrum scaled by
    the power of two that brings its largest |entry| below 1, rounded to 12
    decimals, so a state and its 2^k multiples give as many rows.  Guarded
    at n <= 3: four qubits would loop over 16! ~ 2.1e13 permutations.
    """
    if rho.n > 3:
        raise ValidationError("spectrum polytopes are enumerated for n <= 3")
    lam = deviation_spectrum(rho)
    unit = np.ldexp(lam, -np.frexp(np.abs(lam).max())[1])  # exact: every |entry| below 1
    seen = set()
    rows = []
    for perm in permutations(range(len(lam))):
        row = lam[list(perm)]
        key = tuple(np.round(unit[list(perm)], 12))
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return _readonly(np.asarray(rows))


def _slot_signs(n):
    """Diagonals of the slots' Z-type operators: x = signs @ lam / 2^n."""
    basis = build_basis(n)
    return np.array([np.diagonal(basis.matrices[k + 1]).real for k in diag_slots(n)])


def diagonal_vertex_coords(vertices):
    """Spectrum rows expressed in diagonal coordinates, shape (V, 2^n - 1).

    Each row of the (V, 2^n) `vertices` array (as from polytope_vertices)
    becomes the coordinate vector of the diagonal matrix carrying it,
    x_i = <diag signs of slot i, spectrum>/2^n; n is read from the row width.

    Raises
    ------
    ValidationError
        If `vertices` is not two-dimensional with a power-of-two width >= 2.
    """
    V = np.asarray(vertices, dtype=float)
    n = V.shape[1].bit_length() - 1 if V.ndim == 2 else 0
    if n < 1 or V.shape[1] != 2 ** n:
        raise ValidationError("vertices must be (V, 2^n) spectrum rows with n >= 1")
    return V @ _slot_signs(n).T / 2 ** n


def polytope_ray_exit(rows, direction):
    """Largest t with t * direction inside the unitary polytope of one spectrum.

    The rows are the diagonal coordinates of states that share one zero-sum
    deviation spectrum lam (lam = signs^T x): every vertex of the polytope,
    some of them, or a single state.  Only row 0's sorted spectrum is read:
    with Lam_k and S_k the sums of the k largest entries of lam and of the
    direction's spectrum, t = min over k < 2^n of Lam_k / S_k.  Each such
    S_k > 0: the partial sums of a descending zero-sum vector are concave
    in k.

    Raises
    ------
    ValidationError
        If the rows carry two spectra, or the direction is zero, non-finite
        or of another dimension.
    """
    V = np.asarray(rows, dtype=float)
    d = np.asarray(direction, dtype=float)
    m = V.shape[1] if V.ndim == 2 else 0
    n = (m + 1).bit_length() - 1
    if n < 1 or 2 ** n != m + 1 or len(V) < 1 or d.shape != (m,):
        raise ValidationError("need (R, 2^n - 1) rows and a (2^n - 1,) direction")
    if not (np.isfinite(d).all() and np.any(d)):
        raise ValidationError("direction must be finite and nonzero")
    signs = _slot_signs(n)
    # row 0 gets its own product, so a stack and its first row alone give
    # the same bits
    lam, mu = -np.sort(-(V[0] @ signs)), -np.sort(-(d @ signs))
    spread = np.abs(np.sort(V @ signs, axis=1) - lam[::-1]).max()
    if not spread <= 1e-9 * np.abs(lam).max():
        raise ValidationError("rows are not permutations of one spectrum")
    return float(np.min(np.cumsum(lam)[:-1] / np.cumsum(mu)[:-1]))
