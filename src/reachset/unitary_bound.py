"""Universal bound on polarization transfer under unitary control.

Unitary conjugation permutes the spectrum of the deviation operator and
nothing more, so the diagonal states reachable from rho by unitaries alone
fill the convex polytope whose vertices are the distinct permutations of
rho's deviation spectrum.  By Rado's theorem (1952) it holds exactly the
spectra that rho's spectrum majorizes, so a ray leaves it at the smallest
ratio of partial sums, with no linear program.  The transfer efficiency
toward a target deviation sigma,

    kappa = Tr(E(rho) sigma) / Tr(sigma^2),

is maximized over unitaries by aligning the sorted spectra (von Neumann's
trace inequality); a channel-level kappa is defined only when the output is
proportional to sigma, with no unwanted components.

All computations here use traceless deviation parts; the identity component
never contributes.
"""

from dataclasses import dataclass
from itertools import permutations
from math import factorial, prod

import numpy as np

from .diagonal import diag_slots
from .errors import ResidualTooLarge, ValidationError
from .pauli import CoherenceVector, build_basis, deviation_matrix


@dataclass(frozen=True)
class SpectrumPolytope:
    """Permutation polytope of a deviation spectrum.

    Attributes
    ----------
    vertices : ndarray, shape (V, 2^n)
        Distinct permutations of the deviation eigenvalues; every row has
        the same multiset of entries and zero sum.
    source_state : CoherenceVector
        The state whose spectrum generated the polytope.
    """

    vertices: np.ndarray
    source_state: CoherenceVector


def deviation_spectrum(v):
    """Eigenvalues of the traceless part of a state, descending order."""
    eigs = np.linalg.eigvalsh(deviation_matrix(v))
    return eigs[::-1]


def kappa_unitary_max(rho, sigma):
    """Best unitary transfer efficiency from rho onto direction sigma.

    Sorting both deviation spectra in descending order aligns them
    optimally, so

        kappa_max = <lambda_sorted(rho), lambda_sorted(sigma)> / Tr(sigma_dev^2).

    Raises
    ------
    ValidationError
        If sigma has no deviation part.
    """
    if rho.n != sigma.n:
        raise ValidationError("states have different qubit counts")
    s_norm_sq = 2 ** sigma.n * float(sigma.r @ sigma.r)
    if s_norm_sq <= 0.0:
        raise ValidationError("target direction must be nonzero")
    lam_rho = deviation_spectrum(rho)
    lam_sig = deviation_spectrum(sigma)
    return float(lam_rho @ lam_sig) / s_norm_sq


def kappa_unitary(rho, sigma, unitary_rep_matrix):
    """Transfer efficiency of one concrete unitary (given its vector rep)."""
    s_norm_sq = 2 ** sigma.n * float(sigma.r @ sigma.r)
    if s_norm_sq <= 0.0:
        raise ValidationError("target direction must be nonzero")
    moved = unitary_rep_matrix @ rho.r
    return 2 ** sigma.n * float(moved @ sigma.r) / s_norm_sq


def kappa_channel(output, sigma, tol=1e-6):
    """Projection coefficient of a channel output onto a target direction.

    The output must be proportional to sigma: the least-squares residual
    relative to |output| has to stay within `tol`, otherwise the transfer
    carries unwanted components and ResidualTooLarge is raised.
    """
    if output.n != sigma.n:
        raise ValidationError("states have different qubit counts")
    s_sq = float(sigma.r @ sigma.r)
    if s_sq <= 0.0:
        raise ValidationError("target direction must be nonzero")
    kappa = float(output.r @ sigma.r) / s_sq
    out_norm = np.linalg.norm(output.r)
    residual = np.linalg.norm(output.r - kappa * sigma.r)
    if residual > tol * max(out_norm, 1e-300):
        raise ResidualTooLarge(
            f"output deviates from the target direction by a relative "
            f"{residual / max(out_norm, 1e-300):.3e} (tolerance {tol})"
        )
    return kappa


def polytope_vertices(rho):
    """All distinct permutations of the deviation spectrum of rho.

    Guarded at n <= 3: four qubits would loop over 16! ~ 2.1e13 permutations.
    """
    if rho.n > 3:
        raise ValidationError("spectrum polytopes are enumerated for n <= 3")
    lam = deviation_spectrum(rho)
    seen = set()
    rows = []
    for perm in permutations(range(len(lam))):
        row = lam[list(perm)]
        key = tuple(np.round(row, 12))
        if key not in seen:
            seen.add(key)
            rows.append(row)
    vertices = np.asarray(rows)
    vertices.setflags(write=False)
    return SpectrumPolytope(vertices=vertices, source_state=rho)


def _slot_signs(n):
    """Diagonals of the slots' Z-type operators: x = signs @ lam / 2^n."""
    basis = build_basis(n)
    return np.array([np.diagonal(basis.matrices[k + 1]).real for k in diag_slots(n)])


def diagonal_vertex_coords(polytope):
    """Vertices expressed in diagonal coordinates, shape (V, 2^n - 1).

    Each spectrum row becomes the coordinate vector of the diagonal matrix
    carrying it, x_i = <diag signs of slot i, spectrum>/2^n.
    """
    n = polytope.source_state.n
    return polytope.vertices @ _slot_signs(n).T / 2 ** n


def polytope_ray_exit(vertices_coords, direction):
    """Largest t with t * direction inside the convex hull of the vertices.

    The rows are the diagonal coordinates of every distinct permutation of
    one zero-sum spectrum lam (lam = signs^T x), each once, so with Lam_k and S_k the
    sums of the k largest entries of lam and of the direction's spectrum,
    t = min over k < 2^n of Lam_k / S_k.  Each such S_k > 0: the partial
    sums of a descending zero-sum vector are concave in k.

    Raises
    ------
    ValidationError
        If the rows are not every distinct permutation of one spectrum,
        (2^n)! / prod(multiplicity!) of them, or the direction
        is zero, non-finite or of another dimension.
    """
    V = np.asarray(vertices_coords, dtype=float)
    d = np.asarray(direction, dtype=float)
    m = V.shape[1] if V.ndim == 2 else 0
    n = (m + 1).bit_length() - 1
    if n < 1 or 2 ** n != m + 1 or len(V) < 1 or d.shape != (m,):
        raise ValidationError("need (V, 2^n - 1) vertices and a (2^n - 1,) direction")
    if not (np.isfinite(d).all() and np.any(d)):
        raise ValidationError("direction must be finite and nonzero")
    signs = _slot_signs(n)
    rows = V @ signs
    spectra = -np.sort(-rows, axis=1)
    lam, mu = spectra[0], -np.sort(-(d @ signs))
    tol = 1e-9 * np.abs(lam).max()
    if not np.abs(spectra - lam).max() <= tol:
        raise ValidationError("vertex rows are not permutations of one spectrum")
    # label each entry by its group of equal eigenvalues to count distinct rows
    group = np.cumsum(np.r_[0, np.diff(lam) < -tol])
    labels = group[np.abs(rows[:, :, None] - lam).argmin(axis=2)]
    count = factorial(m + 1) // prod(factorial(k) for k in np.bincount(group))
    if not len(V) == len(np.unique(labels, axis=0)) == count:
        raise ValidationError(
            f"need all {count} distinct permutations of the spectrum, once each")
    return float(np.min(np.cumsum(lam)[:-1] / np.cumsum(mu)[:-1]))
