"""Projection of the full coherence dynamics onto the diagonal subspace.

Diagonal density matrices are spanned by {I, Z}^(x)n; removing the identity
leaves 2^n - 1 coordinates that carry the spectrum of the state.  With an
instantaneous unitary U relabelling the eigenbasis, the projected dynamics
reads

    dx/dt = -[U^T Rmat U]_d x + [U^T Rmat r_eq]_d,

where [.]_d restricts rows and columns to the diagonal coordinate slots.
The coherent part of the generator never contributes to this field.

Coordinate order: single-Z labels first by qubit position, then ascending
Z-weight (n=2: ZI, IZ, ZZ; so x1 = <ZI>, x2 = <IZ>, x3 = <ZZ>).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .pauli import build_basis, _readonly


@lru_cache(maxsize=None)
def diag_slots(n):
    """Indices of the diagonal-subspace coordinates in a coherence vector.

    Returns a tuple of 2^n - 1 indices into the (4^n - 1)-dimensional
    vector, ordered by Z-weight and then by the qubit positions carrying Z.
    """
    basis = build_basis(n)
    entries = []
    for k, lab in enumerate(basis.labels):
        if k == 0 or any(ch not in "IZ" for ch in lab):
            continue
        zpos = tuple(i for i, ch in enumerate(lab) if ch == "Z")
        entries.append((len(zpos), zpos, k - 1))
    entries.sort()
    return tuple(e[2] for e in entries)


@lru_cache(maxsize=None)
def diag_labels(n):
    """Basis labels of the diagonal coordinates, in diag_slots order."""
    basis = build_basis(n)
    return tuple(basis.labels[k + 1] for k in diag_slots(n))


@dataclass(frozen=True)
class DiagonalVector:
    """Coordinates of a diagonal (spectral) state, length 2^n - 1."""

    n: int
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (2 ** self.n - 1,):
            raise ValidationError(
                f"diagonal vector for n={self.n} must have length "
                f"{2 ** self.n - 1}, got shape {x.shape}"
            )
        object.__setattr__(self, "x", _readonly(x.copy()))


def projected_field_stack(gen, reps):
    """Stacked field coefficients of the controls' orthogonal representations.

    Parameters
    ----------
    gen : AffineGenerator
    reps : array-like, shape (K, d, d)
        Orthogonal full-space representations of the controls, as returned
        by unitary_rep or stacked in PermutationControlSet.reps_full.

    Returns
    -------
    (A, b) : ndarrays of shape (K, m, m) and (K, m)
        The field of control k evaluates as -A[k] @ x + b[k], i.e.
        -[U^T R U]_d x + [U^T R r_eq]_d; order follows `reps` and
        duplicates are kept.

    Raises
    ------
    ValidationError
        If the controls do not act on the generator's coherence space.
    """
    mats = np.asarray(reps, dtype=float)
    if mats.shape[1:] != (gen.dim, gen.dim):
        raise ValidationError("qubit counts of generator and controls differ")
    cols = mats[:, :, list(diag_slots(gen.n))]  # only these columns of U reach [.]_d
    A = np.einsum("kia,ij,kjb->kab", cols, gen.Rmat, cols)
    b = np.einsum("kia,i->ka", cols, gen.Rmat @ gen.r_eq)
    return A, b


def stacked_directions(A, b, x):
    """Evaluate all stacked fields at coordinates x: -A @ x + b.

    A point x of shape (m,) gives the (K, m) direction set; a stack of
    points (..., m) gives one set per point, shape (..., K, m).
    """
    return -np.einsum("kab,...b->...ka", A, np.asarray(x, dtype=float)) + b
