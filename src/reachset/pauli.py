"""Generalized Pauli basis algebra for n-qubit states.

States are represented by real coefficient vectors over the tensor-product
Pauli basis {I, X, Y, Z}^(x)n, ordered lexicographically with I first (II..I,
II..X, ..., ZZ..Z).  The basis is orthonormal in the normalized
Hilbert-Schmidt inner product,

    Tr(B_k B_j) / 2^n = delta_kj,

and a density matrix decomposes as

    rho = I/2^n + sum_{k>=1} r_k B_k,     r_k = Tr(rho B_k) / 2^n.

The identity coefficient is fixed by the unit trace, so the state lives in
the (4^n - 1)-dimensional real vector r (the traceless, "deviation" part).
Unitaries act on r as orthogonal matrices.

Polarization units: coefficients may be expressed in multiples of a thermal
polarization scale; nothing in this module depends on the choice.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import ValidationError, check_count, json_fields, json_floats

_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_QUBITS = 4

COHERENCE_VECTOR_ORDER = "lex-IXYZ"


def _readonly(a):
    a = np.asarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PauliBasis:
    """The ordered n-qubit Pauli basis.

    Attributes
    ----------
    n : int
        Qubit count.
    labels : tuple of str
        4^n strings over {I, X, Y, Z}, lexicographic, identity first.
    matrices : ndarray, shape (4^n, 2^n, 2^n)
        The basis operators B_k, Hermitian with entries in {0, +-1, +-i}.
    """

    n: int
    labels: tuple
    matrices: np.ndarray = field(repr=False)

    @property
    def dim(self):
        """Length of a coherence vector, 4^n - 1."""
        return 4 ** self.n - 1

    def index(self, label):
        """Position of `label` in the coherence vector (identity excluded)."""
        k = self.labels.index(label)
        if k == 0:
            raise ValidationError("the identity has no coherence-vector slot")
        return k - 1


def _check_qubit_count(n):
    """Refuse a qubit count that is not an integer in [1, MAX_QUBITS], before any 4^n."""
    if check_count(n, "qubit count") > MAX_QUBITS:
        raise ValidationError(
            f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n!r}"
        )


@lru_cache(maxsize=None)
def build_basis(n):
    """Construct the n-qubit Pauli basis in lexicographic {I,X,Y,Z} order.

    Parameters
    ----------
    n : int
        Qubit count, 1 <= n <= 4 (matrices are dense 2^n x 2^n arrays).

    Returns
    -------
    PauliBasis
    """
    _check_qubit_count(n)
    labels = tuple("".join(p) for p in product("IXYZ", repeat=n))
    mats = np.empty((4 ** n, 2 ** n, 2 ** n), dtype=complex)
    for k, lab in enumerate(labels):
        m = _SINGLE[lab[0]]
        for ch in lab[1:]:
            m = np.kron(m, _SINGLE[ch])
        mats[k] = m
    return PauliBasis(n=n, labels=labels, matrices=_readonly(mats))


@dataclass(frozen=True)
class CoherenceVector:
    """Real expansion coefficients of a state's traceless part.

    `r[k]` is the coefficient of basis operator B_{k+1} (identity excluded)
    in the normalization r_k = Tr(rho B_k)/2^n.  Instances are immutable and
    safe to share across workers.
    """

    n: int
    r: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        r = np.asarray(self.r, dtype=float)
        if r.shape != (4 ** self.n - 1,):
            raise ValidationError(
                f"coherence vector for n={self.n} must have length "
                f"{4 ** self.n - 1}, got shape {r.shape}"
            )
        object.__setattr__(self, "r", _readonly(r.copy()))

    def to_json_dict(self):
        """JSON form: {"n": int, "order": "lex-IXYZ", "r": [floats]}."""
        return {"n": self.n, "order": COHERENCE_VECTOR_ORDER, "r": list(self.r)}

    @classmethod
    def from_json_dict(cls, d):
        (n,) = json_fields(d, "coherence vector", "n")
        (r,) = json_floats(d, "coherence vector", "r")
        order = d.get("order", COHERENCE_VECTOR_ORDER)
        if order != COHERENCE_VECTOR_ORDER:
            raise ValidationError(f"unsupported coefficient order {order!r}")
        if not np.isfinite(r).all():
            raise ValidationError("coherence vector entries must be finite")
        return cls(n=n, r=r)


def encode(rho):
    """Expand a density matrix into its coherence vector.

    Parameters
    ----------
    rho : ndarray, shape (2^n, 2^n)
        Hermitian, unit-trace matrix (validated to 1e-10); n is read from
        its dimension.

    Returns
    -------
    CoherenceVector
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0].bit_length() - 1
    basis = build_basis(n)
    if rho.shape != (2 ** n, 2 ** n):
        raise ValidationError(f"expected a {2**n}x{2**n} matrix, got {rho.shape}")
    if not np.allclose(rho, rho.conj().T, rtol=0, atol=1e-10):
        raise ValidationError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValidationError("density matrix does not have unit trace")
    r = np.einsum("kab,ba->k", basis.matrices[1:], rho).real / 2 ** n
    return CoherenceVector(n=n, r=r)


def decode(v):
    """Reconstruct the density matrix I/2^n + sum_k r_k B_k."""
    basis = build_basis(v.n)
    rho = np.tensordot(v.r, basis.matrices[1:], axes=1)
    rho += np.eye(2 ** v.n) / 2 ** v.n
    return rho


def deviation_matrix(v):
    """The traceless operator sum_k r_k B_k (no identity component)."""
    basis = build_basis(v.n)
    return np.tensordot(v.r, basis.matrices[1:], axes=1)


def unitary_rep(U):
    """Represent a unitary, or each of a stack, as an orthogonal coherence-space matrix.

    Parameters
    ----------
    U : ndarray, shape (..., 2^n, 2^n)
        Unitary matrix or stack of them (each validated to 1e-10); n is
        read from the row count.

    Returns
    -------
    ndarray, shape (..., 4^n - 1, 4^n - 1), read-only
        rep[k, j] = Tr(B_k U B_j U^dag) / 2^n for k, j >= 1, orthogonal:
        conjugation rho -> U rho U^dag becomes r -> rep @ r, preserving |r|.
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[-2].bit_length() - 1
    basis = build_basis(n)
    if U.shape[-2:] != (2 ** n, 2 ** n):
        raise ValidationError(f"expected a {2**n}x{2**n} matrix, got {U.shape}")
    if not np.allclose(U.conj().swapaxes(-1, -2) @ U, np.eye(2 ** n), rtol=0, atol=1e-10):
        raise ValidationError("matrix is not unitary")
    conj = np.einsum("...ab,jbc,...dc->...jad", U, basis.matrices, U.conj())
    rep = np.einsum("kab,...jba->...kj", basis.matrices, conj).real / 2 ** n
    return _readonly(rep[..., 1:, 1:].copy())
