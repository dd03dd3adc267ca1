"""Affine coherence-vector dynamics of a relaxing qubit register.

A Markovian master equation with Hamiltonian H and relaxation superoperator
D turns, in the Pauli coefficient representation, into the affine ODE

    dr/dt = Hmat r - Rmat (r - r_eq),

with Hmat antisymmetric (coherent part), Rmat symmetric (relaxation part)
and r_eq the relaxation fixed point.  Every generator here is strictly
contractive: Rmat is positive definite, checked relative to its largest
eigenvalue, so r_eq = Rmat^{-1} v is unique, where v is the inhomogeneous
drive generated by the action of D on the identity.

Propagation is exact: with A = Hmat - Rmat and full fixed point
r* = A^{-1}(-v), the solution is r(t) = e^{At} (r0 - r*) + r*.  A fixed-step
Runge-Kutta integrator is deliberately not provided here; the test suite
carries one as an independent oracle.

Purity bookkeeping: p = Tr rho^2 = 1/2^n + 2^n r.r, and its time derivative
under the generator is dp/dt = -2^{n+1} r.Rmat.(r - r_eq); the antisymmetric
part never contributes.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractivityViolation, FixedPointUndefined, ValidationError
from .errors import json_fields, json_floats
from .pauli import build_basis, _check_qubit_count, _readonly

#: Largest asymmetry of Hmat and Rmat, relative to their largest entry.
_SYM_TOL = 1e-10


def _check_positive_definite(R):
    """Refuse a symmetric R unless its eigenvalues are positive relative to the largest."""
    eigs = np.linalg.eigvalsh(R)
    if eigs[0] <= 1e-12 * eigs[-1]:
        raise ContractivityViolation(
            f"relaxation matrix is not positive definite (min eigenvalue {eigs[0]:.3e})"
        )


@dataclass(frozen=True)
class AffineGenerator:
    """Bloch-form generator (Hmat, Rmat, r_eq) of an open-system ODE.

    Attributes
    ----------
    n : int
        Qubit count; matrices are (4^n - 1) square.
    Hmat : ndarray
        Antisymmetric coherent part, rad/s.
    Rmat : ndarray
        Symmetric positive definite relaxation matrix, 1/s: every analysis
        needs the strictly contractive case.
    r_eq : ndarray
        Relaxation fixed point.

    These are the generator's only data.  The drive ``v``, like ``drift``
    and ``fixed_point``, is derived from them on first use, so it cannot
    disagree with r_eq.
    """

    n: int
    Hmat: np.ndarray
    Rmat: np.ndarray
    r_eq: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        d = 4 ** self.n - 1
        H = np.asarray(self.Hmat, dtype=float)
        R = np.asarray(self.Rmat, dtype=float)
        r_eq = np.asarray(self.r_eq, dtype=float)
        if H.shape != (d, d) or R.shape != (d, d) or r_eq.shape != (d,):
            raise ValidationError(
                f"generator for n={self.n} needs {d}x{d} matrices and a "
                f"length-{d} equilibrium vector"
            )
        if not all(np.isfinite(a).all() for a in (H, R, r_eq)):
            raise ValidationError("generator entries must be finite")
        if np.abs(H + H.T).max() > _SYM_TOL * np.abs(H).max():
            raise ValidationError("Hmat is not antisymmetric")
        if np.abs(R - R.T).max() > _SYM_TOL * np.abs(R).max():
            raise ValidationError("Rmat is not symmetric")
        _check_positive_definite(R)
        object.__setattr__(self, "Hmat", _readonly(H.copy()))
        object.__setattr__(self, "Rmat", _readonly(R.copy()))
        object.__setattr__(self, "r_eq", _readonly(r_eq.copy()))

    @property
    def dim(self):
        return 4 ** self.n - 1

    @cached_property
    def v(self):
        """Inhomogeneous drive Rmat @ r_eq, 1/s."""
        return _readonly(self.Rmat @ self.r_eq)

    @cached_property
    def drift(self):
        """A = Hmat - Rmat, the homogeneous part of the ODE."""
        return _readonly(self.Hmat - self.Rmat)

    @cached_property
    def fixed_point(self):
        """Fixed point of the full free dynamics, A r* + v = 0.

        Coincides with r_eq whenever Hmat annihilates r_eq (as it does for
        secular models whose equilibrium is diagonal).
        """
        if not np.any(self.v):
            return _readonly(np.zeros(self.dim))
        try:
            rstar = np.linalg.solve(-self.drift, self.v)
        except np.linalg.LinAlgError as exc:
            raise FixedPointUndefined(
                "drift matrix is singular but the drive is nonzero"
            ) from exc
        return _readonly(rstar)

    def to_json_dict(self):
        """JSON form: {"n", "H", "R", "r_eq"}, matrices row-major."""
        return {
            "n": self.n,
            "H": [list(row) for row in self.Hmat],
            "R": [list(row) for row in self.Rmat],
            "r_eq": list(self.r_eq),
        }

    @classmethod
    def from_json_dict(cls, d):
        (n,) = json_fields(d, "generator", "n")
        H, R, r_eq = json_floats(d, "generator", "H", "R", "r_eq")
        return cls(n=n, Hmat=H, Rmat=R, r_eq=r_eq)


def lindblad_to_bloch(hamiltonian, dissipator):
    """Project a master equation onto the coherence-vector representation.

    Parameters
    ----------
    hamiltonian : ndarray, shape (2^n, 2^n)
        Hermitian system-plus-control Hamiltonian (rad/s).
    dissipator : callable or None
        Action of the relaxation superoperator on a matrix.  Must
        annihilate traces and preserve Hermiticity (checked on the basis
        operators).  ``None`` means no relaxation.  A relaxation matrix
        that is not positive definite, as with ``None``, raises
        ContractivityViolation.

    Returns
    -------
    AffineGenerator

    Notes
    -----
    Matrix elements are Hmat_kj = Tr(-i B_k [H, B_j])/2^n,
    Rmat_kj = -Tr(B_k D(B_j))/2^n and v_k = Tr(B_k D(I))/4^n.  Every check
    compares with the size of the matrices it inspects, so a Hamiltonian or
    dissipator in any unit passes or fails alike.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    n = hamiltonian.shape[0].bit_length() - 1
    basis = build_basis(n)
    dim = 2 ** n
    if hamiltonian.shape != (dim, dim):
        raise ValidationError(f"Hamiltonian must be {dim}x{dim}")
    h_scale = np.abs(hamiltonian).max()
    if np.abs(hamiltonian - hamiltonian.conj().T).max() > _SYM_TOL * h_scale:
        raise ValidationError("Hamiltonian is not Hermitian")

    comm = hamiltonian @ basis.matrices - basis.matrices @ hamiltonian
    Hfull = np.einsum("kab,jba->kj", basis.matrices, -1j * comm) / dim
    if np.abs(Hfull.imag).max() > 1e-10 * h_scale:
        raise ValidationError("coherent part has imaginary matrix elements")
    Hmat = Hfull.real[1:, 1:]

    images = np.zeros_like(basis.matrices)  # no dissipator: no relaxation
    if dissipator is not None:
        for j in range(4 ** n):
            images[j] = dissipator(basis.matrices[j])
    d_scale = np.abs(images).max()
    if np.abs(np.trace(images, axis1=1, axis2=2)).max() > 1e-9 * d_scale:
        raise ValidationError("dissipator does not annihilate traces")
    if np.abs(images - images.conj().transpose(0, 2, 1)).max() > 1e-9 * d_scale:
        raise ValidationError("dissipator does not preserve Hermiticity")
    Rfull = -np.einsum("kab,jba->kj", basis.matrices, images).real / dim
    Rmat = 0.5 * (Rfull[1:, 1:] + Rfull[1:, 1:].T)
    if np.abs(Rfull[1:, 1:] - Rmat).max() > 1e-9 * np.abs(Rmat).max():
        raise ValidationError("relaxation part is not symmetric")
    v = np.einsum("kab,ba->k", basis.matrices[1:], images[0]).real / 4 ** n

    _check_positive_definite(Rmat)
    # solve() gives -0.0 entries for a zero drive; the equilibrium is +0.0
    r_eq = np.linalg.solve(Rmat, v) if np.any(v) else np.zeros(basis.dim)
    return AffineGenerator(n=n, Hmat=Hmat, Rmat=Rmat, r_eq=r_eq)


def relax_propagator(gen, t):
    """Exact affine propagator of the free dynamics over time t.

    Returns (E, c) with r(t) = E @ r0 + c, computed from the matrix
    exponential of the drift and the full fixed point.  A time so long that
    e^{At} is not finite (expm gives NaN without a warning) raises
    ValidationError.
    """
    from scipy.linalg import expm

    if t < 0:
        raise ValidationError("propagation time must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite At is caught below
        E = expm(gen.drift * t)
    if not np.isfinite(E).all():
        raise ValidationError(
            f"relaxation time {t:g} s is too long: e^(At) is not finite"
        )
    rstar = gen.fixed_point
    return E, rstar - E @ rstar


def affine_trajectory(A, x_fix, x0, times):
    """Exact solution of dx/dt = A (x - x_fix) from x0, one row per time.

    Rows are e^{At} (x0 - x_fix) + x_fix: from one eigendecomposition when
    A is exactly symmetric, else from one matrix exponential per time.
    """
    if np.array_equal(A, A.T):
        w, V = np.linalg.eigh(A)
        y0 = V.T @ (x0 - x_fix)
        return (V * np.exp(np.outer(times, w))[:, None, :] @ y0[:, None])[
            :, :, 0
        ] + x_fix
    from scipy.linalg import expm

    out = np.empty((len(times), len(x0)))
    for i, t in enumerate(times):
        out[i] = expm(A * t) @ (x0 - x_fix) + x_fix
    return out


def purity(v):
    """Tr rho^2 = 1/2^n + 2^n r.r; in (0, 1] for physical states."""
    return 1.0 / 2 ** v.n + 2 ** v.n * float(v.r @ v.r)


def purity_rate(gen, v):
    """Instantaneous purity derivative, -2^{n+1} r.Rmat.(r - r_eq).

    The coherent part drops out (r.Hmat.r = 0 for antisymmetric Hmat), so
    only the relaxation matrix and the equilibrium enter.
    """
    if v.n != gen.n:
        raise ValidationError("state and generator qubit counts differ")
    r = v.r
    return -(2.0 ** (gen.n + 1)) * float(r @ (gen.Rmat @ (r - gen.r_eq)))
