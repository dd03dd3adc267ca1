"""Affine coherence-vector dynamics of a relaxing qubit register.

A Markovian master equation with Hamiltonian H and relaxation superoperator
D turns, in the Pauli coefficient representation, into the affine ODE

    dr/dt = Hmat r - Rmat (r - r_eq),

with Hmat antisymmetric (coherent part), Rmat symmetric (relaxation part)
and r_eq the relaxation fixed point.  When the free relaxation channel is
strictly contractive, Rmat is positive definite and r_eq = Rmat^{-1} v is
unique, where v is the inhomogeneous drive generated by the action of D on
the identity.

Propagation is exact: with A = Hmat - Rmat and full fixed point
r* = A^{-1}(-v), the solution is r(t) = e^{At} (r0 - r*) + r*.  A fixed-step
Runge-Kutta integrator is deliberately not provided here; the test suite
carries one as an independent oracle.

Purity bookkeeping: p = Tr rho^2 = 1/2^n + 2^n r.r, and its time derivative
under the generator is dp/dt = -2^{n+1} r.Rmat.(r - r_eq); the antisymmetric
part never contributes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import ContractivityViolation, FixedPointUndefined, ValidationError
from .errors import json_fields
from .pauli import CoherenceVector, build_basis, _readonly

_SYM_TOL = 1e-10
_EQ_TOL = 1e-9


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
        Symmetric relaxation matrix, 1/s.  Positive definite unless the
        generator was constructed with ``unital=True``.
    r_eq : ndarray
        Relaxation fixed point, Rmat @ r_eq = v.
    v : ndarray
        Inhomogeneous drive, 1/s.  Stored redundantly; consistency with
        r_eq is asserted at construction.
    unital : bool
        Permits a positive semidefinite Rmat (r_eq típically 0).  Reachability
        analyses require the strict SPD case and reject unital generators.
    """

    n: int
    Hmat: np.ndarray
    Rmat: np.ndarray
    r_eq: np.ndarray
    v: np.ndarray = None
    unital: bool = field(default=False)

    def __post_init__(self):
        d = 4 ** self.n - 1
        H = np.asarray(self.Hmat, dtype=float)
        R = np.asarray(self.Rmat, dtype=float)
        r_eq = np.asarray(self.r_eq, dtype=float)
        v = None if self.v is None else np.asarray(self.v, dtype=float)
        if H.shape != (d, d) or R.shape != (d, d) or r_eq.shape != (d,):
            raise ValidationError(
                f"generator for n={self.n} needs {d}x{d} matrices and a "
                f"length-{d} equilibrium vector"
            )
        arrays = (H, R, r_eq) if v is None else (H, R, r_eq, v)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValidationError("generator entries must be finite")
        if np.abs(H + H.T).max() > _SYM_TOL * max(1.0, np.abs(H).max()):
            raise ValidationError("Hmat is not antisymmetric")
        if np.abs(R - R.T).max() > _SYM_TOL * max(1.0, np.abs(R).max()):
            raise ValidationError("Rmat is not symmetric")
        eigs = np.linalg.eigvalsh(R)
        scale = max(1.0, abs(eigs[-1]))
        if self.unital:
            if eigs[0] < -1e-10 * scale:
                raise ContractivityViolation(
                    f"Rmat has a negative eigenvalue ({eigs[0]:.3e})"
                )
        elif eigs[0] <= 1e-12 * scale:
            raise ContractivityViolation(
                f"Rmat is not positive definite (min eigenvalue {eigs[0]:.3e}); "
                "pass unital=True only for unital special cases"
            )
        if v is None:
            v = R @ r_eq
        elif np.abs(R @ r_eq - v).max() > _EQ_TOL * max(1.0, np.abs(v).max()):
            raise ValidationError("Rmat @ r_eq does not reproduce v")
        object.__setattr__(self, "Hmat", _readonly(H.copy()))
        object.__setattr__(self, "Rmat", _readonly(R.copy()))
        object.__setattr__(self, "r_eq", _readonly(r_eq.copy()))
        object.__setattr__(self, "v", _readonly(v.copy()))

    @property
    def dim(self):
        return 4 ** self.n - 1

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
    def from_json_dict(cls, d, unital=False):
        n, H, R, r_eq = json_fields(d, "generator", "n", "H", "R", "r_eq")
        return cls(
            n=int(n),
            Hmat=np.asarray(H, dtype=float),
            Rmat=np.asarray(R, dtype=float),
            r_eq=np.asarray(r_eq, dtype=float),
            unital=unital,
        )


def lindblad_to_bloch(hamiltonian, dissipator, n=None, unital=False):
    """Project a master equation onto the coherence-vector representation.

    Parameters
    ----------
    hamiltonian : ndarray, shape (2^n, 2^n)
        Hermitian system-plus-control Hamiltonian (rad/s).
    dissipator : callable or None
        Action of the relaxation superoperator on a matrix.  Must
        annihilate traces and preserve Hermiticity (spot-checked on basis
        operators).  ``None`` means no relaxation.
    n : int, optional
        Qubit count; inferred from the Hamiltonian when omitted.
    unital : bool
        Accept a positive semidefinite relaxation matrix.

    Returns
    -------
    AffineGenerator

    Notes
    -----
    Matrix elements are Hmat_kj = Tr(-i B_k [H, B_j])/2^n,
    Rmat_kj = -Tr(B_k D(B_j))/2^n and v_k = Tr(B_k D(I))/4^n.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    if n is None:
        n = int(round(np.log2(hamiltonian.shape[0])))
    basis = build_basis(n)
    dim = 2 ** n
    if hamiltonian.shape != (dim, dim):
        raise ValidationError(f"Hamiltonian must be {dim}x{dim}")
    if not np.allclose(hamiltonian, hamiltonian.conj().T, atol=1e-10):
        raise ValidationError("Hamiltonian is not Hermitian")

    comm = hamiltonian @ basis.matrices - basis.matrices @ hamiltonian
    Hfull = np.einsum("kab,jba->kj", basis.matrices, -1j * comm) / dim
    if np.abs(Hfull.imag).max() > 1e-10:
        raise ValidationError("coherent part has imaginary matrix elements")
    Hmat = Hfull.real[1:, 1:]

    d = basis.dim
    if dissipator is None:
        Rmat = np.zeros((d, d))
        v = np.zeros(d)
    else:
        images = np.empty_like(basis.matrices)
        for j in range(4 ** n):
            img = np.asarray(dissipator(basis.matrices[j]), dtype=complex)
            if abs(np.trace(img)) > 1e-9:
                raise ValidationError("dissipator does not annihilate traces")
            if not np.allclose(img, img.conj().T, atol=1e-9):
                raise ValidationError("dissipator does not preserve Hermiticity")
            images[j] = img
        Rfull = -np.einsum("kab,jba->kj", basis.matrices, images).real / dim
        Rmat = 0.5 * (Rfull[1:, 1:] + Rfull[1:, 1:].T)
        if np.abs(Rfull[1:, 1:] - Rmat).max() > 1e-9 * max(1.0, np.abs(Rmat).max()):
            raise ValidationError("relaxation part is not symmetric")
        v = np.einsum("kab,ba->k", basis.matrices[1:], images[0]).real / 4 ** n

    if unital or not np.any(v):
        r_eq, *_ = np.linalg.lstsq(Rmat, v, rcond=None)
        if np.abs(Rmat @ r_eq - v).max() > 1e-9 * max(1.0, np.abs(v).max()):
            raise ContractivityViolation("drive v is not in the range of Rmat")
    else:
        eigs = np.linalg.eigvalsh(Rmat)
        if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
            raise ContractivityViolation(
                f"relaxation matrix is not positive definite "
                f"(min eigenvalue {eigs[0]:.3e})"
            )
        r_eq = np.linalg.solve(Rmat, v)
    return AffineGenerator(n=n, Hmat=Hmat, Rmat=Rmat, r_eq=r_eq, v=v, unital=unital)


def relax_propagator(gen, t):
    """Exact affine propagator of the free dynamics over time t.

    Returns (E, c) with r(t) = E @ r0 + c, computed from the matrix
    exponential of the drift and the full fixed point.
    """
    if t < 0:
        raise ValidationError("propagation time must be nonnegative")
    E = expm(gen.drift * t)
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
    out = np.empty((len(times), len(x0)))
    for i, t in enumerate(times):
        out[i] = expm(A * t) @ (x0 - x_fix) + x_fix
    return out


def evolve(gen, r0, t):
    """Propagate a state exactly for time t under the free dynamics.

    Parameters
    ----------
    gen : AffineGenerator
    r0 : CoherenceVector
    t : float
        Seconds, t >= 0.

    Returns
    -------
    CoherenceVector
    """
    if r0.n != gen.n:
        raise ValidationError("state and generator qubit counts differ")
    E, c = relax_propagator(gen, t)
    return CoherenceVector(n=gen.n, r=E @ r0.r + c)


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
