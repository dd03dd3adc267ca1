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
r* = A^{-1}(-v), the solution is r(t) = e^{At} (r0 - r*) + r*.  The matrix
exponential comes from one eigendecomposition A = V diag(w) V^{-1}, cached
on the generator: every t then costs one exp of the eigenvalues and one
product, e^{At} = V diag(e^{wt}) V^{-1}.  This is accurate only while the
eigenvectors are well conditioned (Moler & Van Loan 2003, "Nineteen dubious
ways", method 14), so a drift whose cond(V) exceeds EIG_COND_MAX, near a
defective one, takes scipy's scaling-and-squaring expm instead; scipy is
imported on that path only.  A fixed-step Runge-Kutta integrator is
deliberately not provided here; the test suite carries one as an
independent oracle.

Purity bookkeeping: p = Tr rho^2 = 1/2^n + 2^n r.r, and its time derivative
under the generator is dp/dt = -2^{n+1} r.Rmat.(r - r_eq); the antisymmetric
part never contributes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractivityViolation, FixedPointUndefined, ValidationError
from .errors import json_fields, json_floats
from .pauli import build_basis, _check_qubit_count, _readonly

#: Largest asymmetry of Hmat and Rmat, relative to their largest entry.
_SYM_TOL = 1e-10

#: Largest cond(V), V the unit-column eigenvector matrix of a drift A, for
#: which e^{At} comes from the eigendecomposition.  That form's error in the
#: max norm is of order u cond(V) (d + |A|_2 t), u = 1.1e-16: rounding in the
#: two d-term products with V and V^{-1}, and the eigenvalues' backward error
#: u |A|_2, amplified by up to cond(V) and carried over the time t; each
#: |e^{wt}| is at most 1 for a contracting drift.  On random contracting
#: drifts it stays within 4 times that (tests); scipy's expm errs by about
#: u |A|_2 t.  At the guard the eig form may err by up to about
#: 4e4 u (d + |A|_2 t), 7e-11 for d = 15 and a short t, so it is kept for
#: drifts far below: the bundled one has cond(V) = 1.19 (at t = 0.1 s the
#: eig form errs by 4.1e-14, expm by 8.1e-13) and random contracting
#: 15-dimensional drifts reach about 700.  A defective 2x2 block (an
#: exceptional point) gives about 1e8 and takes expm.
EIG_COND_MAX = 1e4


def _check_positive_definite(R):
    """Refuse a symmetric R unless its eigenvalues are positive relative to
    the largest; return its smallest eigenvalue."""
    eigs = np.linalg.eigvalsh(R)
    if eigs[0] <= 1e-12 * eigs[-1]:
        raise ContractivityViolation(
            f"relaxation matrix is not positive definite (min eigenvalue {eigs[0]:.3e})"
        )
    return float(eigs[0])


def _exact_part(M, sign):
    """The symmetric (sign 1) or antisymmetric (sign -1) part of M, exactly
    so; an M that already is one keeps its bits, at every scale."""
    upper = np.triu(M - 0.5 * (M - sign * M.T))
    return upper + sign * np.triu(upper, 1).T


@dataclass(frozen=True)
class Eigensystem:
    """Read-only eigendecomposition A = V diag(w) V^{-1} of a real square A.

    V has unit columns, as numpy's eig returns them; cond is its 2-norm
    condition number.  Vinv is None when cond exceeds EIG_COND_MAX, where
    propagators leave the decomposition for expm (see `path`).
    """

    w: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray
    cond: float

    @property
    def path(self):
        """How e^{At} is formed: "eig" from this decomposition, else "expm"."""
        return "eig" if self.Vinv is not None else "expm"


def _eigensystem(A):
    """Eigensystem of A, inverting V only where its condition passes the guard."""
    w, V = np.linalg.eig(A)
    cond = float(np.linalg.cond(V))
    Vinv = _readonly(np.linalg.inv(V)) if cond <= EIG_COND_MAX else None
    return Eigensystem(w=_readonly(w), V=_readonly(V), Vinv=Vinv, cond=cond)


def _exp_modes(w, t):
    """e^{wt}, one row per time of t and one column per eigenvalue of w.

    A mode whose modulus e^{Re(w) t} underflows is exactly 0: at t near the
    float range, w t of a complex w overflows in its imaginary part and
    e^{wt} is NaN, yet the mode's limit is 0 whatever its phase.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        wt = np.multiply.outer(t, w)
        return np.where(np.exp(wt.real) == 0.0, 0.0, np.exp(wt))


def _check_relaxation_time(t):
    """Refuse a relaxation time that is negative, infinite or NaN."""
    if not (np.isfinite(t) and t >= 0):
        raise ValidationError("relaxation time must be finite and >= 0")


@dataclass(frozen=True)
class AffineGenerator:
    """Bloch-form generator (Hmat, Rmat, r_eq) of an open-system ODE.

    Attributes
    ----------
    n : int
        Qubit count; matrices are (4^n - 1) square.
    Hmat : ndarray
        Antisymmetric coherent part, rad/s: the antisymmetric part of the
        matrix given, whose asymmetry may be up to 1e-10 of its largest
        entry.
    Rmat : ndarray
        Symmetric positive definite relaxation matrix, 1/s, the symmetric
        part of the matrix given: every analysis needs the strictly
        contractive case.
    r_eq : ndarray
        Relaxation fixed point.
    contraction_rate : float
        gamma = lambda_min(Rmat), from the spectrum the positive-definite
        check computes.  Hmat is exactly antisymmetric, so gamma is minus
        the drift's logarithmic 2-norm, -lambda_max((A + A^T)/2), and
        |e^{At}|_2 <= e^{-gamma t} (Dahlquist 1958; Soderlind 2006).

    The first four are the generator's only data.  contraction_rate is
    derived from them on construction, and the drive ``v``, like every
    cached property below, on first use, so it cannot disagree with r_eq.
    """

    n: int
    Hmat: np.ndarray
    Rmat: np.ndarray
    r_eq: np.ndarray
    contraction_rate: float = field(init=False, repr=False, compare=False)

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
        R = _exact_part(R, 1)
        gamma = _check_positive_definite(R)
        object.__setattr__(self, "Hmat", _readonly(_exact_part(H, -1)))
        object.__setattr__(self, "Rmat", _readonly(R))
        object.__setattr__(self, "r_eq", _readonly(r_eq.copy()))
        object.__setattr__(self, "contraction_rate", gamma)

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
    def drift_eig(self):
        """Eigensystem of the drift, shared by every relax_propagator call."""
        return _eigensystem(self.drift)

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

    Returns (E, c) with r(t) = E @ r0 + c, where E = e^{At} and c follows
    from the full fixed point.  E is (V diag(e^{wt}) V^{-1}).real from the
    generator's cached drift eigensystem, or scipy's expm of At where that
    eigensystem fails the EIG_COND_MAX guard (see the module docstring and
    `gen.drift_eig.path`).  A mode that decays below the float range
    contributes exactly 0, so on a contracting drift E is finite for every
    finite t >= 0.  A non-finite E (expm's NaN at such t, or a mode that
    rounding makes grow) raises ValidationError, as does a negative or
    non-finite t.
    """
    _check_relaxation_time(t)
    eig = gen.drift_eig
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite E is refused below
        if eig.path == "eig":
            E = ((eig.V * _exp_modes(eig.w, t)) @ eig.Vinv).real
        else:
            from scipy.linalg import expm

            E = expm(gen.drift * t)
    if not np.isfinite(E).all():
        raise ValidationError(
            f"relaxation time {t:g} s is too long: e^(At) is not finite"
        )
    rstar = gen.fixed_point
    return E, rstar - E @ rstar


def affine_trajectory(A, x_fix, x0, times):
    """Exact solution of dx/dt = A (x - x_fix) from x0, one row per time.

    Rows are e^{At} (x0 - x_fix) + x_fix from one eigendecomposition of A
    for all times: eigh when A is exactly symmetric, else eig, with
    relax_propagator's EIG_COND_MAX guard; a near-defective A takes one
    scipy expm per time instead.
    """
    if np.array_equal(A, A.T):
        w, V = np.linalg.eigh(A)
        Vinv = V.T
    else:
        eig = _eigensystem(A)
        if eig.path == "expm":
            from scipy.linalg import expm

            out = np.empty((len(times), len(x0)))
            for i, t in enumerate(times):
                out[i] = expm(A * t) @ (x0 - x_fix) + x_fix
            return out
        w, V, Vinv = eig.w, eig.V, eig.Vinv
    y0 = Vinv @ (x0 - x_fix)
    return (V * _exp_modes(w, times)[:, None, :] @ y0[:, None])[
        :, :, 0
    ].real + x_fix


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
