"""Measured two-qubit relaxation model of 13C-labeled chloroform.

The 13C-1H spin pair in the doubly rotating frame has the Hamiltonian
(pi J / 2) ZZ with J the scalar coupling in Hz, plus a relaxation
superoperator that the secular approximation decouples into four
independent blocks, ordered by coherence order:

* population block        (ZI, IZ, ZZ)      rates r1..r6
* carbon one-quantum      (XI, YI, XZ, YZ)  rates r7, r8, r9
* proton one-quantum      (IX, IY, ZX, ZY)  rates r10, r11, r12
* zero/double quantum     (XY, YX, XX, YY)  rates r13, r14

Sign convention (important): rate tables for such systems are customarily
quoted as positive magnitudes inside block equations of the form
d/dt v = [M] v, which taken literally is anti-stable.  The assembled model
therefore interprets each block's symmetric part as the relaxation-matrix
magnitude and applies the contraction convention

    dx/dt = -R_block (x - x_eq),

whose fixed point is the equilibrium (eps_C, eps_H, 0) of the population
block: the assembled r_eq is that state, and the drive R r_eq is derived
from it.  The antisymmetric +-pi*J entries of the one-quantum blocks are
not relaxation: they belong to the coherent part and equal the projection
of the ZZ coupling Hamiltonian.  The tests assert both invariants, for
several couplings J and polarization units; assembly does not recheck them.

All rates are in 1/s with polarizations in eps-units (thermal carbon
polarization = 1, proton = 4 by the gyromagnetic ratio).  The physical
scale eps ~ 1e-5 multiplies linearly and is left configurable.
"""

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import AffineGenerator, affine_trajectory
from .errors import RankDeficient, ValidationError, check_count, json_floats
from .pauli import build_basis
from .pauli import _readonly

#: Observable labels per secular block, in block-row order.
BLOCKS = {
    "population": ("ZI", "IZ", "ZZ"),
    "carbon_coherence": ("XI", "YI", "XZ", "YZ"),
    "proton_coherence": ("IX", "IY", "ZX", "ZY"),
    "multi_quantum": ("XY", "YX", "XX", "YY"),
}

#: Free rate names per block.
BLOCK_RATES = {
    "population": ("r1", "r2", "r3", "r4", "r5", "r6"),
    "carbon_coherence": ("r7", "r8", "r9"),
    "proton_coherence": ("r10", "r11", "r12"),
    "multi_quantum": ("r13", "r14"),
}


@dataclass(frozen=True)
class RateSet:
    """The fourteen fitted relaxation rates plus coupling and equilibrium.

    Defaults are the fitted values for chloroform in d6-acetone at room
    temperature (eps = 1 units).
    """

    r1: float = 0.0532
    r2: float = 0.0918
    r3: float = 0.0798
    r4: float = 0.0212
    r5: float = 0.0000
    r6: float = 0.0022
    r7: float = 3.495
    r8: float = 6.536
    r9: float = 0.0100
    r10: float = 2.955
    r11: float = 6.118
    r12: float = 0.030
    r13: float = 9.523
    r14: float = 0.008
    J: float = 214.5
    eps_C: float = 1.0
    eps_H: float = 4.0

    def __post_init__(self):
        if not np.isfinite([*self.rates_array(), self.J, self.eps_C, self.eps_H]).all():
            raise ValidationError("rates, coupling and polarizations must be finite")

    def rates_array(self):
        return np.array([getattr(self, f"r{k}") for k in range(1, 15)])

    def with_rates(self, names, values):
        """Copy with the named rates replaced."""
        return replace(self, **dict(zip(names, values)))

    def to_json_dict(self):
        """JSON form: {"r": [14 floats], "J_hz": f, "eps_C": f, "eps_H": f}."""
        return {
            "r": list(self.rates_array()),
            "J_hz": self.J,
            "eps_C": self.eps_C,
            "eps_H": self.eps_H,
        }

    @classmethod
    def from_json_dict(cls, d):
        rates, J = json_floats(d, "rate set", "r", "J_hz")
        defaults = {"eps_C": cls.eps_C, "eps_H": cls.eps_H}
        eps_C, eps_H = json_floats({**defaults, **d}, "rate set", "eps_C", "eps_H")
        if rates.shape != (14,):
            raise ValidationError("rate vector must have 14 entries")
        if J.shape or eps_C.shape or eps_H.shape:
            raise ValidationError("J_hz, eps_C and eps_H must each be one number")
        kw = {f"r{k+1}": float(rates[k]) for k in range(14)}
        return cls(J=float(J), eps_C=float(eps_C), eps_H=float(eps_H), **kw)


CHLOROFORM = RateSet()


def _population_matrix(rs):
    return np.array(
        [
            [rs.r1, rs.r4, rs.r5],
            [rs.r4, rs.r2, rs.r6],
            [rs.r5, rs.r6, rs.r3],
        ]
    )


def _one_quantum_matrices(ra, rb, rc, J):
    piJ = np.pi * J
    sym = np.array(
        [
            [ra, 0.0, rc, 0.0],
            [0.0, ra, 0.0, rc],
            [rc, 0.0, rb, 0.0],
            [0.0, rc, 0.0, rb],
        ]
    )
    antisym = piJ * np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ]
    )
    return sym, antisym


def _multi_quantum_matrix(rs):
    return np.array(
        [
            [rs.r13, -rs.r14, 0.0, 0.0],
            [-rs.r14, rs.r13, 0.0, 0.0],
            [0.0, 0.0, rs.r13, rs.r14],
            [0.0, 0.0, rs.r14, rs.r13],
        ]
    )


def _block_labels(block):
    """The observable labels of a block; an unknown block name is refused."""
    if not isinstance(block, str) or block not in BLOCKS:
        raise ValidationError(f"unknown block {block!r}")
    return BLOCKS[block]


def block_matrices(rs, block):
    """(R_sym, H_antisym) for one secular block, in block-row order."""
    _block_labels(block)
    if block == "population":
        return _population_matrix(rs), np.zeros((3, 3))
    if block == "carbon_coherence":
        return _one_quantum_matrices(rs.r7, rs.r8, rs.r9, rs.J)
    if block == "proton_coherence":
        return _one_quantum_matrices(rs.r10, rs.r11, rs.r12, rs.J)
    return _multi_quantum_matrix(rs), np.zeros((4, 4))


def _block_fixed_point(rs, block):
    if block == "population":
        return np.array([rs.eps_C, rs.eps_H, 0.0])
    return np.zeros(len(BLOCKS[block]))


def assemble_generator(rates=CHLOROFORM):
    """Build the full 15-dimensional affine generator from a rate set.

    Each secular block supplies its relaxation matrix, its coherent +-pi J
    entries and its fixed point, the thermal state (eps_C, eps_H, 0) for
    the population block and zero elsewhere.  The tests assert that the
    coherent entries equal the projected ZZ coupling for any J, and that
    the drive R r_eq holds the population block at the thermal state in
    any polarization unit.

    Raises
    ------
    ValidationError
        If a diagonal rate is nonpositive.
    ContractivityViolation
        If the assembled relaxation matrix is not positive definite.
    """
    diag_names = ("r1", "r2", "r3", "r7", "r8", "r10", "r11", "r13")
    for name in diag_names:
        if getattr(rates, name) <= 0:
            raise ValidationError(f"diagonal rate {name} must be positive")

    basis = build_basis(2)
    d = basis.dim
    R = np.zeros((d, d))
    H = np.zeros((d, d))
    r_eq = np.zeros(d)
    for block, labels in BLOCKS.items():
        idx = [basis.index(lab) for lab in labels]
        R[np.ix_(idx, idx)], H[np.ix_(idx, idx)] = block_matrices(rates, block)
        r_eq[idx] = _block_fixed_point(rates, block)
    return AffineGenerator(n=2, Hmat=H, Rmat=R, r_eq=r_eq)


@dataclass(frozen=True)
class TrajectorySample:
    """Sampled expectation values along one evolution.

    times are strictly increasing seconds; observables maps basis labels to
    arrays aligned with times.
    """

    times: np.ndarray
    observables: dict

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if (t.ndim != 1 or len(t) < 1 or not np.isfinite(t).all()
                or np.any(np.diff(t) <= 0)):
            raise ValidationError("times must be finite and strictly increasing")
        basis = build_basis(2)
        obs = {}
        for lab, vals in self.observables.items():
            if lab not in basis.labels or lab == "II":
                raise ValidationError(f"unknown observable label {lab!r}")
            vals = np.asarray(vals, dtype=float)
            if vals.shape != t.shape or not np.isfinite(vals).all():
                raise ValidationError(f"observable {lab} must be finite, one per time")
            obs[lab] = _readonly(vals.copy())
        object.__setattr__(self, "times", _readonly(t.copy()))
        object.__setattr__(self, "observables", obs)


def simulate_block(rates, block, x0, times):
    """Exact trajectory of one secular block from initial coordinates x0.

    Times must be finite and >= 0.
    """
    labels = _block_labels(block)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(labels),):
        raise ValidationError(f"initial state must have length {len(labels)}")
    sym, antisym = block_matrices(rates, block)
    x_fix = _block_fixed_point(rates, block)
    return affine_trajectory(antisym - sym, x_fix, x0, times)


def synthesize_trajectories(
    rates, block, initial_states, times, noise=0.0, seed=None
):
    """Generate trajectory samples from known rates (optionally noisy).

    noise is the Gaussian standard deviation relative to the largest
    absolute signal value of each trajectory, finite and >= 0.
    """
    labels = _block_labels(block)
    if not (np.isfinite(noise) and noise >= 0):
        raise ValidationError(f"noise must be finite and >= 0, got {noise!r}")
    times = np.asarray(times, dtype=float)
    rng = np.random.default_rng(seed)
    samples = []
    for x0 in initial_states:
        clean = simulate_block(rates, block, x0, times)
        data = clean
        if noise > 0.0:
            data = clean + rng.normal(size=clean.shape) * (
                noise * np.abs(clean).max()
            )
        samples.append(
            TrajectorySample(
                times=times,
                observables={lab: data[:, j] for j, lab in enumerate(labels)},
            )
        )
    return samples


def fit_rates(trajs, block, init_guess=None, n_starts=4, seed=0, max_iter=6000):
    """Least-squares rate estimation for one secular block.

    Minimizes the summed squared deviation between exact simulated block
    trajectories and the observed samples over the block's free rates with
    scipy's trust-region reflective least squares (finite-difference
    Jacobian, default tolerances; a non-finite trial step is rejected).
    Starts are init_guess and n_starts - 1 random perturbations of it; the
    lowest residual sum of squares wins.

    Parameters
    ----------
    trajs : list of TrajectorySample
        Each must cover at least one block observable and >= 3 time points.
    block : str
        One of BLOCKS.
    init_guess : RateSet, optional
        Starting rates (defaults to the chloroform fits); non-block rates
        and J pass through unchanged.
    max_iter : int
        Simulation budget per start, a positive integer, Jacobian columns
        included: at most max(1, max_iter // (len(free) + 1)) residual
        evaluations, so a budget below len(free) + 1 returns the start
        unchanged.

    Returns
    -------
    (RateSet, float)
        Fitted rates and the root-mean-square residual.

    Raises
    ------
    RankDeficient
        If the data carry fewer residuals than free parameters.
    ValidationError
        If the block is unknown, n_starts or max_iter is not a positive
        integer, the seed is not a non-negative integer, or the rates at a
        start overflow on the data's time span.
    """
    labels = _block_labels(block)
    check_count(n_starts, "n_starts")
    check_count(max_iter, "max_iter")
    check_count(seed, "seed", minimum=0)
    if init_guess is None:
        init_guess = CHLOROFORM
    free = BLOCK_RATES[block]

    prepared = []
    n_resid = 0
    for traj in trajs:
        if len(traj.times) < 3:
            raise RankDeficient(
                "trajectories need at least 3 time points to constrain rates"
            )
        if traj.times[0] != 0.0:
            raise ValidationError(
                "trajectories must start at t=0 with the known initial state"
            )
        cols = [lab for lab in labels if lab in traj.observables]
        if not cols:
            raise ValidationError(
                f"trajectory carries no observables of block {block!r}"
            )
        data = np.column_stack([traj.observables[lab] for lab in cols])
        # block coordinates at t = 0, zeros for absent labels
        x0 = np.array([traj.observables[lab][0] if lab in cols else 0.0
                       for lab in labels])
        prepared.append((traj.times, [labels.index(c) for c in cols], data, x0))
        n_resid += (len(traj.times) - 1) * len(cols)  # t = 0 is not informative
    if n_resid < len(free):
        raise RankDeficient(
            f"{n_resid} informative residuals cannot identify "
            f"{len(free)} rates"
        )

    base = np.array([getattr(init_guess, name) for name in free])

    def residuals(params):
        rs = init_guess.with_rates(free, params)
        return np.concatenate([
            (simulate_block(rs, block, x0, times)[:, col_idx] - data).ravel()
            for times, col_idx, data, x0 in prepared
        ])

    rng = np.random.default_rng(seed)
    starts = [base]
    for _ in range(n_starts - 1):
        factors = np.exp(rng.uniform(-0.7, 0.7, size=len(base)))
        starts.append(base * factors + rng.normal(scale=1e-3, size=len(base)))

    if not all(np.isfinite(residuals(s)).all() for s in starts):
        raise ValidationError("start rates give a non-finite trajectory")
    from scipy.optimize import least_squares

    max_nfev = max(1, max_iter // (len(free) + 1))
    best = min((least_squares(residuals, s, max_nfev=max_nfev) for s in starts),
               key=lambda res: res.cost)
    fitted = init_guess.with_rates(free, best.x)
    rms = float(np.sqrt(2.0 * best.cost / n_resid))
    return fitted, rms
