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
from .errors import RankDeficient, ValidationError, check_count, check_real, json_floats
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

    x0 must be finite, times finite and >= 0.
    """
    labels = _block_labels(block)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (len(labels),) or not np.isfinite(x0).all():
        raise ValidationError(f"initial state must be {len(labels)} finite numbers")
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
    noise = check_real(noise, "noise")
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
    trajectories and the observed samples over the block's free rates by
    More's Levenberg-Marquardt method in numpy: a forward-difference
    Jacobian with scipy's step, scipy's default stopping tests (ftol, xtol
    and gtol 1e-8), and rejection of a trial step whose residuals are not
    finite.  Starts are init_guess and n_starts - 1 random perturbations
    of it; the lowest residual sum of squares wins.  The tests check the
    cost against scipy's trust-region least squares from the same starts.

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
        If the block is unknown, init_guess is not a RateSet, n_starts or
        max_iter is not a positive integer, the seed is not a non-negative
        integer, or the rates at a start overflow on the data's time span.
    """
    labels = _block_labels(block)
    check_count(n_starts, "n_starts")
    check_count(max_iter, "max_iter")
    check_count(seed, "seed", minimum=0)
    if init_guess is None:
        init_guess = CHLOROFORM
    if not isinstance(init_guess, RateSet):
        raise ValidationError(f"init_guess must be a RateSet, got {init_guess!r}")
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

    start_residuals = [residuals(s) for s in starts]
    if not all(np.isfinite(f).all() for f in start_residuals):
        raise ValidationError("start rates give a non-finite trajectory")

    max_nfev = max(1, max_iter // (len(free) + 1))
    x, cost = min((_levenberg_marquardt(residuals, s, f, max_nfev)
                   for s, f in zip(starts, start_residuals)),
                  key=lambda fit: fit[1])
    fitted = init_guess.with_rates(free, x)
    rms = float(np.sqrt(2.0 * cost / n_resid))
    return fitted, rms


#: ftol, xtol and gtol of the fit's stopping tests, scipy's defaults.
_FIT_TOL = 1e-8


def _levenberg_marquardt(fun, x, f, max_nfev):
    """(x, cost) from a local minimization of cost = |fun(x)|^2 / 2 from x,
    where f = fun(x).

    More's (1978) Levenberg-Marquardt: each trial step dx minimizes
    |f + J dx|^2 + lam |D dx|^2 with lam >= 0 the smallest that keeps
    |D dx| near a trust radius, D the largest column norms of the
    Jacobian J seen so far.  It is solved from the SVD of J D^-1 (null
    directions take no step).  A step is taken when it lowers the cost;
    the radius follows the ratio of actual to predicted reduction, as in
    scipy's trust-region solver, and a trial whose cost is not finite
    shrinks it like a poor one.  J is forward-difference, with scipy's
    step sqrt(eps) max(1, |x|) signed like x.

    fun is called at most max_nfev times, f counting as the first, plus
    len(x) times per Jacobian.  It stops on scipy's tests, all at
    _FIT_TOL: |J^T f|_inf < gtol; a reduction below ftol cost at a ratio
    above 1/4; or a trial step |D dx| below xtol (xtol + |D x|), which
    also ends the run of ever shorter rejected steps at an exact optimum.
    """
    cost = 0.5 * (f @ f)
    nfev = 1
    D = np.zeros(len(x))
    radius = None
    while nfev < max_nfev:
        steps = (x + np.sqrt(np.finfo(float).eps) * np.where(x >= 0, 1.0, -1.0)
                 * np.maximum(1.0, np.abs(x))) - x
        J = np.column_stack([(fun(x + h) - f) / h[j]
                             for j, h in enumerate(np.diag(steps))])
        if np.abs(J.T @ f).max() < _FIT_TOL:
            break
        D = np.maximum(D, np.linalg.norm(J, axis=0))
        D[D == 0.0] = 1.0
        if radius is None:
            radius = np.linalg.norm(D * x) or 1.0
        U, s, Vt = np.linalg.svd(J / D, full_matrices=False)
        kept = s > s[0] * len(f) * np.finfo(float).eps  # lstsq's cutoff
        s, uf, Vt = s[kept], (U.T @ f)[kept], Vt[kept]
        while nfev < max_nfev:
            p, step = _trust_region_step(s, uf, radius)
            dx = -(Vt.T @ p) / D
            f_new = fun(x + dx)
            nfev += 1
            with np.errstate(over="ignore", invalid="ignore"):
                cost_new = 0.5 * (f_new @ f_new)
            reduction = cost - cost_new if np.isfinite(cost_new) else -np.inf
            fitted_part = s * p  # -U^T J dx
            predicted = uf @ fitted_part - 0.5 * (fitted_part @ fitted_part)
            ratio = reduction / predicted if predicted > 0.0 else 0.0
            if ratio < 0.25:
                radius = 0.25 * step
            elif ratio > 0.75 and step > 0.95 * radius:
                radius *= 2.0
            done = ((reduction < _FIT_TOL * cost and ratio > 0.25)
                    or step < _FIT_TOL * (_FIT_TOL + np.linalg.norm(D * x)))
            if reduction > 0.0:
                x, f, cost = x + dx, f_new, cost_new
            if reduction > 0.0 or done:
                break
        if done:
            break
    return x, cost


def _trust_region_step(s, uf, radius):
    """(p, |p|): p = s uf / (s^2 + lam), lam >= 0 the least giving
    |p| <= 1.1 radius.

    lam comes from Newton's method on 1/|p(lam)| = 1/radius from lam = 0
    (More & Sorensen 1983); 1/|p| is concave in lam, so the iterates rise
    monotonically to the root.
    """
    lam = 0.0
    while True:
        p = s * uf / (s ** 2 + lam)
        step = np.linalg.norm(p)
        if step <= 1.1 * radius:
            return p, step
        lam += (step / radius - 1.0) * step ** 2 / (p ** 2 @ (1.0 / (s ** 2 + lam)))
