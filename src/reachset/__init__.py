"""Reachable-set approximation for coherently controlled relaxing qubits.

The library bounds the set of states reachable from equilibrium when fast
coherent control is interleaved with Markovian relaxation:

* an outer bound from the purity derivative (the smallest origin-centered
  sphere enclosing the zero-purity-rate ellipsoid),
* an inner bound from small-time local controllability under the discrete
  set of diagonal permutation controls,
* the polytope of spectra attainable by unitary control alone,

and simulates the state-engineering protocols that exploit relaxation:
saturation-driven polarization enhancement and periodic pseudo-pure /
pseudo-Bell preparation, against a measured two-qubit relaxation model.
"""

__version__ = "0.1.0"

from .chloroform import (
    BLOCKS,
    CHLOROFORM,
    RateSet,
    TrajectorySample,
    assemble_generator,
    fit_rates,
    simulate_block,
    synthesize_trajectories,
)
from .diagonal import (
    DiagonalVector,
    diag_labels,
    diag_slots,
    embed,
    project,
)
from .dynamics import (
    AffineGenerator,
    evolve,
    lindblad_to_bloch,
    purity,
    purity_rate,
)
from .errors import (
    CertificationFailed,
    ContractivityViolation,
    FixedPointUndefined,
    NoUniqueFixedPoint,
    OriginNotControllable,
    RankDeficient,
    ReachsetError,
    ResidualTooLarge,
    SingularCombination,
    ValidationError,
)
from .over_approx import (
    PurityBound,
    ellipsoid_axis_intersections,
    max_purity_multistart,
    max_purity_on_ellipsoid,
)
from .pauli import (
    CoherenceVector,
    PauliBasis,
    build_basis,
    decode,
    deviation_matrix,
    encode,
    unitary_rep,
)
from .sequences import (
    FixedPointReport,
    GateStep,
    PeriodicSequence,
    RelaxStep,
    RobustnessResult,
    SequenceResult,
    averaging_permutation,
    bell_basis_change,
    bell_direction,
    bell_sequence,
    fixed_point,
    noe_steady_state,
    one_period_map,
    pps_direction,
    pps_pulse_sequence_builder,
    pps_sequence,
    robustness_sweep,
    saturation_system,
    simulate_sequence,
)
from .under_approx import (
    ConeVerdict,
    PermutationControlSet,
    build_permutation_set,
    fibonacci_sphere,
    hypersurface_point,
    stlc_boundary_rays,
    stlc_test_3d,
    stlc_test_lp,
)
from .unitary_bound import (
    diagonal_vertex_coords,
    kappa_channel,
    kappa_unitary,
    kappa_unitary_max,
    polytope_ray_exit,
    polytope_vertices,
)
