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

Importing the package loads no submodule and no numpy: each public name is
imported from its home submodule on first use (PEP 562).  The lookup does
not bind the name in this namespace, so `reachset.X` always reads the
submodule's current attribute.
"""

import importlib

__version__ = "0.1.0"

#: Public names by home submodule.
_EXPORTS = {
    "chloroform": (
        "BLOCKS", "CHLOROFORM", "RateSet", "TrajectorySample", "assemble_generator",
        "fit_rates", "simulate_block", "synthesize_trajectories",
    ),
    "diagonal": ("DiagonalVector", "diag_labels", "diag_slots"),
    "dynamics": ("AffineGenerator", "lindblad_to_bloch", "purity", "purity_rate"),
    "errors": (
        "CertificationFailed", "ContractivityViolation", "FixedPointUndefined",
        "NoUniqueFixedPoint", "OriginNotControllable", "RankDeficient", "ReachsetError",
        "ResidualTooLarge", "ValidationError",
    ),
    "over_approx": (
        "PurityBound", "ellipsoid_axis_intersections", "max_purity_multistart",
        "max_purity_on_ellipsoid",
    ),
    "pauli": (
        "CoherenceVector", "PauliBasis", "build_basis", "decode", "deviation_matrix",
        "encode", "unitary_rep",
    ),
    "sequences": (
        "FixedPointReport", "GateStep", "PeriodicSequence", "RelaxStep",
        "RobustnessResult", "SequenceResult", "averaging_permutation",
        "bell_basis_change", "bell_direction", "bell_sequence", "fixed_point",
        "noe_steady_state", "one_period_map", "pps_direction",
        "pps_pulse_sequence_builder", "pps_sequence", "robustness_sweep",
        "saturation_system", "simulate_sequence",
    ),
    "under_approx": (
        "ConeVerdict", "PermutationControlSet", "build_permutation_set",
        "fibonacci_sphere", "stlc_boundary_rays", "stlc_test_3d", "stlc_test_lp",
    ),
    "unitary_bound": (
        "diagonal_vertex_coords", "kappa_channel", "kappa_unitary_max",
        "polytope_ray_exit", "polytope_vertices",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_HOME})
