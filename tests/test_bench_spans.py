"""Guards for the benchmark's traced suite and its output checks.

``bench/layers.py`` wraps every public library function by its module
attribute and reads per-layer metrics off the spans the wraps record, taking
a median of each.  A refactor that stops calling one of those functions
through its module attribute leaves its span empty, and the traced run
then fails while every other test stays green.  This test runs one small
call per phase under the benchmark's own tracer and checks that every span
those phases read is recorded.  Tier-1 does not collect ``bench/``, so the
output checks that the bounds workload runs on each traced fan are run here
too, on a fan the library traces.
"""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import reachset as rs
from reachset.diagonal import projected_field_stack

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: Spans the suite reads that this guard does not produce: the fit phase is
#: left to the benchmark itself (a fit takes seconds), and `scipy.expm` is
#: never wrapped since scipy is imported inside its callers.
NOT_RUN = {"chloroform.fit_rates", "chloroform.simulate_block", "scipy.expm"}


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import layers

    return layers


@pytest.fixture()
def checks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import checks

    return checks


def test_traced_suite_records_every_span_it_reads(layers):
    source = inspect.getsource(layers.run_suite)
    read = set(re.findall(r'within\(\w+, "([\w.]+)"\)', source))
    read |= set(re.findall(r's\[0\] == "([\w.]+)"', source))
    assert "over_approx.max_purity_multistart" in read

    tracer = layers.Tracer()
    tracer.install()
    try:
        gen = rs.assemble_generator()
        controls = rs.build_permutation_set(2)
        rs.stlc_boundary_rays(gen, controls, rs.fibonacci_sphere(4), tol=1e-3,
                              origin=np.zeros(3))
        rs.max_purity_on_ellipsoid(gen)
        source_state = rs.CoherenceVector(n=2, r=gen.r_eq)
        rs.polytope_vertices(source_state)
        reference = rs.fixed_point(gen, rs.pps_sequence(1.5)).x_star
        grid = np.array([-0.01, 0.01])
        rs.robustness_sweep(gen, rs.pps_pulse_sequence_builder(1.5), grid, grid,
                            reference=reference)
        rs.simulate_sequence(gen, rs.pps_sequence(1.5, repeat=3), source_state)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert read - NOT_RUN - recorded == set()


def test_bench_checks_pass_a_traced_fan(checks):
    gen = rs.assemble_generator()
    controls = rs.build_permutation_set(2)
    origin, dirs, tol = np.zeros(3), rs.fibonacci_sphere(3), 1e-3
    radii = rs.stlc_boundary_rays(gen, controls, dirs, tol=tol, origin=origin)
    A, b = projected_field_stack(gen, controls.reps_full)
    checks.check_ray_radii_lp(A, b, origin, dirs, radii, tol)
    checks.check_radii_in_sphere(origin, dirs, radii, rs.max_purity_on_ellipsoid(gen).radius_sq)
    # 2 tol beyond each traced radius lies past the boundary
    with pytest.raises(checks.CheckFailed, match="not controllable"):
        checks.check_ray_radii_lp(A, b, origin, dirs, radii + 2 * tol, tol)
