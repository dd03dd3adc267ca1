"""Each benchmark check accepts a correct result and rejects a corrupted one.

Run with ``python -m pytest bench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import reachset as rs
from reachset import diagonal

import checks
import layers
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def gen():
    return rs.assemble_generator()


def test_ray_check_rejects_radius_shifted_outward(gen):
    controls = rs.build_permutation_set(2)
    fan = rs.fibonacci_sphere(4) @ workloads.rotation(101).T
    origin = np.zeros(3)
    radii = rs.stlc_boundary_rays(gen, controls, fan, tol=workloads.TOL, origin=origin)
    A, b = diagonal.projected_field_stack(gen, controls.reps_full)
    checks.check_ray_radii_lp(A, b, origin, fan, radii, workloads.TOL)
    shifted = radii.copy()
    shifted[2] += 2 * workloads.TOL
    with pytest.raises(checks.CheckFailed, match="ray 2"):
        checks.check_ray_radii_lp(A, b, origin, fan, shifted, workloads.TOL)


def test_fit_check_rejects_fit_stopped_early():
    block = "population"
    trajs = workloads.fit_data(0.01, 301)[block]
    guess = workloads.fit_guess(block)
    full, _ = rs.fit_rates(trajs, block, init_guess=guess, n_starts=1, seed=301)
    checks.check_fit(block, trajs, full, rs.CHLOROFORM)
    stopped, _ = rs.fit_rates(trajs, block, init_guess=guess, n_starts=1, seed=301,
                              max_iter=3)
    with pytest.raises(checks.CheckFailed, match="fitted RSS"):
        checks.check_fit(block, trajs, stopped, rs.CHLOROFORM)


@pytest.mark.parametrize("compensated", [True, False])
def test_sweep_check_rejects_zeroed_cell(gen, compensated):
    tau, grid = 1.5, np.linspace(-0.05, 0.05, 3)
    ref = rs.fixed_point(gen, rs.pps_sequence(tau)).x_star
    res = rs.robustness_sweep(
        gen, rs.pps_pulse_sequence_builder(tau, compensated=compensated), grid, grid,
        reference=ref)
    checks.check_sweep(gen, tau, compensated, grid, grid, res.delta)
    zeroed = res.delta.copy()
    zeroed[np.unravel_index(np.argmax(zeroed), zeroed.shape)] = 0.0
    with pytest.raises(checks.CheckFailed, match="cell"):
        checks.check_sweep(gen, tau, compensated, grid, grid, zeroed)


def test_cli_check_rejects_nan_output_with_exit_zero(tmp_path):
    cli = workloads.Cli(0, tmp_path / "work", SRC)
    good = cli.invoke("simulate", cli.commands["simulate"], tmp_path)
    cli.check_invocation(good)
    # the same subcommand on a generator whose r_eq holds inf exits 0
    # today and writes NaN; as an ordinary invocation it must fail its check
    args = cli.commands["simulate-inf"]
    bad = cli.invoke("simulate", args[:-1] + ["traj.csv"], tmp_path)
    assert bad.returncode == 0
    assert np.isnan(np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1)).any()
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        cli.check_invocation(bad)
    assert cli.failed([bad]) == 0 and cli.failed(
        [cli.invoke("simulate-inf", args, tmp_path)]) == 1


def test_kappa_and_sphere_checks_reject_perturbed_values(gen):
    source, target = gen.r_eq, rs.pps_direction().r
    kappa = rs.kappa_unitary_max(rs.CoherenceVector(n=2, r=source), rs.pps_direction())
    checks.check_kappa(source, target, kappa, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_kappa(source, target, kappa * (1 - 1e-6), 1)
    bound = rs.max_purity_on_ellipsoid(gen)
    checks.check_sphere(gen, bound.radius_sq, bound.argmax_r.r, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_sphere(gen, bound.radius_sq * 0.99, bound.argmax_r.r * np.sqrt(0.99), 1)


def test_tracer_counts_calls_and_restores_functions(gen):
    tracer = layers.Tracer()
    original = rs.under_approx.stlc_test_3d
    tracer.install()
    try:
        controls = rs.build_permutation_set(2)
        with tracer.phase("ray") as ph:
            rs.stlc_boundary_rays(gen, controls, rs.fibonacci_sphere(1), origin=np.zeros(3))
    finally:
        tracer.uninstall()
    assert rs.under_approx.stlc_test_3d is original
    cone = tracer.within(ph, "under_approx.stlc_test_3d")
    assert len(cone) > 1
    assert all(s[1] >= 0 for s in cone)  # nested under the traced ray scan
    json.dumps(tracer.spans)
