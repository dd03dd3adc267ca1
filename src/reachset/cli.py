"""Command-line interface.

Subcommands wrap the library modules one-to-one:

  bound          purity-sphere outer bound
  stlc           boundary of the locally controllable set along ray fans
  unitary-bound  spectrum polytope and best unitary transfer efficiency
  simulate       periodic pseudo-pure / pseudo-Bell sequences
  noe            saturation steady state
  fit            relaxation-rate estimation from trajectory CSVs
  robustness     fixed-point sensitivity to pulse-amplitude errors
  figure1        CSV/JSON bundle with all bounds and trajectories

Every command writes a `<out>.meta.json` sidecar (version, configuration,
timing).  Exit codes: 0 success, 2 invalid input, 3 numerical failure.
`main` is the one runner: each `cmd_*` only computes and writes its primary
outputs, then returns (sidecar base path, extra sidecar keys, message).
"""

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .chloroform import BLOCKS, CHLOROFORM, RateSet, assemble_generator, fit_rates
from .diagonal import diag_labels, diag_slots
from .dynamics import AffineGenerator, affine_trajectory
from .errors import ReachsetError, ValidationError
from .over_approx import ellipsoid_axis_intersections, max_purity_on_ellipsoid
from .pauli import CoherenceVector
from .sequences import (
    bell_direction,
    bell_sequence,
    fixed_point,
    noe_steady_state,
    pps_direction,
    pps_pulse_sequence_builder,
    pps_sequence,
    robustness_sweep,
    saturation_system,
    simulate_sequence,
)
from .serialize import dump_json, load_json, read_trajectory_csv, write_csv
from .under_approx import build_permutation_set, fibonacci_sphere, stlc_boundary_rays
from .unitary_bound import (
    diagonal_vertex_coords,
    kappa_unitary_max,
    polytope_ray_exit,
    polytope_vertices,
)


def _load_generator(args):
    """The generator of --preset (scaled by --epsilon, default 1) or of --gen."""
    if args.gen is not None and args.preset:
        raise ValidationError("give --gen FILE or --preset chloroform, not both")
    if args.epsilon is not None and not args.preset:
        raise ValidationError("--epsilon rescales --preset only")
    if args.preset:
        if args.epsilon is None:
            args.epsilon = 1.0  # the sidecar records the unit applied
        eps = args.epsilon
        return assemble_generator(RateSet(eps_C=eps, eps_H=4.0 * eps))
    if args.gen is not None:
        return AffineGenerator.from_json_dict(load_json(args.gen))
    raise ValidationError("provide --gen FILE or --preset chloroform")


def _sidecar(args, out_path, elapsed, extra):
    meta = {
        "version": __version__,
        "command": args.command,
        "options": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("command", "func", "takes_gen") and v is not None
        },
        "elapsed_s": elapsed,
    }
    meta.update(extra)
    dump_json(meta, out_path + ".meta.json")


def _target_vector(spec_str):
    if spec_str == "pps":
        return pps_direction()
    if spec_str == "bell":
        return bell_direction()
    if os.path.exists(spec_str):
        return CoherenceVector.from_json_dict(load_json(spec_str))
    raise ValidationError(f"target must be pps, bell, or a JSON file: {spec_str}")


def _sphere_payload(gen, bound):
    """Purity-sphere radius and the zero-purity-rate ellipsoid's axis crossings."""
    return {
        "radius_sq": bound.radius_sq,
        "axis_intersection": float(np.sqrt(bound.radius_sq)),
        "ellipsoid_axis_intersections": dict(
            zip(diag_labels(gen.n), ellipsoid_axis_intersections(gen))
        ),
    }


def cmd_bound(args, gen):
    bound = max_purity_on_ellipsoid(gen)
    payload = _sphere_payload(gen, bound)
    payload.update(
        argmax=list(bound.argmax_r.r),
        residual=bound.solver_residual,
        lagrange_mult=bound.lagrange_mult,
    )
    dump_json(payload, args.out)
    return args.out, {}, f"radius_sq = {bound.radius_sq:.6f} -> {args.out}"


def _parse_rays(spec_str):
    if spec_str.startswith("fibonacci:"):
        try:
            count = int(spec_str.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"ray count must be an integer: {spec_str}") from exc
        return fibonacci_sphere(count)
    if os.path.exists(spec_str):
        try:
            with open(spec_str) as fh:  # blank and '#' lines hold no row, as in loadtxt
                lines = [ln for ln in fh if ln.split("#", 1)[0].strip()]
        except (OSError, ValueError) as exc:  # a directory, unreadable or undecodable
            raise ValidationError(f"cannot read ray CSV {spec_str}: {exc}") from exc
        if not lines:
            raise ValidationError(f"ray CSV {spec_str} holds no rows")
        try:
            dirs = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError as exc:  # a non-number or a ragged row
            raise ValidationError(f"ray CSV {spec_str}: {exc}") from exc
        with np.errstate(all="ignore"):  # zero, tiny or huge rows fail the norm check
            return dirs / np.linalg.norm(dirs, axis=1)[:, None]
    raise ValidationError(f"rays must be fibonacci:N or a CSV file: {spec_str}")


def _trace_boundary(gen, rays, origin, args):
    """Trace the STLC boundary along rays; (direction, radius, point) per kept ray.

    With ``args.region == "wedge"`` only points with 0 <= x3 <= x1 <= x2 are kept.
    Other qubit counts are refused before their permutations are enumerated.
    """
    radii = stlc_boundary_rays(
        gen,
        build_permutation_set(2),
        rays,
        tol=args.tol,
        origin=origin,
        workers=args.workers,
    )
    kept = []
    for d, r in zip(rays, radii):
        point = origin + r * d
        if args.region == "wedge" and not (
            0.0 <= point[2] <= point[0] <= point[1]
        ):
            continue
        kept.append((d, r, point))
    return kept


def cmd_stlc(args, gen):
    rays = _parse_rays(args.rays)
    if args.origin == "eq":
        origin = gen.r_eq[list(diag_slots(gen.n))]
    else:
        origin = np.zeros(2 ** gen.n - 1)
    rows = [[*d, r] for d, r, _ in _trace_boundary(gen, rays, origin, args)]
    write_csv(args.out, ["ray_x", "ray_y", "ray_z", "boundary_radius"], rows)
    extra = {"origin": list(origin), "rays_total": len(rays), "rays_written": len(rows)}
    return args.out, extra, f"{len(rows)} boundary radii -> {args.out}"


def cmd_unitary_bound(args, gen):
    target = _target_vector(args.target)
    source = CoherenceVector(n=gen.n, r=gen.r_eq)
    kappa = kappa_unitary_max(source, target)
    vertices = polytope_vertices(source)
    coords = diagonal_vertex_coords(vertices)
    target_diag = target.r[list(diag_slots(gen.n))]
    norm = np.linalg.norm(target_diag)
    ray_exit = polytope_ray_exit(coords, target_diag / norm) if norm > 0 else None
    payload = {
        "kappa_max": kappa,
        "vertices_spectrum": [list(vrow) for vrow in vertices],
        "vertices_diag": [list(vrow) for vrow in coords],
        "ray_exit_radius": ray_exit,
    }
    dump_json(payload, args.out)
    return args.out, {}, f"kappa_max = {kappa:.6f} -> {args.out}"


def cmd_simulate(args, gen):
    if args.seq == "pps":
        seq = pps_sequence(args.tau, repeat=args.m)
        target = pps_direction()
    else:
        seq = bell_sequence(args.tau, repeat=args.m)
        target = bell_direction()
    start = CoherenceVector(n=gen.n, r=gen.r_eq)
    result = simulate_sequence(
        gen, seq, start, record_every=args.record_every, target=target
    )
    labels = sorted(result.trajectory.observables)
    rows = []
    for i, t in enumerate(result.trajectory.times):
        rows.append(
            [t]
            + [result.trajectory.observables[lab][i] for lab in labels]
            + [result.eta[i], result.theta[i]]
        )
    write_csv(args.out, ["t"] + labels + ["eta", "theta"], rows)
    report = fixed_point(gen, seq, target=target, kappa_tol=1.0)
    extra = {
        "fixed_point_eta": report.eta_eff,
        "fixed_point_theta": report.theta,
        "spectral_radius": report.spectral_radius,
    }
    message = f"eta* = {report.eta_eff:.4f}, theta* = {report.theta:.4f} -> {args.out}"
    return args.out, extra, message


def cmd_noe(args, gen):
    x = noe_steady_state(gen, args.saturate)
    payload = {
        "saturated": args.saturate,
        "labels": list(diag_labels(gen.n)),
        "x": list(x.x),
    }
    dump_json(payload, args.out)
    return args.out, {}, f"steady state {np.round(x.x, 4)} -> {args.out}"


def cmd_fit(args, _):
    if args.block not in BLOCKS:
        raise ValidationError(
            f"block must be one of {sorted(BLOCKS)}, got {args.block!r}"
        )
    trajs = [read_trajectory_csv(p) for p in args.traj]
    init = CHLOROFORM
    if args.init:
        init = RateSet.from_json_dict(load_json(args.init))
    fitted, rms = fit_rates(
        trajs, args.block, init_guess=init, n_starts=args.starts, seed=args.seed
    )
    dump_json(fitted.to_json_dict(), args.out)
    return args.out, {"rms_residual": rms}, f"rms residual = {rms:.3e} -> {args.out}"


def _parse_grid(spec_str):
    try:
        lo, hi, count = spec_str.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ValidationError(f"grid must be lo:hi:count, got {spec_str!r}") from exc
    if count < 1 or not np.isfinite([lo, hi]).all():
        raise ValidationError(
            f"grid needs finite lo, hi and count >= 1, got {spec_str!r}"
        )
    return np.linspace(lo, hi, count)


def cmd_robustness(args, gen):
    grid = _parse_grid(args.grid)
    builder = pps_pulse_sequence_builder(args.tau, compensated=not args.plain)
    reference = fixed_point(gen, pps_sequence(args.tau)).x_star
    result = robustness_sweep(gen, builder, grid, grid, reference=reference)
    rows = []
    for i, a in enumerate(result.delta_c):
        for j, b in enumerate(result.delta_h):
            rows.append([a, b, result.delta[i, j]])
    write_csv(args.out, ["delta_c", "delta_h", "delta"], rows)
    extra = {"max_delta": result.max_delta, "failed_cells": int(result.failed.sum())}
    return args.out, extra, f"max delta = {result.max_delta:.4f} -> {args.out}"


def cmd_figure1(args, gen):
    if not (np.isfinite(args.noe_duration) and args.noe_duration >= 0):
        raise ValidationError("NOE duration must be finite and >= 0")
    slots = list(diag_slots(gen.n))
    seq = pps_sequence(args.tau, repeat=args.m)

    # traced before any file is written, so a rejected tol leaves no output
    rays = fibonacci_sphere(args.rays)
    origin = np.zeros(2 ** gen.n - 1)
    rows = [[*d, r, *p] for d, r, p in _trace_boundary(gen, rays, origin, args)]
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:  # a file in its place or no permission
        raise ValidationError(f"cannot make {args.out_dir}: {exc.strerror}") from exc
    bound = max_purity_on_ellipsoid(gen)
    dump_json(_sphere_payload(gen, bound), os.path.join(args.out_dir, "sphere.json"))
    write_csv(
        os.path.join(args.out_dir, "stlc_boundary.csv"),
        ["ray_x", "ray_y", "ray_z", "boundary_radius", "x1", "x2", "x3"],
        rows,
    )

    source = CoherenceVector(n=gen.n, r=gen.r_eq)
    coords = diagonal_vertex_coords(polytope_vertices(source))
    write_csv(
        os.path.join(args.out_dir, "polytope_vertices.csv"),
        ["x1", "x2", "x3"],
        [list(vrow) for vrow in coords],
    )

    sim = simulate_sequence(gen, seq, source, target=pps_direction())
    traj_rows = []
    for i, t in enumerate(sim.trajectory.times):
        x = sim.states[i][slots]
        traj_rows.append([t, x[0], x[1], x[2], sim.eta[i], sim.theta[i]])
    write_csv(
        os.path.join(args.out_dir, "pps_trajectory.csv"),
        ["t", "x1", "x2", "x3", "eta", "theta"],
        traj_rows,
    )

    # saturation path: carbon coordinates clamped to zero, the remaining
    # subsystem relaxes from the (clamped) thermal state to its driven
    # steady state
    noe = noe_steady_state(gen, "C")
    free, A, xinf = saturation_system(gen, "C")
    times = np.linspace(0.0, args.noe_duration, 200)
    full = np.zeros((len(times), gen.dim))
    full[:, free] = affine_trajectory(A, xinf, gen.r_eq[free], times)
    noe_rows = [[t, *x] for t, x in zip(times, full[:, slots])]
    write_csv(
        os.path.join(args.out_dir, "noe_trajectory.csv"),
        ["t", "x1", "x2", "x3"],
        noe_rows,
    )
    dump_json(
        {"noe_steady_state": list(noe.x)},
        os.path.join(args.out_dir, "noe.json"),
    )
    return os.path.join(args.out_dir, "figure1"), {}, f"figure data -> {args.out_dir}/"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reachset",
        description="Reachable-set bounds and state engineering for "
        "coherently controlled relaxing qubits.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(takes_gen=False)

    def command(name, help_text):
        """A subcommand whose options, like the top level's, parse only in full."""
        return sub.add_parser(name, help=help_text, allow_abbrev=False)

    def common(p, out_default=None):
        """--gen/--preset/--epsilon, and --out if it has a default, of a command
        that runs on a generator."""
        p.set_defaults(takes_gen=True)
        p.add_argument("--gen", help="generator JSON file")
        p.add_argument(
            "--preset", choices=["chloroform"], help="bundled measured model"
        )
        p.add_argument(
            "--epsilon",
            type=float,
            help="polarization unit for the preset (default 1)",
        )
        if out_default:
            p.add_argument("--out", default=out_default)

    def tracing(p):
        """Bisection tolerance, region filter and workers of a boundary trace."""
        p.add_argument("--tol", type=float, default=1e-3)
        p.add_argument(
            "--region",
            choices=["all", "wedge"],
            default="all",
            help="wedge keeps only boundary points with 0 <= x3 <= x1 <= x2",
        )
        p.add_argument("--workers", type=int, default=1)

    p = command("bound", "purity-sphere outer bound")
    common(p, "bound.json")
    p.set_defaults(func=cmd_bound)

    p = command("stlc", "trace the locally controllable boundary")
    common(p, "stlc.csv")
    tracing(p)
    p.add_argument("--rays", default="fibonacci:200",
                   help="fibonacci:N or a CSV of unit directions")
    p.add_argument(
        "--origin",
        choices=["zero", "eq"],
        default="zero",
        help="ray origin; the free equilibrium is a boundary point of the "
        "locally controllable set (its direction cone is not full), so "
        "scans default to the maximally mixed state",
    )
    p.set_defaults(func=cmd_stlc)

    p = command("unitary-bound", "spectrum polytope and kappa")
    common(p, "polytope.json")
    p.add_argument("--target", default="pps", help="pps | bell | vector JSON")
    p.set_defaults(func=cmd_unitary_bound)

    p = command("simulate", "periodic preparation sequences")
    common(p, "traj.csv")
    p.add_argument("--seq", choices=["pps", "bell"], default="pps")
    p.add_argument("--tau", type=float, default=1.5)
    p.add_argument("--m", type=int, default=500)
    p.add_argument("--record-every", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = command("noe", "saturation steady state")
    common(p, "noe.json")
    p.add_argument("--saturate", choices=["C", "H"], default="C")
    p.set_defaults(func=cmd_noe)

    p = command("fit", "fit block relaxation rates")
    p.add_argument("--block", required=True)
    p.add_argument("--traj", action="append", required=True,
                   help="trajectory CSV (repeatable)")
    p.add_argument("--init", help="initial-guess rates JSON")
    p.add_argument("--starts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="rates.json")
    p.set_defaults(func=cmd_fit)

    p = command("robustness", "pulse-error sensitivity sweep")
    common(p, "delta.csv")
    p.add_argument("--grid", default="-0.05:0.05:11", help="lo:hi:count")
    p.add_argument("--tau", type=float, default=1.5)
    p.add_argument("--plain", action="store_true",
                   help="uncompensated pulses instead of BB1 composites")
    p.set_defaults(func=cmd_robustness)

    p = command("figure1", "export all bounds and trajectories")
    common(p)
    tracing(p)
    p.add_argument("--out-dir", default="figure1_data")
    p.add_argument("--rays", type=int, default=200)
    p.add_argument("--tau", type=float, default=1.5)
    p.add_argument("--m", type=int, default=500)
    p.add_argument("--noe-duration", type=float, default=60.0)
    p.set_defaults(func=cmd_figure1)

    return parser


def main(argv=None):
    """Run one subcommand; the clock starts once the generator is loaded."""
    args = build_parser().parse_args(argv)
    try:
        gen = _load_generator(args) if args.takes_gen else None
        t0 = time.perf_counter()
        base, extra, message = args.func(args, gen)
        _sidecar(args, base, time.perf_counter() - t0, extra)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReachsetError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
