"""The four benchmark workloads.

Each workload builds its inputs once, in set-up, from a fixed list of seeds;
the run's own ``--seed`` only fixes the order in which that list is worked
through.  So every run does the same work, and its medians move only when
the program or the machine does.

A workload object offers:

* ``items``: one round of task inputs;
* ``run(item)``: one task, returning its output;
* ``warm_up()``: the untimed task that fills lazy caches;
* ``check(item, out)``: the output checks (see checks.py), run after timing;
* ``fingerprint(out)``: bytes that must repeat whenever an input repeats;
* ``check_once()``: checks that need no task output.

Library calls go through module attributes (``rs.fit_rates``, never a name
imported into this file), so the traced run can wrap them.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reachset as rs
from reachset import chloroform, diagonal

import checks

TOL = 1e-3
CHECK_SEED = 20240601


def rotation(seed):
    """Seeded 3x3 rotation (QR of a Gaussian matrix, signs fixed)."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def ordered(seeds, run_seed):
    """The fixed seed list in the order the run's seed picks."""
    order = np.random.default_rng(run_seed).permutation(len(seeds))
    return [seeds[i] for i in order]


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    children = False
    #: speed.Speed of the timed phase; CLI invocations are rescaled one by one
    speed = None

    def warm_up(self):
        return self.run(self.items[0])

    def check_once(self):
        pass


class Bounds(Workload):
    """The three nested bounds for one fan of rays per task."""

    name = "bounds"
    SEEDS = (101, 102, 103, 104, 105, 106, 107, 108)
    RAYS = 20

    def __init__(self, run_seed):
        self.gen = rs.assemble_generator()
        self.controls = rs.build_permutation_set(2)
        self.origin = np.zeros(3)
        base = rs.fibonacci_sphere(self.RAYS)
        self.items = [base @ rotation(s).T for s in ordered(self.SEEDS, run_seed)]
        self.source = rs.CoherenceVector(n=2, r=self.gen.r_eq)
        self.target = rs.pps_direction()

    def run(self, fan):
        gen = self.gen
        radii = rs.stlc_boundary_rays(
            gen, self.controls, fan, tol=TOL, origin=self.origin
        )
        bound = rs.max_purity_on_ellipsoid(gen)
        kappa = rs.kappa_unitary_max(self.source, self.target)
        coords = rs.diagonal_vertex_coords(rs.polytope_vertices(self.source))
        t_diag = self.target.r[checks.DIAG]
        exit_r = rs.polytope_ray_exit(coords, t_diag / np.linalg.norm(t_diag))
        return {
            "radii": radii,
            "radius_sq": bound.radius_sq,
            "argmax": np.array(bound.argmax_r.r),
            "kappa": kappa,
            "vertices": coords,
            "exit": exit_r,
        }

    def check(self, fan, out):
        A, b = diagonal.projected_field_stack(self.gen, self.controls.reps_full)
        checks.check_ray_radii_lp(A, b, self.origin, fan, out["radii"], TOL)
        checks.check_radii_in_sphere(self.origin, fan, out["radii"], out["radius_sq"])
        checks.check_sphere(self.gen, out["radius_sq"], out["argmax"], CHECK_SEED)
        checks.check_kappa(self.gen.r_eq, self.target.r, out["kappa"], CHECK_SEED)

    def fingerprint(self, out):
        return digest(out["radii"], out["radius_sq"], out["argmax"], out["kappa"],
                      out["vertices"], out["exit"])


class Protocols(Workload):
    """Robustness sweeps, fixed points, a long simulation and saturation."""

    name = "protocols"
    SEEDS = (201, 202, 203, 204, 205, 206, 207, 208)
    GRID = 9
    PERIODS = 500

    def __init__(self, run_seed):
        self.gen = rs.assemble_generator()
        self.items = []
        for s in ordered(self.SEEDS, run_seed):
            rng = np.random.default_rng(s)
            span = rng.uniform(0.03, 0.06)
            self.items.append({
                "taus": np.sort(rng.uniform(1.0, 3.0, 4)),
                "grid": np.linspace(-span, span, self.GRID),
            })

    def run(self, item):
        gen = self.gen
        taus, grid = item["taus"], item["grid"]
        out = {"pps": [], "bell": []}
        for tau in taus:
            out["pps"].append(rs.fixed_point(
                gen, rs.pps_sequence(tau), target=rs.pps_direction(), kappa_tol=1.0))
            out["bell"].append(rs.fixed_point(
                gen, rs.bell_sequence(tau), target=rs.bell_direction(), kappa_tol=1.0))
        start = rs.CoherenceVector(n=2, r=gen.r_eq)
        out["sim"] = rs.simulate_sequence(
            gen, rs.pps_sequence(taus[0], repeat=self.PERIODS), start,
            target=rs.pps_direction())
        ref = rs.fixed_point(gen, rs.pps_sequence(taus[-1])).x_star
        for key, comp in (("bb1", True), ("plain", False)):
            builder = rs.pps_pulse_sequence_builder(taus[-1], compensated=comp)
            out[key] = rs.robustness_sweep(gen, builder, grid, grid, reference=ref)
        out["noe_C"] = rs.noe_steady_state(gen, "C").x
        out["noe_H"] = rs.noe_steady_state(gen, "H").x
        return out

    def check(self, item, out):
        gen, taus = self.gen, item["taus"]
        for tau, pps, bell in zip(taus, out["pps"], out["bell"]):
            checks.check_fixed_point(gen, rs.pps_sequence(tau), pps.x_star.r,
                                     pps.spectral_radius, pps.eta_eff)
            checks.check_fixed_point(gen, rs.bell_sequence(tau), bell.x_star.r,
                                     bell.spectral_radius, bell.eta_eff)
        checks.check_converged(out["sim"].states[-1], out["pps"][0].x_star.r)
        for key, comp in (("bb1", True), ("plain", False)):
            res = out[key]
            checks.check_sweep(gen, taus[-1], comp, res.delta_c, res.delta_h, res.delta)
        checks.check_bb1_beats_plain(out["bb1"].max_delta, out["plain"].max_delta)
        checks.check_noe(gen, out["noe_C"], "C")
        checks.check_noe(gen, out["noe_H"], "H")

    def fingerprint(self, out):
        return digest(
            *[r.x_star.r for r in out["pps"] + out["bell"]],
            out["sim"].states, out["bb1"].delta, out["plain"].delta,
            out["noe_C"], out["noe_H"])


def fit_layout(block):
    """Time grid and initial states of the synthetic data for one block."""
    if block == "population":
        times = np.linspace(0.0, 40.0, 20)
        starts = [np.array([-1.0, 4.0, 0.0]), np.array([1.0, -4.0, 0.0]),
                  np.array([0.0, 0.0, 3.0])]
    else:
        times = np.linspace(0.0, 1.2, 10)
        k = len(chloroform.BLOCKS[block])
        starts = [np.eye(k)[0] * 2.0, np.eye(k)[2] * 1.5]
    return times, starts


def fit_guess(block):
    """Starting rates 40% off the generating ones, as in acceptance 09."""
    free = chloroform.BLOCK_RATES[block]
    truth = np.array([getattr(rs.CHLOROFORM, n) for n in free])
    return rs.CHLOROFORM.with_rates(free, truth * 1.4 + 1e-3)


def fit_data(noise, seed):
    data = {}
    for k, block in enumerate(chloroform.BLOCKS):
        times, starts = fit_layout(block)
        data[block] = rs.synthesize_trajectories(
            rs.CHLOROFORM, block, starts, times, noise=noise, seed=seed + k)
    return data


class Fit(Workload):
    """All four secular blocks re-estimated from one 1%-noise data set.

    One task covers all four blocks because a single-block task varies
    about 30x in time (multi-quantum against carbon coherence).
    """

    name = "fit"
    SEEDS = (301, 302, 303, 304)
    NOISE = 0.01

    def __init__(self, run_seed):
        self.items = [(s, fit_data(self.NOISE, s)) for s in ordered(self.SEEDS, run_seed)]

    def run(self, item):
        seed, data = item
        return {
            block: rs.fit_rates(trajs, block, init_guess=fit_guess(block),
                                n_starts=1, seed=seed)[0]
            for block, trajs in data.items()
        }

    def check(self, item, out):
        for block, trajs in item[1].items():
            checks.check_fit(block, trajs, out[block], rs.CHLOROFORM)

    def check_once(self):
        exact = fit_data(0.0, 0)
        for block, trajs in exact.items():
            fitted, _ = rs.fit_rates(trajs, block, init_guess=fit_guess(block),
                                     n_starts=1, seed=0)
            checks.check_exact_refit(block, fitted, rs.CHLOROFORM)

    def fingerprint(self, out):
        return digest(*[out[b].rates_array() for b in sorted(out)])


# ---------------------------------------------------------------------------
# command line


class Invocation:
    """One finished CLI process: exit code, wall time and its own rusage."""

    def __init__(self, name, argv, cwd, env):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - t0
        self.name, self.cwd = name, Path(cwd)
        self.returncode = proc.returncode
        self.stderr = err.decode(errors="replace")
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0


def check_finite(path):
    """Every number of a JSON or CSV output file is finite."""
    if path.suffix == ".json":
        vals = []

        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            elif isinstance(x, (int, float)) and not isinstance(x, bool):
                vals.append(float(x))

        walk(json.loads(path.read_text()))
        arr = np.array(vals)
    else:
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    checks.require(np.all(np.isfinite(arr)), f"{path.name} holds non-finite values")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


class Cli(Workload):
    """One round of the eight subcommands as separate processes, small sizes.

    Two more invocations per round pass a generator whose r_eq holds inf;
    the correct outcome is exit 2, and anything else counts as a failed
    operation.
    """

    name = "cli"
    children = True
    STLC_RAYS = 8
    PERIODS = 300
    GRID = "-0.05:0.05:3"
    # primary outputs of each subcommand (sidecars carry timing, so are left out)
    OUTPUTS = {
        "bound": ["bound.json"],
        "stlc": ["stlc.csv"],
        "unitary-bound": ["polytope.json"],
        "simulate": ["traj.csv"],
        "noe": ["noe.json"],
        "fit": ["rates.json"],
        "robustness": ["delta.csv"],
        "figure1": ["figure1/" + f for f in (
            "sphere.json", "stlc_boundary.csv", "polytope_vertices.csv",
            "pps_trajectory.csv", "noe_trajectory.csv", "noe.json")],
    }

    def __init__(self, run_seed, workdir, src):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.gen = rs.assemble_generator()
        self.controls = rs.build_permutation_set(2)
        self._write_inputs()
        d = self.workdir
        preset = ["--preset", "chloroform"]
        cmds = {
            "bound": ["bound", *preset, "--out", "bound.json"],
            "stlc": ["stlc", *preset, "--rays", f"fibonacci:{self.STLC_RAYS}",
                     "--tol", str(TOL), "--out", "stlc.csv"],
            "unitary-bound": ["unitary-bound", *preset, "--target", "pps",
                              "--out", "polytope.json"],
            "simulate": ["simulate", *preset, "--tau", "1.5", "--m",
                         str(self.PERIODS), "--out", "traj.csv"],
            "noe": ["noe", *preset, "--saturate", "C", "--out", "noe.json"],
            "fit": ["fit", "--block", "population", "--init", str(d / "init.json"),
                    "--starts", "1", "--out", "rates.json"]
            + [a for p in self.traj_paths for a in ("--traj", str(p))],
            "robustness": ["robustness", *preset, f"--grid={self.GRID}", "--tau",
                           "1.5", "--out", "delta.csv"],
            "figure1": ["figure1", *preset, "--rays", str(self.STLC_RAYS), "--m",
                        str(self.PERIODS), "--out-dir", "figure1"],
            "bound-inf": ["bound", "--gen", str(d / "inf.json"),
                          "--out", "bound_inf.json"],
            "simulate-inf": ["simulate", "--gen", str(d / "inf.json"), "--m", "20",
                             "--out", "traj_inf.csv"],
        }
        order = np.random.default_rng(run_seed).permutation(len(cmds))
        names = list(cmds)
        self.commands = cmds
        self.items = [[(names[i], cmds[names[i]]) for i in order]]
        self.rounds_run = 0

    def _write_inputs(self):
        d = self.workdir
        gen_json = self.gen.to_json_dict()
        gen_json["r_eq"][0] = float("inf")
        (d / "inf.json").write_text(json.dumps(gen_json))
        (d / "init.json").write_text(json.dumps(fit_guess("population").to_json_dict()))
        times, starts = fit_layout("population")
        self.trajs = rs.synthesize_trajectories(
            rs.CHLOROFORM, "population", starts, times, noise=0.01, seed=401)
        self.traj_paths = []
        labels = chloroform.BLOCKS["population"]
        for k, tr in enumerate(self.trajs):
            path = d / f"data{k}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t", *labels])
                for i, t in enumerate(tr.times):
                    w.writerow([repr(float(t))]
                               + [repr(float(tr.observables[lab][i])) for lab in labels])
            self.traj_paths.append(path)

    def invoke(self, name, args, cwd):
        argv = [sys.executable, "-m", "reachset.cli", *args]
        inv = Invocation(name, argv, cwd, self.env)
        inv.factor = self.speed.factor() if self.speed else 1.0
        return inv

    def warm_up(self):
        """One `bound` invocation, whatever order the run's seed gives the round."""
        cwd = self.workdir / "warmup"
        cwd.mkdir(exist_ok=True)
        return self.invoke("bound", self.commands["bound"], cwd)

    def run(self, round_):
        self.rounds_run += 1
        cwd = self.workdir / f"round{self.rounds_run}"
        cwd.mkdir()
        return [self.invoke(name, args, cwd) for name, args in round_]

    @staticmethod
    def is_failure_probe(inv):
        return inv.name.endswith("-inf")

    def failed(self, out):
        """Non-finite generators must be rejected with exit 2."""
        return sum(1 for inv in out if self.is_failure_probe(inv) and inv.returncode != 2)

    def fingerprint(self, out):
        h = hashlib.sha256()
        for inv in sorted(out, key=lambda i: i.name):
            for rel in self.OUTPUTS.get(inv.name, []):
                path = inv.cwd / rel
                h.update(rel.encode())
                h.update(path.read_bytes() if path.exists() else b"<missing>")
        return h.hexdigest()

    def check(self, item, out):
        for inv in out:
            if not self.is_failure_probe(inv):
                self.check_invocation(inv)

    def check_invocation(self, inv):
        """Exit 0, finite outputs, and the in-process checks on the results."""
        checks.require(
            inv.returncode == 0,
            f"{inv.name} exited {inv.returncode}: {inv.stderr[-400:]}",
        )
        for rel in self.OUTPUTS[inv.name]:
            path = inv.cwd / rel
            checks.require(path.exists(), f"{inv.name} wrote no {rel}")
            check_finite(path)
        gen, d = self.gen, inv.cwd
        source_r, target_r = gen.r_eq, rs.pps_direction().r
        if inv.name == "bound":
            p = json.loads((d / "bound.json").read_text())
            checks.check_sphere(gen, p["radius_sq"], p["argmax"], CHECK_SEED)
        elif inv.name == "stlc":
            _, rows = read_csv(d / "stlc.csv")
            self._check_rays(rows[:, :3], rows[:, 3])
        elif inv.name == "unitary-bound":
            p = json.loads((d / "polytope.json").read_text())
            checks.check_kappa(source_r, target_r, p["kappa_max"], CHECK_SEED)
        elif inv.name == "simulate":
            header, rows = read_csv(d / "traj.csv")
            final = rows[-1, [header.index(lab) for lab in checks.LABELS]]
            checks.check_converged(final, checks.pps_fixed_point(gen, 1.5))
        elif inv.name == "noe":
            p = json.loads((d / "noe.json").read_text())
            checks.check_noe(gen, p["x"], "C")
        elif inv.name == "fit":
            fitted = rs.RateSet.from_json_dict(json.loads((d / "rates.json").read_text()))
            checks.check_fit("population", self.trajs, fitted, rs.CHLOROFORM)
        elif inv.name == "robustness":
            _, rows = read_csv(d / "delta.csv")
            lo, hi, n = self.GRID.split(":")
            grid = np.linspace(float(lo), float(hi), int(n))
            checks.check_sweep(gen, 1.5, True, grid, grid, rows[:, 2].reshape(len(grid), -1))
        elif inv.name == "figure1":
            f = d / "figure1"
            radius_sq = json.loads((f / "sphere.json").read_text())["radius_sq"]
            checks.check_sphere_contains_ellipsoid(gen, radius_sq, CHECK_SEED)
            _, rows = read_csv(f / "stlc_boundary.csv")
            self._check_rays(rows[:, :3], rows[:, 3], radius_sq)
            _, traj = read_csv(f / "pps_trajectory.csv")
            checks.check_converged(traj[-1, 1:4],
                                   checks.pps_fixed_point(gen, 1.5)[checks.DIAG])
            checks.check_noe(gen, json.loads((f / "noe.json").read_text())["noe_steady_state"], "C")

    def _check_rays(self, dirs, radii, radius_sq=None):
        A, b = diagonal.projected_field_stack(self.gen, self.controls.reps_full)
        origin = np.zeros(3)
        checks.check_ray_radii_lp(A, b, origin, dirs, radii, TOL)
        if radius_sq is None:
            radius_sq = rs.max_purity_on_ellipsoid(self.gen).radius_sq
        checks.check_radii_in_sphere(origin, dirs, radii, radius_sq)


#: The timed workloads.  Fit is not among them: its task medians moved by
#: up to 40% between runs, and neither calibration kernel tracked those
#: moves (see README.md).  The traced suite still runs one Fit task, and
#: the CLI workload fits one block per round.
WORKLOADS = {w.name: w for w in (Bounds, Protocols, Cli)}
