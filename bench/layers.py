"""Per-layer metrics from a traced run.

The tracer wraps, from outside the program, every public function of every
``reachset`` module, and ``scipy.linalg.expm`` wherever a module holds it.
Each call becomes a span (name, parent, wall start/end, CPU start/end) kept
in memory; the spans are written out when the run ends.  Per-layer metrics
are then read off the spans of a fixed suite of calls, one phase per layer,
whose inputs do not depend on the run's seed, so every count repeats
exactly.

End-to-end metrics never come from a traced run.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

import reachset as rs

import checks
import speed
import workloads

FAN = 200
IMPORT_PROBES = 3


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, wall0, wall1, cpu0, cpu1]
        self._stack = []
        self._patched = []

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        clock, cpu = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, stack[-1] if stack else -1, clock(), 0.0, cpu(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3], rec[5] = clock(), cpu()
                stack.pop()

        return traced

    def install(self):
        mods = [rs] + [importlib.import_module(f"reachset.{m.name}")
                       for m in pkgutil.iter_modules(rs.__path__)]
        labels = {id(scipy.linalg.expm): "scipy.expm"}
        for mod in mods:
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__.startswith("reachset.")
                        and not name.startswith("_")):
                    labels[id(obj)] = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
        wrappers = {}
        for mod in mods:
            for name, obj in list(vars(mod).items()):
                if id(obj) in labels:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(labels[id(obj)], obj)
                    setattr(mod, name, wrappers[id(obj)])
                    self._patched.append((mod, name, obj))

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    @contextmanager
    def phase(self, name):
        """A benchmark-level span that groups the calls made inside it."""
        rec = [f"bench.{name}", -1, time.perf_counter(), 0.0, time.process_time(), 0.0]
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3], rec[5] = time.perf_counter(), time.process_time()

    def within(self, phase, name):
        """Spans named `name` that started and ended inside a phase span."""
        return [s for s in self.spans
                if s[0] == name and s[2] >= phase[2] and s[3] <= phase[3]]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "wall0", "wall1", "cpu0", "cpu1"],
                       "spans": self.spans}, fh)


def durations(spans):
    return [s[3] - s[2] for s in spans]


def median_ms(spans):
    return 1e3 * statistics.median(durations(spans))


def median_us(spans):
    return 1e6 * statistics.median(durations(spans))


def import_times(src):
    """Median wall time of `import reachset` and `import reachset.cli`, fresh processes."""
    code = ("import time; t0 = time.perf_counter(); import reachset; "
            "t1 = time.perf_counter(); import reachset.cli; "
            "print(t1 - t0, time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(src))
    pkg, cli = [], []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        pkg.append(float(out[0]))
        cli.append(float(out[1]))
    return statistics.median(pkg), statistics.median(cli)


def run_suite(tracer, src, workdir):
    """The fixed traced suite.  Returns ({name: (value, unit)}, attempted, failed)."""
    m = {}
    attempted = failed = 0
    pkg_s, cli_s = import_times(src)
    m["import.reachset_s"] = (pkg_s, "s")
    m["cli.import_s"] = (cli_s, "s")

    with tracer.phase("setup") as ph:
        for _ in range(20):
            gen = rs.assemble_generator()
            controls = rs.build_permutation_set(2)
    m["chloroform.assemble_generator_ms"] = (
        median_ms(tracer.within(ph, "chloroform.assemble_generator")), "ms")
    m["under_approx.build_permutation_set_ms"] = (
        median_ms(tracer.within(ph, "under_approx.build_permutation_set")), "ms")

    fan = rs.fibonacci_sphere(FAN)
    with tracer.phase("rays") as ph:
        radii = rs.stlc_boundary_rays(gen, controls, fan, tol=workloads.TOL,
                                      origin=np.zeros(3))
    cone = tracer.within(ph, "under_approx.stlc_test_3d")
    m["under_approx.stlc_boundary_rays_s_per_ray"] = ((ph[3] - ph[2]) / FAN, "s")
    m["under_approx.cone_tests_per_ray"] = (len(cone) / FAN, "count")
    m["under_approx.stlc_test_3d_us"] = (median_us(cone), "us")
    m["diagonal.stacked_directions_us"] = (
        median_us(tracer.within(ph, "diagonal.stacked_directions")), "us")
    with tracer.phase("rays_workers2") as ph:
        radii2 = rs.stlc_boundary_rays(gen, controls, fan, tol=workloads.TOL,
                                       origin=np.zeros(3), workers=2)
    m["parallel.rays_workers2_s_per_ray"] = ((ph[3] - ph[2]) / FAN, "s")
    attempted += 2
    bound = rs.max_purity_on_ellipsoid(gen)
    checks.require(np.array_equal(radii, radii2), "the worker pool changed the radii")
    checks.check_radii_in_sphere(np.zeros(3), fan, radii, bound.radius_sq)

    with tracer.phase("bounds") as ph:
        for _ in range(10):
            rs.max_purity_on_ellipsoid(gen)
        source = rs.CoherenceVector(n=2, r=gen.r_eq)
        for _ in range(20):
            rs.polytope_vertices(source)
    m["over_approx.max_purity_on_ellipsoid_ms"] = (
        median_ms(tracer.within(ph, "over_approx.max_purity_on_ellipsoid")), "ms")
    m["over_approx.max_purity_multistart_ms"] = (
        median_ms(tracer.within(ph, "over_approx.max_purity_multistart")), "ms")
    m["unitary_bound.polytope_vertices_ms"] = (
        median_ms(tracer.within(ph, "unitary_bound.polytope_vertices")), "ms")

    proto = workloads.Protocols(0)
    item = proto.items[0]
    with tracer.phase("protocols") as ph:
        out = proto.run(item)
    attempted += 1
    proto.check(item, out)
    sweeps = tracer.within(ph, "sequences.robustness_sweep")
    cells = 2 * len(item["grid"]) ** 2
    m["sequences.robustness_sweep_ms_per_cell"] = (1e3 * sum(durations(sweeps)) / cells, "ms")
    m["sequences.compile_pulses_ms"] = (
        median_ms(tracer.within(ph, "sequences.compile_pulses")), "ms")
    m["sequences.expm_calls_per_task"] = (len(tracer.within(ph, "scipy.expm")), "count")
    m["sequences.one_period_map_us"] = (
        median_us(tracer.within(ph, "sequences.one_period_map")), "us")
    m["dynamics.relax_propagator_us"] = (
        median_us(tracer.within(ph, "dynamics.relax_propagator")), "us")
    m["sequences.fixed_point_ms"] = (
        median_ms(tracer.within(ph, "sequences.fixed_point")), "ms")
    m["sequences.simulate_sequence_ms"] = (
        median_ms(tracer.within(ph, "sequences.simulate_sequence")), "ms")

    fit = workloads.Fit(0)
    item = fit.items[0]
    with tracer.phase("fit") as ph:
        out = fit.run(item)
    attempted += 1
    fit.check(item, out)
    fit.check_once()
    for fit_span, block in zip(tracer.within(ph, "chloroform.fit_rates"), item[1]):
        sims = tracer.within(fit_span, "chloroform.simulate_block")
        m[f"chloroform.fit_rates_s.{block}"] = (fit_span[3] - fit_span[2], "s")
        m[f"chloroform.simulations_per_fit.{block}"] = (len(sims), "count")
        m[f"chloroform.simulate_block_us.{block}"] = (median_us(sims), "us")

    props = [s for s in tracer.spans if s[0] == "dynamics.relax_propagator"]
    m["dynamics.relax_propagator_cpu_per_wall"] = (
        sum(s[5] - s[4] for s in props) / sum(durations(props)), "ratio")

    cli = workloads.Cli(0, workdir, src)
    invs = cli.run(cli.items[0])
    attempted += len(invs)
    failed += cli.failed(invs)
    cli.check(cli.items[0], invs)
    overhead = []
    for inv in invs:
        if cli.is_failure_probe(inv):
            continue
        m[f"cli.{inv.name}_s"] = (inv.wall, "s")
        out_file = "figure1/figure1" if inv.name == "figure1" else cli.OUTPUTS[inv.name][0]
        sidecar = json.loads((inv.cwd / f"{out_file}.meta.json").read_text())
        overhead.append(inv.wall - sidecar["elapsed_s"])
    m["cli.overhead_s"] = (statistics.median(overhead), "s")
    return m, attempted, failed


def tracing_overhead(wl, tracer, pairs=4):
    """Rescaled time of the workload's first task traced over untraced, minus one."""
    clock = speed.for_tasks()
    plain = traced = 0.0
    for _ in range(pairs):
        t0 = time.perf_counter()
        wl.run(wl.items[0])
        plain += (time.perf_counter() - t0) * clock.factor()
        tracer.install()
        try:
            t0 = time.perf_counter()
            wl.run(wl.items[0])
            traced += (time.perf_counter() - t0) * clock.factor()
        finally:
            tracer.uninstall()
    return traced / plain - 1.0
