"""Benchmark of the reachset library: three workloads, one command.

    python3 bench/run.py --workload {bounds,protocols,cli} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the run sets up, times whole rounds of the workload's
tasks for at least S seconds, checks every output, and prints the
end-to-end metrics.  With ``--trace 1`` it runs the fixed traced suite of
layers.py instead and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of each run
goes to ``.bench_out/`` in the checkout.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("bounds", "protocols", "cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "REACHSET_WORKERS")
#: Fresh processes timed from spawn to their first timed task; setup_s is
#: their median.
SETUP_PROBES = 3
#: The CLI workload checks byte-identical outputs across rounds, so it
#: always times at least two.
MIN_ROUNDS = {"cli": 2}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def make_workload(name, seed, workdir):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls.children:
        return cls(seed, workdir, SRC)
    return cls(seed)


def setup_probe(args, workdir):
    """Child side of the set-up measurement: set up, warm up, say ready."""
    make_workload(args.workload, args.seed, workdir).warm_up()
    print("ready", flush=True)
    return 0


def measure_setup(args):
    """Median time from spawning a fresh benchmark process to its first timed task.

    The median is rescaled to the reference speed by the fastest spawn
    kernel timed around the probes.  The kernel is a short process and its
    noise is mostly upward spikes, so its minimum tracks the machine's speed
    better than the kernels next to one probe: with those, the median of ten
    runs of `bounds` moved by 19% between two sets, with the minimum by 1.4%.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    raw, kernels = [], [speed.spawn_kernel()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        raw.append(time.perf_counter() - t0)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        kernels.append(speed.spawn_kernel())
    setup_s = statistics.median(raw) * speed.SPAWN_REFERENCE_S / min(kernels)
    return setup_s, {"raw_s": raw, "kernel_s": kernels}


def timed_phase(wl, seconds, min_rounds):
    """Whole rounds of the workload's tasks until `seconds` have passed.

    Task times are rescaled to the reference speed (see speed.py): an
    in-process task by the numpy kernel around it, the wall time of a CLI
    round invocation by invocation, by the spawn kernel.  The CPU time of
    the CLI's child processes stays raw: the spawn kernel measures wall
    time, and over ten runs it made that CPU time less steady (spread 0.104
    against 0.038 raw).
    """
    if wl.children:
        wl.speed = clock = speed.for_processes()
    else:
        clock = speed.for_tasks()
    tasks, firsts, repeats = [], {}, []
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for idx, item in enumerate(wl.items):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = wl.run(item)
            except Exception:  # a failed task is counted and the run goes on
                traceback.print_exc()
                out = None
            raw_wall, raw_cpu = time.perf_counter() - w0, time.process_time() - c0
            if wl.children:
                attempted, failed = len(out), wl.failed(out)
                wall = sum(i.wall * i.factor for i in out)
                cpu = raw_cpu = sum(i.cpu for i in out)
                rss = max(i.rss_mb for i in out)
            else:
                attempted, failed, rss = 1, int(out is None), None
                factor = clock.factor()
                wall, cpu = raw_wall * factor, raw_cpu * factor
            tasks.append({"wall": wall, "cpu": cpu, "raw_wall": raw_wall,
                          "raw_cpu": raw_cpu, "rss_mb": rss,
                          "attempted": attempted, "failed": failed})
            if wl.children:
                tasks[-1]["invocations"] = [[i.name, i.returncode, i.wall, i.factor]
                                            for i in out]
            if out is None:
                continue
            if idx not in firsts:
                firsts[idx] = out
            else:
                repeats.append((idx, wl.fingerprint(out)))
        rounds += 1
        if time.perf_counter() - t_start >= seconds and rounds >= min_rounds:
            break
    return tasks, firsts, repeats, clock.log


def run_checks(wl, firsts, repeats):
    """Every output checked once; every repeated input gives identical output."""
    import checks

    try:
        for idx, out in firsts.items():
            wl.check(wl.items[idx], out)
        prints = {idx: wl.fingerprint(out) for idx, out in firsts.items()}
        for idx, fp in repeats:
            checks.require(fp == prints[idx], f"task {idx} gave different outputs "
                           "for the same input")
        wl.check_once()
    except Exception:  # any failed or crashing check marks the run incorrect
        traceback.print_exc()
        return False
    return True


def untraced_run(args, workdir):
    setup_s, setup_detail = measure_setup(args)
    wl = make_workload(args.workload, args.seed, workdir)
    wl.warm_up()
    tasks, firsts, repeats, kernel_log = timed_phase(
        wl, args.seconds, MIN_ROUNDS.get(args.workload, 1))
    if wl.children:
        peak = max(t["rss_mb"] for t in tasks)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = run_checks(wl, firsts, repeats)
    metrics = {
        "setup_s": (setup_s, "s"),
        "task_p50_s": (statistics.median(t["wall"] for t in tasks), "s"),
        "tasks_per_s": (len(tasks) / sum(t["wall"] for t in tasks), "1/s"),
        "cpu_per_task_s": (statistics.median(t["cpu"] for t in tasks), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {"setup": setup_detail, "tasks": tasks, "kernel_s": kernel_log}
    return (correct, sum(t["attempted"] for t in tasks),
            sum(t["failed"] for t in tasks), metrics, detail)


def traced_run(args, workdir, record_path):
    import layers

    tracer = layers.Tracer()
    overhead = None
    wl = make_workload(args.workload, args.seed, workdir)
    if not wl.children:
        wl.warm_up()
        overhead = layers.tracing_overhead(wl, layers.Tracer())
        print(f"tracing overhead on one {args.workload} task: {overhead:+.3f}",
              file=sys.stderr)
    tracer.install()
    correct = True
    try:
        per_layer, attempted, failed = layers.run_suite(tracer, SRC, workdir / "suite")
    except Exception:  # a crashing or failed check marks the run incorrect
        traceback.print_exc()
        correct, per_layer, attempted, failed = False, {}, 1, 0
    finally:
        tracer.uninstall()
    tracer.write(record_path.with_suffix(".spans.json"))
    return correct, attempted, failed, per_layer, {"tracing_overhead": overhead}


def stop_resource_tracker():
    """Stop the resource tracker process a spawn pool leaves behind, and wait for it.

    The traced suite runs a two-worker pool; multiprocessing then keeps a
    tracker process until this one exits, and that process would outlive
    the run by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "reachset" / "__init__.py").is_file():
        print(f"error: no reachset package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        env = environment()
        print(f"environment: {json.dumps(env)}", file=sys.stderr)
        record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        if args.trace:
            correct, attempted, failed, metrics, detail = traced_run(args, workdir, record)
        else:
            correct, attempted, failed, metrics, detail = untraced_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.write_text(json.dumps({"args": vars(args), "environment": env,
                                  "result": result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
