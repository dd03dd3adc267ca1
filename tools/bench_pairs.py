"""Benchmark two checkouts in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py BASE_DIR CHANGE_DIR --seed S --pairs N \
        --seconds T --out BENCH.json [--workloads bounds protocols cli]

For each workload, pair k runs ``python3 bench/run.py --workload W --seed S
--seconds T`` once in each checkout, the base first on even k and the
change first on odd k, so slow drift of the machine falls on both sides
alike.  Each checkout then runs ``--workload bounds --trace 1``
TRACED_RUNS times, base and change in turn, for its per-layer metrics: a
single traced run can swing a per-layer figure threefold, so each metric
is recorded as the median of the runs, next to the runs themselves.  The file
records, per workload and end-to-end metric, the median and quartiles on
each side, the change of the median and how many pairs the change won,
plus the operations attempted and failed and the environment line the
runs print.

The benchmark runs as a separate process in each checkout; nothing is
imported from it.  Metric names, units and directions come from
BENCHMARK.json at the root of the change checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

#: Traced ``bounds`` runs per checkout; each per-layer metric is their median.
TRACED_RUNS = 3


def run(checkout, workload, seed, seconds, trace=0):
    """(result object, environment) of one benchmark run in a checkout."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} exited {proc.returncode}\n{proc.stderr}")
    env = next((json.loads(line.split(":", 1)[1]) for line in proc.stderr.splitlines()
                if line.startswith("environment:")), None)
    return json.loads(proc.stdout.strip().splitlines()[-1]), env


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--workloads", nargs="+", default=["bounds", "protocols", "cli"])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"base": args.base, "change": args.change}

    report = {
        "command": f"python3 bench/run.py --workload W --seed {args.seed} "
                   f"--seconds {args.seconds:g}",
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload in args.workloads:
        results = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                result, env = run(sides[side], workload, args.seed, args.seconds)
                results[side].append(result)
                report.setdefault("environment", {})[side] = env
                print(f"{workload} pair {k} {side}: "
                      f"{result['metrics']['task_p50_s']['value']:.4f} s", file=sys.stderr)
        entry = {side: {"correct": all(r["correct"] for r in rs),
                        "attempted": sum(r["attempted"] for r in rs),
                        "failed": sum(r["failed"] for r in rs)}
                 for side, rs in results.items()}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in results.items()}
            sign = 1.0 if metric["better"] == "lower" else -1.0
            base, change = summary(values["base"]), summary(values["change"])
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "base": base,
                "change": change,
                "median_change": change["median"] / base["median"] - 1.0,
                "pairs_won": int(sum(sign * (c - b) < 0 for b, c in
                                     zip(values["base"], values["change"]))),
            }
        report["workloads"][workload] = entry

    traced = {side: [] for side in sides}
    for _ in range(TRACED_RUNS):
        for side, checkout in sides.items():
            result, _ = run(checkout, "bounds", args.seed, args.seconds, trace=1)
            traced[side].append({k: v["value"] for k, v in result["metrics"].items()})
    report["traced"] = {
        side: {name: {"median": float(np.median([r[name] for r in runs])),
                      "runs": [r[name] for r in runs]}
               for name in runs[0]}
        for side, runs in traced.items()
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
