"""Run the fixed CLI matrix and print the SHA-256 of every primary output.

    python3 tools/cli_matrix.py OUT_DIR

Seventeen invocations cover every subcommand on deterministic inputs: the
bundled generator written as JSON, a one-qubit generator on which the purity
sphere takes its hard-case (boundary) solution, noisy population
trajectories from seed 401 and a fixed 7-row ray CSV.  Each invocation runs
as its own process against the ``src/`` tree next to this script and writes
into OUT_DIR.
One ``<sha256>  <path>`` line is printed per primary output, sorted by path;
the ``.meta.json`` sidecars carry timings and are left out.  Two checkouts
compare by running the script in each and diffing the two listings, and
only under the same thread variables (``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS``, ``OMP_NUM_THREADS``): with none set the CLI runs one
OpenBLAS thread, and a checkout older than that default runs one per core.

Exit status is 1 if any invocation fails, else 0.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import reachset as rs  # noqa: E402
from reachset.serialize import dump_json, write_trajectory_csv  # noqa: E402

RAYS_CSV = """\
1,0,0
0,1,0
0,0,1
1,1,1
-1,2,0.5
0.3,-0.7,0.2
-1,-1,-1
"""

PRESET = ["--preset", "chloroform"]


def write_inputs(d):
    dump_json(rs.assemble_generator().to_json_dict(), d / "gen.json")
    # r_eq is orthogonal to the slowest relaxation mode
    hard = rs.AffineGenerator(n=1, Hmat=np.zeros((3, 3)), Rmat=np.diag([0.1, 1.0, 2.0]),
                              r_eq=np.array([0.0, 0.0, 1.0]))
    dump_json(hard.to_json_dict(), d / "hard.json")
    (d / "rays.csv").write_text(RAYS_CSV)
    times = np.linspace(0.0, 40.0, 30)
    starts = [np.array([-1.0, 4.0, 0.0]), np.array([1.0, -4.0, 0.0]),
              np.array([0.0, 0.0, 3.0])]
    trajs = rs.synthesize_trajectories(
        rs.CHLOROFORM, "population", starts, times, noise=0.01, seed=401)
    paths = []
    for k, traj in enumerate(trajs):
        paths.append(d / f"traj{k}.csv")
        write_trajectory_csv(paths[-1], traj)
    return paths


def matrix(d, traj_paths):
    """(argv, primary outputs) per invocation, paths relative to d."""
    figure = ["sphere.json", "stlc_boundary.csv", "polytope_vertices.csv",
              "pps_trajectory.csv", "noe_trajectory.csv", "noe.json"]
    fit = ["fit", "--block", "population", "--out", "rates.json"]
    for p in traj_paths:
        fit += ["--traj", p.name]
    return [
        (["bound", *PRESET, "--out", "bound.json"], ["bound.json"]),
        (["bound", "--gen", "gen.json", "--out", "bound_gen.json"],
         ["bound_gen.json"]),
        (["bound", "--gen", "hard.json", "--out", "bound_hard.json"],
         ["bound_hard.json"]),
        (["stlc", *PRESET, "--out", "stlc.csv"], ["stlc.csv"]),
        (["stlc", *PRESET, "--rays", "rays.csv", "--tol", "1e-5",
          "--out", "stlc_csv.csv"], ["stlc_csv.csv"]),
        (["stlc", *PRESET, "--rays", "fibonacci:300", "--tol", "1e-2",
          "--region", "wedge", "--out", "stlc_wedge.csv"], ["stlc_wedge.csv"]),
        (["unitary-bound", *PRESET, "--target", "pps", "--out", "poly_pps.json"],
         ["poly_pps.json"]),
        (["unitary-bound", *PRESET, "--target", "bell",
          "--out", "poly_bell.json"], ["poly_bell.json"]),
        (["simulate", *PRESET, "--seq", "pps", "--record-every", "7",
          "--out", "traj_pps.csv"], ["traj_pps.csv"]),
        (["simulate", *PRESET, "--seq", "bell", "--record-every", "7",
          "--out", "traj_bell.csv"], ["traj_bell.csv"]),
        (["noe", *PRESET, "--saturate", "C", "--out", "noe_c.json"],
         ["noe_c.json"]),
        (["noe", *PRESET, "--saturate", "H", "--out", "noe_h.json"],
         ["noe_h.json"]),
        (fit, ["rates.json"]),
        (["robustness", *PRESET, "--out", "delta_bb1.csv"], ["delta_bb1.csv"]),
        (["robustness", *PRESET, "--plain", "--out", "delta_plain.csv"],
         ["delta_plain.csv"]),
        (["figure1", *PRESET, "--out-dir", "fig"], [f"fig/{f}" for f in figure]),
        (["figure1", *PRESET, "--rays", "300", "--region", "wedge",
          "--out-dir", "fig_wedge"], [f"fig_wedge/{f}" for f in figure]),
    ]


def main(argv):
    if len(argv) != 1:
        print("usage: python3 tools/cli_matrix.py OUT_DIR", file=sys.stderr)
        return 2
    d = Path(argv[0]).resolve()
    d.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    failed = 0
    lines = []
    for args, outputs in matrix(d, write_inputs(d)):
        proc = subprocess.run([sys.executable, "-m", "reachset.cli", *args],
                              cwd=d, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed += 1
            print(f"exit {proc.returncode}: {' '.join(args)}\n{proc.stderr}",
                  file=sys.stderr)
        for rel in outputs:
            path = d / rel
            digest = (hashlib.sha256(path.read_bytes()).hexdigest()
                      if path.exists() else "<missing>")
            lines.append(f"{digest}  {rel}")
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
