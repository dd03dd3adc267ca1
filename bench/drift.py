"""Show the machine's speed drift on one fixed task.

    python3 bench/drift.py [SECONDS]

Traces the same 20-ray fan over and over for SECONDS (default 60) and
prints, per trace, its wall time, its CPU time and the two calibration
kernels of speed.py.  On the machine of README.md the wall time of this
fixed work moves between about 0.4 s and 0.8 s within a minute, and the
CPU time moves with it.
"""

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reachset as rs  # noqa: E402

import speed  # noqa: E402


def main():
    seconds = float(sys.argv[1]) if len(sys.argv) > 1 else 60.0
    gen = rs.assemble_generator()
    controls = rs.build_permutation_set(2)
    fan = rs.fibonacci_sphere(20)
    print("wall_s cpu_s numpy_kernel_ms spawn_kernel_ms")
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        w0, c0 = time.perf_counter(), time.process_time()
        rs.stlc_boundary_rays(gen, controls, fan, tol=1e-3, origin=np.zeros(3))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        print(f"{wall:.3f} {cpu:.3f} {1e3 * speed.numpy_kernel():.2f} "
              f"{1e3 * speed.spawn_kernel():.0f}", flush=True)


if __name__ == "__main__":
    main()
