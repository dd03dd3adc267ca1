"""The machine's momentary speed, from fixed calibration kernels.

On the 2-core virtual machine this benchmark was built on, one and the same
task takes from 1x to 2x its fastest time, in phases that last from seconds
to minutes, and its CPU time moves with its wall time: the virtual CPU
itself runs slower or faster.  A run of a few seconds lands in one phase or
another, so the raw medians of separate runs disagree by 10-40%.

The harness therefore times a kernel just before and just after each unit
of work and rescales the unit's wall and CPU time by
reference / (mean of the two kernel times).  Rescaled times read as
seconds at the reference speed.  Set-up is the exception: run.py rescales
the median of its probes by the fastest spawn kernel timed around them.
Each run record keeps the raw times and the kernel times next to them.  The kernels run no library code, so a
change to the library cannot move them.

* ``numpy_kernel`` brackets each in-process task.  It repeats, with plain
  numpy on fixed data, the operations of a triple-product cone test on 24
  directions: the cross products of all pairs, their norms, a batched
  (24, 24, 3) @ (3, 24) product, sign tests and a rank.  Those are short
  numpy calls on arrays of a few to a hundred kilobytes, the kind of work
  that dominates the bounds and protocols tasks.
* ``spawn_kernel`` brackets each child process: a CLI invocation or a
  set-up probe.  It starts a fresh interpreter that imports numpy, which
  is how every such process begins.

README.md gives the measurements behind the choice of kernels.
"""

import subprocess
import sys
import time

import numpy as np

#: Kernel times at the reference speed: typical medians on the machine of
#: README.md when these constants were fixed.  They only set the scale of
#: the reported times and must stay fixed for results to be comparable.
NUMPY_REFERENCE_S = 0.0045
SPAWN_REFERENCE_S = 0.165
NUMPY_REPEATS = 20

_V = np.random.default_rng(0).normal(size=(24, 3))


def numpy_kernel():
    """Wall time of the fixed numpy kernel, seconds."""
    t0 = time.perf_counter()
    for _ in range(NUMPY_REPEATS):
        c = np.cross(_V[:, None, :], _V[None, :, :])
        n = np.linalg.norm(c, axis=2)
        p = c @ _V.T
        ((p <= 1e-12 * n[..., None]).all(axis=2) | (p >= -1e-12 * n[..., None]).all(axis=2))
        np.linalg.matrix_rank(_V)
    return time.perf_counter() - t0


def spawn_kernel():
    """Wall time of a fresh interpreter that imports numpy, seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class Speed:
    """Rescaling factors for consecutive intervals of work."""

    def __init__(self, kernel, reference):
        self.kernel, self.reference = kernel, reference
        self.last = kernel()
        self.log = [self.last]

    def factor(self):
        """Factor for the work done since the previous call (or since creation)."""
        now = self.kernel()
        self.log.append(now)
        f = self.reference / (0.5 * (self.last + now))
        self.last = now
        return f


def for_tasks():
    return Speed(numpy_kernel, NUMPY_REFERENCE_S)


def for_processes():
    return Speed(spawn_kernel, SPAWN_REFERENCE_S)
