"""Minimal deterministic worker pool.

Independent work items (chunks of boundary rays) map over a process pool
when more than one process may run, falling back to a serial loop
otherwise.  Result order always follows input order, so merged outputs are
deterministic regardless of the worker count.
"""

import os
from multiprocessing import get_context


def pool_size(workers, count):
    """Processes for `count` items: at most `workers`, and never more than
    the CPUs this process may run on."""
    return max(1, min(workers, count, len(os.sched_getaffinity(0))))


def parallel_map(fn, items, workers):
    """Order-preserving fn(*item) over items, serial when one process suffices."""
    items = list(items)
    processes = pool_size(workers, len(items))
    if processes == 1:
        return [fn(*it) for it in items]
    ctx = get_context("spawn")
    with ctx.Pool(processes=processes) as pool:
        return pool.starmap(fn, items)
