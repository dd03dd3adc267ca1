"""Minimal deterministic worker pool.

Independent work items (boundary rays, sweep cells, multi-starts) map over
a process pool when workers > 1, falling back to a serial loop otherwise.
Result order always follows input order, so merged outputs are
deterministic regardless of the worker count.
"""

from multiprocessing import get_context


def parallel_map(fn, items, workers):
    """Order-preserving fn(*item) over items, serial for workers <= 1."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(*it) for it in items]
    ctx = get_context("spawn")
    with ctx.Pool(processes=min(workers, len(items))) as pool:
        return pool.starmap(fn, items)
