"""Count the cone-test work of tracing the benchmark's fans.

    python3 tools/trace_counts.py

Traces, on the bundled model from the origin at tol 1e-3, the eight
20-ray ``bounds`` fans of ``bench/workloads.py`` (``fibonacci_sphere(20)``
rotated by seeds 101-108) and ``fibonacci_sphere(200)``.  For each fan it
prints the stacked ``stlc_test_3d`` calls and the direction sets they
test, the origin's call included, and how each set was answered:

* ``carried``: certified by the start tetrahedron the tracer carried along
  its ray;
* ``axis``: certified by a tetrahedron of its six axis-extreme fields, which
  only a set without a start tries;
* ``exchange``: certified by the tetrahedron the vertex exchange found;
* ``separated``: not full by a facet plane of the vertex exchange that has
  the origin beyond it and no field across it;
* ``hull``: neither, so decided from the planes through every triple of
  its fields (``_hull_depth``).

A certified set counts under the first of these that its reported
tetrahedron matches, so a start that the exchange leaves unchanged counts
as carried; an uncertified set counts under hull when it reaches
``_hull_depth``, and as separated otherwise.  The last column is the
SHA-256 of the radii, to compare two checkouts.  The counts are
deterministic and repeat exactly.
"""

import hashlib
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reachset as rs  # noqa: E402
from reachset import under_approx  # noqa: E402

SOURCES = ("carried", "axis", "exchange", "separated", "hull")
EXTREME_TETRAHEDRA = list(combinations(range(6), 4))


def rotation(seed):
    """Seeded 3x3 rotation (QR of a Gaussian matrix, signs fixed), as the
    benchmark rotates its fans."""
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def source_counts(sets, start, tetrahedra):
    """Sets answered by each of SOURCES but hull, from (N, K, 3) sets, their
    (N, 4) starts (-1 for none) and the (N, 4) tetrahedra that certified
    them; an uncertified set counts as separated."""
    counts = dict.fromkeys(SOURCES, 0)
    extremes = np.concatenate([sets.argmax(axis=1), sets.argmin(axis=1)], axis=1)
    for ext, given, tet in zip(extremes, start, tetrahedra):
        found = sorted(tet)
        if found[0] < 0:
            counts["separated"] += 1
        elif found == sorted(given):
            counts["carried"] += 1
        elif given[0] < 0 and any(found == sorted(ext[list(t)]) for t in EXTREME_TETRAHEDRA):
            counts["axis"] += 1
        else:
            counts["exchange"] += 1
    return counts


def trace(gen, controls, rays):
    """(radii, counts) of one traced fan, counting through the module
    attributes the tracer and the cone test call."""
    test, hull_depth = under_approx.stlc_test_3d, under_approx._hull_depth
    counts = dict.fromkeys(("calls", "sets") + SOURCES, 0)

    def deciding(v, top):
        counts["hull"] += len(v)
        counts["separated"] -= len(v)  # source_counts counts them as separated
        return hull_depth(v, top)

    def counting(directions, start=None):
        verdict = test(directions, start=start)
        sets = np.asarray(directions, dtype=float).reshape(-1, *np.shape(directions)[-2:])
        starts = np.full((len(sets), 4), -1) if start is None else np.reshape(start, (-1, 4))
        counts["calls"] += 1
        counts["sets"] += len(sets)
        found = source_counts(sets, starts, np.reshape(verdict.tetrahedron, (-1, 4)))
        for name, count in found.items():
            counts[name] += count
        return verdict

    under_approx.stlc_test_3d, under_approx._hull_depth = counting, deciding
    try:
        radii = rs.stlc_boundary_rays(gen, controls, rays, tol=1e-3, origin=np.zeros(3))
    finally:
        under_approx.stlc_test_3d, under_approx._hull_depth = test, hull_depth
    return radii, counts


def main():
    gen = rs.assemble_generator()
    controls = rs.build_permutation_set(2)
    fans = {f"bounds {s}": rs.fibonacci_sphere(20) @ rotation(s).T for s in range(101, 109)}
    fans["fibonacci 200"] = rs.fibonacci_sphere(200)
    columns = ("calls", "sets") + SOURCES
    print(f"{'fan':<14}" + "".join(f"{c:>10}" for c in columns) + "  radii sha256")
    bounds = []
    for name, rays in fans.items():
        radii, counts = trace(gen, controls, rays)
        if name.startswith("bounds"):
            bounds.append([counts[c] for c in columns])
        digest = hashlib.sha256(radii.tobytes()).hexdigest()[:16]
        print(f"{name:<14}" + "".join(f"{counts[c]:>10}" for c in columns) + f"  {digest}")
    mean = np.mean(bounds, axis=0)
    print(f"{'bounds mean':<14}" + "".join(f"{m:>10.1f}" for m in mean))
    return 0


if __name__ == "__main__":
    sys.exit(main())
