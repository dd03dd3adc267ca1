"""Inner bound: tracing the locally controllable region.

With controls restricted to the 24 permutations of the diagonal entries,
the state can move instantaneously only inside the convex cone of the 24
admissible directions.  Where that cone is the whole space the system is
small-time locally controllable; the connected set of such points is an
inner bound on the reachable region.  We test the cone with triple
products, cross-check with a linear-programming oracle, and bisect along
rays to find the boundary.
"""

import numpy as np

from reachset import (
    assemble_generator,
    build_permutation_set,
    diag_slots,
    fibonacci_sphere,
    stlc_boundary_rays,
    stlc_test_3d,
    stlc_test_lp,
)
from reachset.diagonal import projected_field_stack, stacked_directions

gen = assemble_generator()
controls = build_permutation_set(2)
A, b = projected_field_stack(gen, controls.reps_full)

# the mixed state at the origin is comfortably controllable
verdict = stlc_test_3d(stacked_directions(A, b, np.zeros(3)))
print("origin controllable:", verdict.is_full)

# ... but the equilibrium itself is not: the identity control stalls there
x_eq = gen.r_eq[list(diag_slots(2))]
v_eq = stlc_test_3d(stacked_directions(A, b, x_eq))
v_lp = stlc_test_lp(stacked_directions(A, b, x_eq))
print(f"equilibrium {x_eq} controllable: triple-product {v_eq.is_full}, "
      f"LP oracle {v_lp.is_full}")
print("  (it is the steady state of doing nothing, i.e. a stalling point;"
      " points just inside pass:",
      stlc_test_3d(stacked_directions(A, b, 0.999 * x_eq)).is_full, ")")

# every constant-control steady state is such a stalling point
print("\nconstant-control steady states (all on one sphere):")
for k in (0, 5, 17):
    x = np.linalg.solve(A[k], b[k])  # where control k's field -A x + b vanishes
    print(f"  control {k:2d}: {np.round(x, 4)}  |x| = {np.linalg.norm(x):.4f}")

# trace the boundary along a small ray fan from the origin
rays = fibonacci_sphere(32)
radii = stlc_boundary_rays(gen, controls, rays, tol=1e-3, origin=np.zeros(3))
print(f"\n32-ray boundary trace: radii in [{radii.min():.3f}, {radii.max():.3f}]")

d = np.ones(3) / np.sqrt(3)
t = stlc_boundary_rays(gen, controls, d[None, :], tol=1e-4,
                       origin=np.zeros(3))[0]
print(f"boundary along the equal-coefficient ray: {t:.4f} "
      f"(unitary polytope exits at {5 / np.sqrt(3):.4f}, "
      "sphere at 4.3213)")
