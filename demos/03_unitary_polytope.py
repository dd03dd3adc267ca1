"""What unitaries alone can do: the spectrum permutation polytope.

Unitary control permutes the eigenvalues of the deviation operator and
nothing else, so the diagonal states reachable without relaxation fill the
convex hull of all spectrum permutations.  The best transfer efficiency
onto a target direction follows from aligning sorted spectra.
"""

import numpy as np

from reachset import (
    CoherenceVector,
    assemble_generator,
    diagonal_vertex_coords,
    kappa_unitary_max,
    polytope_ray_exit,
    polytope_vertices,
)
from reachset.sequences import bell_direction, pps_direction

gen = assemble_generator()
thermal = CoherenceVector(n=2, r=gen.r_eq)

vertices = polytope_vertices(thermal)
print(f"deviation spectrum of the thermal state: "
      f"{np.round(sorted(vertices[0], reverse=True), 3)}")
print(f"polytope vertices: {len(vertices)} distinct permutations")

coords = diagonal_vertex_coords(vertices)
print("a few vertices in diagonal coordinates (x1, x2, x3):")
for row in coords[:5]:
    print("  ", np.round(row, 3))

kappa = kappa_unitary_max(thermal, pps_direction())
print(f"\nbest unitary transfer onto the pseudo-pure direction: "
      f"eta = {kappa:.6f} (= 20/3)")

d = np.ones(3) / np.sqrt(3)
t_exit = polytope_ray_exit(coords, d)
print(f"polytope exit along that ray: {t_exit:.6f} = kappa * sqrt(3)/4 "
      f"= {kappa * np.sqrt(3) / 4:.6f}")

kappa_bell = kappa_unitary_max(thermal, bell_direction())
print(f"onto the Bell direction (unitarily equivalent target): "
      f"eta = {kappa_bell:.6f}")
print("\nperiodic control with relaxation beats this bound; see demo 04.")
