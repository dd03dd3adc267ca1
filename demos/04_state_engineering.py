"""Letting relaxation work for you: saturation and periodic preparation.

Two protocols where the dissipative part is the resource:

* saturate the carbon spin and cross-relaxation pumps the proton beyond
  its thermal polarization (the classic Overhauser enhancement);
* alternate free relaxation with a coefficient-averaging permutation so
  that a pseudo-pure state becomes the attracting fixed point, reaching an
  effective purity that no unitary sequence can deliver (20/3 = 6.67).
  Conjugating the same period with a basis change turns the fixed point
  into a pseudo-Bell state, exactly.
"""

import numpy as np

from reachset import (
    CoherenceVector,
    assemble_generator,
    fixed_point,
    noe_steady_state,
    simulate_sequence,
)
from reachset.sequences import (
    bell_direction,
    bell_sequence,
    pps_direction,
    pps_sequence,
)

gen = assemble_generator()
thermal = CoherenceVector(n=2, r=gen.r_eq)

print("== saturation ==")
x = noe_steady_state(gen, "C")
print(f"carbon saturated -> proton polarization {x.x[1]:.4f} "
      "(thermal value 4, measured 4.25)")

print("\n== periodic pseudo-pure preparation,  [relax tau | permute] ==")
for tau in (0.5, 1.5, 3.0):
    rep = fixed_point(gen, pps_sequence(tau), target=pps_direction(),
                      kappa_tol=0.5)
    print(f"  tau={tau:>4}: eta={rep.eta_eff:.4f}  "
          f"angle to target={rep.theta:.4f} rad  "
          f"spectral radius={rep.spectral_radius:.4f}  "
          f"contraction bound q={rep.contraction_bound:.4f}")
print("  unitary-only ceiling is 20/3 = 6.6667: beaten at every tau above")

print("\nconvergence from thermal equilibrium (tau = 1.5 s):")
sim = simulate_sequence(gen, pps_sequence(1.5, repeat=60), thermal,
                        record_every=10, target=pps_direction())
for t, eta, theta in zip(sim.times, sim.eta, sim.theta):
    print(f"  period {int(round(t / 1.5)):3d}: eta={eta:.4f} theta={theta:.4f}")

print("\n== pseudo-Bell preparation, the same period in a rotated frame ==")
fp_pps = fixed_point(gen, pps_sequence(1.5))
fp_bell = fixed_point(gen, bell_sequence(1.5), target=bell_direction(),
                      kappa_tol=0.5)
print(f"Bell fixed point eta={fp_bell.eta_eff:.4f}, "
      f"theta={fp_bell.theta:.4f} rad")
print("norms agree with the pseudo-pure fixed point:",
      f"{np.linalg.norm(fp_bell.x_star.r):.6f} vs "
      f"{np.linalg.norm(fp_pps.x_star.r):.6f}")
sim_b = simulate_sequence(gen, bell_sequence(1.5, repeat=300), thermal,
                          record_every=100, target=bell_direction())
print("theta trace:", np.round(sim_b.theta, 4))
