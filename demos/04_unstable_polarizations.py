"""Hunting cscK-compatible polarizations that fail asymptotic Chow stability.

Blow up P^2 at four points, three of them aligned.  One torus action
survives, and the vanishing of F_1 and F_2 on the polarization indexed by
(m, alpha_1..alpha_4) is cut out by a quartic psi_1 and a cubic psi_2.
psi_1 has a triple point at (1,1,0,0,0), so every line through it meets
the quartic in a single extra rational point: rational solutions of
psi_1 = 0 are dense, and sweeping integer lines produces integer
polarizations with F_1 = 0 but F_2 != 0.  On such a class a constant
scalar curvature metric is not obstructed by the classical invariant,
yet the manifold is asymptotically Chow unstable.

By contrast, for three non-aligned points F_1 and F_2 vanish together, so
nothing of the kind exists there.

Run:  python3 demos/04_unstable_polarizations.py
"""
from chowstab import (
    PointConfig,
    psi_reconstruct,
    search_unstable,
    three_point_loci,
    triple_point_check,
)

config = PointConfig.four_points_three_aligned()
psi1, psi2 = psi_reconstruct(config)
print("psi_1 =", psi1.pretty())
print()
print("psi_2 =", psi2.pretty())
print()
print("triple point at (m, alpha) = (1,1,0,0,0):", triple_point_check(psi1))
print()

# The three-point picture: both invariants vanish exactly on the union of
# the equal-multiplicities locus and the plane sum(alpha) = m.
print("three general points (inside the ample cone):")
for m, alphas in ((5, (1, 1, 1)), (4, (2, 1, 1)), (5, (2, 1, 1)), (7, (2, 2, 3))):
    f1_zero, f2_zero = three_point_loci(m, alphas)
    print(f"  m={m}, alphas={alphas}: F1 vanishes: {f1_zero}, F2 vanishes: {f2_zero}")
print()

# The four-point search: lines through the triple point.
print("sweeping the lines through the triple point with directions in [-2, 2]^5 ...")
candidates = search_unstable(grid_bound=2, scale_bound=3)
for c in candidates:
    print(f"  m={c.m}, alphas={c.alphas}: psi1={c.psi1_value}, "
          f"psi2={c.psi2_value}, ample={c.ample}, verified={c.verified}")
print()
print("Each primitive candidate is verified through the full pipeline, its multiples by homogeneity:")
print("F_1 = 0 exactly, F_2 != 0, and the polarization is ample, so these")
print("are integer classes that are asymptotically Chow unstable; scaling")
print("them produces infinitely many more.")
