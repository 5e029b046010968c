"""Projectivized bundles over a curve: closed forms against brute force.

For E a direct sum of line bundles on a genus-2 curve, the Hilbert and
weight polynomials of P(E) have closed forms coming from Riemann-Roch on
the curve.  The block-sum oracle recomputes both from the symmetric
powers of E* summand by summand, so any slip in the closed forms (or
their sign conventions) shows up as an exact integer mismatch.

The decomposition E = O(1) + O is slope-unstable, and indeed every higher
Futaki invariant is nonzero; a polystable decomposition forces them all
to vanish, whatever fiberwise weights the torus acts with.

Run:  python3 demos/02_projective_bundles.py
"""
from chowstab import (
    CurveBundleSpec,
    Summand,
    chow_weight,
    euler_char_poly,
    higher_futaki,
    oracle,
    slope_classify,
    weight_poly,
)

spec = CurveBundleSpec(
    genus=2,
    summands=(Summand(rank=1, degree=1, weight=1),
              Summand(rank=1, degree=0, weight=0)),
    b_deg=2, b_weight=0, r=1)

chi = euler_char_poly(spec)
w = weight_poly(spec)
print("P(O(1) + O) over a genus-2 curve, L = O_P(1) + pullback of degree-2 B")
print("chi(k) =", chi.pretty())
print("w(k)   =", w.pretty())
print()

print("closed forms vs composition oracle (exact):")
for k in range(1, 7):
    dim, weight = oracle(spec, k)
    print(f"  k={k}: chi={chi.evaluate(k)} oracle_dim={dim}   "
          f"w={w.evaluate(k)} oracle_weight={weight}")
    assert chi.evaluate(k) == dim and w.evaluate(k) == weight
print()

print("Chow weight:", chow_weight(spec).pretty())
print("higher Futaki invariants:", [str(f) for f in higher_futaki(spec)])
verdict = slope_classify(spec)
print("slope classification:", verdict.classification,
      "| slope gaps:", [str(g) for g in verdict.per_summand])
print()

# Equal slopes with stable summands: polystable, and the invariants vanish
# for any choice of fiberwise weights.
for weights in ((1, 0), (5, -2), (3, 3)):
    poly_spec = CurveBundleSpec(
        genus=2,
        summands=(Summand(1, 1, weights[0], stable=True),
                  Summand(1, 1, weights[1], stable=True)),
        b_deg=2, b_weight=0, r=1)
    print(f"equal-slope decomposition, fiber weights {weights}: "
          f"classification={slope_classify(poly_spec).classification}, "
          f"F={[str(f) for f in higher_futaki(poly_spec)]}")
