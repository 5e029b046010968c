"""Test-only reference for the bundle oracle: the composition walk.

``composition_oracle`` is the enumeration that ``projbundle.oracle`` used
before it became a product of per-summand series: one block of
S^{kr}(E_1 + ... + E_s)* per composition mu_1 + ... + mu_s = kr, each with
its rank and degree from binomial identities, its Euler characteristic by
Riemann-Roch on the curve and its weight k*lambda_0 - sum mu_j lambda_j.
test_projbundle_reference requires the two to agree.

``twisted_slope`` and ``twisted_det_chi`` give mu~ and chi(det twist) of the
closed forms from the raw fields of a spec, so the references that use them
share no derived number with the library they check.
"""
from __future__ import annotations

from fractions import Fraction

from chowstab.exactalg import choose


def twisted_slope(spec) -> Fraction:
    """mu~ = deg(E)/rank(E) - deg(B)/r: the slope of E twisted by the inverse r-th root of B."""
    n = sum(sm.rank for sm in spec.summands)
    return Fraction(sum(sm.degree for sm in spec.summands), n) - Fraction(spec.b_deg, spec.r)


def twisted_det_chi(spec) -> Fraction:
    """chi(det twist) = deg(E) - rank(E) deg(B)/r + 1 - g."""
    n = sum(sm.rank for sm in spec.summands)
    deg_e = sum(sm.degree for sm in spec.summands)
    return deg_e - Fraction(n * spec.b_deg, spec.r) + 1 - spec.genus


def compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def composition_oracle(spec, k: int) -> tuple[int, int]:
    """(dim, weight) of the sections at tensor power k, block by block."""
    kr = k * spec.r
    s = len(spec.summands)
    ranks = [sm.rank for sm in spec.summands]
    degs = [sm.degree for sm in spec.summands]
    lams = [sm.weight for sm in spec.summands]
    # Per-summand tables over mu = 0..kr: rank and degree of S^mu E_j*.
    rk = [[choose(ranks[j] - 1 + mu, mu) for mu in range(kr + 1)] for j in range(s)]
    dg = [[-choose(ranks[j] - 1 + mu, mu - 1) * degs[j] for mu in range(kr + 1)] for j in range(s)]
    one_minus_g = 1 - spec.genus
    kb = k * spec.b_deg
    kl0 = k * spec.b_weight
    dim = 0
    weight = 0
    for comp in compositions(kr, s):
        rank = 1
        for j in range(s):
            rank *= rk[j][comp[j]]
        deg = rank * kb
        wt = kl0
        for j in range(s):
            deg += (rank // rk[j][comp[j]]) * dg[j][comp[j]]
            wt -= comp[j] * lams[j]
        chi = deg + rank * one_minus_g
        dim += chi
        weight += wt * chi
    return dim, weight
