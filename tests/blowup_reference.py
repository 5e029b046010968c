"""Test-only references for chowstab.blowup.

``derive(spec)`` computes everything of one BlowupSpec from scratch, as
chowstab.blowup did before it held one object per geometry: chi~ and w~
from their coefficient formulas, D and the point sums through the f_l/g_l
transcription, the generic pipeline on (chi~, w~) with both cross-checks,
and the Chow function from chowcore.report.  test_blowup requires the
library's values to pickle to the same bytes.

``FractionGeometry(base, m, alphas)`` derives what blowup._Geometry
holds, on Fractions, as the library did before it ran its transcription
on integers: the ratios alpha_j/m, D, the per-level terms, chi~ and its
HilbertData, and under an action w~ and the point-sum F_l.  test_blowup
requires the library's geometry to hold equal values, D <= 0 included.

``futaki_by_pipeline(spec)`` is futaki_blowup as it stood before it ran
its check on integers in the geometry: the spec's point-sum F_l, compared
with chowcore.futaki_invariants on the spec's HilbertData and WeightData.
test_blowup and test_p2lab require the geometry's checked F_l to equal it.

``quotient_weight(spec, k)`` is the weight of the skyscraper quotient,
the sections modulo those vanishing to order alpha_j k at the points,
summed block by block: test_blowup requires w~(k) = -quotient_weight(k).

``adiabatic(spec)`` and ``chow_weight_fn(h, w)`` are the library's
functions as they were computed on Fractions, before the one moved to
integer numerators over the phi's common denominator and the other to
the integer shift A_n B - B_{n+1} k A of chi's and w's numerators:
test_blowup requires the library's values to pickle to the same bytes.
"""
from __future__ import annotations

import math
from fractions import Fraction

from chowstab import chowcore
from chowstab.exactalg import Poly, RatFn, stirling_coeffs
from exact_reference import choose


def chi_tilde_coeffs(n, a, m, alphas):
    s = stirling_coeffs(n)
    fact = math.factorial(n)
    return [
        Fraction(a[ell]) * m ** (n - ell)
        - Fraction(s[n - ell], fact) * sum(alpha ** (n - ell) for alpha in alphas)
        for ell in range(n + 1)
    ]


def w_tilde_coeffs(n, m, alphas, phis, lams):
    s = stirling_coeffs(n) + [0]
    fact = math.factorial(n)
    out = []
    for ell in range(n + 1):
        phi_part = Fraction(s[n - ell] * m, fact) * sum(
            (Fraction(a) ** (n - ell) * Fraction(phi) for a, phi in zip(alphas, phis)),
            Fraction(0))
        lam_part = Fraction(s[n - ell] - s[n + 1 - ell], fact * (n + 1)) * sum(
            (Fraction(a) ** (n + 1 - ell) * lam for a, lam in zip(alphas, lams)),
            Fraction(0))
        out.append(phi_part + lam_part)
    out.append(Fraction(0))
    return out


def levels(n, a, ratios):
    """D = n! a_0 - sum_i x_i^n and the per-level terms
    (l, D s_{n-l}, D s_{n+1-l}, n! a_l - s_{n-l} sum_i x_i^{n-l}), l = 1..n."""
    s = stirling_coeffs(n) + [0]
    fact = math.factorial(n)

    def power_sum(p):
        return sum((x**p for x in ratios), Fraction(0))

    d_val = fact * Fraction(a[0]) - power_sum(n)
    return d_val, [(ell, d_val * s[n - ell], d_val * s[n + 1 - ell],
                    fact * Fraction(a[ell]) - s[n - ell] * power_sum(n - ell))
                   for ell in range(1, n + 1)]


def futaki_point_sums(n, a, ratios, phis, lams):
    """sum_j [f_l(x_j) phi_j - g_l(x_j) lam_j] for l = 1..n, point by point,
    over Fractions or MPoly generators x_j (p2lab_reference.psi_by_clearing)."""
    out = []
    for ell, d_lo, d_hi, second in levels(n, a, ratios)[1]:
        acc = Fraction(0)
        for x, phi, lam in zip(ratios, phis, lams):
            f_val = d_lo * x ** (n - ell) - second * x**n
            g_val = (d_hi * x ** (n + 1 - ell) - x * f_val) * Fraction(1, n + 1)
            acc += f_val * Fraction(phi) - g_val * lam
        out.append(acc)
    return out


class FractionGeometry:
    """The fields of blowup._Geometry, and its w~ and point sums under an
    action, each derived on Fractions from the formulas of this module."""

    def __init__(self, base, m, alphas):
        n = base.n
        self.n, self.a, self.m, self.alphas = n, base.a, m, tuple(alphas)
        self.ratios = tuple(Fraction(alpha, m) for alpha in alphas)
        self.volume_gap = levels(n, base.a, self.ratios)[0]
        chi = chi_tilde_coeffs(n, base.a, m, alphas)
        self.chi = Poly(tuple(reversed(chi)))
        self.hilbert = chowcore.HilbertData(n, chi) if self.volume_gap > 0 else None

    def w_poly(self, phis, lams):
        return Poly(tuple(reversed(w_tilde_coeffs(self.n, self.m, self.alphas, phis, lams))))

    def point_sum_futaki(self, phis, lams):
        sums = futaki_point_sums(self.n, self.a, self.ratios, phis, lams)
        return tuple(total / (self.volume_gap**2 * self.m ** (ell - 1))
                     for ell, total in enumerate(sums, start=1))


def derive(spec) -> dict:
    """chi~, w~, D, the F_l and the Chow function's num/den of one spec."""
    n = spec.base.n
    phis = [p.phi for p in spec.points]
    lams = [p.lam for p in spec.points]
    geometry = FractionGeometry(spec.base, spec.m, [p.alpha for p in spec.points])
    chi, w = geometry.chi, geometry.w_poly(phis, lams)
    h = chowcore.HilbertData.from_poly(chi, n)
    wd = chowcore.WeightData.from_poly(w, n)
    futaki = list(geometry.point_sum_futaki(phis, lams))
    assert futaki == chowcore.futaki_invariants(h, wd)
    rep = chowcore.report(h, wd)
    assert list(rep.futaki) == futaki
    return {"chi": chi, "w": w, "D": geometry.volume_gap, "futaki": futaki,
            "chow": (rep.chow.num, rep.chow.den)}


def point_sum_futaki(geometry, action):
    """The point-sum [F_1..F_n] of a geometry's integer columns under an
    action (P, q, lams), as Fractions."""
    sums, den = geometry._point_sums(action)
    return [Fraction(total, den) for total in sums]


def futaki_by_pipeline(spec):
    """The spec's point-sum [F_1..F_n], asserted equal to the generic
    pipeline's F_l on (chi~, w~) as Poly-backed HilbertData and WeightData."""
    direct = point_sum_futaki(spec._geometry, spec._action)
    assert direct == chowcore.futaki_invariants(*spec.hilbert_weight_data), spec
    return direct


def quotient_weight(spec, k):
    """-sum_j [ binom(n+ak-1, ak-1) mk phi_j + binom(n+ak-1, ak-2) lam_j ] with a = alpha_j."""
    n, m = spec.base.n, spec.m
    total = Fraction(0)
    for p in spec.points:
        ak = p.alpha * k
        total += choose(n + ak - 1, ak - 1) * m * k * p.phi
        total += choose(n + ak - 1, ak - 2) * p.lam
    return -total


def adiabatic(spec):
    """(n(n-1)/(2 deg) sum_j (alpha_j/m)^{n-1} phi_j, sum_j alpha_j^{n-1} phi_j), on Fractions."""
    n = spec.base.n
    w_cw = sum((Fraction(p.alpha) ** (n - 1) * p.phi for p in spec.points), Fraction(0))
    leading = Fraction(n * (n - 1), 2) / spec.base.degree * w_cw / spec.m ** (n - 1)
    return leading, w_cw


def chow_weight_fn(h, w):
    """w(k)/chi(k) - (b_0/a_0) k with the shift b_0/a_0 a Fraction and a Poly product."""
    chi, w_poly = h.poly(), w.poly()
    shift = w_poly.coefficient(w.n + 1) / chi.coeffs[-1]
    return RatFn(w_poly - Poly((0, shift)) * chi, chi)
