"""Test-only references for chowstab.blowup.

``derive(spec)`` computes everything of one BlowupSpec from scratch, as
chowstab.blowup did before it held one object per geometry: chi~ and w~
from their coefficient formulas, D and the point sums through the f_l/g_l
transcription, the generic pipeline on (chi~, w~) with both cross-checks,
and the Chow function from chowcore.report.  test_blowup requires the
library's values to pickle to the same bytes.

``fraction_column_values(spec)`` applies the geometry's coefficient
columns to the action as Fractions, as the geometry did before it held
them as integer numerators; test_blowup requires equal values.
"""
from __future__ import annotations

import math
from fractions import Fraction

from chowstab import blowup, chowcore
from chowstab.exactalg import Poly, stirling_coeffs


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


def futaki_point_sums(n, a, ratios, phis, lams):
    """sum_j [f_l(x_j) phi_j - g_l(x_j) lam_j] for l = 1..n, point by point."""
    s = stirling_coeffs(n) + [0]
    fact = math.factorial(n)

    def power_sum(p):
        return sum((x**p for x in ratios), Fraction(0))

    d_val = fact * Fraction(a[0]) - power_sum(n)
    out = []
    for ell in range(1, n + 1):
        second = fact * Fraction(a[ell]) - s[n - ell] * power_sum(n - ell)
        acc = Fraction(0)
        for x, phi, lam in zip(ratios, phis, lams):
            f_val = d_val * s[n - ell] * x ** (n - ell) - second * x**n
            g_val = (d_val * s[n + 1 - ell] * x ** (n + 1 - ell) - x * f_val) / (n + 1)
            acc += f_val * Fraction(phi) - g_val * lam
        out.append(acc)
    return out


def derive(spec) -> dict:
    """chi~, w~, D, the F_l and the Chow function's num/den of one spec."""
    n, a, m = spec.base.n, spec.base.a, spec.m
    alphas = [p.alpha for p in spec.points]
    phis = [p.phi for p in spec.points]
    lams = [p.lam for p in spec.points]
    ratios = [Fraction(alpha, m) for alpha in alphas]
    d_val = spec.base.degree - sum((x**n for x in ratios), Fraction(0))
    chi = Poly.from_descending(chi_tilde_coeffs(n, a, m, alphas))
    w = Poly.from_descending(w_tilde_coeffs(n, m, alphas, phis, lams))
    h = chowcore.HilbertData.from_poly(chi, n)
    wd = chowcore.WeightData.from_poly(w, n)
    sums = futaki_point_sums(n, a, ratios, phis, lams)
    futaki = [sums[ell - 1] / (d_val**2 * m ** (ell - 1)) for ell in range(1, n + 1)]
    assert futaki == chowcore.futaki_invariants(h, wd)
    rep = chowcore.report(h, wd)
    assert list(rep.futaki) == futaki
    return {"chi": chi, "w": w, "D": d_val, "futaki": futaki,
            "chow": (rep.chow.num, rep.chow.den)}


def apply_columns(columns, phis, lams):
    """sum_j (c_j phi_j + d_j lam_j) for each Fraction column pair (c, d)."""
    return [sum((c * phi for c, phi in zip(phi_col, phis)), Fraction(0))
            + sum((d * lam for d, lam in zip(lam_col, lams)), Fraction(0))
            for phi_col, lam_col in columns]


def fraction_column_values(spec):
    """(w~ coefficients [b_0..b_{n+1}], point-sum [F_1..F_n]) of one spec from
    the Fraction columns of _w_tilde_columns and of _f_g_levels, the latter
    scaled by 1/(D^2 m^{l-1})."""
    n, m = spec.base.n, spec.m
    phis = [p.phi for p in spec.points]
    lams = [p.lam for p in spec.points]
    d_val, _, columns = blowup._f_g_levels(n, spec.base.a, spec.ratios)
    scaled = []
    for ell, (f_col, g_col) in enumerate(columns, start=1):
        scale = 1 / (d_val**2 * m ** (ell - 1))
        scaled.append(([v * scale for v in f_col], [v * scale for v in g_col]))
    w_coeffs = apply_columns(blowup._w_tilde_columns(n, m, spec.alphas), phis, lams)
    return w_coeffs + [Fraction(0)], apply_columns(scaled, phis, lams)
