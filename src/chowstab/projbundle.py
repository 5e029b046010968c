"""Invariants of projectivized bundles over curves of genus at least two.

For a direct sum E = E_1 + ... + E_s of bundles on a smooth curve of genus
g >= 2, the fiberwise torus action scaling each summand E_j by t^{lambda_j}
induces an action on P(E).  With the polarization L = O_{P(E)}(r) twisted
by a line bundle B pulled back from the curve (carrying its own fiberwise
weight lambda_0), pushing forward along the fibration identifies sections
of L^k with sections of S^{kr}E* tensored by B^k, and Riemann-Roch on the
curve gives closed forms for the Hilbert and weight polynomials:

    chi(k) = binom(n-1+kr, kr) * (1 - g + c*k),

    w(k)   = binom(n-1+kr, kr) * [ kr(n+kr)/(n(n+1)) * S
             + k*(lambda_0 - (r/n) tr) * (1 - g + c*k) ]
           = S * binom(n+kr, n+1) + k*(lambda_0 - (r/n) tr) * chi(k),

where n = rank E, mu is degree/rank, c = deg B - r*mu(E), tr = sum lambda_j
rank(E_j) and S = sum lambda_j rank(E_j) (mu(E_j) - mu(E)); the second
form of w uses binom(n-1+kr, kr) kr(n+kr)/(n(n+1)) = binom(n+kr, n+1).
Each spec builds chi's two factors, binom(n-1+kr, kr) and the curve
factor 1 - g + c*k, once: w reads chi, and the Chow weight reads the
curve factor.  For every r, with the twisted slope mu~ = -c/r,
chi_det = deg E - n deg B / r + 1 - g and
prod_{i<n} (k + i/r) = sum_h s_h r^{h-n} k^h (so that C_l = s_{n+1-l}/(n(n+1))),

    sum_l F_l k^{n+1-l} = -chi_det S / mu~^2 * prod_{i<n} (k + i/r) / (n(n+1)),
    F_l = -C_l r^{1-l} chi_det S / mu~^2,      Chow(k) = c F_1 k / (1 - g + c*k).

The F_l are all proportional to S, so they vanish simultaneously: exactly
when every summand has the slope of E.  The generic chi/w pipeline checks
the closed form on every higher_futaki call.  An independent oracle for
both polynomials sums the blocks of the symmetric power block by block:
the coefficient of t^{kr} in the product of one series per summand.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import chowcore
from .errors import AmplenessWarning, CrossCheckError, DegenerateInputError, ResourceLimitError
from .exactalg import (GENERATOR_CACHE_SIZE, Poly, RatFn, _require_ints, binom_poly_in_k,
                       stirling_coeffs)

__all__ = [
    "Summand",
    "CurveBundleSpec",
    "SlopeVerdict",
    "POLYSTABLE",
    "SEMISTABLE_NOT_POLYSTABLE",
    "UNSTABLE",
    "euler_char_poly",
    "weight_poly",
    "chow_weight",
    "higher_futaki",
    "slope_classify",
    "oracle",
]

POLYSTABLE = "polystable"
SEMISTABLE_NOT_POLYSTABLE = "semistable_not_polystable_relative"
UNSTABLE = "unstable_relative"

# Feasibility guard of the oracle.
ORACLE_MAX_KR = 60
ORACLE_MAX_SUMMANDS = 4


@dataclass(frozen=True)
class Summand:
    """One indecomposable summand: rank, degree, fiberwise weight, and an
    externally certified slope-stability flag (stability of a single bundle
    on a curve is not decidable from this data)."""

    rank: int
    degree: int
    weight: int
    stable: bool = True

    def __post_init__(self):
        _require_ints(rank=self.rank, degree=self.degree, weight=self.weight)
        if not isinstance(self.stable, bool):
            raise TypeError(f"summand stable must be a bool, got {self.stable!r}")
        if self.rank < 1:
            raise ValueError("summand rank must be >= 1")


@dataclass(frozen=True)
class CurveBundleSpec:
    """Decomposition data of P(E_1 + ... + E_s) over a genus-g curve.

    The polarization is O_{P(E)}(r) twisted by a degree-b_deg line bundle B
    from the curve; b_weight is the fiberwise weight on B.
    """

    genus: int
    summands: tuple[Summand, ...]
    b_deg: int = 0
    b_weight: int = 0
    r: int = 1

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        _require_ints(genus=self.genus, b_deg=self.b_deg, b_weight=self.b_weight, r=self.r)
        for i, summand in enumerate(self.summands):
            if not isinstance(summand, Summand):
                raise TypeError(f"summands[{i}] must be a Summand, got {summand!r}")
        if self.genus < 2:
            raise ValueError("genus must be >= 2")
        if not self.summands:
            raise ValueError("at least one summand is required")
        if self.r < 1:
            raise ValueError("fiber twist r must be >= 1")
        if self.n < 2:
            raise ValueError("total rank must be >= 2")

    @cached_property
    def n(self) -> int:
        """Dimension of P(E) = rank of E."""
        return sum(s.rank for s in self.summands)

    @cached_property
    def deg_e(self) -> int:
        return sum(s.degree for s in self.summands)

    @cached_property
    def trace_weight(self) -> int:
        """Trace of the action on E: sum lambda_j rank(E_j)."""
        return sum(s.weight * s.rank for s in self.summands)

    @cached_property
    def slope_gaps(self) -> tuple[Fraction, ...]:
        """mu(E_j) - mu(E) = (n deg(E_j) - rank(E_j) deg(E)) / (n rank(E_j)) for
        each summand, in order."""
        n, deg_e = self.n, self.deg_e
        return tuple(Fraction(n * s.degree - s.rank * deg_e, n * s.rank) for s in self.summands)

    @cached_property
    def weighted_slope_sum(self) -> Fraction:
        """S = sum lambda_j rank(E_j) (mu(E_j) - mu(E)); the common factor of all F_l.

        As one fraction, S = (n sum lambda_j deg(E_j) - deg(E) tr) / n.
        """
        n = self.n
        return Fraction(n * sum(s.weight * s.degree for s in self.summands)
                        - self.deg_e * self.trace_weight, n)

    @cached_property
    def _curve(self) -> Poly:
        """The curve factor 1 - g + c*k of chi(k), c = deg(B) - r*mu(E)."""
        return Poly((1 - self.genus, Fraction(self.n * self.b_deg - self.r * self.deg_e, self.n)))

    @cached_property
    def chi(self) -> Poly:
        """chi(k) of the module docstring, built once per spec."""
        return _fiber_rank_poly(self.n, self.r) * self._curve

    @cached_property
    def w(self) -> Poly:
        """w(k) of the module docstring, built once per spec on chi."""
        n, r = self.n, self.r
        shift = Poly((0, n * self.b_weight - r * self.trace_weight)) / n   # k(lambda_0 - (r/n) tr)
        return binom_poly_in_k(r, n + 1) * self.weighted_slope_sum + shift * self.chi

    @cached_property
    def futaki(self) -> tuple[Fraction, ...]:
        """[F_1..F_n] of the module docstring, derived once per spec on integers.

        With the integers X = r chi(det twist) and Z = n r mu~, and S = p/q,
        F_l = -s_{n+1-l} n X p r^{n-l} / ((n+1) q Z^2 r^{n-2}).  Unchecked:
        higher_futaki checks them against the generic pipeline.
        """
        n, r = self.n, self.r
        z = r * self.deg_e - n * self.b_deg
        if z == 0:
            raise DegenerateInputError("twisted slope is zero; invariants and Chow weight undefined")
        x = r * (self.deg_e + 1 - self.genus) - n * self.b_deg
        s_sum = self.weighted_slope_sum
        scale = -n * x * s_sum.numerator
        den = (n + 1) * s_sum.denominator * z * z * r ** (n - 2)
        stirling = stirling_coeffs(n)
        return tuple(Fraction(scale * stirling[n + 1 - ell] * r ** (n - ell), den)
                     for ell in range(1, n + 1))

    @property
    def satisfies_ampleness_necessary(self) -> bool:
        """Necessary inequality for L to be ample: the twisted slope is negative."""
        return self.r * self.deg_e < self.n * self.b_deg     # n r mu~ < 0


@dataclass(frozen=True)
class SlopeVerdict:
    """Stability of the decomposition, relative to the given summands only."""

    classification: str
    per_summand: tuple[Fraction, ...] = field(default_factory=tuple)


def _fiber_rank_poly(n: int, r: int) -> Poly:
    """binom(n-1+kr, kr) = sum_{h>=1} s_h(n) (rk)^{h-1} / (n-1)! as a polynomial in k."""
    return (Poly(tuple(s * r ** (h - 1) for h, s in enumerate(stirling_coeffs(n)) if h))
            / math.factorial(n - 1))


def euler_char_poly(spec: CurveBundleSpec) -> Poly:
    """Hilbert polynomial chi(k) of (P(E), L); degree n in k."""
    return spec.chi


def weight_poly(spec: CurveBundleSpec) -> Poly:
    """Equivariant weight polynomial w(k); degree n+1 with zero constant term.

    Sign convention: weight lambda_j on E_j contributes -mu_j*lambda_j to a
    symmetric-power summand of E* and the weight on B^k enters as
    +k*lambda_0.  The convention is calibrated once against the
    block-sum oracle and frozen.
    """
    return spec.w


def _closed_futaki(spec: CurveBundleSpec) -> list[Fraction]:
    """spec.futaki, with the refusal and the warning that every call repeats:
    a zero twisted slope raises, a positive one warns."""
    closed = spec.futaki
    if not spec.satisfies_ampleness_necessary:
        warnings.warn(
            "twisted slope is not negative: L cannot be ample, the computed "
            "values are polynomial identities only",
            AmplenessWarning, stacklevel=3)   # the public function's caller
    return list(closed)


def chow_weight(spec: CurveBundleSpec) -> RatFn:
    """Chow weight of (P(E), L^k) as a rational function of k.

    c F_1 k / (1 - g + c k) on the curve factor of chi, built from the F_1
    that higher_futaki checks against the generic pipeline.
    """
    f1 = _closed_futaki(spec)[0]
    curve = spec._curve
    return RatFn(Poly((0, curve.coefficient(1) * f1)), curve)


def higher_futaki(spec: CurveBundleSpec) -> list[Fraction]:
    """The invariants [F_1..F_n] of (P(E), L).

    The closed form of the module docstring, checked on every call against
    the generic pipeline on (chi, w).
    """
    closed = _closed_futaki(spec)
    h = chowcore.HilbertData.from_poly(euler_char_poly(spec), spec.n)
    w = chowcore.WeightData.from_poly(weight_poly(spec), spec.n)
    generic = chowcore.futaki_invariants(h, w)
    if closed != generic:
        raise CrossCheckError(
            f"closed-form invariants disagree with the chi/w pipeline at {spec}: "
            f"closed form {[str(f) for f in closed]}, "
            f"pipeline {[str(f) for f in generic]}")
    return closed


def slope_classify(spec: CurveBundleSpec) -> SlopeVerdict:
    """Classify the decomposition by slopes, trusting the per-summand flags.

    Polystable means every summand has the slope of E and every summand is
    certified stable; a summand of different slope destabilizes relative to
    this decomposition.
    """
    gaps = spec.slope_gaps
    if any(gaps):
        cls = UNSTABLE
    elif all(s.stable for s in spec.summands):
        cls = POLYSTABLE
    else:
        cls = SEMISTABLE_NOT_POLYSTABLE
    return SlopeVerdict(classification=cls, per_summand=gaps)


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _symmetric_power_table(rank: int) -> tuple[tuple[int, int], ...]:
    """(C(rank-1+mu, mu), C(rank-1+mu, mu-1)) for mu = 0..ORACLE_MAX_KR: the
    rank of S^mu F, and its degree over deg F, for F of rank `rank`."""
    return tuple((math.comb(rank - 1 + mu, mu), math.comb(rank - 1 + mu, mu - 1) if mu else 0)
                 for mu in range(ORACLE_MAX_KR + 1))


def _summand_series(summand: Summand, kr: int) -> list[tuple[int, int, int, int]]:
    """sum_mu [S^mu E_j*] t^mu for mu = 0..kr, over Z[eps, delta]/(eps^2, delta^2).

    The coefficient of t^mu is (rank + deg*eps)(1 + mu*lambda_j*delta) for
    the rank and degree of S^mu E_j*, stored by the basis 1, eps, delta,
    eps*delta.
    """
    degree, weight = summand.degree, summand.weight
    series = []
    for mu, (rank, unit) in enumerate(_symmetric_power_table(summand.rank)[:kr + 1]):
        deg = -unit * degree
        lam = mu * weight
        series.append((rank, deg, lam * rank, lam * deg))
    return series


def _product_coefficient(a, b, t: int) -> tuple[int, int, int, int]:
    """The t^t coefficient of the product of two series over Z[eps, delta]/(eps^2, delta^2)."""
    c0 = c1 = c2 = c3 = 0
    for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(a, reversed(b[:t + 1])):
        c0 += a0 * b0
        c1 += a0 * b1 + a1 * b0
        c2 += a0 * b2 + a2 * b0
        c3 += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    return c0, c1, c2, c3


def oracle(spec: CurveBundleSpec, k: int) -> tuple[int, int]:
    """Brute-force (dim, weight) of the space of sections at tensor power k.

    S^{kr}(E_1 + ... + E_s)* is the sum over mu_1 + ... + mu_s = kr of the
    blocks S^{mu_1}E_1* x ... x S^{mu_s}E_s*, of weight
    k*lambda_0 - sum mu_j lambda_j.  By distributivity, the coefficient of
    t^{kr} in the product of the per-summand series of _summand_series is
    the blocks' total rank, total degree, and both weighted by
    sum mu_j lambda_j: eps carries the degree of a tensor product and delta
    its weight.  Riemann-Roch on the curve and the weight are linear in the
    blocks, so they apply once to these totals.  Exact integer arithmetic
    throughout, and no use of the closed form; the results must match
    euler_char_poly and weight_poly at k.
    """
    _require_ints(k=k)
    if k < 1:
        raise ValueError("k must be >= 1")
    kr = k * spec.r
    s = len(spec.summands)
    if kr > ORACLE_MAX_KR or s > ORACLE_MAX_SUMMANDS:
        raise ResourceLimitError(
            f"oracle guard exceeded: kr={kr} (max {ORACLE_MAX_KR}), "
            f"s={s} (max {ORACLE_MAX_SUMMANDS})")
    series = [_summand_series(summand, kr) for summand in spec.summands]
    product = series[0]
    for factor in series[1:-1]:
        product = [_product_coefficient(product, factor, t) for t in range(kr + 1)]
    rank, deg, weighted_rank, weighted_deg = (
        product[kr] if s == 1 else _product_coefficient(product, series[-1], kr))
    curve = k * spec.b_deg + 1 - spec.genus      # chi(V x B^k) = deg V + rank V * curve
    dim = rank * curve + deg
    return dim, k * spec.b_weight * dim - (weighted_rank * curve + weighted_deg)
