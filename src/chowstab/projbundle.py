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
A spec derives chi, w and the F_l at the first use of any of its
numbers, in one pass on integer numerators (_derive), and keeps them:
w reads chi's numerators, and the Chow weight reads the curve factor.
For every r, with the twisted slope mu~ = -c/r,
chi_det = deg E - n deg B / r + 1 - g and
prod_{i<n} (k + i/r) = sum_h s_h r^{h-n} k^h (so that C_l = s_{n+1-l}/(n(n+1))),

    sum_l F_l k^{n+1-l} = -chi_det S / mu~^2 * prod_{i<n} (k + i/r) / (n(n+1)),
    F_l = -C_l r^{1-l} chi_det S / mu~^2,      Chow(k) = c F_1 k / (1 - g + c*k).

The F_l are all proportional to S, so they vanish simultaneously: exactly
when every summand has the slope of E.  The generic chi/w pipeline checks
the closed form on every higher_futaki call.  An independent oracle for
both polynomials sums the blocks of the symmetric power block by block:
the coefficient of t^{kr} in the product of one series per summand.  Those
totals are multilinear in the summands' degrees and weights, so the product
runs once per (summand ranks in spec order, kr), on unit data, into a
bounded table (ORACLE_TABLE_CACHE_SIZE keys) that each call contracts with
its spec's degrees and weights.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import chowcore
from .errors import AmplenessWarning, CrossCheckError, DegenerateInputError, ResourceLimitError
from .exactalg import Poly, RatFn, _require_dimension, _require_ints, _stirling_tuple

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
# Block-sum tables of the oracle, one per (summand ranks, kr): the 13 rank
# tuples of the verification universe and of bundle_sweep, times kr = 1..12,
# bound the keys they use at 156 (117 occur: kr = 7, 9, 11 never do).
ORACLE_TABLE_CACHE_SIZE = 256


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


class _Derived:
    """A derived number of CurveBundleSpec.  Its first read runs _derive,
    which stores every derived number on the spec as a plain attribute;
    the instance attribute then shadows this descriptor."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, spec, owner=None):
        if spec is None:
            return self
        _derive(spec)
        return getattr(spec, self.name)


@dataclass(frozen=True)
class CurveBundleSpec:
    """Decomposition data of P(E_1 + ... + E_s) over a genus-g curve.

    The polarization is O_{P(E)}(r) twisted by a degree-b_deg line bundle B
    from the curve; b_weight is the fiberwise weight on B.

    n, the dimension of P(E) and rank of E, is set at construction, and
    above exactalg.MAX_DIMENSION refused with ResourceLimitError.  The
    derived numbers (deg_e; the slope_gaps mu(E_j) - mu(E); chi; w) are
    set together by _derive at the first read of any of them.  Equality,
    hash and repr are those of the fields.
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
        object.__setattr__(self, "n", sum(s.rank for s in self.summands))
        if self.n < 2:
            raise ValueError("total rank must be >= 2")
        _require_dimension(self.n)

    deg_e = _Derived()
    slope_gaps = _Derived()
    chi = _Derived()
    w = _Derived()
    _curve = _Derived()
    _closed = _Derived()

    def __reduce__(self):
        # Pickle the fields alone: loading rebuilds through the constructor,
        # which validates them, and the copy derives its numbers afresh.
        return CurveBundleSpec, (self.genus, self.summands, self.b_deg, self.b_weight, self.r)

    @property
    def satisfies_ampleness_necessary(self) -> bool:
        """Necessary inequality for L to be ample: the twisted slope is negative."""
        return self.r * self.deg_e < self.n * self.b_deg     # n r mu~ < 0


def _fiber_rank_numerators(n: int, r: int) -> list[int]:
    """(n-1)! binom(n-1+kr, kr) = sum_{h>=1} s_h(n) (rk)^{h-1}: the integers
    s_{h+1}(n) r^h by ascending power h = 0..n-1 of k."""
    s = _stirling_tuple(n)
    nums, power = [], 1
    for h in range(1, n + 1):
        nums.append(s[h] * power)
        power *= r
    return nums


def _derive(spec: CurveBundleSpec) -> None:
    """Every derived number of a spec, in one pass on integers, stored on it.

    With n, deg E, tr = sum lambda_j rank(E_j) and sum lambda_j deg(E_j)
    summed once, S = p/n for p = n sum lambda_j deg(E_j) - deg(E) tr and
    the curve factor is 1 - g + c k = (n(1-g) + C k)/n for
    C = n deg(B) - r deg(E) = n c.  Then, on integer numerators:

    - chi = the fiber-rank numerators times [n(1-g), C], over (n-1)! n;
    - w = p s_h(n+1) r^h + (n+1) Q chi_{h-1} at k^h, over n (n+1)!, for
      Q = n lambda_0 - r tr: S binom(n+kr, n+1) + k(lambda_0 - (r/n) tr) chi;
    - F_l = -X p s_{n+1-l}(n) r^{n-l} / ((n+1) C^2 r^{n-2}), for
      X = r chi(det twist) = r(deg E + 1 - g) - n deg(B), or None when the
      twisted slope -C/(n r) is zero;
    - mu(E_j) - mu(E) = (n deg(E_j) - rank(E_j) deg(E)) / (n rank(E_j)).

    Each Poly is built once, through this module's Poly name.  The F_l
    are unchecked: higher_futaki checks them against the generic pipeline.
    """
    n, r, summands = spec.n, spec.r, spec.summands
    deg_e = trace = weighted_deg = 0
    for s in summands:
        deg_e += s.degree
        trace += s.weight * s.rank
        weighted_deg += s.weight * s.degree
    p = n * weighted_deg - deg_e * trace
    curve0, curve1 = n * (1 - spec.genus), n * spec.b_deg - r * deg_e   # n(1-g), C
    fiber = _fiber_rank_numerators(n, r)
    chi = [curve0 * fiber[0]]
    chi += [curve0 * f + curve1 * g for f, g in zip(fiber[1:], fiber)]
    chi.append(curve1 * fiber[-1])
    shift = (n + 1) * (n * spec.b_weight - r * trace)
    binom = _stirling_tuple(n + 1)
    w, power = [0], 1
    for h in range(1, n + 2):
        power *= r
        w.append(p * binom[h] * power + shift * chi[h - 1])
    if curve1:
        x = r * (deg_e + 1 - spec.genus) - n * spec.b_deg
        closed = ([-x * p * fiber[n - ell] for ell in range(1, n + 1)],
                  (n + 1) * curve1 * curve1 * r ** (n - 2))
    else:
        closed = None
    fact = math.factorial(n)
    store = object.__setattr__
    store(spec, "deg_e", deg_e)
    store(spec, "slope_gaps", tuple(Fraction(n * s.degree - s.rank * deg_e, n * s.rank)
                                    for s in summands))
    store(spec, "chi", Poly(chi) / fact)
    store(spec, "w", Poly(w) / (n * fact * (n + 1)))
    store(spec, "_curve", Poly((curve0, curve1)))
    store(spec, "_closed", closed)


@dataclass(frozen=True)
class SlopeVerdict:
    """Stability of the decomposition, relative to the given summands only."""

    classification: str
    per_summand: tuple[Fraction, ...] = field(default_factory=tuple)


def _require_spec(spec) -> None:
    if type(spec) is not CurveBundleSpec:
        raise TypeError(f"spec must be a CurveBundleSpec, got {spec!r}")


def euler_char_poly(spec: CurveBundleSpec) -> Poly:
    """Hilbert polynomial chi(k) of (P(E), L); degree n in k."""
    _require_spec(spec)
    return spec.chi


def weight_poly(spec: CurveBundleSpec) -> Poly:
    """Equivariant weight polynomial w(k); degree n+1 with zero constant term.

    Sign convention: weight lambda_j on E_j contributes -mu_j*lambda_j to a
    symmetric-power summand of E* and the weight on B^k enters as
    +k*lambda_0.  The convention is calibrated once against the
    block-sum oracle and frozen.
    """
    _require_spec(spec)
    return spec.w


def _closed_futaki(spec: CurveBundleSpec) -> tuple[list[int], int]:
    """The integer numerators of the closed [F_1..F_n] and their one
    denominator, with the refusal and the warning that every call repeats:
    a zero twisted slope raises, a positive one warns."""
    _require_spec(spec)
    closed = spec._closed
    if closed is None:
        raise DegenerateInputError("twisted slope is zero; invariants and Chow weight undefined")
    if not spec.satisfies_ampleness_necessary:
        warnings.warn(
            "twisted slope is not negative: L cannot be ample, the computed "
            "values are polynomial identities only",
            AmplenessWarning, stacklevel=3)   # the public function's caller
    return closed


def chow_weight(spec: CurveBundleSpec) -> RatFn:
    """Chow weight of (P(E), L^k) as a rational function of k.

    c F_1 k / (1 - g + c k) on the curve factor of chi, built from the F_1
    that higher_futaki checks against the generic pipeline: with the curve
    factor's integer numerators (n(1-g), n c), that is n c F_1 k / (n(1-g) + n c k).
    """
    nums, den = _closed_futaki(spec)
    curve = spec._curve
    (_, curve1), curve_den = curve.numerators(2)
    return RatFn(Poly((0, curve1 * nums[0])) / (den * curve_den), curve)


def higher_futaki(spec: CurveBundleSpec) -> list[Fraction]:
    """The invariants [F_1..F_n] of (P(E), L).

    The closed form of the module docstring, checked on every call against
    the generic pipeline on the integer numerators of (chi, w)
    (chowcore._futaki_parts).  The two are compared by cross-multiplication,
    and Fractions are built only once they agree.
    """
    nums, den = _closed_futaki(spec)
    generic, generic_den = chowcore._futaki_parts(spec.chi, *spec.w.numerators(spec.n + 2))
    for closed_num, generic_num in zip(nums, generic):
        if generic_num * den != closed_num * generic_den:
            raise CrossCheckError(
                f"closed-form invariants disagree with the chi/w pipeline at {spec}: "
                f"closed form {[str(Fraction(x, den)) for x in nums]}, "
                f"pipeline {[str(Fraction(x, generic_den)) for x in generic]}")
    return [Fraction(x, den) for x in nums]


def slope_classify(spec: CurveBundleSpec) -> SlopeVerdict:
    """Classify the decomposition by slopes, trusting the per-summand flags.

    Polystable means every summand has the slope of E and every summand is
    certified stable; a summand of different slope destabilizes relative to
    this decomposition.
    """
    _require_spec(spec)
    gaps = spec.slope_gaps
    if any(gaps):
        cls = UNSTABLE
    elif all(s.stable for s in spec.summands):
        cls = POLYSTABLE
    else:
        cls = SEMISTABLE_NOT_POLYSTABLE
    return SlopeVerdict(classification=cls, per_summand=gaps)


def _symmetric_power_rows(rank: int, kr: int) -> list[tuple[int, int]]:
    """(C(rank-1+mu, mu), C(rank-1+mu, mu-1)) for mu = 0..kr: the rank of
    S^mu F, and its degree over deg F, for F of rank `rank`."""
    return [(math.comb(rank - 1 + mu, mu), math.comb(rank - 1 + mu, mu - 1) if mu else 0)
            for mu in range(kr + 1)]


def _summand_series(rows, degree: int, weight: int) -> list[tuple[int, int, int, int]]:
    """sum_mu [S^mu F*] t^mu for mu = 0..kr, over Z[eps, delta]/(eps^2, delta^2),
    for a summand F of the given degree and fiberwise weight, from the rows
    of _symmetric_power_rows for its rank and kr.

    The coefficient of t^mu is (rank + deg*eps)(1 + mu*weight*delta) for
    the rank and degree of S^mu F*, stored by the basis 1, eps, delta,
    eps*delta.
    """
    series = []
    for mu, (sym_rank, unit) in enumerate(rows):
        deg = -unit * degree
        lam = mu * weight
        series.append((sym_rank, deg, lam * sym_rank, lam * deg))
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


def _top_coefficient(series: list, kr: int) -> tuple[int, int, int, int]:
    """The t^kr coefficient of the product of the given series."""
    product = series[0]
    for factor in series[1:-1]:
        product = [_product_coefficient(product, factor, t) for t in range(kr + 1)]
    return product[kr] if len(series) == 1 else _product_coefficient(product, series[-1], kr)


@lru_cache(maxsize=ORACLE_TABLE_CACHE_SIZE)
def _block_sums(ranks: tuple[int, ...], kr: int):
    """The blocks' totals of S^{kr}(E_1 + ... + E_s)* for summands of these
    ranks, in this order, as (R, A, B, X) with A, B indexed by summand and X
    by pairs: for degrees d_i and weights lambda_j the totals are the rank R,
    the degree sum_i d_i A_i, the weighted rank sum_j lambda_j B_j and the
    weighted degree sum_{i,j} d_i lambda_j X_ij.

    The rank of a block is free of the degrees and weights, its degree is
    linear in the d_i, its weight factor sum mu_j lambda_j is linear in the
    lambda_j, and their product is bilinear; so the series product run on
    unit data, degree 1 on E_i and weight 1 on E_j alone, gives R, A_i, B_j
    and X_ij at once, over the s^2 pairs (i, j).
    """
    s = len(ranks)
    rows = {rank: _symmetric_power_rows(rank, kr) for rank in set(ranks)}
    degree_part, weight_part = [0] * s, [0] * s
    cross = [[0] * s for _ in range(s)]
    for i in range(s):
        for j in range(s):
            series = [_summand_series(rows[rank], int(h == i), int(h == j))
                      for h, rank in enumerate(ranks)]
            rank, degree_part[i], weight_part[j], cross[i][j] = _top_coefficient(series, kr)
    return rank, tuple(degree_part), tuple(weight_part), tuple(map(tuple, cross))


def oracle(spec: CurveBundleSpec, k: int) -> tuple[int, int]:
    """Brute-force (dim, weight) of the space of sections at tensor power k.

    S^{kr}(E_1 + ... + E_s)* is the sum over mu_1 + ... + mu_s = kr of the
    blocks S^{mu_1}E_1* x ... x S^{mu_s}E_s*, of weight
    k*lambda_0 - sum mu_j lambda_j.  By distributivity, the coefficient of
    t^{kr} in the product of the per-summand series of _summand_series is
    the blocks' total rank, total degree, and both weighted by
    sum mu_j lambda_j: eps carries the degree of a tensor product and delta
    its weight.  Those totals are multilinear in the summands' degrees and
    weights, so _block_sums computes their coefficients once per (ranks in
    spec order, kr), on unit data, and this call contracts them with the
    spec's degrees and weights.  Riemann-Roch on the curve and the weight
    are linear in the blocks, so they apply once to the totals.  Exact
    integer arithmetic throughout, and no use of the closed form nor of any
    derived number of the spec; the results must match euler_char_poly and
    weight_poly at k.
    """
    _require_spec(spec)
    _require_ints(k=k)
    if k < 1:
        raise ValueError("k must be >= 1")
    kr = k * spec.r
    summands = spec.summands
    s = len(summands)
    if kr > ORACLE_MAX_KR or s > ORACLE_MAX_SUMMANDS:
        raise ResourceLimitError(
            f"oracle guard exceeded: kr={kr} (max {ORACLE_MAX_KR}), "
            f"s={s} (max {ORACLE_MAX_SUMMANDS})")
    rank, degree_part, weight_part, cross = _block_sums(tuple([x.rank for x in summands]), kr)
    weights = [x.weight for x in summands]
    deg = weighted_rank = weighted_deg = 0
    for summand, a, b, row in zip(summands, degree_part, weight_part, cross):
        deg += summand.degree * a
        weighted_rank += summand.weight * b
        weighted_deg += summand.degree * sum(map(operator.mul, weights, row))
    curve = k * spec.b_deg + 1 - spec.genus      # chi(V x B^k) = deg V + rank V * curve
    dim = rank * curve + deg
    return dim, k * spec.b_weight * dim - (weighted_rank * curve + weighted_deg)
