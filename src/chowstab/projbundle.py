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
             + k*(lambda_0 - (r/n) tr) * (1 - g + c*k) ],

where n = rank E, mu is degree/rank, c = deg B - r*mu(E), tr = sum lambda_j
rank(E_j) and S = sum lambda_j rank(E_j) (mu(E_j) - mu(E)).  For every r,
with the twisted slope mu~ = -c/r, chi_det = deg E - n deg B / r + 1 - g and
prod_{i<n} (k + i/r) = sum_h s_h r^{h-n} k^h (so that C_l = s_{n+1-l}/(n(n+1))),

    sum_l F_l k^{n+1-l} = -chi_det S / mu~^2 * prod_{i<n} (k + i/r) / (n(n+1)),
    F_l = -C_l r^{1-l} chi_det S / mu~^2,      Chow(k) = c F_1 k / (1 - g + c*k).

The F_l are all proportional to S, so they vanish simultaneously: exactly
when every summand has the slope of E.  The generic chi/w pipeline checks
the closed form on every higher_futaki call, and a brute force enumeration
over the compositions of the symmetric power is an independent oracle for
both polynomials.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import chowcore
from .errors import AmplenessWarning, CrossCheckError, DegenerateInputError, ResourceLimitError
from .exactalg import Poly, RatFn, _require_ints, choose, cm_constants, stirling_coeffs

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

# Feasibility guard for the composition enumeration.
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

    @cached_property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


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
    def slope(self) -> Fraction:
        return Fraction(self.deg_e, self.n)

    @cached_property
    def trace_weight(self) -> int:
        """Trace of the action on E: sum lambda_j rank(E_j)."""
        return sum(s.weight * s.rank for s in self.summands)

    @cached_property
    def slope_gaps(self) -> tuple[Fraction, ...]:
        """mu(E_j) - mu(E) for each summand, in order."""
        mu = self.slope
        return tuple(s.slope - mu for s in self.summands)

    @cached_property
    def weighted_slope_sum(self) -> Fraction:
        """S = sum lambda_j rank(E_j) (mu(E_j) - mu(E)); the common factor of all F_l."""
        return sum((s.weight * s.rank * gap for s, gap in zip(self.summands, self.slope_gaps)),
                   Fraction(0))

    @cached_property
    def twisted_slope(self) -> Fraction:
        """Slope of the formal twist of E by the inverse r-th root of B."""
        return self.slope - Fraction(self.b_deg, self.r)

    @cached_property
    def twisted_det_chi(self) -> Fraction:
        """Euler characteristic of the determinant of the formal twist."""
        return self.deg_e - Fraction(self.n * self.b_deg, self.r) + 1 - self.genus

    @cached_property
    def chi(self) -> Poly:
        """chi(k) of the module docstring, built once per spec."""
        return _fiber_rank_poly(self.n, self.r) * _fiber_degree_poly(self)

    @cached_property
    def w(self) -> Poly:
        """w(k) of the module docstring, built once per spec."""
        n, r = self.n, self.r
        quad = Poly((0, r * n, r * r)) / (n * (n + 1))   # kr(n+kr)/(n(n+1))
        shift = Poly((0, self.b_weight - Fraction(r, n) * self.trace_weight))
        bracket = quad * self.weighted_slope_sum + shift * _fiber_degree_poly(self)
        return _fiber_rank_poly(n, r) * bracket

    @property
    def satisfies_ampleness_necessary(self) -> bool:
        """Necessary inequality for L to be ample: the twisted slope is negative."""
        return self.twisted_slope < 0


@dataclass(frozen=True)
class SlopeVerdict:
    """Stability of the decomposition, relative to the given summands only."""

    classification: str
    per_summand: tuple[Fraction, ...] = field(default_factory=tuple)


def _fiber_rank_poly(n: int, r: int) -> Poly:
    """binom(n-1+kr, kr) = sum_{h>=1} s_h(n) (rk)^{h-1} / (n-1)! as a polynomial in k."""
    fact = math.factorial(n - 1)
    return Poly(tuple(Fraction(s * r ** (h - 1), fact)
                      for h, s in enumerate(stirling_coeffs(n)) if h))


def _fiber_degree_poly(spec: CurveBundleSpec) -> Poly:
    """1 - g + c*k with c = deg(B) - r*mu(E), the curve factor of chi(k)."""
    return Poly((1 - spec.genus, spec.b_deg - spec.r * spec.slope))


def euler_char_poly(spec: CurveBundleSpec) -> Poly:
    """Hilbert polynomial chi(k) of (P(E), L); degree n in k."""
    return spec.chi


def weight_poly(spec: CurveBundleSpec) -> Poly:
    """Equivariant weight polynomial w(k); degree n+1 with zero constant term.

    Sign convention: weight lambda_j on E_j contributes -mu_j*lambda_j to a
    symmetric-power summand of E* and the weight on B^k enters as
    +k*lambda_0.  The convention is calibrated once against the
    composition oracle and frozen.
    """
    return spec.w


def _closed_futaki(spec: CurveBundleSpec) -> list[Fraction]:
    """F_l = -C_l r^{1-l} chi(det twist) S / (twisted slope)^2 for l = 1..n."""
    if spec.twisted_slope == 0:
        raise DegenerateInputError("twisted slope is zero; invariants and Chow weight undefined")
    if not spec.satisfies_ampleness_necessary:
        warnings.warn(
            "twisted slope is not negative: L cannot be ample, the computed "
            "values are polynomial identities only",
            AmplenessWarning, stacklevel=3)   # the public function's caller
    factor = -spec.twisted_det_chi * spec.weighted_slope_sum / spec.twisted_slope**2
    return [c * factor / spec.r**i for i, c in enumerate(cm_constants(spec.n))]


def chow_weight(spec: CurveBundleSpec) -> RatFn:
    """Chow weight of (P(E), L^k) as a rational function of k.

    Closed form: [kr/(n(n+1))] * chi(det twist) * S divided by
    (twisted slope) * (1 - g - kr mu(E) + k deg B), which is
    c F_1 k / (1 - g + c k) with c = deg B - r mu(E): built from the F_1
    that higher_futaki checks against the generic pipeline.
    """
    f1 = _closed_futaki(spec)[0]
    curve = _fiber_degree_poly(spec)
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


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def oracle(spec: CurveBundleSpec, k: int) -> tuple[int, int]:
    """Brute-force (dim, weight) of the space of sections at tensor power k.

    Expands S^{kr}(E_1 + ... + E_s)* into the sum over compositions
    mu_1 + ... + mu_s = kr of tensor products of symmetric powers, computes
    each block's rank and degree from binomial identities, its Euler
    characteristic by Riemann-Roch on the curve, and its weight
    k*lambda_0 - sum mu_j lambda_j.  Exact integer arithmetic throughout;
    the results must match euler_char_poly and weight_poly at k.
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
    for comp in _compositions(kr, s):
        rank = 1
        for j in range(s):
            rank *= rk[j][comp[j]]
        if rank == 0:
            continue
        deg = rank * kb
        wt = kl0
        for j in range(s):
            deg += (rank // rk[j][comp[j]]) * dg[j][comp[j]]
            wt -= comp[j] * lams[j]
        chi = deg + rank * one_minus_g
        dim += chi
        weight += wt * chi
    return dim, weight
