"""Invariants of a polarized manifold blown up at fixed points.

Take an n-dimensional polarized manifold whose Hilbert coefficients
a_0..a_n are known and which is certified asymptotically Chow polystable,
so the linearization can be normalized to make the whole base weight
polynomial vanish.  Blow up a finite set of fixed points p_j of the torus
action, with multiplicities alpha_j, and polarize by the m-th power of the
base polarization twisted down by the exceptional divisors.  Sections
upstairs are sections downstairs vanishing to order alpha_j*k at each p_j,
which removes a skyscraper block of dimension binom(n + alpha_j k - 1,
alpha_j k - 1) per point and produces:

    chi~(k) = chi(mk) - sum_j binom(n + alpha_j k - 1, alpha_j k - 1),

    w~(k)   = sum_l [ (s_{n-l}/n!) m sum_j alpha_j^{n-l} phi(p_j)
              + ((s_{n-l} - s_{n+1-l})/(n+1)!) sum_j alpha_j^{n+1-l} lambda(p_j)
              ] k^{n+1-l},

where phi(p_j) is the normalized moment-map value, lambda(p_j) the total
isotropy weight on the tangent space, and the s_h generate the rising
factorial (see exactalg.stirling_coeffs).  The invariants then take the
fully explicit form

    F_l = (1 / (D^2 m^{l-1})) sum_j [ f_l(alpha_j/m) phi(p_j)
                                      - g_l(alpha_j/m) lambda(p_j) ],

with D = deg - sum_j (alpha_j/m)^n > 0 and one-variable polynomials f_l,
g_l built from D, the base coefficients and the s_h.  One transcription,
_f_g_levels, runs them at x_j = alpha_j with the base coefficients scaled
by powers of m, which clears the denominator D^2 m^{l-1}: on integers for
a geometry, on polynomial generators (m, alpha_j) for p2lab's vanishing
loci; d_f_g evaluates the same per-level terms at the polynomial variable.
The base's chi is integer-valued (BaseSummary refuses any other), so its
n! a_l are integers and every geometry is derived on integers alone.

Everything but the action data (phi, lambda) is fixed by the geometry
(base, m, alphas): chi~ and its HilbertData, D, and, since w~ and the
point sums are linear in (phi, lambda), the coefficient of every phi_j
and lambda_j in each coefficient of w~ and in each F_l.  These are
derived once per geometry, on integers (chi~ as n! chi~ over n!), and
held in a bounded cache (GEOMETRY_CACHE_SIZE entries), the coefficients
as integer numerators over one denominator for w~ and one for the F_l.
An action, its phi brought to their least common denominator once, then
costs one integer dot product per coefficient of w~ and per F_l, and one
normalisation for each.  A BlowupSpec derives its data at construction,
once: the geometry, the action over one denominator, w~ and its
WeightData, held as plain attributes that every consumer reads.  The
point sums are derived per call, where they are checked: every call of
futaki_blowup derives the invariants twice and insists on exact
agreement, the geometry's checked_futaki running the generic pipeline
(chowcore._futaki_parts) on the integer numerators of chi~ and w~ and
the point-sum columns on the same action; p2lab's search verifies its
candidates through the same derivation, without a BlowupSpec, and reads
its integer numerators (checked_futaki_parts) instead of Fractions.
chow_blowup goes through chowcore.report on (chi~, w~), which asserts
the Chow function's expansion in the F_l.  Both compare their pipeline F_l with
the point sums in one place (_check_point_sums), by integer
cross-multiplication, and raise the same CrossCheckError message.

For blowups of the projective plane at coordinate points the space of
sections is a span of monomials, and oracle_p2 checks both polynomials by
direct enumeration.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from . import chowcore
from .errors import CrossCheckError, DegenerateInputError, ResourceLimitError
from .exactalg import (
    GENERATOR_CACHE_SIZE,
    Poly,
    RatFn,
    _as_rat,
    _require_dimension,
    _require_int_seq,
    _require_ints,
    _stirling_tuple,
    stirling_coeffs,
)

__all__ = [
    "BaseSummary",
    "BlownPoint",
    "BlowupSpec",
    "projective_space_base",
    "chi_tilde",
    "w_tilde",
    "d_f_g",
    "futaki_blowup",
    "chow_blowup",
    "adiabatic",
    "oracle_p2",
]

ORACLE_MAX_MK = 10_000

# Above the 840 distinct (points, m, k) keys of verification.run_blowup_suite.
ORACLE_CACHE_SIZE = 1024

# Above the 105 (points, m) configurations, 45 geometries, of
# verification.run_blowup_suite.
GEOMETRY_CACHE_SIZE = 128

_PLANE_AXES = frozenset((0, 1, 2))


@dataclass(frozen=True)
class BaseSummary:
    """Hilbert coefficients of the base polarization, plus the certification
    that the base is asymptotically Chow polystable (which this module
    cannot verify and does not try to).  Its hash, the dataclass's, is taken
    once, at construction, for the _geometry_for lookups, and not pickled.
    n above exactalg.MAX_DIMENSION raises ResourceLimitError.
    chi(k) = sum_l a_l k^{n-l} must be integer-valued, as a Hilbert
    polynomial is, so that every n! a_l is an integer: after the other
    checks, ValueError names the first j in 0..n with chi(j) no integer."""

    n: int
    a: tuple[Fraction, ...]
    polystable_certified: bool = True

    def __post_init__(self):
        _require_ints(n=self.n)
        if not isinstance(self.polystable_certified, bool):
            raise TypeError(
                f"polystable_certified must be a bool, got {self.polystable_certified!r}")
        if self.n < 2:
            raise ValueError("base dimension must be >= 2")
        _require_dimension(self.n)
        object.__setattr__(self, "a", tuple(_as_rat(c) for c in self.a))
        if len(self.a) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} Hilbert coefficients")
        if self.a[0] <= 0:
            raise ValueError("leading Hilbert coefficient must be positive")
        # Integer at n + 1 consecutive integers means integer-valued.
        for j in range(self.n + 1):
            value = sum(c * j ** (self.n - ell) for ell, c in enumerate(self.a))
            if value.denominator != 1:
                raise ValueError(
                    f"the Hilbert polynomial must be integer-valued: chi({j}) = {value}")
        self.__dict__["_hash"] = hash((self.n, self.a, self.polystable_certified))

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def degree(self) -> Fraction:
        """deg(M, L) = n! * a_0."""
        return math.factorial(self.n) * self.a[0]


def projective_space_base(n: int) -> BaseSummary:
    """Projective n-space with the hyperplane polarization: chi(k) = binom(k+n, n).

    prod_{i=1}^{n} (k+i) = sum_{h>=1} s_h(n+1) k^{h-1}, so a_l = s_{n+1-l}(n+1) / n!.
    n must be an int (TypeError; bools are refused), >= 2 (ValueError) and
    at most MAX_DIMENSION (ResourceLimitError), checked before the bounded
    cache is consulted.
    """
    if type(n) is not int:      # the named check runs only on a miss
        _require_ints(n=n)
    if n < 2:
        raise ValueError("base dimension must be >= 2")
    _require_dimension(n)
    return _projective_space_base(n)


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _projective_space_base(n: int) -> BaseSummary:
    s = _stirling_tuple(n + 1)      # stirling_coeffs refuses n + 1 = MAX_DIMENSION + 1
    fact = math.factorial(n)
    return BaseSummary(n=n, a=tuple(Fraction(s[n + 1 - ell], fact) for ell in range(n + 1)),
                       polystable_certified=True)


@dataclass(frozen=True)
class BlownPoint:
    """A blown-up fixed point: multiplicity alpha, moment-map value phi under
    the normalized linearization, and total isotropy weight lam on the
    tangent space."""

    alpha: int
    phi: Fraction
    lam: int

    def __post_init__(self):
        _require_ints(alpha=self.alpha, lam=self.lam)
        if self.alpha < 1:
            raise ValueError("multiplicity alpha must be >= 1")
        object.__setattr__(self, "phi", _as_rat(self.phi))


@dataclass(frozen=True)
class BlowupSpec:
    """Base data, blown points, and the twist exponent m.

    Requires D = deg - sum (alpha_j/m)^n > 0; inputs with D <= 0 are not
    polarizations of the blowup and are rejected outright.  The rest is
    derived at construction, once, and read as attributes: ``alphas``, the
    volume gap D (``volume_gap``), chi~ (``chi``, the geometry's), w~
    (``w``) and ``hilbert_weight_data``, the generic pipeline's input (the
    geometry's HilbertData, the WeightData of w~).  The phi are brought to
    their least common denominator once, for w~, the point sums that
    futaki_blowup and chow_blowup derive per call, and adiabatic.
    """

    base: BaseSummary
    points: tuple[BlownPoint, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        _require_ints(m=self.m)
        if not isinstance(self.base, BaseSummary):
            raise TypeError(f"base must be a BaseSummary, got {self.base!r}")
        for i, point in enumerate(self.points):
            if not isinstance(point, BlownPoint):
                raise TypeError(f"points[{i}] must be a BlownPoint, got {point!r}")
        if not self.points:
            raise ValueError("at least one blown point is required")
        if self.m < 1:
            raise ValueError("twist m must be >= 1")
        if not self.base.polystable_certified:
            raise ValueError("the base must be certified asymptotically Chow polystable")
        alphas = tuple(p.alpha for p in self.points)
        geometry = _geometry_for(self.base, self.m, alphas)
        if geometry.volume_gap <= 0:
            raise DegenerateInputError(
                f"exceptional volume exhausts the base: D = {geometry.volume_gap}")
        action = geometry._integer_action([p.phi for p in self.points],
                                          [p.lam for p in self.points])
        w = geometry.w_poly(action)
        # Plain attributes beside the fields: equality, hash and repr stay the dataclass's.
        self.__dict__.update(
            _geometry=geometry, alphas=alphas, volume_gap=geometry.volume_gap,
            chi=geometry.chi, w=w,
            hilbert_weight_data=(geometry.hilbert, chowcore.WeightData.from_poly(w, self.base.n)),
            _action=action)

    def __reduce__(self):
        # Pickle the fields alone: loading rebuilds through the constructor,
        # so the copy shares the _geometry_for entry instead of carrying one.
        return BlowupSpec, (self.base, self.points, self.m)


def _require_spec(spec) -> None:
    if type(spec) is not BlowupSpec:
        raise TypeError(f"spec must be a BlowupSpec, got {spec!r}")


def _integer_dot(pairs, action) -> list:
    """q * (c . phi + d . lam) for each column pair (c, d) of ``pairs``,
    in order, under an action (P, q, lams) with phi = P / q: over q * den,
    the values of the pairs (c, d) / den.  Integer columns give ints;
    p2lab's psi runs it on polynomial columns at q = 1."""
    phi_nums, q, lams = action
    return [sum(map(operator.mul, phi_col, phi_nums)) + q * sum(map(operator.mul, lam_col, lams))
            for phi_col, lam_col in pairs]


class _Geometry:
    """What a blowup's action does not change, derived once per (base, m, alphas).

    Holds the key (base, m, alphas), D, chi~ and, for a polarization
    (D > 0), its HilbertData, whose Poly is chi~, formed as integer
    numerators n! chi~ over n! (_scaled_chi_tilde).  w~ and the point sums
    F_l are linear in the action data (phi, lambda).  Their coefficient
    columns are kept as integer numerators: one pair per coefficient of w~,
    from _w_tilde_columns, over (n+1)!, and one pair per F_l, the columns
    of (n+1) F_l (m^n D)^2 from _f_g_levels, over (n+1) (m^n D)^2.  An
    action (phi, lambda), its phi brought to their least common denominator
    once (_integer_action), then costs one integer dot product per
    coefficient; checked_futaki_parts runs both derivations of the F_l that
    way and compares them (_check_point_sums, which chow_blowup also uses).
    """

    __slots__ = ("base", "m", "alphas", "volume_gap", "chi", "hilbert",
                 "_w_columns", "_futaki_columns")

    def __init__(self, base: BaseSummary, m: int, alphas: tuple[int, ...]):
        n = base.n
        self.base, self.m, self.alphas = base, m, alphas
        d_int, _, columns = _f_g_levels(base, m, alphas)
        self.volume_gap = Fraction(d_int, m**n)
        self.chi = Poly(_scaled_chi_tilde(n, base.a, m, alphas)[::-1]) / math.factorial(n)
        self._w_columns = _w_tilde_columns(n, m, alphas), math.factorial(n + 1)
        # D <= 0 is no polarization (BlowupSpec refuses it); only the
        # counting identity, chi~ and w~, is defined there.
        if self.volume_gap <= 0:
            self.hilbert = self._futaki_columns = None
        else:
            self.hilbert = chowcore.HilbertData.from_poly(self.chi, n)
            self._futaki_columns = columns, (n + 1) * d_int**2

    @staticmethod
    def _integer_action(phis, lams) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
        """(P, q, lams) with phi_j = P_j / q for q the least common denominator of the phi."""
        q = math.lcm(*(phi.denominator for phi in phis))
        return tuple(phi.numerator * (q // phi.denominator) for phi in phis), q, tuple(lams)

    def _w_numerators(self, action) -> tuple[list[int], int]:
        """The integer numerators of w~ by ascending power under an action
        (P, q, lams) of _integer_action, and their one denominator;
        b_{n+1} = 0: smooth."""
        pairs, den = self._w_columns
        return [0] + _integer_dot(reversed(pairs), action), action[1] * den

    def w_poly(self, action) -> Poly:
        """w~ under an action (P, q, lams) of _integer_action."""
        nums, den = self._w_numerators(action)
        return Poly(nums) / den

    def _point_sums(self, action) -> tuple[list[int], int]:
        """The integer numerators of the point-sum [F_1..F_n] under an
        action (P, q, lams) of _integer_action, and their one denominator."""
        pairs, den = self._futaki_columns
        return _integer_dot(pairs, action), action[1] * den

    def _check_point_sums(self, action, pipeline, pipeline_den) -> tuple[list[int], int]:
        """The integer point sums of _point_sums under an action (P, q, lams)
        of _integer_action, compared with the pipeline's [F_1..F_n], given
        as integer numerators over pipeline_den, by cross-multiplication; a
        disagreement raises CrossCheckError naming the input and both sets
        of values."""
        sums, den = self._point_sums(action)
        if any(num * den != total * pipeline_den for num, total in zip(pipeline, sums)):
            phi_nums, q, lams = action
            points = [(alpha, str(Fraction(num, q)), lam)
                      for alpha, num, lam in zip(self.alphas, phi_nums, lams)]
            raise CrossCheckError(
                f"point-sum invariants disagree with the chi/w pipeline at "
                f"a = {[str(c) for c in self.base.a]}, m = {self.m}, (alpha, phi, lambda) = "
                f"{points}: point sums {[str(Fraction(total, den)) for total in sums]}, "
                f"pipeline {[str(Fraction(num, pipeline_den)) for num in pipeline]}")
        return sums, den

    def checked_futaki_parts(self, action) -> tuple[list[int], int]:
        """The integer numerators of [F_1..F_n] of a polarization (D > 0)
        under an action (P, q, lams) of _integer_action, and their one
        denominator, derived twice on integers and compared: by the generic
        pipeline (chowcore._futaki_parts) on chi~ and the integer numerators
        of w~, and by the point sums (_check_point_sums)."""
        b, d_b = self._w_numerators(action)
        pipeline, pipeline_den = chowcore._futaki_parts(self.chi, b, d_b)
        return self._check_point_sums(action, pipeline, pipeline_den)

    def checked_futaki(self, action) -> list[Fraction]:
        """[F_1..F_n] of checked_futaki_parts, as Fractions built once the
        two derivations agree."""
        sums, den = self.checked_futaki_parts(action)
        return [Fraction(total, den) for total in sums]


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry_for(base: BaseSummary, m: int, alphas: tuple[int, ...]) -> _Geometry:
    return _Geometry(base, m, alphas)


def _alpha_power_sum(alphas, power: int) -> int:
    return sum(a**power for a in alphas)


def _scaled_chi_tilde(n: int, a, m, alphas) -> list:
    """n! times the descending coefficients of chi~(k),
    n! a_l m^{n-l} - s_{n-l} sum_j alpha_j^{n-l}: integers, since the
    base's n! a_l are, and polynomials when m and the alpha_j are
    polynomial generators.  The same n! a_l m^{n-l} enter
    _f_g_levels, but this transcription stays apart from it, since
    futaki_blowup compares the two."""
    s = stirling_coeffs(n)
    fact = math.factorial(n)
    return [(fact * a[ell]).numerator * m ** (n - ell)
            - s[n - ell] * _alpha_power_sum(alphas, n - ell)
            for ell in range(n + 1)]


def chi_tilde(spec: BlowupSpec) -> Poly:
    """Hilbert polynomial of the blown-up polarization; degree n in k."""
    _require_spec(spec)
    return spec.chi


def _w_tilde_columns(n: int, m, alphas) -> tuple[tuple[tuple, tuple], ...]:
    """For each coefficient b_l of w~, l = 0..n, (n+1)! times the coefficients
    of phi_j and of lambda_j, (s_{n-l} / n!) m alpha_j^{n-l} and
    ((s_{n-l} - s_{n+1-l}) / (n+1)!) alpha_j^{n+1-l}: integers for integer
    m and alpha_j.  Like _scaled_chi_tilde, m and the alpha_j may also be
    polynomial generators."""
    s = stirling_coeffs(n) + [0]       # s_{n+1} = 0
    return tuple((tuple((n + 1) * s[n - ell] * (m * a ** (n - ell)) for a in alphas),
                  tuple((s[n - ell] - s[n + 1 - ell]) * a ** (n + 1 - ell) for a in alphas))
                 for ell in range(n + 1))


def w_tilde(spec: BlowupSpec) -> Poly:
    """Weight polynomial of the blown-up action; zero constant term."""
    _require_spec(spec)
    return spec.w


def _f_g_levels(base: BaseSummary, m, alphas):
    """m^n D, the per-level terms of f_l and g_l and, for l = 1..n, the
    point-sum columns ((n+1) m f_l, -(n+1) g_l), which applied to
    (phi, lambda) give (n+1) F_l (m^n D)^2, over any ring: m and the
    alpha_j may be ints or polynomial generators.  In x_j = alpha_j/m,

        D      = n! a_0 - sum_i x_i^n,
        f_l(x) = D s_{n-l} x^{n-l} - (n! a_l - s_{n-l} sum_i x_i^{n-l}) x^n,
        g_l(x) = (D s_{n+1-l} x^{n+1-l} - x f_l(x)) / (n+1),

    and F_l = sum_j [f_l(x_j) phi_j - g_l(x_j) lam_j] / (D^2 m^{l-1}).  The
    transcription is weighted homogeneous (x of weight 1, n! a_l of weight
    n - l).  Run at x_j = alpha_j and n! a_l m^{n-l}, it gives m^n D, the
    level terms (l, D s_{n-l}, D s_{n+1-l}, n! a_l - s_{n-l} sum_i x_i^{n-l})
    scaled by m^n, m^n and m^{n-l}, and f_l and (n+1) g_l scaled by
    m^{2n-l} and m^{2n+1-l}, which clears D^2 m^{l-1}: integers, since
    the base's n! a_l are, and polynomials on generators.
    """
    n = base.n
    s = stirling_coeffs(n) + [0]       # s_{n+1} = 0
    fact = math.factorial(n)
    fact_a = [(fact * c).numerator * m ** (n - ell) for ell, c in enumerate(base.a)]

    def power_sum(p):
        return sum((x**p for x in alphas[1:]), alphas[0] ** p)

    d_val = fact_a[0] - power_sum(n)
    levels = [(ell, d_val * s[n - ell], d_val * s[n + 1 - ell],
               fact_a[ell] - s[n - ell] * power_sum(n - ell))
              for ell in range(1, n + 1)]
    columns = []
    for level in levels:
        f_g = [_f_g(n, level, x) for x in alphas]
        columns.append((tuple((n + 1) * m * f_val for f_val, _ in f_g),
                        tuple(-g_val for _, g_val in f_g)))
    return d_val, levels, columns


def _f_g(n: int, level, x):
    """f_l(x) and (n+1) g_l(x) at an exact ring element x, from one entry of _f_g_levels."""
    ell, d_lo, d_hi, second = level
    f_val = d_lo * x ** (n - ell) - second * x**n
    return f_val, d_hi * x ** (n + 1 - ell) - x * f_val


def d_f_g(spec: BlowupSpec, ell: int) -> tuple[Fraction, Poly, Poly]:
    """The volume gap D (spec.volume_gap) and the one-variable polynomials
    f_l, g_l, from the per-level terms of _f_g_levels, rerun on demand on
    integers and divided by their powers of m."""
    _require_spec(spec)
    _require_ints(ell=ell)
    n = spec.base.n
    if not 1 <= ell <= n:
        raise ValueError(f"l must be in 1..{n}")
    m = spec.m
    _, d_lo, d_hi, second = _f_g_levels(spec.base, m, spec.alphas)[1][ell - 1]
    level = (ell, Fraction(d_lo, m**n), Fraction(d_hi, m**n), Fraction(second, m ** (n - ell)))
    f, g = _f_g(n, level, Poly((0, 1)))
    return spec.volume_gap, f, g / (n + 1)


def futaki_blowup(spec: BlowupSpec) -> list[Fraction]:
    """The invariants [F_1..F_n] of the blown-up polarization.

    Computed from the explicit point-sum formula and re-derived through the
    generic pipeline on the integer numerators of chi~ and w~ on every call
    (the geometry's checked_futaki, on the spec's action); disagreement
    raises a cross-check error.
    """
    _require_spec(spec)
    return spec._geometry.checked_futaki(spec._action)


def chow_blowup(spec: BlowupSpec) -> RatFn:
    """Chow weight of the blown-up polarization as a rational function of k.

    Taken from chowcore.report on (chi~, w~), which asserts that it equals
    (leading chi~ coefficient / chi~(k)) * sum_l F_l k^{n+1-l} (b_{n+1} = 0
    here); the F_l of that report must equal the point-sum formula, compared
    on integers as in futaki_blowup.
    """
    _require_spec(spec)
    rep = chowcore.report(*spec.hilbert_weight_data)
    den = math.lcm(*(f.denominator for f in rep.futaki))
    spec._geometry._check_point_sums(
        spec._action, [f.numerator * (den // f.denominator) for f in rep.futaki], den)
    return rep.chow


def adiabatic(spec: BlowupSpec) -> tuple[Fraction, Fraction]:
    """Leading term of F_1 for m large, and the zero-cycle Chow weight.

    Returns (leading, w_cw) where

        leading = n(n-1)/(2 deg) * sum_j (alpha_j/m)^{n-1} phi(p_j),
        w_cw    = sum_j alpha_j^{n-1} phi(p_j),

    the latter being the Chow weight of the cycle sum alpha_j^{n-1} p_j
    under the normalized linearization (base average of phi equal zero);
    F_1 - leading decays like m^{-n}.  Both are summed on the integer
    numerators of the phi over their least common denominator q, which
    the spec holds from its construction, and each is built as one
    Fraction.
    """
    _require_spec(spec)
    n = spec.base.n
    phi_nums, q, _ = spec._action
    total = sum(p.alpha ** (n - 1) * num for p, num in zip(spec.points, phi_nums))
    degree = spec.base.degree
    return (Fraction(n * (n - 1) * total * degree.denominator,
                     2 * degree.numerator * q * spec.m ** (n - 1)),
            Fraction(total, q))


@lru_cache(maxsize=ORACLE_CACHE_SIZE)
def _admissible_monomial_stats(points: tuple[tuple[int, int], ...], m: int, k: int):
    """Count and exponent sums of degree-mk monomials in three variables
    vanishing to order alpha_j*k at each chosen coordinate point.

    A monomial x^e vanishes to order mk - e_i at the i-th coordinate point,
    so the conditions are upper bounds e_i <= mk - alpha_j*k.  Returns
    (count, (S_0, S_1, S_2)) with S_i the sum of e_i over admissible
    monomials; these determine the oracle weight for every weight vector.
    """
    d = m * k
    bound = [d, d, d]
    for axis, alpha in points:
        bound[axis] = d - alpha * k
    count = 0
    sums = [0, 0, 0]
    for e0 in range(min(d, bound[0]) + 1):
        rest = d - e0
        e1_max = min(rest, bound[1])
        e1_min = max(0, rest - bound[2])
        if e1_min > e1_max:
            continue
        width = e1_max - e1_min + 1
        count += width
        sums[0] += e0 * width
        # arithmetic sums over the e1 range; e2 = rest - e1
        s1 = (e1_min + e1_max) * width // 2
        sums[1] += s1
        sums[2] += rest * width - s1
    return count, tuple(sums)


def oracle_p2(weights: tuple[int, int, int],
              points: list[tuple[int, int]] | tuple[tuple[int, int], ...],
              m: int, k: int) -> tuple[int, int]:
    """Monomial-enumeration oracle for blowups of the plane at coordinate points.

    ``weights`` is a trace-zero integer triple acting diagonally on the
    coordinates; ``points`` lists (axis, alpha) pairs for distinct
    coordinate points.  Sections of the twisted polarization at power k are
    the degree-mk monomials vanishing to order alpha_j*k at each point; a
    monomial x^e contributes weight -<e, weights>.  Requires m >= sum alpha_j,
    which makes the counting exact at every k >= 1.

    Refuses, in this order: a non-int m, k, weight or point entry
    (TypeError naming it; bools are refused, other int subclasses
    accepted), a weight vector of other than three entries, a point that
    is not an (axis, alpha) pair, a nonzero trace, an axis outside
    {0, 1, 2}, a repeated axis, alpha < 1, m < sum(alpha), k < 1
    (ValueError), and mk > ORACLE_MAX_MK (ResourceLimitError).
    """
    if type(k) is not int:      # k's TypeError follows m's, as documented
        _require_ints(m=m, k=k)
    (w0, w1, w2), pts = _oracle_arguments(weights, points, m)
    if k < 1:
        raise ValueError("k must be >= 1")
    if m * k > ORACLE_MAX_MK:
        raise ResourceLimitError(f"oracle guard exceeded: mk = {m * k} > {ORACLE_MAX_MK}")
    count, (s0, s1, s2) = _admissible_monomial_stats(pts, m, k)
    return count, -(s0 * w0 + s1 * w1 + s2 * w2)


def _oracle_arguments(weights, points, m):
    """oracle_p2's checks of every argument but k, in its order: the
    weights as a tuple and the points as a sorted tuple of pairs once they
    pass.  verification.check_blowup_case runs them before it derives a
    geometry."""
    # One pass over the types of plain ints; on a miss the named checks
    # run in order and raise, or pass an int subclass such as an IntEnum.
    # The sequences are held as tuples first, so that those checks see
    # every point of a generator even when one of them is not iterable.
    try:
        weights, points = tuple(weights), tuple(points)
        points = tuple(map(tuple, points))
        plain = {type(m), *map(type, chain(weights, *points))} == {int}
    except TypeError:
        plain = False
    if not plain:
        _require_ints(m=m)
        _require_int_seq("weights", weights)
        for i, point in enumerate(points):
            _require_int_seq(f"points[{i}]", point)
    if len(weights) != 3:
        raise ValueError(f"weights must have three entries, got {len(weights)}")
    for i, point in enumerate(points):
        if len(point) != 2:
            raise ValueError(f"points[{i}] must be an (axis, alpha) pair, got {point!r}")
    w0, w1, w2 = weights
    if w0 + w1 + w2 != 0:
        raise ValueError("weight vector must have trace zero")
    pts = tuple(sorted(points))
    axes = {axis for axis, _ in pts}
    if not axes <= _PLANE_AXES:
        raise ValueError("only the three coordinate points of the plane are supported")
    if len(axes) != len(pts):
        raise ValueError("blown points must be distinct")
    total = 0
    for _, alpha in pts:
        if alpha < 1:
            raise ValueError("multiplicities must be >= 1")
        total += alpha
    if m < total:
        raise ValueError(f"exactness regime requires m >= sum(alpha) = {total}")
    return weights, pts
