"""Chow weight and higher Futaki invariants from a pair of polynomials.

A one-parameter subgroup acting on an n-dimensional polarized variety
determines two polynomials of the tensor power k: the Hilbert polynomial

    chi(k) = a_0 k^n + a_1 k^{n-1} + ... + a_n,          a_0 != 0,

and the total weight of the induced action on the top exterior power of
the space of sections,

    w(k) = b_0 k^{n+1} + b_1 k^n + ... + b_{n+1}.

The normalized Chow weight of the power-k polarization is
w(k)/chi(k) - (b_0/a_0) k, a rational function of k that expands as

    b_{n+1}/chi(k) + (a_0/chi(k)) * sum_{l=1}^{n} F_l k^{n+1-l},

with F_l = (a_0 b_l - b_0 a_l) / a_0^2.  The F_l are independent of the
choice of linearization (which can only shift w by c*k*chi) and are the
obstructions to asymptotic Chow semistability computed by the rest of the
package.  This module works purely with the two polynomials; geometric
families enter through the modules that produce their chi and w.
HilbertData and WeightData each hold n and one Poly, so the pipeline reads
integer numerators and the leading and constant coefficients from it, and
builds the coefficient tuples a and b only when they are asked for.  The
pipeline runs on chi and the integer numerators of w, so the families call
it without either class: _futaki_parts gives the F_l over one denominator,
_chow_parts the Chow function with them, its expansion asserted, and
_check_agreement compares a family's own F_l with the pipeline's.
"""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

from .errors import CrossCheckError
from .exactalg import Poly, RatFn, _as_rat, _int_product, _require_ints

__all__ = [
    "HilbertData",
    "WeightData",
    "InvariantReport",
    "chow_weight_fn",
    "futaki_invariants",
    "shift_linearization",
    "report",
]


class _PolyData:
    """An integer n and one Poly, read as a tuple of descending coefficients.

    The common body of HilbertData and WeightData: immutable, and equal,
    hashed and shown as a frozen dataclass of the two fields (n,
    coefficients) would be, while only the Poly is stored.
    """

    __slots__ = ("n", "_poly")
    _field = ""     # name of the coefficient tuple
    _extra = 0      # its length minus n

    def _hold(self, n: int, poly: Poly) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_poly", poly)

    @classmethod
    def _of(cls, n: int, poly: Poly):
        data = object.__new__(cls)
        data._hold(n, poly)
        return data

    def poly(self) -> Poly:
        """The polynomial, as stored: no coefficient tuple is built."""
        return self._poly

    def _coefficients(self) -> tuple[Fraction, ...]:
        return self._poly.descending(self.n + self._extra)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self._poly == other._poly
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self._coefficients()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, {self._field}={self._coefficients()!r})"

    def __reduce__(self):
        return type(self), (self.n, self._coefficients())


def _require_natural_n(n) -> None:
    """An int n >= 0 (TypeError, ValueError), with no MAX_DIMENSION bound."""
    _require_ints(n=n)
    if n < 0:
        raise ValueError("dimension must be non-negative")


class HilbertData(_PolyData):
    """Hilbert polynomial chi(k) = sum_l a[l] k^{n-l} of an n-dimensional family."""

    __slots__ = ()
    _field, _extra = "a", 1

    def __init__(self, n: int, a):
        _require_natural_n(n)
        a = tuple(a)
        chi = Poly(a[::-1])             # refuses an entry that is no int or Fraction
        if len(a) != n + 1:
            raise ValueError(f"expected {n + 1} coefficients, got {len(a)}")
        if chi.degree != n:
            raise ValueError("leading Hilbert coefficient a_0 must be nonzero")
        self._hold(n, chi)

    @classmethod
    def from_poly(cls, chi: Poly, n: int) -> "HilbertData":
        """chi, of degree exactly n, held as it is."""
        if not isinstance(chi, Poly):
            raise TypeError(f"chi must be a Poly, got {chi!r}")
        if chi.is_zero:
            raise ValueError("the Hilbert polynomial cannot be zero")
        _require_natural_n(n)
        if chi.degree > n:
            raise ValueError(f"expected {n + 1} coefficients, got {chi.degree + 1}")
        if chi.degree < n:
            raise ValueError("leading Hilbert coefficient a_0 must be nonzero")
        return cls._of(n, chi)

    @property
    def a(self) -> tuple[Fraction, ...]:
        """The coefficients [a_0..a_n], read from the Poly."""
        return self._coefficients()


class WeightData(_PolyData):
    """Weight polynomial w(k) = sum_l b[l] k^{n+1-l}, including the constant b_{n+1}."""

    __slots__ = ()
    _field, _extra = "b", 2

    def __init__(self, n: int, b):
        _require_natural_n(n)
        b = tuple(b)
        w = Poly(b[::-1])               # refuses an entry that is no int or Fraction
        if len(b) != n + 2:
            raise ValueError(f"expected {n + 2} coefficients, got {len(b)}")
        self._hold(n, w)

    @classmethod
    def from_poly(cls, w: Poly, n: int) -> "WeightData":
        """w, of degree at most n + 1, held as it is."""
        if not isinstance(w, Poly):
            raise TypeError(f"w must be a Poly, got {w!r}")
        _require_natural_n(n)
        if not w.is_zero and w.degree > n + 1:
            raise ValueError("weight polynomial degree exceeds n + 1")
        return cls._of(n, w)

    @property
    def b(self) -> tuple[Fraction, ...]:
        """The coefficients [b_0..b_{n+1}], read from the Poly."""
        return self._coefficients()


@dataclass(frozen=True)
class InvariantReport:
    """Chow weight function together with its expansion data."""

    chow: RatFn
    futaki: tuple[Fraction, ...]
    b_top: Fraction


def _check_pair(h: HilbertData, w: WeightData) -> None:
    """Raise TypeError unless h is a HilbertData and then w a WeightData,
    and ValueError unless their dimensions agree."""
    if type(h) is not HilbertData:
        raise TypeError(f"h must be a HilbertData, got {h!r}")
    if type(w) is not WeightData:
        raise TypeError(f"w must be a WeightData, got {w!r}")
    if h.n != w.n:
        raise ValueError(f"dimension mismatch: chi has n={h.n}, w has n={w.n}")


def chow_weight_fn(h: HilbertData, w: WeightData) -> RatFn:
    """Normalized Chow weight w(k)/chi(k) - (b_0/a_0) k, reduced (_chow_parts)."""
    _check_pair(h, w)
    return _chow_parts(h.poly(), *w.poly().numerators(h.n + 2))[0]


def _futaki_numerators(a, b) -> list:
    """a_0^2 F_l = a_0 b_l - b_0 a_l, l = 1..n, over any ring, from descending
    coefficients: _futaki_parts runs it on integers, p2lab's psi on MPoly."""
    a0, b0 = a[0], b[0]
    return [a0 * b[ell] - b0 * a[ell] for ell in range(1, len(a))]


def _futaki_parts(chi: Poly, b, d_b: int) -> tuple[list[int], int]:
    """The integer numerators of [F_1..F_n] and their one denominator, from
    chi (of degree n) and the integer numerators b of w by ascending power
    over d_b: with chi = sum_i A_i k^i / d_A,
    F_l = (A_n B_{n+1-l} - B_{n+1} A_{n-l}) d_A / (d_B A_n^2).  _chow_parts
    forms the same on the numerators of chi it has already read."""
    a, d_a = chi.numerators(chi.degree + 1)
    lead = a[-1]                        # the numerator of a_0
    return ([num * d_a for num in _futaki_numerators(a[::-1], b[::-1])],
            d_b * lead * lead)


def futaki_invariants(h: HilbertData, w: WeightData) -> list[Fraction]:
    """The invariants F_l = (a_0 b_l - b_0 a_l)/a_0^2 for l = 1..n, on the
    integer numerators of chi and w (_futaki_parts)."""
    _check_pair(h, w)
    nums, den = _futaki_parts(h.poly(), *w.poly().numerators(h.n + 2))
    return [Fraction(num, den) for num in nums]


def shift_linearization(w: WeightData, h: HilbertData, c: Fraction | int) -> WeightData:
    """Change of linearization: replace w(k) by w(k) + c*k*chi(k).

    Shifts b_l to b_l + c*a_l for l = 0..n and leaves b_{n+1} alone; the
    Chow weight function and every F_l are unchanged.
    """
    _check_pair(h, w)
    return WeightData._of(w.n, w.poly() + Poly((0, _as_rat(c))) * h.poly())


def _numerators(p) -> tuple[tuple[int, ...], int]:
    """The integer numerators of p by ascending power, unpadded, and their denominator."""
    return p.numerators(0 if p.is_zero else p.degree + 1)


def _chow_parts(chi: Poly, b, d_b: int) -> tuple[RatFn, list[int], int]:
    """(chow, F_l numerators, their denominator) from chi (of degree n) and
    the n + 2 integer numerators b of w by ascending power over d_b, once
    chow == b_{n+1}/chi + (a_0/chi) sum_l F_l k^{n+1-l} (CrossCheckError if
    not).  With chi = sum_i A_i k^i / d_A, read once,
    w - (b_0/a_0) k chi = (A_n B - B_{n+1} k A) / (d_B A_n); F_l as in _futaki_parts."""
    a, d_a = chi.numerators(chi.degree + 1)
    lead, top = a[-1], b[-1]
    num = Poly([lead * b[0]] + [lead * b_i - top * a_i for b_i, a_i in zip(b[1:], a)])
    chow = RatFn(num / (d_b * lead), chi)
    futaki, den = [x * d_a for x in _futaki_numerators(a[::-1], b[::-1])], d_b * lead * lead
    # With F_l = futaki_l / den, the expansion b_{n+1} + a_0 sum_l F_l k^{n+1-l}
    # has the integer numerators [B_0 d_A den, A_n d_B futaki_l from l = n
    # down to 1] by ascending power, over d_B d_A den.  With chow = N / D,
    # N over d_N and D over d_D, the identity N chi == expansion D holds iff
    # N A d_B den d_D == expansion D d_N (d_A cancels).
    lead_b = lead * d_b
    expansion = [b[0] * d_a * den, *(lead_b * x for x in reversed(futaki))]
    while expansion and not expansion[-1]:
        expansion.pop()
    num, d_num = _numerators(chow.num)
    den_poly, d_den = _numerators(chow.den)
    lhs_scale = d_b * den * d_den
    lhs = [c * lhs_scale for c in _int_product(num, a)]
    if lhs != [c * d_num for c in _int_product(expansion, den_poly)]:
        rhs = Poly(expansion) / (d_b * d_a * den) * chow.den
        raise CrossCheckError(
            f"Chow expansion does not match the invariants F_l at chi = {chi.pretty()}, "
            f"w = {(Poly(b) / d_b).pretty()}: chow.num * chi = {(chow.num * chi).pretty()}, "
            f"expansion * chow.den = {rhs.pretty()}")
    return chow, futaki, den


def _check_agreement(derived, pipeline, kind: str, label: str, where) -> None:
    """Raise CrossCheckError unless a family's [F_1..F_n] (derived) and the
    pipeline's, each (integer numerators, one denominator), agree by
    cross-multiplication; the message, built only on failure, names the
    identity (kind), the input (where(), a callable) and both values."""
    nums, den = derived
    generic, generic_den = pipeline
    for x, y in zip(nums, generic):
        if x * generic_den != y * den:
            raise CrossCheckError(
                f"{kind} invariants disagree with the chi/w pipeline at {where()}: "
                f"{label} {[str(Fraction(x, den)) for x in nums]}, "
                f"pipeline {[str(Fraction(x, generic_den)) for x in generic]}")


def report(h: HilbertData, w: WeightData) -> InvariantReport:
    """Bundle the Chow function, the F_l and b_{n+1}, verifying their relation.

    The expansion identity chow == b_{n+1}/chi + (a_0/chi) sum_l F_l k^{n+1-l}
    is asserted on integers by _chow_parts; Fractions are built only for the
    output.
    """
    _check_pair(h, w)
    b, d_b = w.poly().numerators(h.n + 2)
    chow, futaki, den = _chow_parts(h.poly(), b, d_b)
    return InvariantReport(chow=chow, futaki=tuple(Fraction(x, den) for x in futaki),
                           b_top=Fraction(b[0], d_b))
