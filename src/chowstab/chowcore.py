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
package.  This module works purely with the coefficient lists; geometric
families enter through the modules that produce their chi and w.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CrossCheckError
from .exactalg import Poly, RatFn, _as_rat, _require_ints

__all__ = [
    "HilbertData",
    "WeightData",
    "InvariantReport",
    "chow_weight_fn",
    "futaki_invariants",
    "shift_linearization",
    "report",
]


@dataclass(frozen=True)
class HilbertData:
    """Hilbert polynomial chi(k) = sum_l a[l] k^{n-l} of an n-dimensional family."""

    n: int
    a: tuple[Fraction, ...]

    def __post_init__(self):
        _require_ints(n=self.n)
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        object.__setattr__(self, "a", tuple(_as_rat(c) for c in self.a))
        if len(self.a) != self.n + 1:
            raise ValueError(f"expected {self.n + 1} coefficients, got {len(self.a)}")
        if self.a[0] == 0:
            raise ValueError("leading Hilbert coefficient a_0 must be nonzero")

    @classmethod
    def from_poly(cls, chi: Poly, n: int) -> "HilbertData":
        if chi.is_zero:
            raise ValueError("the Hilbert polynomial cannot be zero")
        h = cls(n, chi.descending(n + 1))
        object.__setattr__(h, "_poly", chi)     # the memo poly() returns
        return h

    def poly(self) -> Poly:
        """chi as a Poly: the one from_poly was given, or built on first use
        and kept; it is no field, so equality, hash and repr ignore it."""
        try:
            return self._poly
        except AttributeError:
            object.__setattr__(self, "_poly", Poly.from_descending(self.a))
            return self._poly


@dataclass(frozen=True)
class WeightData:
    """Weight polynomial w(k) = sum_l b[l] k^{n+1-l}, including the constant b_{n+1}."""

    n: int
    b: tuple[Fraction, ...]

    def __post_init__(self):
        _require_ints(n=self.n)
        if self.n < 0:
            raise ValueError("dimension must be non-negative")
        object.__setattr__(self, "b", tuple(_as_rat(c) for c in self.b))
        if len(self.b) != self.n + 2:
            raise ValueError(f"expected {self.n + 2} coefficients, got {len(self.b)}")

    @classmethod
    def from_poly(cls, w: Poly, n: int) -> "WeightData":
        if not w.is_zero and w.degree > n + 1:
            raise ValueError("weight polynomial degree exceeds n + 1")
        data = cls(n, w.descending(n + 2))
        object.__setattr__(data, "_poly", w)    # the memo poly() returns
        return data

    @classmethod
    def zero(cls, n: int) -> "WeightData":
        return cls(n, (Fraction(0),) * (n + 2))

    def poly(self) -> Poly:
        """w as a Poly: the one from_poly was given, or built on first use
        and kept; it is no field, so equality, hash and repr ignore it."""
        try:
            return self._poly
        except AttributeError:
            object.__setattr__(self, "_poly", Poly.from_descending(self.b))
            return self._poly

    @property
    def b_top(self) -> Fraction:
        """The constant coefficient b_{n+1}; zero whenever the family is smooth."""
        return self.b[-1]


@dataclass(frozen=True)
class InvariantReport:
    """Chow weight function together with its expansion data."""

    chow: RatFn
    futaki: tuple[Fraction, ...]
    b_top: Fraction


def _check_dims(h: HilbertData, w: WeightData) -> None:
    if h.n != w.n:
        raise ValueError(f"dimension mismatch: chi has n={h.n}, w has n={w.n}")


def chow_weight_fn(h: HilbertData, w: WeightData) -> RatFn:
    """Normalized Chow weight w(k)/chi(k) - (b_0/a_0) k as a reduced rational function."""
    _check_dims(h, w)
    chi = h.poly()
    shift = w.b[0] / h.a[0]
    num = w.poly() - Poly((0, shift)) * chi
    return RatFn(num, chi)


def _futaki_numerators(a, b) -> list:
    """a_0^2 F_l = a_0 b_l - b_0 a_l, l = 1..n, over any ring, from descending
    coefficients: futaki_invariants runs it on integers, p2lab's psi on MPoly."""
    a0, b0 = a[0], b[0]
    return [a0 * b[ell] - b0 * a[ell] for ell in range(1, len(a))]


def futaki_invariants(h: HilbertData, w: WeightData) -> list[Fraction]:
    """The invariants F_l = (a_0 b_l - b_0 a_l)/a_0^2 for l = 1..n.

    Computed on the integer numerators of chi = sum_i A_i k^i / d_A and
    w = sum_i B_i k^i / d_B:
    F_l = (A_n B_{n+1-l} - B_{n+1} A_{n-l}) d_A / (d_B A_n^2).
    """
    _check_dims(h, w)
    a, d_a = h.poly().numerators(h.n + 1)
    b, d_b = w.poly().numerators(h.n + 2)
    den = d_b * a[-1] * a[-1]           # a[-1] is the numerator of a_0
    return [Fraction(num * d_a, den) for num in _futaki_numerators(a[::-1], b[::-1])]


def shift_linearization(w: WeightData, h: HilbertData, c: Fraction | int) -> WeightData:
    """Change of linearization: replace w(k) by w(k) + c*k*chi(k).

    Shifts b_l to b_l + c*a_l for l = 0..n and leaves b_{n+1} alone; the
    Chow weight function and every F_l are unchanged.
    """
    _check_dims(h, w)
    c = _as_rat(c)
    shifted = [w.b[ell] + c * h.a[ell] for ell in range(h.n + 1)]
    shifted.append(w.b_top)
    return WeightData(w.n, tuple(shifted))


def report(h: HilbertData, w: WeightData) -> InvariantReport:
    """Bundle the Chow function, the F_l and b_{n+1}, verifying their relation.

    The expansion identity chow == b_{n+1}/chi + (a_0/chi) sum_l F_l k^{n+1-l}
    is asserted before returning; a failure means the two computation paths
    disagree and is raised as a cross-check error.
    """
    chow = chow_weight_fn(h, w)
    futaki = futaki_invariants(h, w)
    chi = h.poly()
    expansion = Poly.from_descending((0, *(h.a[0] * f for f in futaki), w.b_top))
    lhs, rhs = chow.num * chi, expansion * chow.den
    if lhs != rhs:
        raise CrossCheckError(
            f"Chow expansion does not match the invariants F_l at chi = {chi.pretty()}, "
            f"w = {w.poly().pretty()}: chow.num * chi = {lhs.pretty()}, "
            f"expansion * chow.den = {rhs.pretty()}")
    return InvariantReport(chow=chow, futaki=tuple(futaki), b_top=w.b_top)
