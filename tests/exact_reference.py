"""Test-only reference code for the exact kernel.

``Poly`` and ``RatFn`` here are the Fraction-coefficient kernel that
``chowstab.exactalg`` replaced with integer numerators over one
denominator: every coefficient a Fraction, and RatFn reduced by the monic
Euclidean gcd over the rationals.  test_kernel_reference runs the library
on both kernels and requires equal coefficients.

The helpers at the end (``compose_linear``, ``hilbert_poly``,
``total_degree``, ``is_homogeneous``, ``partial``, ``monomial``,
``evaluate``, ``choose``, ``binom_poly_in_k``) have no caller in the
library; the tests use them as independent references: ``choose`` for the
bundle oracle's composition walk, ``binom_poly_in_k`` for the skyscraper
blocks of chi~(k) = chi(mk) - sum_j binom(n + alpha_j k - 1, alpha_j k - 1).
"""
from __future__ import annotations

import math
from fractions import Fraction

from chowstab import exactalg


def _as_rat(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Fraction(value)


class Poly:
    """Dense univariate polynomial, one Fraction per coefficient (ascending)."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def from_descending(cls, coeffs) -> "Poly":
        return cls(tuple(coeffs)[::-1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | None:
        return len(self._coeffs) - 1 if self._coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def descending(self, length: int | None = None) -> tuple[Fraction, ...]:
        n = len(self._coeffs)
        if length is None:
            length = n
        if length < n:
            raise ValueError("requested length shorter than the polynomial")
        return tuple(self.coefficient(length - 1 - i) for i in range(length))

    def numerators(self, length: int) -> tuple[tuple[int, ...], int]:
        den = math.lcm(*(c.denominator for c in self._coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in self._coeffs)
        return nums + (0,) * (length - len(nums)), den

    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self._coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-other if isinstance(other, Poly) else Poly((-_as_rat(other),)))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return Poly(tuple(c * a for a in self._coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        c = _as_rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, n: int) -> "Poly":
        result = Poly.one()
        for _ in range(n):
            result = result * self
        return result

    def evaluate(self, point):
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        rem = list(self._coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = other.leading_coefficient()
        quot = [Fraction(0)] * max(dd - dv + 1, 0)
        for i in range(dd - dv, -1, -1):
            c = rem[i + dv] / lead
            if c:
                quot[i] = c
                for j, oc in enumerate(other._coeffs):
                    rem[i + j] -= c * oc
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        return self if self.is_zero else self / self.leading_coefficient()

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        num, den = 0, 1
        for c in self._coeffs:
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


class RatFn:
    """num/den reduced by the monic gcd, then scaled so that den has coprime
    integer coefficients and a positive leading one."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            num, den = Poly(), Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree:
                num, den = num // g, den // g
            scale = den.content()
            if den.leading_coefficient() < 0:
                scale = -scale
            num, den = num / scale, den / scale
        self._num = num
        self._den = den

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFn):
            return self._num * other._den == other._num * self._den
        return NotImplemented

    def evaluate(self, point) -> Fraction:
        return self._num.evaluate(point) / self._den.evaluate(point)


def compose_linear(p, a, b=0):
    """p(a*x + b) for a library or reference Poly p."""
    inner = type(p)((b, a))
    acc = type(p)()
    for c in reversed(p.coeffs):
        acc = acc * inner + c
    return acc


def hilbert_poly(base) -> exactalg.Poly:
    """The Hilbert polynomial sum_l a_l k^{n-l} of a blowup.BaseSummary."""
    return exactalg.Poly(tuple(reversed(base.a)))


def total_degree(p: exactalg.MPoly) -> int | None:
    """Largest total degree of a term of p, or None for zero."""
    degrees = [sum(e) for e, _ in p.terms()]
    return max(degrees) if degrees else None


def is_homogeneous(p: exactalg.MPoly) -> bool:
    """Whether every term of p has the same total degree."""
    return len({sum(e) for e, _ in p.terms()}) <= 1


def partial(p: exactalg.MPoly, name: str) -> exactalg.MPoly:
    """Formal partial derivative of p with respect to one indeterminate."""
    if name not in p.variables:
        raise ValueError(f"unknown indeterminate {name!r}")
    idx = p.variables.index(name)
    out = {}
    for e, c in p.terms():
        if e[idx]:
            new = list(e)
            new[idx] -= 1
            out[tuple(new)] = c * e[idx]
    return exactalg.MPoly(p.variables, out)


def monomial(power: int, coeff=1) -> exactalg.Poly:
    """coeff * x^power as a library Poly."""
    if power < 0:
        raise ValueError("power must be non-negative")
    return exactalg.Poly((0,) * power + (coeff,))


def choose(n: int, k: int) -> int:
    """Binomial coefficient with the usual convention C(n, k) = 0 for k < 0 or k > n."""
    return math.comb(n, k) if 0 <= k <= n else 0


def binom_poly_in_k(a: int, n: int) -> exactalg.Poly:
    """binom(n + a*k - 1, a*k - 1) expanded as a degree-n polynomial in k:
    sum_h s_h (a k)^h / n! with s_h the rising-factorial coefficients."""
    s = exactalg.stirling_coeffs(n)
    return exactalg.Poly(Fraction(s[h] * a**h, math.factorial(n)) for h in range(n + 1))


def evaluate(p: exactalg.MPoly, values):
    """p at a point; values may be any exact ring elements.

    Accepts ints, Fractions, Poly, or MPoly values (anything supporting
    +, * and integer powers), so the same polynomial can be restricted
    to a line or specialized numerically.  The result lies in the
    values' ring, for the zero polynomial too.
    """
    missing = [v for v in p.variables if v not in values]
    if missing:
        raise ValueError(f"missing values for {missing}")
    acc = Fraction(0)
    for name in p.variables:
        acc = acc * values[name]        # the zero of the values' ring
    for e, c in p.terms():
        term = c
        for name, power in zip(p.variables, e):
            if power:
                term = term * (values[name] ** power)
        acc = acc + term
    return acc
