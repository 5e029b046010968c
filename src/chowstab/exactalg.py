"""Exact rational polynomial algebra.

Everything downstream is computed over arbitrary-precision rationals: the
invariants produced by this package are exact values that get compared for
equality across independently derived pipelines, so no floating point is
allowed anywhere.  Rational scalars are ``fractions.Fraction`` (re-exported
as ``Rat``), which already guarantees lowest terms and a positive
denominator.

Three polynomial flavours cover all the formulas that appear:

* ``Poly`` -- dense univariate polynomials (degrees stay below ~12 here),
  used for Hilbert polynomials chi(k) and equivariant weight polynomials
  w(k) in the tensor power k, and for the one-variable auxiliary
  polynomials of the blowup formulas.
* ``RatFn`` -- a quotient of two ``Poly``, used for the Chow weight as a
  function of k.  Kept in a canonical reduced form so that equality of
  invariants is decidable structurally.
* ``MPoly`` -- sparse multivariate polynomials, used for the symbolic
  reconstruction of vanishing loci in the twist and blowup multiplicities.

The module also provides the small combinatorial generators shared by the
closed forms: the rising-factorial coefficients of prod_{i<n} (x+i), the
expansion of binom(n + a*k - 1, a*k - 1) as a polynomial in k, and the
positive constants generated by prod_{i<n} (k+i) / (n(n+1)).
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

Rat = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational.

    Decimal notation is rejected on purpose: every number entering the
    pipelines must be exact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational (expected 'p' or 'p/q'): {text!r}")
    return Fraction(s)


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational as "p/q", or plain "p" when the denominator is 1."""
    return str(Fraction(value))


def _as_rat(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Fraction(value)


def _require_ints(**values) -> None:
    """Raise TypeError unless every value is an int; bools are refused."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")


def _require_int_seq(name: str, values) -> None:
    """Raise TypeError unless every entry is an int; bools are refused."""
    for i, value in enumerate(values):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name}[{i}] must be an int, got {value!r}")


def choose(n: int, k: int) -> int:
    """Binomial coefficient with the usual convention C(n, k) = 0 for k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored by ascending power with trailing zeros trimmed;
    the zero polynomial is the empty tuple and its degree is ``None`` (an
    explicit "no degree" marker rather than a sentinel integer).
    Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: Fraction | int = 1) -> "Poly":
        if power < 0:
            raise ValueError("power must be non-negative")
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_descending(cls, coeffs: Iterable[Fraction | int]) -> "Poly":
        """Build from coefficients listed by descending power."""
        return cls(tuple(coeffs)[::-1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def descending(self, length: int | None = None) -> tuple[Fraction, ...]:
        """Coefficients by descending power, zero-padded to ``length`` if given."""
        n = len(self._coeffs)
        if length is None:
            length = n
        if length < n:
            raise ValueError("requested length shorter than the polynomial")
        return tuple(self.coefficient(length - 1 - i) for i in range(length))

    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

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
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, point):
        """Horner evaluation; exact for int/Fraction points."""
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def compose_linear(self, a: Fraction | int, b: Fraction | int = 0) -> "Poly":
        """Substitute a*x + b for the variable."""
        inner = Poly((_as_rat(b), _as_rat(a)))
        acc = Poly()
        for c in reversed(self._coeffs):
            acc = acc * inner + c
        return acc

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
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
        if self.is_zero:
            return self
        return self / self.leading_coefficient()

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero:
            return Fraction(1)
        num = 0
        den = 1
        for c in self._coeffs:
            num = math.gcd(num, c.numerator)
            den = den * c.denominator // math.gcd(den, c.denominator)
        return Fraction(num, den)

    def pretty(self, var: str = "k") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for power in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[power]
            if not c:
                continue
            if power == 0:
                body = format_rational(abs(c))
            else:
                xs = var if power == 1 else f"{var}^{power}"
                body = xs if abs(c) == 1 else f"{format_rational(abs(c))}*{xs}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


class RatFn:
    """Quotient of two univariate polynomials in canonical reduced form.

    The fraction is reduced by the polynomial gcd, then rescaled so the
    denominator has coprime integer coefficients with a positive leading
    one.  Equality is decided by cross-multiplication of the reduced forms
    (never by sampling evaluation points).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise TypeError("RatFn expects Poly numerator and denominator")
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

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFn):
            return self._num * other._den == other._num * self._den
        if isinstance(other, Poly):
            return self == RatFn(other)
        if isinstance(other, (int, Fraction)):
            return self == RatFn(Poly((other,)))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def evaluate(self, point) -> Fraction:
        d = self._den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return self._num.evaluate(point) / d

    def pretty(self, var: str = "k") -> str:
        if self._den == Poly.one():
            return self._num.pretty(var)
        return f"({self._num.pretty(var)}) / ({self._den.pretty(var)})"

    def __repr__(self) -> str:
        return f"RatFn({self.pretty()})"


class MPoly:
    """Sparse multivariate polynomial over the rationals.

    Terms map exponent tuples (one entry per indeterminate, in the order
    fixed at construction) to nonzero rational coefficients.  Operations
    between polynomials over different indeterminate sets are rejected.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate indeterminate names")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            e = tuple(exps)
            if len(e) != len(vs) or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e} for {len(vs)} indeterminates")
            c = _as_rat(coeff)
            if c:
                cleaned[e] = cleaned.get(e, Fraction(0)) + c
                if not cleaned[e]:
                    del cleaned[e]
        self._vars = vs
        self._terms = cleaned

    @classmethod
    def zeros(cls, variables: Iterable[str]) -> "MPoly":
        return cls(variables)

    @classmethod
    def constant(cls, variables: Iterable[str], value: Fraction | int) -> "MPoly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "MPoly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown indeterminate {name!r}")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    @classmethod
    def generators(cls, variables: Iterable[str]) -> tuple["MPoly", ...]:
        vs = tuple(variables)
        return tuple(cls.variable(vs, v) for v in vs)

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Iterate (exponents, coefficient) pairs in a deterministic order."""
        return iter(sorted(self._terms.items()))

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def total_degree(self) -> int | None:
        if not self._terms:
            return None
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def _check_same_ring(self, other: "MPoly") -> None:
        if self._vars != other._vars:
            raise ValueError(
                f"indeterminate-set mismatch: {self._vars} vs {other._vars}")

    def __eq__(self, other) -> bool:
        if isinstance(other, MPoly):
            return self._vars == other._vars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MPoly.constant(self._vars, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._vars, frozenset(self._terms.items())))

    def __neg__(self) -> "MPoly":
        return MPoly(self._vars, {e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self._vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self._vars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(self._vars, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MPoly":
        return (-self) + other

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            if not c:
                return MPoly(self._vars)
            return MPoly(self._vars, {e: c * v for e, v in self._terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        self._check_same_ring(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self._vars, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "MPoly":
        c = _as_rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return self * (1 / c)

    def __pow__(self, n: int) -> "MPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(self._vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial(self, name: str) -> "MPoly":
        """Formal partial derivative with respect to one indeterminate."""
        if name not in self._vars:
            raise ValueError(f"unknown indeterminate {name!r}")
        idx = self._vars.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self._terms.items():
            if e[idx]:
                new = list(e)
                new[idx] -= 1
                out[tuple(new)] = c * e[idx]
        return MPoly(self._vars, out)

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; values may be any exact ring elements.

        Accepts ints, Fractions, Poly, or MPoly values (anything supporting
        +, * and integer powers), so the same polynomial can be restricted
        to a line or specialized numerically.
        """
        missing = [v for v in self._vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        acc = None
        for e, c in sorted(self._terms.items()):
            term = c
            for name, power in zip(self._vars, e):
                if power:
                    term = term * (values[name] ** power)
            acc = term if acc is None else acc + term
        return Fraction(0) if acc is None else acc

    def pretty(self) -> str:
        if not self._terms:
            return "0"
        def fmt(e, c):
            factors = []
            for name, power in zip(self._vars, e):
                if power == 1:
                    factors.append(name)
                elif power > 1:
                    factors.append(f"{name}^{power}")
            body = "*".join(factors)
            if not body:
                return format_rational(c)
            if c == 1:
                return body
            if c == -1:
                return f"-{body}"
            return f"{format_rational(c)}*{body}"
        ordered = sorted(self._terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))
        text = fmt(*ordered[0])
        for e, c in ordered[1:]:
            piece = fmt(e, c)
            text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        return text

    def __repr__(self) -> str:
        return f"MPoly({self.pretty()})"


@lru_cache(maxsize=None)
def _stirling_tuple(n: int) -> tuple[int, ...]:
    coeffs = [1]
    for i in range(n):
        shifted = [0] + coeffs            # x * p(x)
        scaled = [i * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return tuple(coeffs)


def stirling_coeffs(n: int) -> list[int]:
    """Coefficients [s_0..s_n] of the rising factorial prod_{i=0}^{n-1} (x + i).

    These are the non-negative integers generated by
    binom(n + x - 1, x - 1) = sum_h s_h x^h / n!; always s_0 = 0 and s_n = 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    return list(_stirling_tuple(n))


def binom_poly_in_k(a: int, n: int) -> Poly:
    """binom(n + a*k - 1, a*k - 1) expanded as a degree-n polynomial in k.

    Agrees with the integer binomial coefficient at every integer k >= 1.
    """
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive integers")
    s = stirling_coeffs(n)
    fact = math.factorial(n)
    return Poly(tuple(Fraction(s[h] * a**h, fact) for h in range(n + 1)))


@lru_cache(maxsize=None)
def _cm_tuple(n: int) -> tuple[Fraction, ...]:
    s = _stirling_tuple(n)
    scale = Fraction(1, n * (n + 1))
    # prod_{i<n}(k+i) = sum_h s_h k^h, and the k^{n+1-l} coefficient is s_{n+1-l}.
    return tuple(scale * s[n + 1 - ell] for ell in range(1, n + 1))


def cm_constants(n: int) -> list[Fraction]:
    """Positive constants [C_1..C_n] with sum_l C_l k^{n+1-l} = prod_{i<n}(k+i) / (n(n+1))."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return list(_cm_tuple(n))
