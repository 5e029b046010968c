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
  polynomials of the blowup formulas.  Stored as integer numerators over
  one positive common denominator (the representation of FLINT's
  fmpq_poly), so arithmetic and evaluation at an integer run on Python
  ints with one normalising gcd per result.
* ``RatFn`` -- a quotient of two ``Poly``, used for the Chow weight as a
  function of k.  Kept in a canonical reduced form so that equality of
  invariants is decidable structurally; reduced by the gcd of the
  primitive integer parts (primitive polynomial remainder sequence, Knuth,
  TAOCP Vol. 2, 4.6.1).
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
    """The value of an int or a Fraction; anything else raises TypeError.

    Floats, bools, strings and other numeric types are refused rather than
    coerced: text goes through parse_rational.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected an int or a Fraction, got {value!r}")


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
    _require_ints(n=n, k=k)
    return math.comb(n, k) if 0 <= k <= n else 0


def _horner(num, point: int) -> int:
    """sum_i num[i] point^i for integer numerators and an integer point."""
    acc = 0
    for c in reversed(num):
        acc = acc * point + c
    return acc


def _canonical(num: list[int], den: int) -> "Poly":
    """The Poly sum_i num[i] x^i / den (den != 0), brought to canonical form."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    else:
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [c // g for c in num]
            den //= g
    p = object.__new__(Poly)
    p._num = tuple(num)
    p._den = den
    return p


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Stored as integer numerators ``_num`` by ascending power over one
    common denominator ``_den``, in canonical form: trailing zeros trimmed,
    ``_den > 0`` and gcd(_den, every numerator) = 1.  The zero polynomial
    is ((), 1) and its degree is ``None`` (an explicit "no degree" marker
    rather than a sentinel integer).  Equal polynomials therefore have
    equal representations.  Coefficients are read back as Fractions.
    Instances are immutable.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        nums, dens = [], []
        for c in coeffs:
            if type(c) is int:
                nums.append(c)
                dens.append(1)
            else:
                c = _as_rat(c)
                nums.append(c.numerator)
                dens.append(c.denominator)
        # With den the lcm of lowest-terms denominators, gcd(den, nums) = 1.
        den = math.lcm(*dens) if dens else 1
        if den != 1:
            nums = [c * (den // d) for c, d in zip(nums, dens)]
        while nums and not nums[-1]:
            nums.pop()
        self._num = tuple(nums)
        self._den = den if nums else 1

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
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int | None:
        """Degree, or ``None`` for the zero polynomial."""
        return len(self._num) - 1 if self._num else None

    @property
    def is_zero(self) -> bool:
        return not self._num

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def descending(self, length: int | None = None) -> tuple[Fraction, ...]:
        """Coefficients by descending power, zero-padded to ``length`` if given."""
        n = len(self._num)
        if length is None:
            length = n
        if length < n:
            raise ValueError("requested length shorter than the polynomial")
        return (Fraction(0),) * (length - n) + self.coeffs[::-1]

    def numerators(self, length: int) -> tuple[tuple[int, ...], int]:
        """The integer numerators by ascending power, zero-padded to
        ``length``, and their common denominator."""
        n = len(self._num)
        if length < n:
            raise ValueError("requested length shorter than the polynomial")
        return self._num + (0,) * (length - n), self._den

    def leading_coefficient(self) -> Fraction:
        if not self._num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __neg__(self) -> "Poly":
        return _canonical([-c for c in self._num], self._den)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        a, da, b, db = self._num, self._den, other._num, other._den
        if da != db:
            g = math.gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _canonical(out, da)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return _canonical([c.numerator * a for a in self._num], c.denominator * self._den)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self._num, other._num
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return _canonical(out, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        c = _as_rat(scalar)
        if c == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return _canonical([c.denominator * a for a in self._num], c.numerator * self._den)

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
        """Horner evaluation; exact for int/Fraction points.

        At an int the Horner runs on the integer numerators and one
        Fraction is built at the end; any other ring element (Fraction,
        Poly, MPoly) goes through the coefficients.
        """
        if type(point) is int:
            return Fraction(_horner(self._num, point), self._den)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        coeffs = self.coeffs
        parts = []
        for power in range(len(coeffs) - 1, -1, -1):
            c = coeffs[power]
            if not c:
                continue
            if power == 0:
                body = format_rational(abs(c))
            else:
                xs = "k" if power == 1 else f"k^{power}"
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


# Integer polynomials below are ascending coefficient lists with a nonzero
# last entry: the numerators of Poly, used by the RatFn reduction.


def _primitive_part(a: list[int]) -> list[int]:
    """a divided by its content, signed so that the leading coefficient is positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """r with lc(b)^e a = q b + r and deg r < deg b, for some e >= 0, over Z."""
    lead, top = b[-1], len(b) - 1
    r = list(a)
    while len(r) > top:
        c = r[-1]
        shift = len(r) - 1 - top
        r = [lead * x for x in r]
        for j, bj in enumerate(b):
            r[shift + j] -= c * bj
        while r and not r[-1]:
            r.pop()
    return r


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd, positive leading coefficient, of two nonzero integer
    polynomials, by the primitive polynomial remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive_part(a), _primitive_part(b)
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive_part(r)
    return [1]


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b dividing a in Z[x] (Gauss's lemma makes the
    quotient integral whenever b divides a over the rationals)."""
    lead, top = b[-1], len(b) - 1
    r = list(a)
    q = [0] * (len(a) - top)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + top] // lead
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    return q


class RatFn:
    """Quotient of two univariate polynomials in canonical reduced form.

    The fraction is reduced by the gcd of the primitive integer parts of
    numerator and denominator, and the denominator is the primitive
    integer polynomial with a positive leading coefficient.  Equality is
    decided by cross-multiplication of the reduced forms (never by
    sampling evaluation points).
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly, den: Poly = Poly((1,))):
        if not isinstance(num, Poly) or not isinstance(den, Poly):
            raise TypeError("RatFn expects Poly numerator and denominator")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            self._num, self._den = Poly(), Poly.one()
            return
        # num/den = (cn/num._den) pn / ((cd/den._den) pd), pn and pd primitive.
        a, b = num._num, den._num
        cn = math.gcd(*a)
        cd = math.gcd(*b) if b[-1] > 0 else -math.gcd(*b)
        pn = [c // cn for c in a]
        pd = [c // cd for c in b]
        g = _int_gcd(pn, pd)
        if len(g) > 1:
            pn, pd = _exact_quotient(pn, g), _exact_quotient(pd, g)
        self._num = _canonical([c * cn * den._den for c in pn], cd * num._den)
        self._den = _canonical(pd, 1)

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
        """Value at a point; at an int, two integer Horner runs and one Fraction."""
        if type(point) is int:
            den = _horner(self._den._num, point)
            if den == 0:
                raise ZeroDivisionError(f"denominator vanishes at {point}")
            # The canonical denominator polynomial is integral (_den._den == 1).
            return Fraction(_horner(self._num._num, point), den * self._num._den)
        d = self._den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {point}")
        return self._num.evaluate(point) / d

    def pretty(self) -> str:
        if self._den == Poly.one():
            return self._num.pretty()
        return f"({self._num.pretty()}) / ({self._den.pretty()})"

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

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at a point; values may be any exact ring elements.

        Accepts ints, Fractions, Poly, or MPoly values (anything supporting
        +, * and integer powers), so the same polynomial can be restricted
        to a line or specialized numerically.  The result lies in the
        values' ring, for the zero polynomial too.
        """
        missing = [v for v in self._vars if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        acc = Fraction(0)
        for name in self._vars:
            acc = acc * values[name]        # the zero of the values' ring
        for e, c in sorted(self._terms.items()):
            term = c
            for name, power in zip(self._vars, e):
                if power:
                    term = term * (values[name] ** power)
            acc = acc + term
        return acc

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


# Distinct n kept by each generator cache (and by blowup.projective_space_base),
# and distinct summand ranks kept by projbundle's oracle tables.  The
# verified universes use n <= 6; larger n stay correct, and a caller
# cycling through more distinct n than this recomputes O(n^2) small tables.
GENERATOR_CACHE_SIZE = 64


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
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
    _require_ints(n=n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return list(_stirling_tuple(n))


def binom_poly_in_k(a: int, n: int) -> Poly:
    """binom(n + a*k - 1, a*k - 1) expanded as a degree-n polynomial in k.

    Agrees with the integer binomial coefficient at every integer k >= 1.
    """
    _require_ints(a=a, n=n)
    if a < 1 or n < 1:
        raise ValueError("a and n must be positive integers")
    s = _stirling_tuple(n)
    return _canonical([s[h] * a**h for h in range(n + 1)], math.factorial(n))


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _cm_tuple(n: int) -> tuple[Fraction, ...]:
    s = _stirling_tuple(n)
    scale = Fraction(1, n * (n + 1))
    # prod_{i<n}(k+i) = sum_h s_h k^h, and the k^{n+1-l} coefficient is s_{n+1-l}.
    return tuple(scale * s[n + 1 - ell] for ell in range(1, n + 1))


def cm_constants(n: int) -> list[Fraction]:
    """Positive constants [C_1..C_n] with sum_l C_l k^{n+1-l} = prod_{i<n}(k+i) / (n(n+1))."""
    _require_ints(n=n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return list(_cm_tuple(n))
