"""Exact rational polynomial algebra.

Everything downstream is computed over arbitrary-precision rationals: the
invariants produced by this package are exact values that get compared for
equality across independently derived pipelines, so no floating point is
allowed anywhere.  Rational scalars are ``fractions.Fraction``, which
already guarantees lowest terms and a positive denominator.

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

The module also provides two coefficient generators: the rising-factorial
coefficients of prod_{i<n} (x+i), which the blowup transcriptions read, and
the positive constants C_l generated by prod_{i<n} (k+i) / (n(n+1)), which
state the paper's expansion of the Chow weight.
"""
from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import ResourceLimitError

__all__ = [
    "Poly",
    "RatFn",
    "MPoly",
    "parse_rational",
    "format_rational",
    "stirling_coeffs",
    "cm_constants",
]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational.

    Decimal notation is rejected on purpose: every number entering the
    pipelines must be exact.  TypeError unless text is a str.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse_rational expects a str, got {text!r}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational (expected 'p' or 'p/q'): {text!r}")
    return Fraction(s)


def format_rational(value: Fraction | int) -> str:
    """Serialize a rational as "p/q", or plain "p" when the denominator is 1.

    Only an int or a Fraction is accepted (TypeError otherwise): a float or
    a bool is refused rather than printed as the rational it rounds to.
    """
    return str(_as_rat(value))


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


def _power(base, n, one):
    """base ** n by repeated squaring from the unit ``one``, for an int n >= 0."""
    if type(n) is not int:      # bools and floats refused by name
        _require_ints(exponent=n)
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _pretty(names: tuple[str, ...], terms) -> str:
    """sum_e c_e prod_i names[i]^e[i] over (e, c_e) pairs with c_e != 0, in
    their order, as "-x^2 + 3/2*x*y - 1"; "0" when there is no term."""
    text = ""
    for exps, c in terms:
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        if abs(c) != 1 or not factors:
            factors.insert(0, format_rational(abs(c)))
        if text:
            text += " - " if c < 0 else " + "
        elif c < 0:
            text = "-"
        text += "*".join(factors)
    return text or "0"


def _int_product(a, b) -> list[int]:
    """The ascending integer coefficients of the product of two integer
    polynomials, given by ascending coefficients; [] if either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


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


def _parts_eq(self, other) -> bool:
    """== of Poly and of RatFn, each held in canonical form as (_num, _den):
    structural, and True only between two values of one class."""
    if other.__class__ is self.__class__:
        return self._num == other._num and self._den == other._den
    return NotImplemented


def _parts_hash(self) -> int:
    return hash((self._num, self._den))


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
    def one(cls) -> "Poly":
        return cls((1,))

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
        if type(power) is not int:      # bools and floats refused by name
            _require_ints(power=power)
        if 0 <= power < len(self._num):
            return Fraction(self._num[power], self._den)
        return Fraction(0)

    def descending(self, length: int | None = None) -> tuple[Fraction, ...]:
        """Coefficients by descending power, zero-padded to ``length`` if given."""
        n = len(self._num)
        if length is None:
            length = n
        elif type(length) is not int:   # bools and floats refused by name
            _require_ints(length=length)
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

    def __bool__(self) -> bool:
        return bool(self._num)

    __eq__, __hash__ = _parts_eq, _parts_hash

    def __neg__(self) -> "Poly":
        return _canonical([-c for c in self._num], self._den)

    def _combine(self, other, sign: int) -> "Poly":
        """self + sign * other over the least common denominator; a scalar is a constant."""
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif not isinstance(other, Poly):
            return NotImplemented
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
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self._combine(other, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = _as_rat(other)
            return _canonical([c.numerator * a for a in self._num], c.denominator * self._den)
        if not isinstance(other, Poly):
            return NotImplemented
        return _canonical(_int_product(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        if type(scalar) is int:
            num, den = scalar, 1
        else:
            c = _as_rat(scalar)
            num, den = c.numerator, c.denominator
        if not num:
            raise ZeroDivisionError("division of a polynomial by zero")
        return _canonical([den * a for a in self._num], num * self._den)

    def __pow__(self, n: int) -> "Poly":
        return _power(self, n, Poly.one())

    def evaluate(self, point) -> Fraction:
        """Value at an int or a Fraction point, by Horner's rule.

        At an int the Horner runs on the integer numerators and one
        Fraction is built at the end; a Fraction goes through the
        coefficients.  Any other point, a Poly, an MPoly, a float or a bool
        included, raises TypeError.
        """
        if type(point) is int:
            return Fraction(_horner(self._num, point), self._den)
        if isinstance(point, bool) or not isinstance(point, (int, Fraction)):
            raise TypeError(f"evaluation point must be an int, a Fraction (not a Poly, "
                            f"an MPoly or any other value), got {point!r}")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def pretty(self) -> str:
        return _pretty(("k",), [((power,), c) for power, c in enumerate(self.coeffs) if c][::-1])

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
    integer polynomial with a positive leading coefficient.  That form is
    canonical, so equality is structural on it (never by sampling
    evaluation points), as the hash is.
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

    __eq__, __hash__ = _parts_eq, _parts_hash

    def evaluate(self, point) -> Fraction:
        """Value at an int or a Fraction point; at an int, two integer
        Horner runs and one Fraction.

        Any other point, a Poly, an MPoly, a float or a bool included, is
        refused with TypeError before either polynomial is evaluated.
        """
        if type(point) is int:
            den = _horner(self._den._num, point)
            if den == 0:
                raise ZeroDivisionError(f"denominator vanishes at {point}")
            # The canonical denominator polynomial is integral (_den._den == 1).
            return Fraction(_horner(self._num._num, point), den * self._num._den)
        d = self._den.evaluate(point)       # refuses any other point first
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
    fixed at construction) to nonzero rational coefficients; terms that
    are not a mapping raise TypeError.  Operations between polynomials over
    different indeterminate sets are rejected.
    """

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        vs = tuple(variables)
        for name in vs:
            if type(name) is not str:
                raise TypeError(f"indeterminate names must be strs, got {name!r}")
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate indeterminate names")
        if terms is None:
            terms = {}
        elif type(terms) is not dict and not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a mapping of exponent vectors to "
                            f"coefficients, got {terms!r}")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            e = tuple(exps)
            if len(e) != len(vs) or not all(type(x) is int and x >= 0 for x in e):
                if not all(type(x) is int for x in e):
                    raise TypeError(f"exponents must be ints, got the exponent vector {e!r}")
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

    def _check_same_ring(self, other: "MPoly") -> None:
        if self._vars != other._vars:
            raise ValueError(
                f"indeterminate-set mismatch: {self._vars} vs {other._vars}")

    def _lift(self, other) -> "MPoly | None":
        """other in this ring, for + and -: a scalar as a constant, an MPoly
        as itself, else None."""
        if isinstance(other, (int, Fraction)):
            return MPoly.constant(self._vars, other)
        return other if isinstance(other, MPoly) else None

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._vars == other._vars and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._vars, frozenset(self._terms.items())))

    def __neg__(self) -> "MPoly":
        return MPoly(self._vars, {e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "MPoly":
        other = self._lift(other)
        if other is None:
            return NotImplemented
        self._check_same_ring(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self._vars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MPoly":
        # Lifted before it is negated: -True is the int -1, which would pass.
        other = self._lift(other)
        return NotImplemented if other is None else self + (-other)

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
        return _power(self, n, MPoly.constant(self._vars, 1))

    def pretty(self) -> str:
        terms = sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return _pretty(self._vars, terms)

    def __repr__(self) -> str:
        return f"MPoly({self.pretty()})"


# The largest n of stirling_coeffs, cm_constants, projective_space_base and
# BaseSummary, and total rank of a CurveBundleSpec; above it each raises
# ResourceLimitError before any work.  It is far above every documented use
# (n <= 8 in the tests, n <= 6 in the oracle suites and the benchmark), and
# at it each of them returns within 50 ms (2 vCPU, CPython 3.11), though
# their cost grows as n^3 to n^4.
MAX_DIMENSION = 64

# Distinct n kept by the rising-factorial cache (and by
# blowup._projective_space_base).  The verified universes use n <= 6; a
# caller cycling through more distinct n than this, up to the
# MAX_DIMENSION + 1 that the guard admits, recomputes O(n^2) small tables.
GENERATOR_CACHE_SIZE = 32


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def _stirling_tuple(n: int) -> tuple[int, ...]:
    coeffs = [1]
    for i in range(n):
        shifted = [0] + coeffs            # x * p(x)
        scaled = [i * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return tuple(coeffs)


def _require_dimension(n: int) -> None:
    if n > MAX_DIMENSION:
        raise ResourceLimitError(f"dimension guard exceeded: n = {n} > {MAX_DIMENSION}")


def _check_order(n) -> None:
    """The n of the generators: an int (TypeError), >= 1 (ValueError) and
    at most MAX_DIMENSION (ResourceLimitError)."""
    _require_ints(n=n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    _require_dimension(n)


def stirling_coeffs(n: int) -> list[int]:
    """Coefficients [s_0..s_n] of the rising factorial prod_{i=0}^{n-1} (x + i).

    These are the non-negative integers generated by
    binom(n + x - 1, x - 1) = sum_h s_h x^h / n!; always s_0 = 0 and s_n = 1.
    """
    _check_order(n)
    return list(_stirling_tuple(n))


def cm_constants(n: int) -> list[Fraction]:
    """Positive constants [C_1..C_n] with sum_l C_l k^{n+1-l} = prod_{i<n}(k+i) / (n(n+1))."""
    _check_order(n)
    s = _stirling_tuple(n)
    # prod_{i<n}(k+i) = sum_h s_h k^h, and the k^{n+1-l} coefficient is s_{n+1-l}.
    return [Fraction(s[n + 1 - ell], n * (n + 1)) for ell in range(1, n + 1)]
