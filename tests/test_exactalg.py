"""Exact polynomial algebra: arithmetic laws and the coefficient generators."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowstab import exactalg
from chowstab.exactalg import (
    GENERATOR_CACHE_SIZE,
    MPoly,
    Poly,
    RatFn,
    _exact_quotient,
    _int_gcd,
    _pseudo_remainder,
    binom_poly_in_k,
    choose,
    cm_constants,
    format_rational,
    parse_rational,
    stirling_coeffs,
)
from exact_reference import compose_linear, is_homogeneous, partial, total_degree

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
poly_lists = st.lists(rationals, max_size=6)

# Decimal strings and bools were once coerced by Fraction(); both are refused.
INEXACT = ("0.5", "1", True, 0.5)


def expand_product(factors):
    """Independent expansion of prod (x + c) by direct convolution."""
    coeffs = [Fraction(1)]
    for c in factors:
        shifted = [Fraction(0)] + coeffs
        scaled = [Fraction(c) * x for x in coeffs] + [Fraction(0)]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).is_zero

    def test_numerators_over_the_common_denominator(self):
        assert Poly((Fraction(1, 2), 0, Fraction(-1, 3))).numerators(5) == ((3, 0, -2, 0, 0), 6)
        assert Poly().numerators(2) == ((0, 0), 1)
        with pytest.raises(ValueError):
            Poly((1, 2, 3)).numerators(2)

    def test_degree_sentinel(self):
        assert Poly().degree is None
        assert Poly((0,)).degree is None
        assert Poly((3,)).degree == 0
        assert Poly((0, 1)).degree == 1

    def test_difference_of_squares(self):
        assert Poly((1, 1)) * Poly((-1, 1)) == Poly((-1, 0, 1))

    def test_coefficient_extraction(self):
        p = Poly((-1, 0, 1))
        assert p.coefficient(2) == 1
        assert p.coefficient(0) == -1
        assert p.coefficient(7) == 0

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Poly((0.5, 1))

    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            Poly((1, bad))

    def test_compose_linear(self):
        p = Poly((0, 0, 1))            # k^2
        assert compose_linear(p, 2, 1) == Poly((1, 4, 4))
        q = Poly((1, 2, 3))
        for k in range(-3, 4):
            assert compose_linear(q, 5, -2).evaluate(k) == q.evaluate(5 * k - 2)

    def test_divmod_roundtrip(self):
        # Integer division as the RatFn reduction runs it: the pseudo-remainder
        # r satisfies lc(b)^e a = q b + r with deg r < deg b, and an exact
        # quotient by a primitive divisor undoes a product.
        a, b = [1, 2, 0, 1], [1, 2]
        r = _pseudo_remainder(a, b)
        assert len(r) < len(b)
        pa, pb = Poly(a), Poly(b)
        q_times_b = Poly((2**3,)) * pa - Poly(r)
        assert RatFn(q_times_b, pb).den == Poly.one()
        assert _exact_quotient(list((pa * pb)._num), b) == a

    def test_canonical_form(self):
        half = Poly((Fraction(1, 2), Fraction(3, 2)))
        assert (half._num, half._den) == ((1, 3), 2)
        assert (half * 2)._den == 1 and (half * 2).coeffs == (1, 3)
        assert (half - half)._num == () and (half - half)._den == 1
        assert Poly((Fraction(1, 2),)) + Poly((Fraction(1, 2),)) == Poly.one()
        # equal values are equal representations, so they hash equal
        assert hash(Poly((Fraction(2, 4), 1))) == hash(Poly((1, 2)) / 2)
        assert all(type(c) is Fraction for c in half.coeffs)

    def test_evaluation_at_non_integer_points(self):
        p = Poly((Fraction(1, 3), 0, 2))
        assert p.evaluate(Fraction(1, 2)) == Fraction(1, 3) + Fraction(1, 2)
        t = Poly((0, 1))
        assert p.evaluate(t + 1) == Poly((Fraction(7, 3), 4, 2))

    def test_descending_padding(self):
        assert Poly((1, 2)).descending(4) == (0, 0, 2, 1)

    @given(poly_lists, poly_lists, poly_lists)
    @settings(max_examples=100, deadline=None)
    def test_ring_laws(self, a, b, c):
        pa, pb, pc = Poly(a), Poly(b), Poly(c)
        assert pa + pb == pb + pa
        assert pa * pb == pb * pa
        assert pa * (pb + pc) == pa * pb + pa * pc

    @given(poly_lists, st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_evaluation_is_hom(self, a, k):
        p = Poly(a)
        assert (p * p).evaluate(k) == p.evaluate(k) ** 2


class TestRatFn:
    def test_reduction(self):
        # (k^2 - 1)/(k + 1) reduces to k - 1
        f = RatFn(Poly((-1, 0, 1)), Poly((1, 1)))
        assert f.num == Poly((-1, 1))
        assert f.den == Poly.one()

    def test_denominator_normalization(self):
        f = RatFn(Poly((1,)), Poly((0, Fraction(-1, 2))))
        assert f.den.leading_coefficient() > 0
        assert all(c.denominator == 1 for c in f.den.coeffs)

    def test_cross_multiplication_equality(self):
        a = RatFn(Poly((0, 2)), Poly((2, 2)))
        b = RatFn(Poly((0, 1)), Poly((1, 1)))
        assert a == b

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFn(Poly((1,)), Poly())

    def test_gcd_monic(self):
        # The reduction's gcd is primitive over Z with a positive leading
        # coefficient: monic here, since x + 1 divides x^2 - 1.
        assert _int_gcd([-1, 0, 1], [1, 1]) == [1, 1]
        assert _int_gcd([-2, 0, 2], [-3, -3]) == [1, 1]
        assert _int_gcd([1, 0, 1], [1, 1]) == [1]
        # (2x + 1)(x - 3) and (2x + 1)(x + 5)
        assert _int_gcd([-3, -5, 2], [5, 11, 2]) == [1, 2]

    def test_reduction_scales_like_the_rational_form(self):
        # ((1 + 2x)/3 (x - 1)) / ((3/4)(x - 1)(-2x - 6)) = -(2/9)(1 + 2x) / (x + 3)
        f = RatFn(Poly((Fraction(1, 3), Fraction(2, 3))) * Poly((-1, 1)),
                  Poly((Fraction(-3, 4), Fraction(3, 4))) * Poly((-6, -2)))
        assert f.den == Poly((3, 1))
        assert f.num == Poly((Fraction(-2, 9), Fraction(-4, 9)))
        assert f.evaluate(3) == Fraction(-7, 27)
        assert f.evaluate(Fraction(3)) == Fraction(-7, 27)


class TestMPoly:
    def test_power_rule_partial(self):
        m, alpha = MPoly.generators(("m", "alpha"))
        p = m**3 * alpha
        assert partial(p, "m") == 3 * m**2 * alpha

    def test_indeterminate_mismatch_rejected(self):
        a = MPoly.variable(("x", "y"), "x")
        b = MPoly.variable(("x", "z"), "x")
        with pytest.raises(ValueError):
            a + b

    def test_no_zero_terms_stored(self):
        x, y = MPoly.generators(("x", "y"))
        assert (x * y - x * y).is_zero
        p = x + y - y
        assert dict(p.terms()) == {(1, 0): Fraction(1)}

    def test_evaluate_numeric_and_symbolic(self):
        x, y = MPoly.generators(("x", "y"))
        p = x**2 + 2 * x * y
        assert p.evaluate({"x": 3, "y": Fraction(1, 2)}) == 12
        # substituting polynomials restricts to a line
        t = Poly((0, 1))
        restricted = p.evaluate({"x": t, "y": 1 - t})
        assert restricted == Poly((0, 2, -1))

    def test_evaluate_stays_in_the_values_ring(self):
        x, y = MPoly.generators(("x", "y"))
        zero, three = MPoly.zeros(("x", "y")), MPoly.constant(("x", "y"), 3)
        u, v = MPoly.generators(("u", "v"))
        for p in (zero, three, x * y):
            assert type(p.evaluate({"x": u, "y": v})) is MPoly
            assert type(p.evaluate({"x": Poly((0, 1)), "y": 2})) is Poly
            assert type(p.evaluate({"x": 2, "y": 3})) is Fraction
        assert zero.evaluate({"x": u, "y": v}).variables == ("u", "v")
        assert zero.evaluate({"x": u, "y": v}).is_zero
        assert three.evaluate({"x": u, "y": v}) == MPoly.constant(("u", "v"), 3)

    def test_homogeneity_detection(self):
        x, y = MPoly.generators(("x", "y"))
        assert is_homogeneous(x**2 + x * y) and total_degree(x**2 + x * y) == 2
        assert not is_homogeneous(x**2 + y)
        assert total_degree(MPoly.zeros(("x", "y"))) is None

    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            MPoly(("x",), {(1,): bad})


class TestGenerators:
    def test_stirling_small(self):
        assert stirling_coeffs(1) == [0, 1]
        assert stirling_coeffs(2) == [0, 1, 1]
        assert stirling_coeffs(3) == expand_product([0, 1, 2]) == [0, 2, 3, 1]

    def test_stirling_recurrence(self):
        # p_n(x) = p_{n-1}(x) * (x + n - 1)
        for n in range(2, 9):
            prev = Poly(stirling_coeffs(n - 1))
            assert Poly(stirling_coeffs(n)) == prev * Poly((n - 1, 1))

    def test_stirling_normalization(self):
        for n in range(1, 9):
            s = stirling_coeffs(n)
            assert s[0] == 0 and s[n] == 1
            assert all(v >= 0 for v in s)

    def test_generator_caches_are_bounded(self):
        for n in range(1, 2 * GENERATOR_CACHE_SIZE):
            stirling_coeffs(n)
            cm_constants(n)
        for cached in (exactalg._stirling_tuple, exactalg._cm_tuple):
            info = cached.cache_info()
            assert info.maxsize == GENERATOR_CACHE_SIZE
            assert info.currsize <= GENERATOR_CACHE_SIZE
        assert cm_constants(3) == [Fraction(1, 12), Fraction(1, 4), Fraction(1, 6)]

    def test_stirling_rejects_zero(self):
        with pytest.raises(ValueError):
            stirling_coeffs(0)

    @pytest.mark.parametrize("call", [
        lambda: stirling_coeffs(True),
        lambda: cm_constants(True),
        lambda: binom_poly_in_k(True, 2),
        lambda: binom_poly_in_k(1, True),
        lambda: choose(True, 1),
        lambda: choose(3, True),
        lambda: stirling_coeffs(2.0),
        lambda: choose(2.0, 5),
    ])
    def test_generators_refuse_bools_and_floats(self, call):
        with pytest.raises(TypeError, match="must be an int"):
            call()

    def test_binom_poly_examples(self):
        assert binom_poly_in_k(1, 2) == Poly((0, Fraction(1, 2), Fraction(1, 2)))
        assert binom_poly_in_k(2, 2) == Poly((0, 1, 2))
        assert binom_poly_in_k(1, 1) == Poly((0, 1))

    def test_binom_poly_matches_integer_binomials(self):
        for n in range(1, 9):
            for a in range(1, 6):
                p = binom_poly_in_k(a, n)
                assert p.degree == n
                for k in range(1, 21):
                    assert p.evaluate(k) == choose(n + a * k - 1, a * k - 1)

    def test_cm_constants_examples(self):
        assert cm_constants(1) == [Fraction(1, 2)]
        assert cm_constants(2) == [Fraction(1, 6), Fraction(1, 6)]
        assert cm_constants(3) == [Fraction(1, 12), Fraction(1, 4), Fraction(1, 6)]

    def test_cm_constants_positive_and_consistent(self):
        for n in range(1, 9):
            cs = cm_constants(n)
            assert all(c > 0 for c in cs)
            lhs = Poly()
            for ell, c in enumerate(cs, start=1):
                lhs = lhs + Poly.monomial(n + 1 - ell, c)
            rhs = Poly(expand_product(range(n))) / (n * (n + 1))
            assert lhs == rhs


class TestRationalStrings:
    def test_roundtrip(self):
        for text in ("0", "-7", "3/4", "-22/7"):
            assert format_rational(parse_rational(text)) == text

    def test_decimals_rejected(self):
        for bad in ("1.5", "1e3", "3/0", "1/-2", ""):
            with pytest.raises(ValueError):
                parse_rational(bad)
