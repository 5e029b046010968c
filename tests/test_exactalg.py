"""Exact polynomial algebra: arithmetic laws and the coefficient generators."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowstab import blowup, exactalg
from chowstab.blowup import BaseSummary, projective_space_base
from chowstab.errors import ResourceLimitError
from chowstab.exactalg import (
    GENERATOR_CACHE_SIZE,
    MAX_DIMENSION,
    MPoly,
    Poly,
    RatFn,
    _exact_quotient,
    _int_gcd,
    _pseudo_remainder,
    cm_constants,
    format_rational,
    parse_rational,
    stirling_coeffs,
)
from chowstab.projbundle import CurveBundleSpec, Summand
from exact_reference import (
    binom_poly_in_k,
    choose,
    compose_linear,
    evaluate,
    is_homogeneous,
    monomial,
    partial,
    total_degree,
)

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
        assert f.den.coeffs[-1] > 0
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
        assert evaluate(p, {"x": 3, "y": Fraction(1, 2)}) == 12
        # substituting polynomials restricts to a line
        t = Poly((0, 1))
        restricted = evaluate(p, {"x": t, "y": 1 - t})
        assert restricted == Poly((0, 2, -1))

    def test_evaluate_stays_in_the_values_ring(self):
        x, y = MPoly.generators(("x", "y"))
        zero, three = MPoly.zeros(("x", "y")), MPoly.constant(("x", "y"), 3)
        u, v = MPoly.generators(("u", "v"))
        for p in (zero, three, x * y):
            assert type(evaluate(p, {"x": u, "y": v})) is MPoly
            assert type(evaluate(p, {"x": Poly((0, 1)), "y": 2})) is Poly
            assert type(evaluate(p, {"x": 2, "y": 3})) is Fraction
        assert evaluate(zero, {"x": u, "y": v}).variables == ("u", "v")
        assert evaluate(zero, {"x": u, "y": v}).is_zero
        assert evaluate(three, {"x": u, "y": v}) == MPoly.constant(("u", "v"), 3)

    def test_homogeneity_detection(self):
        x, y = MPoly.generators(("x", "y"))
        assert is_homogeneous(x**2 + x * y) and total_degree(x**2 + x * y) == 2
        assert not is_homogeneous(x**2 + y)
        assert total_degree(MPoly.zeros(("x", "y"))) is None

    @pytest.mark.parametrize("bad", INEXACT)
    def test_inexact_coefficients_rejected(self, bad):
        with pytest.raises(TypeError):
            MPoly(("x",), {(1,): bad})

    # MPoly(("x",), {(1.5,): 1}) once built x^1.5, and the square of x^0.5
    # equalled x; (True,) was read as the exponent 1, and a str exponent
    # failed with a bare "'<' not supported".
    @pytest.mark.parametrize("exps", [(1.5,), (0.5,), (True,), (False,), ("1",), (1.0,)])
    def test_exponents_must_be_ints(self, exps):
        with pytest.raises(TypeError) as info:
            MPoly(("x",), {exps: 1})
        assert str(info.value) == f"exponents must be ints, got the exponent vector {exps!r}"

    def test_exponent_type_is_checked_before_the_length(self):
        with pytest.raises(TypeError, match="^exponents must be ints"):
            MPoly(("x", "y"), {(0.5,): 1})
        with pytest.raises(ValueError, match="^bad exponent vector"):
            MPoly(("x", "y"), {(1,): 1})

    # These once raised a bare AttributeError ("'float' object has no
    # attribute 'items'").
    @pytest.mark.parametrize("terms", [1.0, True, "1"])
    def test_terms_must_be_a_mapping(self, terms):
        with pytest.raises(TypeError) as info:
            MPoly(("x",), terms)
        assert str(info.value) == ("terms must be a mapping of exponent vectors to "
                                   f"coefficients, got {terms!r}")

    # MPoly((1, 2), {(1, 0): 1}) was once built and failed only inside repr,
    # with "sequence item 0: expected str instance".
    @pytest.mark.parametrize("names, bad", [((1, 2), 1), (("x", None), None),
                                            (("x", b"y"), b"y")])
    def test_names_must_be_strs(self, names, bad):
        with pytest.raises(TypeError) as info:
            MPoly(names, {(1, 0): 1})
        assert str(info.value) == f"indeterminate names must be strs, got {bad!r}"


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
        info = exactalg._stirling_tuple.cache_info()
        assert info.maxsize == GENERATOR_CACHE_SIZE
        assert info.currsize <= GENERATOR_CACHE_SIZE
        assert cm_constants(3) == [Fraction(1, 12), Fraction(1, 4), Fraction(1, 6)]

    def test_stirling_rejects_zero(self):
        with pytest.raises(ValueError):
            stirling_coeffs(0)

    @pytest.mark.parametrize("call", [
        lambda: stirling_coeffs(True),
        lambda: cm_constants(True),
        lambda: stirling_coeffs(2.0),
        lambda: cm_constants(2.0),
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
                lhs = lhs + monomial(n + 1 - ell, c)
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

    @pytest.mark.parametrize("bad", [5, None, Fraction(1, 2), 0.5, b"1/2"])
    def test_only_text_is_parsed(self, bad):
        # parse_rational(5) once raised AttributeError.
        with pytest.raises(TypeError, match="^parse_rational expects a str, got "):
            parse_rational(bad)


class TestInexactPointsRefused:
    """Evaluation points and format_rational take exact values only."""

    @pytest.mark.parametrize("call", [
        lambda: Poly((1, 1)).evaluate(0.5),        # once 1.5
        lambda: Poly((1, 1)).evaluate(True),       # once Fraction(2)
        lambda: Poly((1, 1)).evaluate(False),
        lambda: Poly((1, 1)).evaluate("2"),
        lambda: RatFn(Poly((1, 2)), Poly((1, 1))).evaluate(0.5),   # once 0.6
        lambda: RatFn(Poly((1, 2)), Poly((1, 1))).evaluate(True),
        lambda: Poly().evaluate(0.0),
        lambda: RatFn(Poly((1, 2)), Poly((1, 1))).evaluate(Poly((3, 1))),
        lambda: RatFn(Poly((1, 2)), Poly((1, 1))).evaluate(MPoly.generators(("x",))[0]),
        lambda: RatFn(Poly((1, 2)), Poly((1, 1))).evaluate("2"),
        # Poly.evaluate once took a Poly or an MPoly point and composed.
        lambda: Poly((1, 1)).evaluate(Poly((0, 2))),
        lambda: Poly((1, 1)).evaluate(MPoly.generators(("x",))[0]),
        lambda: Poly().evaluate(Poly((0, 1))),
    ])
    def test_evaluation_refuses_floats_and_bools(self, call):
        with pytest.raises(TypeError, match="^evaluation point must be an int, a Fraction"):
            call()

    @pytest.mark.parametrize("point", [Poly((3, 1)), MPoly.generators(("x",))[0], "2"])
    def test_ratfn_refusal_names_the_point(self, point):
        # At Poly(k + 3) the refusal once came from Poly.__truediv__ and named
        # the denominator's value there, Poly(k + 4); at an MPoly it was a
        # bare "unsupported operand type(s) for /".
        with pytest.raises(TypeError) as info:
            RatFn(Poly((1, 2)), Poly((1, 1))).evaluate(point)
        assert str(info.value).endswith(f", got {point!r}")

    @pytest.mark.parametrize("value", [0.5, True, False, "1/2", None])
    def test_format_rational_refuses_what_is_not_exact(self, value):
        # format_rational(0.5) once returned "1/2".
        with pytest.raises(TypeError, match="^expected an int or a Fraction"):
            format_rational(value)

    # Poly((1, 2)) ** True once returned the polynomial, and ** 2.0 failed
    # with "unsupported operand type(s) for &".
    @pytest.mark.parametrize("base", [Poly((1, 2)), MPoly.generators(("x",))[0]],
                             ids=["Poly", "MPoly"])
    @pytest.mark.parametrize("exponent", [True, False, 2.0, "2", Fraction(2)])
    def test_power_refuses_what_is_not_an_int(self, base, exponent):
        with pytest.raises(TypeError) as info:
            base ** exponent
        assert str(info.value) == f"exponent must be an int, got {exponent!r}"

    @pytest.mark.parametrize("point", [Poly((3, 1)), MPoly.generators(("x",))[0], 0.5])
    def test_poly_refusal_names_the_point(self, point):
        with pytest.raises(TypeError) as info:
            Poly((1, 2)).evaluate(point)
        assert str(info.value).endswith(f", got {point!r}")

    # coefficient(True) once returned the k^1 coefficient and descending(True)
    # padded to length 1; coefficient(1.0) failed with "tuple indices must be
    # integers" and descending(4.0) with "can't multiply sequence".
    @pytest.mark.parametrize("call, name, value", [
        (lambda: Poly((1, 2)).coefficient(True), "power", True),
        (lambda: Poly((1, 2)).coefficient(1.0), "power", 1.0),
        (lambda: Poly((1, 2)).coefficient(Fraction(1)), "power", Fraction(1)),
        (lambda: Poly((1, 2)).descending(True), "length", True),
        (lambda: Poly((1, 2)).descending(4.0), "length", 4.0),
        (lambda: Poly((1, 2)).descending("4"), "length", "4"),
    ])
    def test_coefficient_indices_must_be_ints(self, call, name, value):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == f"{name} must be an int, got {value!r}"

    def test_exact_points_still_evaluate(self):
        p = Poly((1, Fraction(1, 2)))
        assert p.evaluate(4) == 3 and p.evaluate(Fraction(2, 3)) == Fraction(4, 3)
        assert p.coefficient(1) == Fraction(1, 2) and p.descending(3) == (0, Fraction(1, 2), 1)
        f = RatFn(Poly((1, 2)), Poly((1, 1)))
        assert f.evaluate(Fraction(1, 2)) == Fraction(4, 3)
        assert format_rational(Fraction(-3, 6)) == "-1/2" and format_rational(4) == "4"

    @pytest.mark.parametrize("scalar", [3, -4, 6, -1])
    def test_division_by_an_int_is_division_by_its_fraction(self, scalar):
        p = Poly((Fraction(3, 2), 0, -9))
        got, want = p / scalar, p / Fraction(scalar)
        assert (got._num, got._den) == (want._num, want._den)
        with pytest.raises(ZeroDivisionError):
            p / 0


class TestSharedPrinterPowerAndCoercion:
    """Poly and MPoly print through one term joiner, raise to a power
    through one repeated squaring, and coerce scalars once per class."""

    # The texts the two separate printers gave before they were merged.
    @pytest.mark.parametrize("p, text", [
        (Poly((-1, 0, Fraction(3, 2), -1)), "-k^3 + 3/2*k^2 - 1"),
        (Poly((0, 1)), "k"),
        (Poly((Fraction(-7, 3),)), "-7/3"),
        (Poly(), "0"),
        (MPoly(("x", "y"), {(0, 0): -1, (1, 1): Fraction(3, 2), (2, 0): -1}),
         "-x^2 + 3/2*x*y - 1"),
        (MPoly(("x", "y"), {(1, 0): 1, (0, 2): Fraction(2, 5), (0, 0): 3}), "2/5*y^2 + x + 3"),
        (MPoly(("x", "y")), "0"),
    ])
    def test_pretty_examples(self, p, text):
        assert p.pretty() == text

    @given(st.lists(st.one_of(st.sampled_from([0, 1, -1, -3, Fraction(-1, 2)]), rationals),
                    max_size=7))
    @settings(max_examples=200)
    def test_poly_prints_as_the_mpoly_in_k(self, coeffs):
        as_mpoly = MPoly(("k",), {(power,): c for power, c in enumerate(coeffs)})
        assert Poly(coeffs).pretty() == as_mpoly.pretty()

    @pytest.mark.parametrize("base", [
        Poly((Fraction(-1, 2), 0, 3)),
        MPoly(("x", "y"), {(1, 0): Fraction(2, 3), (0, 1): -1, (0, 0): 1}),
    ], ids=["Poly", "MPoly"])
    def test_power_is_repeated_multiplication(self, base):
        product = base ** 0
        assert product == (Poly.one() if isinstance(base, Poly) else MPoly.constant(("x", "y"), 1))
        for n in range(1, 7):
            product = product * base
            assert base ** n == product

    @pytest.mark.parametrize("base", [Poly((1, 2)), MPoly.generators(("x",))[0]],
                             ids=["Poly", "MPoly"])
    def test_negative_power_refused(self, base):
        with pytest.raises(ValueError, match="^negative power of a polynomial$"):
            base ** -1

    # Negating before coercing would turn True into the int -1 and accept it.
    @pytest.mark.parametrize("call", [
        lambda: MPoly.generators(("x",))[0] - True,
        lambda: MPoly.generators(("x",))[0] + True,
        lambda: True - MPoly.generators(("x",))[0],
        lambda: Poly((1, 2)) - True,
        lambda: Poly((1, 2)) + True,
        lambda: True - Poly((1, 2)),
    ])
    def test_bool_operands_refused(self, call):
        with pytest.raises(TypeError, match="^expected an int or a Fraction, got True$"):
            call()

    def test_other_operands_are_not_implemented(self):
        assert Poly((1,)).__add__("x") is NotImplemented
        assert Poly((1,)).__sub__("x") is NotImplemented
        x = MPoly.generators(("x",))[0]
        assert x.__add__("x") is NotImplemented and x.__sub__("x") is NotImplemented
        with pytest.raises(TypeError, match="unsupported operand"):
            Poly((1,)) + "x"
        with pytest.raises(TypeError, match="unsupported operand"):
            x - "x"


# Each entry point that one dimension n sizes, called at n: a bundle of
# total rank n, the plane's Hilbert coefficients padded to a base of
# dimension n.
DIMENSION_ENTRY_POINTS = {
    "stirling_coeffs": stirling_coeffs,
    "cm_constants": cm_constants,
    "projective_space_base": projective_space_base,
    "BaseSummary": lambda n: BaseSummary(n, (Fraction(1, 2), Fraction(3, 2), 1) + (0,) * (n - 2)),
    "CurveBundleSpec": lambda n: CurveBundleSpec(2, (Summand(n - 1, 1, 0), Summand(1, 0, 0))),
}


class TestDimensionGuard:
    """One limit, MAX_DIMENSION, on every entry point whose cost grows with
    n, checked before any work; unguarded, stirling_coeffs(2000) took 2.5 s
    and a rank-3000 bundle ran 24 s into an integer too long to print."""

    @pytest.mark.parametrize("name", DIMENSION_ENTRY_POINTS)
    def test_refuses_one_above_the_limit(self, name):
        with pytest.raises(ResourceLimitError) as info:
            DIMENSION_ENTRY_POINTS[name](MAX_DIMENSION + 1)
        assert str(info.value) == (
            f"dimension guard exceeded: n = {MAX_DIMENSION + 1} > {MAX_DIMENSION}")

    @pytest.mark.parametrize("name", DIMENSION_ENTRY_POINTS)
    def test_accepts_the_limit(self, name):
        DIMENSION_ENTRY_POINTS[name](MAX_DIMENSION)

    def test_refused_before_the_caches_are_consulted(self):
        caches = (exactalg._stirling_tuple, blowup._projective_space_base)
        before = [cache.cache_info() for cache in caches]
        for call in DIMENSION_ENTRY_POINTS.values():
            with pytest.raises(ResourceLimitError):
                call(10 * MAX_DIMENSION)
        assert [cache.cache_info() for cache in caches] == before
