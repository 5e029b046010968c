"""Generic Chow weight pipeline: worked examples and structural invariants."""
import pickle
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from chowstab import blowup, chowcore, p2lab, projbundle
from chowstab.chowcore import (
    HilbertData,
    WeightData,
    chow_weight_fn,
    futaki_invariants,
    report,
    shift_linearization,
)
from chowstab.errors import CrossCheckError
from chowstab.exactalg import Poly, RatFn
import blowup_reference
from exact_reference import monomial


def hyperplane_curve():
    """n=1, chi(k) = k + 1, w(k) = k^2."""
    return HilbertData(1, (1, 1)), WeightData(1, (1, 0, 0))


class TestChowWeightFn:
    def test_basic_example(self):
        h, w = hyperplane_curve()
        assert chow_weight_fn(h, w) == RatFn(Poly((0, -1)), Poly((1, 1)))

    def test_pure_linearization_shift_gives_zero(self):
        h = HilbertData(2, (Fraction(1, 2), Fraction(3, 2), 1))
        c = Fraction(5, 3)
        w = WeightData.from_poly(Poly((0, c)) * h.poly(), 2)
        assert chow_weight_fn(h, w).is_zero

    def test_zero_action(self):
        h = HilbertData(1, (1, 1))
        assert chow_weight_fn(h, WeightData(1, (0,) * 3)).is_zero

    def test_dimension_mismatch_rejected(self):
        h = HilbertData(1, (1, 1))
        with pytest.raises(ValueError):
            chow_weight_fn(h, WeightData(2, (0,) * 4))

    def test_matches_fraction_shift_randomized(self):
        # Negative and fractional a_0 included: the integer shift divides by d_B A_n.
        rng = random.Random(20261019)
        for _ in range(400):
            n = rng.randint(0, 4)
            a = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))]
            a += [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 2)]
            h, w = HilbertData(n, a), WeightData(n, b)
            got, want = chow_weight_fn(h, w), blowup_reference.chow_weight_fn(h, w)
            assert pickle.dumps((got.num, got.den)) == pickle.dumps((want.num, want.den)), (a, b)
            # report's integer expansion identity holds on the same inputs.
            assert report(h, w).chow == got


class TestFutaki:
    def test_basic_example(self):
        h, w = hyperplane_curve()
        assert futaki_invariants(h, w) == [-1]

    def test_zero_weight(self):
        h = HilbertData(3, (2, 0, 0, 1))
        assert futaki_invariants(h, WeightData(3, (0,) * 5)) == [0, 0, 0]

    def test_leading_only_weight(self):
        h = HilbertData(2, (Fraction(1, 2), Fraction(3, 2), 1))
        w = WeightData(2, (1, 0, 0, 0))
        assert futaki_invariants(h, w) == [-6, -4]

    def test_linear_in_weight(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 4)
            h = HilbertData(n, tuple(Fraction(rng.randint(1, 5), rng.randint(1, 4))
                                     for _ in range(n + 1)))
            w1 = WeightData(n, tuple(Fraction(rng.randint(-5, 5)) for _ in range(n + 2)))
            w2 = WeightData(n, tuple(Fraction(rng.randint(-5, 5)) for _ in range(n + 2)))
            combo = WeightData(n, tuple(2 * x + 3 * y for x, y in zip(w1.b, w2.b)))
            f1 = futaki_invariants(h, w1)
            f2 = futaki_invariants(h, w2)
            fc = futaki_invariants(h, combo)
            assert fc == [2 * x + 3 * y for x, y in zip(f1, f2)]

    def test_numerators_match_the_coefficient_formula(self):
        """The integer-numerator form equals (a_0 b_l - b_0 a_l) / a_0^2 on the
        Fraction coefficients, for negative and zero coefficients too."""
        rng = random.Random(11)

        def rational():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

        for _ in range(200):
            n = rng.randint(0, 5)
            a = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 5)),
                 *(rational() for _ in range(n)))
            h, w = HilbertData(n, a), WeightData(n, tuple(rational() for _ in range(n + 2)))
            a0_sq = h.a[0] ** 2
            assert futaki_invariants(h, w) == [
                num / a0_sq for num in chowcore._futaki_numerators(h.a, w.b)]


class TestShiftLinearization:
    def test_identity_shift(self):
        h, w = hyperplane_curve()
        assert shift_linearization(w, h, 0) == w

    def test_example_shift(self):
        h, w = hyperplane_curve()
        shifted = shift_linearization(w, h, 1)
        assert shifted.b == (2, 1, 0)
        assert futaki_invariants(h, shifted) == [-1]

    def test_normalizing_shift_kills_b0(self):
        h, w = hyperplane_curve()
        shifted = shift_linearization(w, h, -w.b[0] / h.a[0])
        assert shifted.b[0] == 0

    def test_invariance_randomized(self):
        rng = random.Random(20260809)
        for _ in range(300):
            n = rng.randint(1, 4)
            h = HilbertData(n, tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3))
                                     for _ in range(n + 1)))
            w = WeightData(n, tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3))
                                    for _ in range(n + 2)))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            shifted = shift_linearization(w, h, c)
            assert futaki_invariants(h, shifted) == futaki_invariants(h, w)
            assert chow_weight_fn(h, shifted) == chow_weight_fn(h, w)
            assert shifted.poly().coefficient(0) == w.poly().coefficient(0)


class TestReport:
    def test_basic_example(self):
        h, w = hyperplane_curve()
        rep = report(h, w)
        assert rep.chow == RatFn(Poly((0, -1)), Poly((1, 1)))
        assert rep.futaki == (-1,)
        assert rep.b_top == 0

    def test_zero_weight(self):
        h = HilbertData(1, (1, 1))
        rep = report(h, WeightData(1, (0,) * 3))
        assert rep.chow.is_zero and rep.futaki == (0,) and rep.b_top == 0

    def test_expansion_identity_randomized(self):
        # chow == b_top/chi + (a_0/chi) sum_l F_l k^{n+1-l} as rational functions
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(1, 4)
            h = HilbertData(n, tuple(Fraction(rng.randint(1, 6)) for _ in range(n + 1)))
            w = WeightData(n, tuple(Fraction(rng.randint(-6, 6)) for _ in range(n + 2)))
            rep = report(h, w)          # raises CrossCheckError on failure
            expansion = Poly((rep.b_top,))
            for ell, f in enumerate(rep.futaki, start=1):
                expansion = expansion + monomial(n + 1 - ell, h.a[0] * f)
            assert rep.chow == RatFn(expansion, h.poly())


    def test_forced_expansion_mismatch(self, monkeypatch):
        original = chowcore.chow_weight_fn

        def skewed(h, w):            # chow + 1/chi
            chow, chi = original(h, w), h.poly()
            return RatFn(chow.num * chi + chow.den, chow.den * chi)

        monkeypatch.setattr(chowcore, "chow_weight_fn", skewed)
        h, w = hyperplane_curve()
        with pytest.raises(CrossCheckError, match="Chow expansion") as info:
            report(h, w)
        # skewed chow = (1 - k)/(k + 1); a_0 F_1 k = -k over the same denominator.
        assert str(info.value).endswith(
            "at chi = k + 1, w = k^2: chow.num * chi = -k^2 + 1, "
            "expansion * chow.den = -k^2 - k")


class TestInexactInputRefused:
    def test_hilbert_data_float(self):
        with pytest.raises(TypeError):
            HilbertData(1, (0.5, 1))

    def test_weight_data_float(self):
        with pytest.raises(TypeError):
            WeightData(1, (1, 0.5, 0))

    def test_shift_by_float(self):
        h, w = hyperplane_curve()
        with pytest.raises(TypeError):
            shift_linearization(w, h, 0.5)

    # Decimal strings and bools were once coerced by Fraction().
    @pytest.mark.parametrize("bad", ["1.5", "1", True])
    def test_hilbert_data_strings_and_bools(self, bad):
        with pytest.raises(TypeError):
            HilbertData(1, (1, bad))

    @pytest.mark.parametrize("bad", ["1.5", "1", True])
    def test_weight_data_strings_and_bools(self, bad):
        with pytest.raises(TypeError):
            WeightData(1, (1, bad, 0))

    @pytest.mark.parametrize("bad", ["1/2", True])
    def test_shift_by_string_or_bool(self, bad):
        h, w = hyperplane_curve()
        with pytest.raises(TypeError):
            shift_linearization(w, h, bad)

    def test_hilbert_data_dimension_must_be_int(self):
        # once accepted, failing later inside futaki_invariants
        with pytest.raises(TypeError, match="^n must"):
            HilbertData(2.0, (1, 2, 3))

    def test_weight_data_dimension_must_be_int(self):
        # once accepted as n = 1
        with pytest.raises(TypeError, match="^n must"):
            WeightData(True, (1, 2, 0))


class TestPolyBuiltOnce:
    @pytest.mark.parametrize("make", [
        lambda: HilbertData(2, (Fraction(1, 2), Fraction(3, 2), 1)),
        lambda: WeightData(2, (1, Fraction(-1, 3), 2, 0)),
    ], ids=["hilbert", "weight"])
    def test_one_poly_per_instance(self, make):
        data, untouched = make(), make()
        assert data.poly() is data.poly()
        # equality, hash and repr are those of the pair (n, coefficients)
        assert data == untouched and hash(data) == hash(untouched)
        assert repr(data) == repr(untouched)
        assert data.poly() == untouched.poly()

    def test_from_poly_keeps_the_given_poly(self):
        chi = Poly((1, Fraction(3, 2), Fraction(1, 2)))
        h = HilbertData.from_poly(chi, 2)
        assert h.poly() is chi and chi == Poly(tuple(reversed(h.a)))
        assert h == HilbertData(2, chi.descending())
        w = Poly((0, 2, Fraction(-1, 3)))
        data = WeightData.from_poly(w, 2)
        assert data.poly() is w and w == Poly(tuple(reversed(data.b)))
        assert data == WeightData(2, w.descending(4))


class TestHeldAsOnePoly:
    """HilbertData and WeightData store n and one Poly; the coefficient tuples
    are read from it, and the constructors, refusals, equality, hash and
    repr are those of the former frozen dataclasses of (n, coefficients)."""

    # Every message below is the one the frozen dataclasses raised.
    @pytest.mark.parametrize("make, error, message", [
        (lambda: HilbertData(2.0, (1, 2, 3)), TypeError, "n must be an int, got 2.0"),
        (lambda: HilbertData(True, (1, 2)), TypeError, "n must be an int, got True"),
        (lambda: HilbertData(-1, ()), ValueError, "dimension must be non-negative"),
        (lambda: HilbertData(1, (0.5, 1)), TypeError, "expected an int or a Fraction, got 0.5"),
        (lambda: HilbertData(1, (1, "1")), TypeError, "expected an int or a Fraction, got '1'"),
        (lambda: HilbertData(2, (1, 2)), ValueError, "expected 3 coefficients, got 2"),
        (lambda: HilbertData(1, (1, 2, 3)), ValueError, "expected 2 coefficients, got 3"),
        (lambda: HilbertData(2, (0, 1, 2)), ValueError,
         "leading Hilbert coefficient a_0 must be nonzero"),
        (lambda: HilbertData(1, (0, 0)), ValueError,
         "leading Hilbert coefficient a_0 must be nonzero"),
        (lambda: WeightData(1.0, (1, 2, 0)), TypeError, "n must be an int, got 1.0"),
        (lambda: WeightData(-1, (1,)), ValueError, "dimension must be non-negative"),
        (lambda: WeightData(1, (1, 0.5, 0)), TypeError, "expected an int or a Fraction, got 0.5"),
        (lambda: WeightData(1, (1, 0)), ValueError, "expected 3 coefficients, got 2"),
        (lambda: WeightData(1, (1, 0, 0, 0)), ValueError, "expected 3 coefficients, got 4"),
        (lambda: WeightData(True, (0,) * 3), TypeError, "n must be an int, got True"),
        (lambda: HilbertData.from_poly(Poly(), 1), ValueError,
         "the Hilbert polynomial cannot be zero"),
        (lambda: HilbertData.from_poly(Poly((1, 1)), 2), ValueError,
         "leading Hilbert coefficient a_0 must be nonzero"),
        (lambda: HilbertData.from_poly(Poly((1, 1)), True), TypeError,
         "n must be an int, got True"),
        (lambda: WeightData.from_poly(Poly((1, 1, 1, 1)), 1), ValueError,
         "weight polynomial degree exceeds n + 1"),
        (lambda: WeightData.from_poly(Poly((1, 1)), True), TypeError,
         "n must be an int, got True"),
        (lambda: HilbertData.from_poly(5, 1), TypeError, "chi must be a Poly, got 5"),
        (lambda: WeightData.from_poly([1, 2], 1), TypeError, "w must be a Poly, got [1, 2]"),
        (lambda: HilbertData.from_poly((1, 1), 1.0), TypeError, "chi must be a Poly, got (1, 1)"),
    ])
    def test_refusals(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    # These two once failed with the incidental messages "requested length
    # shorter than the polynomial" and "can't multiply sequence by non-int".
    @pytest.mark.parametrize("make, error, message", [
        (lambda: HilbertData.from_poly(Poly((1, 1, 1)), 1), ValueError,
         "expected 2 coefficients, got 3"),
        (lambda: HilbertData.from_poly(Poly((1, 1)), 1.0), TypeError,
         "n must be an int, got 1.0"),
    ])
    def test_from_poly_refusals_name_the_rule(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert str(info.value) == message

    def test_reprs_of_the_dataclasses(self):
        assert repr(HilbertData(2, (Fraction(1, 2), Fraction(3, 2), 1))) == \
            "HilbertData(n=2, a=(Fraction(1, 2), Fraction(3, 2), Fraction(1, 1)))"
        assert repr(WeightData(2, (1, Fraction(-1, 3), 2, 0))) == \
            "WeightData(n=2, b=(Fraction(1, 1), Fraction(-1, 3), Fraction(2, 1), Fraction(0, 1)))"
        assert repr(WeightData(1, (0,) * 3)) == \
            "WeightData(n=1, b=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)))"
        assert repr(HilbertData.from_poly(Poly((-1, Fraction(-5, 2), Fraction(-3, 2))), 2)) == \
            "HilbertData(n=2, a=(Fraction(-3, 2), Fraction(-5, 2), Fraction(-1, 1)))"

    def test_both_constructors_agree_and_hash_as_the_pair(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(0, 5)
            a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1)]
            a[0] = a[0] or Fraction(1, 3)
            b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 2)]
            for cls, values, field in ((HilbertData, tuple(a), "a"), (WeightData, tuple(b), "b")):
                data, held = cls(n, values), cls.from_poly(Poly(tuple(reversed(values))), n)
                assert data == held and hash(data) == hash(held) == hash((n, values))
                assert repr(data) == repr(held)
                assert getattr(data, field) == getattr(held, field) == values

    def test_equality_needs_the_class_and_n(self):
        assert HilbertData(1, (1, 1)) != WeightData(0, (1, 1))
        assert WeightData(1, (0, 0, 1)) != WeightData(2, (0, 0, 0, 1))
        assert WeightData(1, (0, 0, 1)).poly() == WeightData(2, (0, 0, 0, 1)).poly()
        assert HilbertData(1, (1, 1)) != (1, (1, 1))

    def test_immutable_and_picklable(self):
        h, w = HilbertData(2, (Fraction(1, 2), Fraction(3, 2), 1)), WeightData(1, (1, 2, 0))
        for data, field in ((h, "a"), (w, "b")):
            for name in ("n", field, "_poly"):
                with pytest.raises(FrozenInstanceError):
                    setattr(data, name, 1)
                with pytest.raises(FrozenInstanceError):
                    delattr(data, name)
            copy = pickle.loads(pickle.dumps(data))
            assert copy == data and copy.poly() == data.poly()


class TestEntryPointsRefuseMistypedData:
    """chow_weight_fn, futaki_invariants, report and shift_linearization take
    a HilbertData and a WeightData, checked in that order (TypeError)."""

    @pytest.mark.parametrize("call, message", [
        # chow_weight_fn(h, h) once returned RatFn(1), futaki_invariants(h, h) [1].
        (lambda h, w: chow_weight_fn(h, h), "w must be a WeightData, got HilbertData("),
        (lambda h, w: futaki_invariants(h, h), "w must be a WeightData, got HilbertData("),
        (lambda h, w: report(h, h), "w must be a WeightData, got HilbertData("),
        (lambda h, w: shift_linearization(h, h, 1), "w must be a WeightData, got HilbertData("),
        # report(1, 2) once raised a bare AttributeError.
        (lambda h, w: report(1, 2), "h must be a HilbertData, got 1"),
        (lambda h, w: chow_weight_fn(w, h), "h must be a HilbertData, got WeightData("),
        (lambda h, w: futaki_invariants(None, w), "h must be a HilbertData, got None"),
        (lambda h, w: shift_linearization(w, w, 1), "h must be a HilbertData, got WeightData("),
        (lambda h, w: report(h.poly(), w), "h must be a HilbertData, got Poly("),
        (lambda h, w: report(h, w.poly()), "w must be a WeightData, got Poly("),
        (lambda h, w: chow_weight_fn(h, None), "w must be a WeightData, got None"),
    ])
    def test_refusals(self, call, message):
        h, w = hyperplane_curve()
        with pytest.raises(TypeError) as info:
            call(h, w)
        assert str(info.value).startswith(message)

    def test_dimension_mismatch_still_a_value_error(self):
        h, _ = hyperplane_curve()
        with pytest.raises(ValueError, match="dimension mismatch"):
            report(h, WeightData(2, (0,) * 4))


@pytest.fixture
def futaki_parts_calls(monkeypatch):
    """The chi passed to chowcore._futaki_parts, one entry per call."""
    calls = []
    real = chowcore._futaki_parts

    def counted(chi, b, d_b):
        calls.append(chi)
        return real(chi, b, d_b)

    monkeypatch.setattr(chowcore, "_futaki_parts", counted)
    return calls


class TestOneFutakiPath:
    """Every reader of the generic pipeline takes its F_l from
    chowcore._futaki_parts, once per call."""

    def test_one_call_per_reader(self, futaki_parts_calls):
        h, w = hyperplane_curve()
        bundle = projbundle.CurveBundleSpec(
            genus=2, summands=(projbundle.Summand(1, 1, 1), projbundle.Summand(1, 0, 0)),
            b_deg=2, b_weight=0, r=1)
        blown = blowup.BlowupSpec(base=blowup.projective_space_base(2), m=3, points=tuple(
            blowup.BlownPoint(1, phi, lam)
            for phi, lam in ((2, -6), (-1, 3), (-1, 3), (-1, 3))))
        for fn, arg, chi in [(futaki_invariants, (h, w), h.poly()),
                             (report, (h, w), h.poly()),
                             (projbundle.higher_futaki, (bundle,), bundle.chi),
                             (blowup.futaki_blowup, (blown,), blown.chi),
                             (blowup.chow_blowup, (blown,), blown.chi)]:
            futaki_parts_calls.clear()
            fn(*arg)
            assert futaki_parts_calls == [chi], fn.__name__

    def test_one_call_per_verified_point(self, futaki_parts_calls):
        candidates = p2lab.search_unstable(2, 1)
        # scale 1: every candidate is a primitive point, verified once
        assert candidates
        assert futaki_parts_calls == [
            blowup._geometry_for(blowup.projective_space_base(2), c.m, c.alphas).chi
            for c in candidates]
