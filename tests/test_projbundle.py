"""Projectivized bundles over curves: closed forms, oracle, classification."""
import hashlib
import itertools
import math
import pickle
import warnings
from fractions import Fraction

import pytest

from chowstab import chowcore, projbundle, verification
from chowstab.errors import (
    AmplenessWarning,
    CrossCheckError,
    DegenerateInputError,
    ResourceLimitError,
)
from chowstab.exactalg import Poly, RatFn, cm_constants
from chowstab.projbundle import (
    POLYSTABLE,
    SEMISTABLE_NOT_POLYSTABLE,
    UNSTABLE,
    CurveBundleSpec,
    Summand,
    chow_weight,
    euler_char_poly,
    higher_futaki,
    oracle,
    slope_classify,
    weight_poly,
)
from exact_reference import choose
from projbundle_reference import twisted_det_chi, twisted_slope, weighted_slope_sum


def reference_chow_weight(spec):
    """The separate Chow transcription chow_weight used before it was built
    from F_1: [kr/(n(n+1))] chi(det twist) S / (mu~ (1 - g - kr mu + k deg B))."""
    n, r = spec.n, spec.r
    num = Poly((0, Fraction(r, n * (n + 1)))) * (twisted_det_chi(spec) * weighted_slope_sum(spec))
    mu = Fraction(sum(sm.degree for sm in spec.summands), n)
    den = Poly((1 - spec.genus, spec.b_deg - r * mu)) * twisted_slope(spec)
    return RatFn(num, den)


def reference_r1_futaki(spec):
    """The r = 1 closed form higher_futaki used before it covered every r."""
    factor = -twisted_det_chi(spec) / twisted_slope(spec)**2 * weighted_slope_sum(spec)
    return [c * factor for c in cm_constants(spec.n)]


def generator_futaki(spec, generators):
    """F_l from the k^{n+1-l} coefficients of prod_{i<n}(k + i/r)/(n(n+1)), any r."""
    n, r = spec.n, spec.r
    if (n, r) not in generators:
        gen = Poly.one()
        for i in range(n):
            gen = gen * Poly((Fraction(i, r), 1))
        generators[n, r] = gen / (n * (n + 1))
    factor = -twisted_det_chi(spec) / twisted_slope(spec)**2 * weighted_slope_sum(spec)
    return [generators[n, r].coefficient(n + 1 - ell) * factor for ell in range(1, n + 1)]


def trivial_rank2(genus=2, b_deg=1):
    """E = O + O over a genus-g curve."""
    return CurveBundleSpec(genus=genus,
                           summands=(Summand(1, 0, 1), Summand(1, 0, -1)),
                           b_deg=b_deg, b_weight=0, r=1)


def unstable_pair():
    """The worked spec: g=2, E = O(1) + O, weights (1, 0), deg B = 2, r = 1."""
    return CurveBundleSpec(genus=2,
                           summands=(Summand(1, 1, 1), Summand(1, 0, 0)),
                           b_deg=2, b_weight=0, r=1)


class TestEulerCharPoly:
    def test_trivial_rank2(self):
        assert euler_char_poly(trivial_rank2()) == Poly((-1, 0, 1))

    def test_depends_only_on_chern_data(self):
        single = CurveBundleSpec(genus=2, summands=(Summand(2, 0, 0),),
                                 b_deg=1, b_weight=0, r=1)
        assert euler_char_poly(single) == euler_char_poly(trivial_rank2())

    def test_genus3_twisted(self):
        spec = CurveBundleSpec(genus=3,
                               summands=(Summand(1, 1, 0), Summand(1, 0, 0)),
                               b_deg=2, b_weight=0, r=1)
        # (k+1)(3k/2 - 2)
        assert euler_char_poly(spec) == Poly((1, 1)) * Poly((-2, Fraction(3, 2)))

    def test_matches_oracle_pointwise(self):
        spec = unstable_pair()
        chi = euler_char_poly(spec)
        for k in range(1, 7):
            assert chi.evaluate(k) == oracle(spec, k)[0]


class TestWeightPoly:
    def test_symmetric_cancellation(self):
        assert weight_poly(trivial_rank2()).is_zero

    def test_vanishes_at_one(self):
        assert weight_poly(unstable_pair()).evaluate(1) == 0

    def test_uniform_weights_are_a_shift(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 3), Summand(2, -1, 3)),
                               b_deg=1, b_weight=0, r=1)
        w = weight_poly(spec)
        chi = euler_char_poly(spec)
        # w = c * k * chi for a constant c, so every invariant vanishes
        assert RatFn(w, Poly((0, 1)) * chi).num.degree in (None, 0)
        h = chowcore.HilbertData.from_poly(chi, spec.n)
        wd = chowcore.WeightData.from_poly(w, spec.n)
        assert chowcore.futaki_invariants(h, wd) == [0, 0, 0]

    def test_zero_constant_term(self):
        for spec in (trivial_rank2(), unstable_pair()):
            assert weight_poly(spec).coefficient(0) == 0

    def test_matches_oracle_pointwise(self):
        spec = unstable_pair()
        w = weight_poly(spec)
        for k in range(1, 7):
            assert w.evaluate(k) == oracle(spec, k)[1]


class TestOracle:
    def test_trivial_bundle_dimension(self):
        spec = trivial_rank2()
        assert oracle(spec, 3) == (8, 0)

    def test_weight_symmetry(self):
        assert oracle(trivial_rank2(), 3)[1] == 0

    def test_worked_k1(self):
        assert oracle(unstable_pair(), 1) == (1, 0)

    def test_guard(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 0, 0), Summand(1, 0, 0)),
                               b_deg=1, b_weight=0, r=2)
        with pytest.raises(ResourceLimitError):
            oracle(spec, 31)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            oracle(trivial_rank2(), 0)

    def test_block_sum_cache_is_bounded(self):
        size = projbundle._block_sums.cache_info().maxsize
        assert size == projbundle.ORACLE_TABLE_CACHE_SIZE
        # 17 x 17 rank pairs at kr = 1: more keys than the bound, each cheap.
        for ranks in itertools.product(range(1, 18), repeat=2):
            summands = tuple(Summand(rank, 1, -1) for rank in ranks)
            oracle(CurveBundleSpec(genus=2, summands=summands, b_deg=1), 1)
        assert projbundle._block_sums.cache_info().currsize == size

    @pytest.mark.parametrize("error, call", [
        (TypeError, lambda: oracle(None, 1)),
        (ValueError, lambda: oracle(trivial_rank2(), 0)),
        (TypeError, lambda: oracle(trivial_rank2(), 1.0)),
        (ResourceLimitError, lambda: oracle(
            CurveBundleSpec(genus=2, summands=(Summand(2, 0, 0),), b_deg=1, r=7), 9)),
        (ResourceLimitError, lambda: oracle(
            CurveBundleSpec(genus=2, summands=(Summand(1, 0, 0),) * 5, b_deg=1), 1)),
    ], ids=["non-spec", "k=0", "k=1.0", "kr>60", "5 summands"])
    def test_refusals_leave_the_table_caches_unchanged(self, error, call):
        before = projbundle._block_sums.cache_info()
        with pytest.raises(error):
            call()
        assert projbundle._block_sums.cache_info() == before


class TestChowWeight:
    def test_single_summand_is_zero(self):
        spec = CurveBundleSpec(genus=2, summands=(Summand(2, 1, 1),),
                               b_deg=1, b_weight=0, r=1)
        assert chow_weight(spec).is_zero

    def test_equal_slopes_are_zero(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 2), Summand(1, 1, -1)),
                               b_deg=2, b_weight=0, r=1)
        assert chow_weight(spec).is_zero

    def test_closed_form_equals_pipeline(self):
        spec = unstable_pair()
        h = chowcore.HilbertData.from_poly(euler_char_poly(spec), spec.n)
        w = chowcore.WeightData.from_poly(weight_poly(spec), spec.n)
        assert chow_weight(spec) == chowcore.chow_weight_fn(h, w)

    def test_degenerate_twisted_slope_rejected(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 1), Summand(1, 1, 0)),
                               b_deg=1, b_weight=0, r=1)
        assert twisted_slope(spec) == 0
        with pytest.raises(DegenerateInputError):
            chow_weight(spec)

    def test_non_ample_warns(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 2, 1), Summand(1, 0, 0)),
                               b_deg=0, b_weight=0, r=1)
        assert not spec.satisfies_ampleness_necessary
        with pytest.warns(AmplenessWarning):
            chow_weight(spec)


class TestHigherFutaki:
    def test_forced_pipeline_disagreement(self, monkeypatch):
        # chi = (3k^2 + k - 2)/2 (A_n = 3, d_A = 2) and w over d_B = 3, so one
        # more unit in each A_n B_{n+1-l} - B_{n+1} A_{n-l} moves F_l by 2/27.
        original = chowcore._futaki_numerators
        monkeypatch.setattr(chowcore, "_futaki_numerators",
                            lambda a, b: [x + 1 for x in original(a, b)])
        with pytest.raises(CrossCheckError) as info:
            higher_futaki(unstable_pair())
        message = str(info.value)
        assert "closed-form invariants disagree" in message
        assert "genus=2" in message and "b_deg=2" in message
        assert "closed form ['4/27', '4/27'], pipeline ['2/9', '2/9']" in message

    def test_worked_value_both_paths(self):
        spec = unstable_pair()
        got = higher_futaki(spec)
        assert got == [Fraction(4, 27), Fraction(4, 27)]
        # closed form re-derived literally
        chi_det, mu_twist = twisted_det_chi(spec), twisted_slope(spec)
        s_sum = weighted_slope_sum(spec)
        assert chi_det == -4 and mu_twist == Fraction(-3, 2) and s_sum == Fraction(1, 2)
        expect = [-c * chi_det / mu_twist**2 * s_sum for c in cm_constants(2)]
        assert got == expect
        # generic pipeline re-derived explicitly
        h = chowcore.HilbertData.from_poly(euler_char_poly(spec), spec.n)
        w = chowcore.WeightData.from_poly(weight_poly(spec), spec.n)
        assert got == chowcore.futaki_invariants(h, w)

    def test_equal_slopes_vanish(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 2), Summand(1, 1, 0)),
                               b_deg=2, b_weight=0, r=1)
        assert higher_futaki(spec) == [0, 0]

    def test_global_weight_shift_invariance(self):
        base = unstable_pair()
        for c in (-2, 1, 5):
            shifted = CurveBundleSpec(
                genus=base.genus,
                summands=tuple(Summand(s.rank, s.degree, s.weight + c, s.stable)
                               for s in base.summands),
                b_deg=base.b_deg, b_weight=base.b_weight, r=base.r)
            assert higher_futaki(shifted) == higher_futaki(base)

    def test_b_weight_invariance(self):
        base = unstable_pair()
        for lam0 in (-3, 2, 7):
            shifted = CurveBundleSpec(genus=base.genus, summands=base.summands,
                                      b_deg=base.b_deg, b_weight=lam0, r=base.r)
            assert higher_futaki(shifted) == higher_futaki(base)

    def test_all_vanish_together(self):
        spec = unstable_pair()
        values = higher_futaki(spec)
        assert all(v != 0 for v in values)
        ratios = {v / values[0] for v in values}
        assert all(r > 0 for r in ratios)

    def test_r2_constants_depend_on_r(self):
        """For r > 1 the proportionality to the slope sum persists, but the
        constants are generated by prod_{i<n}(k + i/r)/(n(n+1)), not by the
        r = 1 generator."""
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 1), Summand(1, 0, 0)),
                               b_deg=2, b_weight=0, r=2)
        got = higher_futaki(spec)
        assert got == generator_futaki(spec, {})
        assert got != reference_r1_futaki(spec)

    def test_forced_pipeline_disagreement_r2(self, monkeypatch):
        original = chowcore._futaki_numerators
        monkeypatch.setattr(chowcore, "_futaki_numerators",
                            lambda a, b: [x + 1 for x in original(a, b)])
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 1), Summand(1, 0, 0)),
                               b_deg=2, b_weight=0, r=2)
        with pytest.raises(CrossCheckError) as info:
            higher_futaki(spec)
        assert "closed-form invariants disagree" in str(info.value)
        assert "r=2" in str(info.value)

    def test_non_ample_warning_names_caller(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 2, 1), Summand(1, 0, 0)),
                               b_deg=0, b_weight=0, r=1)
        for fn in (higher_futaki, chow_weight):
            with pytest.warns(AmplenessWarning) as record:
                fn(spec)
            assert [w.filename for w in record] == [__file__]


class TestChecksOnEveryCall:
    """The closed F_l are derived once per spec; the refusal of a zero
    twisted slope and the ampleness warning still come with every call."""

    def test_ampleness_warning_on_every_call(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 2, 1), Summand(1, 0, 0)),
                               b_deg=0, b_weight=0, r=1)
        for fn in (higher_futaki, chow_weight, higher_futaki, chow_weight):
            with pytest.warns(AmplenessWarning) as record:
                fn(spec)
            assert [w.filename for w in record] == [__file__]

    def test_zero_twisted_slope_refused_on_every_call(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 1), Summand(1, 1, 0)),
                               b_deg=1, b_weight=0, r=1)
        for fn in (higher_futaki, chow_weight, higher_futaki, chow_weight):
            with pytest.raises(DegenerateInputError):
                fn(spec)


class TestOneClosedForm:
    def test_references_over_covering_design(self):
        """Over the criterion-4 covering design (twists r = 1, 2), chow_weight
        equals its former transcription, and the closed F_l equal the former
        r = 1 closed form (r = 1) or the prod_{i<n}(k + i/r) generator (r = 2)."""
        generators = {}
        checked = {1: 0, 2: 0}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmplenessWarning)
            for spec in verification.projbundle_specs(seed=0):
                if twisted_slope(spec) == 0:
                    continue
                got, want = chow_weight(spec), reference_chow_weight(spec)
                assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
                nums, den = projbundle._closed_futaki(spec)
                closed = [Fraction(x, den) for x in nums]
                if spec.r == 1:
                    assert closed == reference_r1_futaki(spec)
                else:
                    assert closed == generator_futaki(spec, generators)
                checked[spec.r] += 1
                if checked[spec.r] % 32 == 0:
                    # the public path, which also runs the generic pipeline
                    assert higher_futaki(spec) == closed
        assert checked[1] > 15000 and checked[2] > 15000


# Every 31st spec of the criterion-4 covering design (as in
# test_kernel_reference), 1 087 specs with both twists and every B-degree.
DIGEST_STRIDE = 31
# Recorded on the former Fraction derivation, which the integer pass must reproduce.
DIGEST = "77f74c5f1853d2b9d0bb9da211ac002a2870109ffdbe25e5b1e16e12925c97d7"


def public_outputs(spec) -> str:
    """One line of every public bundle output of a spec, in exact text."""
    def text(values):
        return ",".join(str(v) for v in values)

    chi, w = euler_char_poly(spec), weight_poly(spec)
    verdict = slope_classify(spec)
    fields = [str(spec), text(chi.coeffs), text(w.coeffs),
              verdict.classification, text(verdict.per_summand)]
    try:
        futaki = higher_futaki(spec)
        chow = chow_weight(spec)
    except DegenerateInputError as exc:
        fields.append(f"refused: {exc}")
    else:
        fields += [text(futaki), text(chow.num.coeffs), text(chow.den.coeffs)]
    try:
        rep = chowcore.report(chowcore.HilbertData.from_poly(chi, spec.n),
                              chowcore.WeightData.from_poly(w, spec.n))
    except ValueError as exc:
        fields.append(f"report refused: {exc}")
    else:
        fields += [text(rep.chow.num.coeffs), text(rep.chow.den.coeffs),
                   text(rep.futaki), str(rep.b_top)]
    return "|".join(fields) + "\n"


class TestOutputDigest:
    def test_sample_matches_its_digest(self):
        """chi, w, the F_l, chow_weight, report and the verdict over a stride
        sample of the covering design, pinned by one sha256."""
        digest = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AmplenessWarning)
            for spec in itertools.islice(verification.projbundle_specs(seed=0),
                                         0, None, DIGEST_STRIDE):
                digest.update(public_outputs(spec).encode("utf-8"))
        assert digest.hexdigest() == DIGEST


class TestSlopeClassify:
    def test_unstable(self):
        verdict = slope_classify(unstable_pair())
        assert verdict.classification == UNSTABLE
        assert verdict.per_summand == (Fraction(1, 2), Fraction(-1, 2))

    def test_polystable(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 1, stable=True),
                                         Summand(1, 1, 0, stable=True)),
                               b_deg=2, b_weight=0, r=1)
        assert slope_classify(spec).classification == POLYSTABLE

    def test_single_stable_summand(self):
        spec = CurveBundleSpec(genus=2, summands=(Summand(2, 1, 0, stable=True),),
                               b_deg=1, b_weight=0, r=1)
        assert slope_classify(spec).classification == POLYSTABLE

    def test_semistable_not_polystable(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 1, stable=True),
                                         Summand(1, 1, 0, stable=False)),
                               b_deg=2, b_weight=0, r=1)
        assert slope_classify(spec).classification == SEMISTABLE_NOT_POLYSTABLE

    def test_polystable_forces_zero_invariants(self):
        spec = CurveBundleSpec(genus=2,
                               summands=(Summand(1, 1, 3, stable=True),
                                         Summand(2, 2, -5, stable=True)),
                               b_deg=2, b_weight=0, r=1)
        assert slope_classify(spec).classification == POLYSTABLE
        assert all(f == 0 for f in higher_futaki(spec))


class TestStatementPackaging:
    def test_binomial_identity(self):
        # binom(n-1+kr, n) == binom(n-1+kr, kr) * kr/n for all k, n, r in range
        for n in range(2, 6):
            for r in range(1, 4):
                for k in range(1, 9):
                    kr = k * r
                    assert choose(n - 1 + kr, n) * n == choose(n - 1 + kr, kr) * kr


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("rank", 1.5), ("rank", True), ("degree", 0.0), ("degree", False),
        ("weight", "1"), ("weight", True),
    ])
    def test_summand_int_fields_typed(self, field, value):
        kwargs = {"rank": 1, "degree": 1, "weight": 0, field: value}
        with pytest.raises(TypeError, match=field):
            Summand(**kwargs)

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_summand_stable_must_be_bool(self, value):
        with pytest.raises(TypeError, match="stable"):
            Summand(1, 1, 0, value)

    @pytest.mark.parametrize("field,value", [
        ("genus", 2.5), ("genus", True), ("b_deg", 1.0), ("b_deg", True),
        ("b_weight", "0"), ("b_weight", False), ("r", 1.0), ("r", True),
    ])
    def test_spec_int_fields_typed(self, field, value):
        kwargs = {"genus": 2, "summands": (Summand(2, 0, 0),), "b_deg": 1,
                  "b_weight": 0, "r": 1, field: value}
        with pytest.raises(TypeError, match=field):
            CurveBundleSpec(**kwargs)

    @pytest.mark.parametrize("summands", [((1, 1, 1), (1, 0, 0)), (Summand(1, 1, 1), (1, 0, 0))])
    def test_spec_summands_typed(self, summands):
        with pytest.raises(TypeError, match=r"^summands\[\d\] must be a Summand"):
            CurveBundleSpec(genus=2, summands=summands, b_deg=1)

    @pytest.mark.parametrize("k", [True, 2.0, Fraction(2), "2"])
    def test_oracle_k_typed(self, k):
        with pytest.raises(TypeError, match="^k must"):
            oracle(unstable_pair(), k)

    @pytest.mark.parametrize("fn", [euler_char_poly, weight_poly, higher_futaki, chow_weight,
                                    slope_classify, lambda spec: oracle(spec, 1)],
                             ids=["euler_char_poly", "weight_poly", "higher_futaki",
                                  "chow_weight", "slope_classify", "oracle"])
    @pytest.mark.parametrize("bad", [None, 1, (2, (Summand(2, 0, 0),), 1)],
                             ids=["None", "int", "tuple"])
    def test_public_functions_refuse_a_non_spec(self, fn, bad):
        # oracle(None, 1) and higher_futaki(None) once raised AttributeError.
        with pytest.raises(TypeError, match="^spec must be a CurveBundleSpec, got "):
            fn(bad)

    def test_oracle_checks_the_spec_before_k(self):
        with pytest.raises(TypeError, match="^spec must"):
            oracle(None, 0.5)

    def test_derived_numbers_cached(self):
        spec = unstable_pair()
        assert spec.slope_gaps is slope_classify(spec).per_summand
        assert spec == unstable_pair() and hash(spec) == hash(unstable_pair())
        assert euler_char_poly(spec) is euler_char_poly(spec)
        assert weight_poly(spec) is weight_poly(spec)

    def test_pickles_as_its_fields(self):
        """A spec pickles to the same bytes before and after its numbers are
        derived, and loads through the constructor: the copy is equal and
        derives the same chi and w."""
        spec = unstable_pair()
        before = pickle.dumps(spec)
        chi, w = euler_char_poly(spec), weight_poly(spec)
        after = pickle.dumps(spec)
        assert after == before
        loaded = pickle.loads(after)
        assert loaded == spec and "chi" not in vars(loaded)
        assert (euler_char_poly(loaded), weight_poly(loaded)) == (chi, w)

    def test_loading_validates(self):
        # A spec forged past its constructor once loaded without a check.
        spec = unstable_pair()
        object.__setattr__(spec, "genus", 1)
        data = pickle.dumps(spec)
        with pytest.raises(ValueError, match="^genus must be >= 2$"):
            pickle.loads(data)

    def test_curve_factor_built_once_per_spec(self, monkeypatch):
        """Every public derivation reads one derivation, and in it one curve
        factor 1 - g + c*k, per spec.

        With n >= 3, the only polynomial that projbundle constructs with
        degree 1 and a nonzero constant term (g >= 2) is the curve factor or
        a multiple of it, so counting those constructions counts its builds.
        """
        built = []
        derived = []
        derive = projbundle._derive

        def counting_derive(spec):
            derived.append(spec)
            derive(spec)

        class CountingPoly(Poly):
            def __init__(self, coeffs=()):
                super().__init__(coeffs)
                if self.degree == 1 and self.coefficient(0):
                    built.append(self)

        monkeypatch.setattr(projbundle, "Poly", CountingPoly)
        monkeypatch.setattr(projbundle, "_derive", counting_derive)
        specs = [CurveBundleSpec(genus=2, summands=(Summand(2, 1, 1), Summand(1, 0, 0)),
                                 b_deg=2, b_weight=1, r=r) for r in (1, 2)]
        for spec in specs:
            for fn in (euler_char_poly, weight_poly, higher_futaki, chow_weight,
                       slope_classify) * 2:
                fn(spec)
        assert len(built) == len(specs)
        assert derived == specs

    def test_fiber_rank_poly_is_the_linear_product(self):
        for n in range(1, 9):
            for r in range(1, 4):
                product = Poly.one()
                for i in range(1, n):
                    product = product * Poly((i, r))
                # binom(n-1+kr, kr) times (n-1)!
                assert Poly(projbundle._fiber_rank_numerators(n, r)) == product

    def test_genus_bound(self):
        with pytest.raises(ValueError):
            CurveBundleSpec(genus=1, summands=(Summand(2, 0, 0),), b_deg=1)

    def test_total_rank_bound(self):
        with pytest.raises(ValueError):
            CurveBundleSpec(genus=2, summands=(Summand(1, 0, 0),), b_deg=1)

    def test_no_summands(self):
        with pytest.raises(ValueError):
            CurveBundleSpec(genus=2, summands=(), b_deg=1)
