"""Blowup invariants: closed forms, skyscraper weights, oracle, adiabatic limit."""
import dataclasses
import enum
import functools
import math
import pickle
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chowstab import blowup, chowcore, cli, p2lab, verification
from chowstab.blowup import (
    GEOMETRY_CACHE_SIZE,
    ORACLE_CACHE_SIZE,
    BaseSummary,
    BlownPoint,
    BlowupSpec,
    adiabatic,
    chi_tilde,
    chow_blowup,
    d_f_g,
    futaki_blowup,
    oracle_p2,
    projective_space_base,
    w_tilde,
)
from chowstab.errors import CrossCheckError, DegenerateInputError, ResourceLimitError
from chowstab.exactalg import GENERATOR_CACHE_SIZE, Poly, RatFn, stirling_coeffs
import blowup_reference
from exact_reference import binom_poly_in_k, compose_linear, hilbert_poly, monomial


P2 = projective_space_base(2)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def cold_geometry_cache():
    """An empty geometry cache on entry, and none of the test's entries left on exit."""
    blowup._geometry_for.cache_clear()
    yield blowup._geometry_for
    blowup._geometry_for.cache_clear()


def aligned_four_point_spec(m, alphas=(1, 1, 1, 1)):
    """The four-point plane blowup under diag(t^2, t^-1, t^-1)."""
    data = [(Fraction(2), -6), (Fraction(-1), 3), (Fraction(-1), 3), (Fraction(-1), 3)]
    points = tuple(BlownPoint(alpha=a, phi=phi, lam=lam)
                   for a, (phi, lam) in zip(alphas, data))
    return BlowupSpec(base=P2, points=points, m=m)


def criterion5_specs():
    """A BlowupSpec for every case of the oracle blowup universe with D > 0."""
    for weights, points, m in verification.blowup_cases():
        if P2.degree - sum(Fraction(a, m) ** 2 for _, a in points) <= 0:
            continue
        action = p2lab.DiagAction(weights)
        yield BlowupSpec(base=P2, m=m, points=tuple(
            BlownPoint(alpha, *p2lab.fixed_point_data(action, {axis}))
            for axis, alpha in points))


def random_specs(n, count, seed):
    """Seeded blowups of projective n-space with small rational phi."""
    rng = random.Random(seed)
    base = projective_space_base(n)
    specs = []
    while len(specs) < count:
        points = tuple(
            BlownPoint(alpha=rng.randint(1, 3),
                       phi=Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       lam=rng.randint(-6, 6))
            for _ in range(rng.randint(1, 4)))
        m = sum(p.alpha for p in points) + rng.randint(0, 3)
        try:
            specs.append(BlowupSpec(base=base, points=points, m=m))
        except DegenerateInputError:
            continue
    return specs


REFERENCE_SPECS = list(criterion5_specs()) + random_specs(3, 60, seed=7)


def rational_phi_specs():
    """Blowups of P^2 and P^3 whose phi are not integers, each phi over its own denominator."""
    phis = (Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6), Fraction(5, 4))
    specs = []
    for n in (2, 3):
        base = projective_space_base(n)
        for size in (1, 2, 3):
            for shift in range(len(phis)):
                points = tuple(BlownPoint(alpha=1 + (shift + j) % 3,
                                          phi=phis[(shift + j) % len(phis)],
                                          lam=(-1) ** j * (j + 2))
                               for j in range(size))
                m = sum(p.alpha for p in points) + 1 + shift
                specs.append(BlowupSpec(base=base, points=points, m=m))
    return specs


def reference_chow(spec):
    """The Chow expansion (a_0/chi~(k)) sum_l F_l k^{n+1-l}, built monomial by monomial."""
    n = spec.base.n
    chi = chi_tilde(spec)
    a0 = chi.coefficient(n)
    num = Poly()
    for ell, f in enumerate(futaki_blowup(spec), start=1):
        num = num + monomial(n + 1 - ell, a0 * f)
    return RatFn(num, chi)


def reference_d_f_g(spec, ell):
    """D, f_l and g_l transcribed coefficient by coefficient with monomial."""
    n = spec.base.n
    s = stirling_coeffs(n) + [0]
    fact = math.factorial(n)
    d_val = spec.volume_gap
    ratio_sum = sum(
        (Fraction(p.alpha, spec.m) ** (n - ell) for p in spec.points), Fraction(0))
    f = monomial(n - ell, d_val * s[n - ell]) \
        - monomial(n, fact * spec.base.a[ell] - s[n - ell] * ratio_sum)
    g = (monomial(n + 1 - ell, d_val * s[n + 1 - ell]) - Poly((0, 1)) * f) / (n + 1)
    return d_val, f, g


class TestReferences:
    def test_universe_sizes(self):
        assert len(REFERENCE_SPECS) == 3552 + 60
        assert sum(spec.base.n == 3 for spec in REFERENCE_SPECS) == 60

    def test_chow_matches_monomial_expansion(self):
        for spec in REFERENCE_SPECS:
            got, want = chow_blowup(spec), reference_chow(spec)
            assert (got.num, got.den) == (want.num, want.den), spec

    def test_d_f_g_matches_monomial_transcription(self):
        for spec in REFERENCE_SPECS:
            for ell in range(1, spec.base.n + 1):
                assert d_f_g(spec, ell) == reference_d_f_g(spec, ell), (spec, ell)

    def test_chow_builds_chi_and_w_once(self, monkeypatch, cold_geometry_cache):
        # chi~ and the w~ columns belong to the geometry: with a cold cache,
        # a spec and its chow_blowup derive each exactly once.
        calls = {"_scaled_chi_tilde": 0, "_w_tilde_columns": 0}

        def counted(name):
            original = getattr(blowup, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(blowup, name, counted(name))
        for make_spec in (lambda: aligned_four_point_spec(3),
                          lambda: random_specs(3, 1, seed=2)[0]):
            blowup._geometry_for.cache_clear()
            calls.update(_scaled_chi_tilde=0, _w_tilde_columns=0)
            chow_blowup(make_spec())
            assert calls == {"_scaled_chi_tilde": 1, "_w_tilde_columns": 1}

    def test_polynomials_and_volume_gap_built_once_per_spec(self):
        spec = aligned_four_point_spec(3)
        assert chi_tilde(spec) is chi_tilde(spec)
        assert w_tilde(spec) is w_tilde(spec)
        assert spec.volume_gap is spec.volume_gap


def exact_bytes(values: dict) -> dict:
    """Each value pickled, list entries one by one."""
    return {key: tuple(map(pickle.dumps, value)) if isinstance(value, (list, tuple))
            else pickle.dumps(value)
            for key, value in values.items()}


def library_derivation(spec) -> dict:
    chow = chow_blowup(spec)
    return {"chi": chi_tilde(spec), "w": w_tilde(spec), "D": spec.volume_gap,
            "futaki": futaki_blowup(spec), "chow": (chow.num, chow.den)}


# chi(k) = k^2 + k + 3: integer-valued, of degree 2.
DEGREE_TWO_BASE = BaseSummary(n=2, a=(1, 1, 3))


def two_bases_one_geometry():
    """One geometry and action over P^2 and over a degree-2 base."""
    points = (BlownPoint(1, Fraction(2), -6), BlownPoint(2, Fraction(-1, 3), 3))
    return [BlowupSpec(base=base, points=points, m=3) for base in (P2, DEGREE_TWO_BASE)]


class TestGeometryCache:
    def test_values_match_per_spec_derivation(self, cold_geometry_cache):
        # Fresh specs: those of REFERENCE_SPECS already hold their geometry.
        specs = [BlowupSpec(base=spec.base, points=spec.points, m=spec.m)
                 for spec in REFERENCE_SPECS] + two_bases_one_geometry()
        for spec in specs:
            want = exact_bytes(blowup_reference.derive(spec))
            assert exact_bytes(library_derivation(spec)) == want, spec
        geometries = {(spec.base, spec.m, spec.alphas) for spec in specs}
        assert cold_geometry_cache.cache_info().misses == len(geometries)

    def test_key_includes_the_base(self, cold_geometry_cache):
        on_p2, on_degree_two = two_bases_one_geometry()
        assert (on_p2.m, on_p2.alphas) == (on_degree_two.m, on_degree_two.alphas)
        assert chi_tilde(on_p2) != chi_tilde(on_degree_two)
        assert on_p2.volume_gap != on_degree_two.volume_gap
        assert cold_geometry_cache.cache_info().misses == 2

    def test_actions_share_the_geometry(self, cold_geometry_cache):
        one, other = aligned_four_point_spec(3), aligned_four_point_spec(3)
        assert chi_tilde(one) is chi_tilde(other)
        assert one._geometry is other._geometry
        info = cold_geometry_cache.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_bound(self, cold_geometry_cache):
        assert cold_geometry_cache.cache_info().maxsize == GEOMETRY_CACHE_SIZE == 128
        for m in range(2, GEOMETRY_CACHE_SIZE + 12):
            BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=m)
        info = cold_geometry_cache.cache_info()
        assert info.misses == GEOMETRY_CACHE_SIZE + 10
        assert info.currsize == GEOMETRY_CACHE_SIZE

    def test_suite_derives_each_geometry_once(self, cold_geometry_cache):
        # The 105 (points, m) configurations of the suite hold 45 geometries
        # (m, alphas): the axes enter only through each action's phi and lambda.
        cases = list(verification.blowup_cases())
        geometries = {(m, tuple(alpha for _, alpha in points)) for _, points, m in cases}
        assert (len({(points, m) for _, points, m in cases}), len(geometries)) == (105, 45)
        assert GEOMETRY_CACHE_SIZE >= 105
        count, mismatches = verification.run_blowup_suite()
        assert (count, mismatches) == (3885, [])
        info = cold_geometry_cache.cache_info()
        assert (info.misses, info.hits) == (45, 3885 - 45)


def geometry_universe():
    """(base, m, alphas) of every REFERENCE_SPECS geometry, of every
    candidate of search_unstable(4, 3), of two more plane bases, of
    degrees 2 and 1, and of geometries with D <= 0."""
    keys = {(spec.base, spec.m, spec.alphas): None for spec in REFERENCE_SPECS}
    keys.update(((P2, c.m, c.alphas), None) for c in p2lab.search_unstable(4, 3))
    # chi(k) = binom(k + 1, 2) + 1: degree 1, as on P^2, so D <= 0 as often.
    degree_one = BaseSummary(n=2, a=(Fraction(1, 2), Fraction(1, 2), 1))
    for base in (P2, projective_space_base(3), DEGREE_TWO_BASE, degree_one):
        for m in range(1, 6):
            for alphas in ((1,), (m,), (2, 1), (1, 1, 1, 1), (3, 2, 2)):
                keys[(base, m, alphas)] = None
    return list(keys)


def exact_fields(geometry) -> tuple:
    return tuple(pickle.dumps(getattr(geometry, name))
                 for name in ("volume_gap", "chi"))


class TestIntegerColumns:
    """The geometry derives its fields and its w~ and point-sum columns on
    integers; the values must equal the Fraction derivation they replaced."""

    def test_specs_with_non_integral_phi(self):
        specs = rational_phi_specs()
        assert len(specs) == 24
        assert all(any(p.phi.denominator > 1 for p in spec.points) for spec in specs)
        assert {spec.base.n for spec in specs} == {2, 3}

    def test_match_fraction_columns(self):
        for spec in REFERENCE_SPECS + rational_phi_specs():
            reference = blowup_reference.FractionGeometry(spec.base, spec.m, spec.alphas)
            phis, lams = [p.phi for p in spec.points], [p.lam for p in spec.points]
            futaki = list(reference.point_sum_futaki(phis, lams))
            assert w_tilde(spec) == reference.w_poly(phis, lams), spec
            assert blowup_reference.point_sum_futaki(spec._geometry, spec._action) == futaki, spec
            assert futaki_blowup(spec) == futaki, spec

    def test_universe_reaches_every_branch(self):
        geometries = [blowup._Geometry(*key) for key in geometry_universe()]
        assert len(geometries) == 372
        assert any(g.volume_gap == 0 for g in geometries)
        assert sum(g.volume_gap < 0 for g in geometries) > 20
        assert any(base is DEGREE_TWO_BASE and g.volume_gap > 0
                   for (base, _, _), g in zip(geometry_universe(), geometries))

    def test_integer_geometry_matches_fraction_geometry(self):
        for base, m, alphas in geometry_universe():
            got = blowup._Geometry(base, m, alphas)
            want = blowup_reference.FractionGeometry(base, m, alphas)
            assert exact_fields(got) == exact_fields(want), (base, m, alphas)
            assert (got._futaki_columns is None) == (want.volume_gap <= 0), (base, m, alphas)
            k = len(alphas)
            for phis, lams in (([Fraction(2)] + [Fraction(-1)] * (k - 1), [-6] + [3] * (k - 1)),
                               ([Fraction((-1) ** j * (j + 1), j + 2) for j in range(k)],
                                [(-1) ** j * (j + 3) for j in range(k)])):
                action = got._integer_action(phis, lams)
                assert got.w_poly(action) == want.w_poly(phis, lams), (base, m, alphas)
                if want.volume_gap > 0:
                    assert blowup_reference.point_sum_futaki(got, action) \
                        == list(want.point_sum_futaki(phis, lams))

    def test_columns_hold_only_ints(self):
        # An integer-valued base makes every column entry and denominator an
        # int: no geometry carries a Fraction into the dot products.
        for key in geometry_universe():
            geometry = blowup._Geometry(*key)
            for columns in (geometry._w_columns, geometry._futaki_columns):
                if columns is None:         # D <= 0: no point sums
                    continue
                pairs, den = columns
                assert type(den) is int and den > 0, key
                assert all(type(v) is int for pair in pairs for column in pair for v in column), key

    def test_action_over_the_least_common_denominator(self):
        phis = (Fraction(1, 2), Fraction(-1, 3), Fraction(-1, 6), Fraction(4))
        assert blowup._Geometry._integer_action(phis, [1, -2, 0, 3]) == ((3, -2, -1, 24), 6, (1, -2, 0, 3))
        assert blowup._Geometry._integer_action((Fraction(2), Fraction(-1)), (-6, 3)) == ((2, -1), 1, (-6, 3))


class TestForcedCrossCheckFailures:
    def test_point_sums_disagree(self, monkeypatch):
        # futaki_blowup and chow_blowup both derive the integer point sums
        # per call and compare them with the pipeline's F_l in one place.
        original = blowup._Geometry._point_sums

        def skewed(self, action):          # the level-1 point sum + 1/D^2
            sums, den = original(self, action)
            shift = den / self.volume_gap**2
            assert shift.denominator == 1
            return [sums[0] + shift.numerator] + sums[1:], den

        monkeypatch.setattr(blowup._Geometry, "_point_sums", skewed)
        spec = aligned_four_point_spec(3)
        messages = []
        for fn in (futaki_blowup, chow_blowup):
            with pytest.raises(CrossCheckError) as info:
                fn(spec)
            messages.append(str(info.value))
        # point-sum F_1 = -1/5 + 1/D^2 with D = 5/9; pipeline F_1 = -1/5
        assert messages == [
            "point-sum invariants disagree with the chi/w pipeline at "
            "a = ['1/2', '3/2', '1'], m = 3, (alpha, phi, lambda) = [(1, '2', -6), "
            "(1, '-1', 3), (1, '-1', 3), (1, '-1', 3)]: point sums ['76/25', '-1/25'], "
            "pipeline ['-1/5', '-1/25']"] * 2

    def test_chow_identity_enforced_through_the_integer_core(self, monkeypatch):
        # chow_blowup and chowcore.report reach the expansion check through
        # the same chowcore._chow_parts: a Chow function skewed there fails
        # both, with one message.
        def skewed(num, den):         # chow + 1
            return RatFn(num + den, den)

        spec = aligned_four_point_spec(3)
        h, w = blowup_reference.pipeline_data(spec)
        monkeypatch.setattr(chowcore, "RatFn", skewed)
        messages = []
        for call in (lambda: chow_blowup(spec), lambda: chowcore.report(h, w)):
            with pytest.raises(CrossCheckError, match="^Chow expansion") as info:
                call()
            messages.append(str(info.value))
        assert messages[0] == messages[1]


@pytest.fixture
def geometry_calls(monkeypatch):
    """Counts of the calls into _geometry_for and into every _Geometry method."""
    calls = {}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        calls[name] = 0
        return wrapper

    monkeypatch.setattr(blowup, "_geometry_for", counted("_geometry_for", blowup._geometry_for))
    for name, value in list(vars(blowup._Geometry).items()):
        if isinstance(value, staticmethod):
            monkeypatch.setattr(blowup._Geometry, name,
                                staticmethod(counted(name, value.__func__)))
        elif callable(value):
            monkeypatch.setattr(blowup._Geometry, name, counted(name, value))
    assert {"_geometry_for", "__init__", "w_poly", "_point_sums"} <= set(calls)
    return calls


# Two calls of futaki_blowup each compare the pipeline's F_l, on the spec's
# w~, with the point sums; w~'s numerators are not derived again.
FUTAKI_CHECKS_OF_TWO_CALLS = {"_check_point_sums": 2, "_point_sums": 2}
# Reading everything twice adds chow_blowup's comparison of its integer
# core's F_l with the point sums: nothing else is derived.
CHECKS_OF_TWO_READS = {"_check_point_sums": 4, "_point_sums": 4}


def calls_made(geometry_calls) -> dict:
    return {name: count for name, count in geometry_calls.items() if count}


def read_everything_twice(spec) -> list:
    values = []
    for _ in range(2):
        chow = chow_blowup(spec)
        values.append((chi_tilde(spec), w_tilde(spec), futaki_blowup(spec), (chow.num, chow.den),
                       [d_f_g(spec, ell) for ell in range(1, spec.base.n + 1)]))
    return values


class TestDerivedAtConstruction:
    """A BlowupSpec derives its data in its constructor; reading it calls
    into no geometry but the point-sum checks of futaki_blowup and
    chow_blowup, and the dataclass fields alone define the spec."""

    SPECS = (lambda: aligned_four_point_spec(3),
             lambda: BlowupSpec(base=projective_space_base(3), m=4, points=(
                 BlownPoint(2, Fraction(1, 2), -3), BlownPoint(1, Fraction(-1, 3), 4))))

    @pytest.mark.parametrize("make_spec", SPECS)
    def test_reads_call_no_geometry(self, geometry_calls, make_spec):
        spec = make_spec()
        assert geometry_calls["_geometry_for"] == 1 and geometry_calls["_point_sums"] == 0
        geometry_calls.update(dict.fromkeys(geometry_calls, 0))
        first, second = read_everything_twice(spec)
        assert first == second
        assert calls_made(geometry_calls) == CHECKS_OF_TWO_READS

    @pytest.mark.parametrize("make_spec", SPECS)
    def test_one_integer_action_per_spec(self, geometry_calls, make_spec):
        """The phi are brought to one denominator once, in the constructor;
        w~, the point sums and adiabatic all read that action."""
        spec = make_spec()
        assert geometry_calls["_integer_action"] == geometry_calls["w_poly"] == 1
        assert geometry_calls["_point_sums"] == 0
        assert adiabatic(spec) == blowup_reference.adiabatic(spec)
        read_everything_twice(spec)
        assert geometry_calls["_integer_action"] == 1

    def test_equality_hash_and_repr_are_the_fields(self):
        spec = aligned_four_point_spec(3)
        # as printed before the spec held its derived data as attributes
        assert repr(spec) == (
            "BlowupSpec(base=BaseSummary(n=2, a=(Fraction(1, 2), Fraction(3, 2), "
            "Fraction(1, 1)), polystable_certified=True), points=(BlownPoint(alpha=1, "
            "phi=Fraction(2, 1), lam=-6), BlownPoint(alpha=1, phi=Fraction(-1, 1), lam=3), "
            "BlownPoint(alpha=1, phi=Fraction(-1, 1), lam=3), BlownPoint(alpha=1, "
            "phi=Fraction(-1, 1), lam=3)), m=3)")
        assert hash(spec) == hash((spec.base, spec.points, spec.m))
        assert spec == aligned_four_point_spec(3) and spec != aligned_four_point_spec(4)
        assert [field.name for field in dataclasses.fields(BlowupSpec)] == ["base", "points", "m"]
        assert not [name for name, value in vars(BlowupSpec).items()
                    if isinstance(value, (property, functools.cached_property))]

    @pytest.mark.parametrize("make_spec", SPECS)
    def test_pickle_round_trip(self, geometry_calls, make_spec):
        spec = make_spec()
        loaded = pickle.loads(pickle.dumps(spec))
        geometry_calls.update(dict.fromkeys(geometry_calls, 0))
        got = read_everything_twice(loaded)
        assert calls_made(geometry_calls) == CHECKS_OF_TWO_READS
        assert loaded == spec and hash(loaded) == hash(spec) and repr(loaded) == repr(spec)
        assert got == read_everything_twice(spec)

    @pytest.mark.parametrize("make_spec", SPECS)
    def test_pickles_as_its_fields(self, make_spec):
        spec = make_spec()
        data = pickle.dumps(spec)
        # the fields alone; with the derived attributes the aligned spec took 1 148 bytes
        assert len(data) < 400
        loaded = pickle.loads(data)
        assert loaded._geometry is spec._geometry
        assert loaded == spec

    def test_replace_derives_afresh(self, geometry_calls):
        spec = aligned_four_point_spec(3)
        replaced, fresh = dataclasses.replace(spec, m=4), aligned_four_point_spec(4)
        geometry_calls.update(dict.fromkeys(geometry_calls, 0))
        assert w_tilde(replaced) == w_tilde(fresh) != w_tilde(spec)
        assert replaced._geometry is fresh._geometry is not spec._geometry
        assert futaki_blowup(replaced) == futaki_blowup(fresh)
        assert (replaced.volume_gap, replaced.alphas) == (fresh.volume_gap, fresh.alphas)
        assert calls_made(geometry_calls) == FUTAKI_CHECKS_OF_TWO_CALLS


class TestInexactInputRefused:
    def test_blown_point_float_phi(self):
        with pytest.raises(TypeError):
            BlownPoint(1, 0.1, 0)

    def test_base_summary_float_coefficient(self):
        with pytest.raises(TypeError):
            BaseSummary(n=2, a=(0.5, Fraction(3, 2), 1))

    # Decimal strings and bools were once coerced by Fraction().
    @pytest.mark.parametrize("bad", ["1e-1", "1", True])
    def test_blown_point_phi_strings_and_bools(self, bad):
        with pytest.raises(TypeError):
            BlownPoint(1, bad, 0)

    @pytest.mark.parametrize("bad", ["0.5", "1", True])
    def test_base_summary_strings_and_bools(self, bad):
        with pytest.raises(TypeError):
            BaseSummary(2, (Fraction(1, 2), Fraction(3, 2), bad))

    @pytest.mark.parametrize("field,value", [
        ("alpha", 1.0), ("alpha", True), ("lam", 0.0), ("lam", True)])
    def test_blown_point_int_fields(self, field, value):
        with pytest.raises(TypeError, match=f"^{field}"):
            BlownPoint(**{"alpha": 1, "phi": 0, "lam": 0, field: value})

    @pytest.mark.parametrize("m", [2.0, True])
    def test_spec_twist_must_be_int(self, m):
        degree_two = BaseSummary(n=2, a=(1, 1, 1))      # D = 2 - 1 > 0 even at m = 1
        with pytest.raises(TypeError, match="^m must"):
            BlowupSpec(base=degree_two, points=(BlownPoint(1, 0, 0),), m=m)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_base_dimension_must_be_int(self, n):
        with pytest.raises(TypeError, match="^n must"):
            BaseSummary(n=n, a=P2.a)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_base_certification_must_be_bool(self, flag):
        with pytest.raises(TypeError, match="^polystable_certified"):
            BaseSummary(n=2, a=P2.a, polystable_certified=flag)

    @pytest.mark.parametrize("base,points,field", [
        ("P2", (BlownPoint(1, 0, 0),), "^base must be a BaseSummary"),
        (P2, ((1, Fraction(1), 0),), r"^points\[0\] must be a BlownPoint"),
        (P2, (BlownPoint(1, 0, 0), (1, 0, 0)), r"^points\[1\] must be a BlownPoint")])
    def test_spec_base_and_points_typed(self, base, points, field):
        with pytest.raises(TypeError, match=field):
            BlowupSpec(base=base, points=points, m=3)

    @pytest.mark.parametrize("ell", [True, 1.0, Fraction(1)])
    def test_d_f_g_level_typed(self, ell):
        with pytest.raises(TypeError, match="^ell must"):
            d_f_g(aligned_four_point_spec(3), ell)

    @pytest.mark.parametrize("fn", [chi_tilde, w_tilde, futaki_blowup, chow_blowup, adiabatic,
                                    lambda spec: d_f_g(spec, 1)],
                             ids=["chi_tilde", "w_tilde", "futaki_blowup", "chow_blowup",
                                  "adiabatic", "d_f_g"])
    @pytest.mark.parametrize("bad", [None, "x", (P2, (BlownPoint(1, 0, 0),), 2)],
                             ids=["None", "str", "tuple"])
    def test_public_functions_refuse_a_non_spec(self, fn, bad):
        # chi_tilde(None), futaki_blowup('x') and the rest once raised AttributeError.
        with pytest.raises(TypeError, match="^spec must be a BlowupSpec, got "):
            fn(bad)

    def test_spec_is_checked_before_the_level(self):
        with pytest.raises(TypeError, match="^spec must"):
            d_f_g(None, 0.5)

    @pytest.mark.parametrize("args,field", [
        (((1.5, -1.5, 0), ((0, 1),), 3, 2), "weights"),
        (((True, -1, 0), ((0, 1),), 3, 2), "weights"),
        (((1, -1, 0), ((0, 1.0),), 3, 2), "points"),
        (((1, -1, 0), ((True, 1),), 3, 2), "points"),
        (((1, -1, 0), ((0, 1),), 3.0, 2), "m"),
        (((1, -1, 0), ((0, 1),), 3, True), "k"),
        # Types are checked before the points are sorted: no comparison error.
        (((1, -1, 0), [(0, "a"), (0, 2)], 3, 1), r"points\[0\]\[1\] must be an int, got 'a'$"),
        (((1, -1, 0), [(0, 1), (None, 2)], 3, 1), r"points\[1\]\[0\] must be an int, got None$"),
        # Types come before lengths, and m and k before the weights and points.
        (((1.0, -1), [(0, 1)], 2, 1), r"weights\[0\] must be an int"),
        (((1, -1, 0), [(0, 1, 2.0)], 2, 1), r"points\[0\]\[2\] must be an int"),
        (((1, -1), [(0, 1.5)], 2.0, 1), "m must be an int"),
        # A generator's points after one that is not iterable are not skipped.
        (((1, -1, 0), iter([(0, 1), 5, (1, 1.0)]), 3, 1), "'int' object is not iterable"),
    ])
    def test_oracle_p2_int_arguments(self, args, field):
        with pytest.raises(TypeError, match=f"^{field}"):
            oracle_p2(*args)


class TestBase:
    def test_projective_space_is_the_linear_product(self):
        for n in range(2, 9):
            product = Poly.one()
            for i in range(1, n + 1):
                product = product * Poly((i, 1))
            assert hilbert_poly(projective_space_base(n)) == product / math.factorial(n)

    def test_projective_space_coefficients(self):
        assert P2.a == (Fraction(1, 2), Fraction(3, 2), 1)
        assert P2.degree == 1
        p3 = projective_space_base(3)
        for k in range(1, 6):
            assert hilbert_poly(p3).evaluate(k) == (k + 1) * (k + 2) * (k + 3) // 6

    def test_base_cache_is_bounded(self):
        for n in range(2, GENERATOR_CACHE_SIZE + 10):
            projective_space_base(n)
        info = blowup._projective_space_base.cache_info()
        assert info.maxsize == GENERATOR_CACHE_SIZE
        assert info.currsize <= GENERATOR_CACHE_SIZE
        assert projective_space_base(2) == P2

    # 2.0 once failed naming "3.0", a value never passed, and -1 failed with
    # a message of its own.
    @pytest.mark.parametrize("n, error, message", [
        (2.0, TypeError, "n must be an int, got 2.0"),
        (True, TypeError, "n must be an int, got True"),
        ("2", TypeError, "n must be an int, got '2'"),
        (0, ValueError, "base dimension must be >= 2"),
        (1, ValueError, "base dimension must be >= 2"),
        (-1, ValueError, "base dimension must be >= 2"),
    ], ids=["float", "bool", "str", "zero", "one", "negative"])
    def test_projective_space_refusals(self, n, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            projective_space_base(n)

    @pytest.mark.parametrize("base", [
        P2, DEGREE_TWO_BASE, BaseSummary(n=3, a=(1, 2, 3, 4), polystable_certified=False)])
    def test_hash_equality_repr_and_pickle_are_the_dataclass_ones(self, base):
        """The hash is taken once, at construction, as the dataclass's
        hash((n, a, polystable_certified)); equality, repr and the pickled
        state stay the fields'."""
        fields = (base.n, base.a, base.polystable_certified)
        assert hash(base) == hash(fields)
        twin = BaseSummary(*fields)
        assert twin == base and twin is not base and hash(twin) == hash(base)
        assert base != BaseSummary(base.n, base.a, not base.polystable_certified)
        assert repr(base) == (f"BaseSummary(n={base.n!r}, a={base.a!r}, "
                              f"polystable_certified={base.polystable_certified!r})")
        state = base.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2]
        assert state == dict(zip(("n", "a", "polystable_certified"), fields))
        loaded = pickle.loads(pickle.dumps(base))
        assert loaded == base and hash(loaded) == hash(base)
        assert pickle.dumps(loaded) == pickle.dumps(base)

    def test_plane_repr(self):
        assert repr(P2) == ("BaseSummary(n=2, a=(Fraction(1, 2), Fraction(3, 2), Fraction(1, 1)), "
                            "polystable_certified=True)")

    def test_validation(self):
        with pytest.raises(ValueError):
            BaseSummary(n=1, a=(1, 1))
        with pytest.raises(ValueError):
            BaseSummary(n=2, a=(0, 1, 1))

    def test_volume_gap_guard(self):
        with pytest.raises(DegenerateInputError):
            BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=1)

    def test_uncertified_base_rejected(self):
        shaky = BaseSummary(n=2, a=P2.a, polystable_certified=False)
        with pytest.raises(ValueError):
            BlowupSpec(base=shaky, points=(BlownPoint(1, Fraction(0), 0),), m=2)


# (coefficients, the first chi(j) that is no integer) of bases that are
# refused: chi(k) = sum_l a_l k^{n-l} is no Hilbert polynomial.
NOT_INTEGER_VALUED = [
    ((Fraction(1, 3), Fraction(1, 5), Fraction(2, 7)), "chi(0) = 2/7"),   # 2! a_l = 2/3, 2/5, 4/7
    ((1, Fraction(1, 2), 3), "chi(1) = 9/2"),
]


def binomial_basis_chi(c) -> Poly:
    """sum_i c_i binom(k, i) as a polynomial in k."""
    chi, falling = Poly(), Poly.one()
    for i, coeff in enumerate(c):
        chi = chi + falling * Fraction(coeff, math.factorial(i))
        falling = falling * Poly((-i, 1))
    return chi


def base_of(chi: Poly, n: int) -> BaseSummary:
    return BaseSummary(n=n, a=tuple(chi.coefficient(n - ell) for ell in range(n + 1)))


class TestIntegerValuedBase:
    """A base is taken only with an integer-valued chi, so that every n! a_l
    is an integer and the blowup geometry runs on integers alone."""

    @pytest.mark.parametrize("a, first", NOT_INTEGER_VALUED, ids=["two-sevenths", "nine-halves"])
    def test_refused(self, a, first):
        message = f"the Hilbert polynomial must be integer-valued: {first}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BaseSummary(n=2, a=a)

    @pytest.mark.parametrize("a, first", NOT_INTEGER_VALUED, ids=["two-sevenths", "nine-halves"])
    def test_unpickling_refused_state_raises(self, a, first):
        # A pickle written with the refused state, bypassing the constructor:
        # loading it runs __setstate__, which reruns every check.
        forged = object.__new__(BaseSummary)
        forged.__dict__.update(n=2, a=tuple(map(Fraction, a)), polystable_certified=True)
        blob = pickle.dumps(forged)
        with pytest.raises(ValueError, match=re.escape(first)):
            pickle.loads(blob)

    def test_earlier_checks_come_first(self):
        with pytest.raises(ValueError, match="^expected 3 Hilbert coefficients$"):
            BaseSummary(n=2, a=(Fraction(1, 3), Fraction(1, 5)))
        with pytest.raises(ValueError, match="^leading Hilbert coefficient must be positive$"):
            BaseSummary(n=2, a=(Fraction(-1, 3), Fraction(1, 5), Fraction(2, 7)))

    def test_accepted(self):
        bases = [projective_space_base(n) for n in range(2, 7)]
        bases += [BaseSummary(n=2, a=(1, 1, 1)), BaseSummary(n=3, a=(1, 2, 3, 4))]
        for base in bases:
            assert all((math.factorial(base.n) * c).denominator == 1 for c in base.a), base

    @given(st.integers(2, 6).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n), st.integers(1, 50))),
        st.data())
    @settings(max_examples=100, deadline=None)
    def test_binomial_basis(self, coefficients, data):
        """sum_i c_i binom(k, i) with integer c_i (c_n > 0) is accepted;
        adding r binom(k, i) with r no integer makes chi(i) the first value
        that is no integer, and the base is refused naming it."""
        lower, top = coefficients
        c = lower + [top]
        n = len(lower)
        chi = binomial_basis_chi(c)
        base = base_of(chi, n)
        assert all((math.factorial(n) * a).denominator == 1 for a in base.a)
        i = data.draw(st.integers(0, n), label="i")
        d = data.draw(st.integers(2, 12), label="d")
        r = Fraction(data.draw(st.integers(1, d - 1), label="p"), d) * data.draw(st.sampled_from((1, -1)))
        bumped = chi + binomial_basis_chi([0] * i + [r])     # a_0 stays positive: top >= 1 > |r|
        with pytest.raises(ValueError, match=re.escape(f": chi({i}) = {bumped.evaluate(i)}") + "$"):
            base_of(bumped, n)


class TestChiTilde:
    def test_one_point_m2(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=2)
        assert chi_tilde(spec) == Poly((1, Fraction(5, 2), Fraction(3, 2)))

    def test_degenerate_identity_still_holds(self):
        # m = 1, alpha = 1 exhausts the volume (D = 0): not a polarization,
        # but the counting identity is still exact.
        assert blowup._geometry_for(P2, 1, (1,)).chi == Poly((1, 1))

    def test_three_points_m3(self):
        spec = BlowupSpec(base=P2,
                          points=tuple(BlownPoint(1, Fraction(0), 0) for _ in range(3)),
                          m=3)
        assert chi_tilde(spec) == Poly((1, 3, 3))

    def test_difference_form(self):
        # chi~(k) == chi(mk) - sum_j binom(n + alpha_j k - 1, alpha_j k - 1)
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 4)
            base = projective_space_base(n)
            count = rng.randint(1, 3)
            alphas = [rng.randint(1, 3) for _ in range(count)]
            m = rng.randint(sum(alphas), sum(alphas) + 4)
            got = blowup._geometry_for(base, m, tuple(alphas)).chi
            want = compose_linear(hilbert_poly(base), m)
            for a in alphas:
                want = want - binom_poly_in_k(a, n)
            assert got == want


class TestQuotientWeight:
    def test_zero_data(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=2)
        assert blowup_reference.quotient_weight(spec, 3) == 0

    def test_phi_block(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(1), 0),), m=2)
        # alpha*k = 2: -binom(3,1) * mk * phi = -3 * 4 = -12
        assert blowup_reference.quotient_weight(spec, 2) == -12

    def test_lambda_block(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 1),), m=2)
        # -binom(3, 0) * lambda = -1
        assert blowup_reference.quotient_weight(spec, 2) == -1

    def test_w_tilde_is_minus_quotient(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 3)
            base = projective_space_base(n)
            count = rng.randint(1, 3)
            points = tuple(
                BlownPoint(alpha=rng.randint(1, 2),
                           phi=Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                           lam=rng.randint(-5, 5))
                for _ in range(count))
            m = sum(p.alpha for p in points) + rng.randint(1, 4)
            spec = BlowupSpec(base=base, points=points, m=m)
            w = w_tilde(spec)
            for k in range(1, 11):
                assert w.evaluate(k) == -blowup_reference.quotient_weight(spec, k)


class TestWTilde:
    def test_zero_data(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(2, Fraction(0), 0),), m=3)
        assert w_tilde(spec).is_zero

    def test_zero_constant_term(self):
        spec = aligned_four_point_spec(3)
        assert w_tilde(spec).coefficient(0) == 0

    def test_aligned_four_point_m3(self):
        spec = aligned_four_point_spec(3)
        assert w_tilde(spec) == Poly((0, Fraction(-1, 2), Fraction(-3, 2), -1))


class TestDFG:
    def test_volume_gap(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=2)
        d, _, _ = d_f_g(spec, 1)
        assert d == Fraction(3, 4)

    def test_f1_g1_shape(self):
        spec = aligned_four_point_spec(3)
        d, f1, g1 = d_f_g(spec, 1)
        ratio_sum = Fraction(4, 3)          # sum alpha_i/m
        assert d == Fraction(5, 9)
        assert f1 == Poly((0, d)) - monomial(2, 3 - ratio_sum)
        assert g1 == monomial(3, (3 - ratio_sum) / 3)

    def test_ell_range(self):
        spec = aligned_four_point_spec(3)
        with pytest.raises(ValueError):
            d_f_g(spec, 0)
        with pytest.raises(ValueError):
            d_f_g(spec, 3)


class TestFutakiBlowup:
    def test_zero_data(self):
        spec = BlowupSpec(base=P2,
                          points=(BlownPoint(1, Fraction(0), 0),
                                  BlownPoint(2, Fraction(0), 0)),
                          m=4)
        assert futaki_blowup(spec) == [0, 0]

    def test_aligned_four_points(self):
        assert futaki_blowup(aligned_four_point_spec(3)) == [Fraction(-1, 5), Fraction(-1, 25)]

    def test_matches_generic_pipeline(self):
        spec = aligned_four_point_spec(5, (2, 1, 1, 1))
        h = chowcore.HilbertData.from_poly(chi_tilde(spec), 2)
        w = chowcore.WeightData.from_poly(w_tilde(spec), 2)
        assert futaki_blowup(spec) == chowcore.futaki_invariants(h, w)

    def test_checked_on_integers_matches_the_pipeline_route(self):
        # futaki_blowup runs the geometry's integer check; the reference is
        # the Poly-backed chowcore.futaki_invariants against the point sums.
        specs = list(criterion5_specs())
        assert len(specs) == 3552
        for spec in specs:
            want = blowup_reference.futaki_by_pipeline(spec)
            sums, den = spec._geometry.checked_futaki_parts(spec._action)
            assert [Fraction(total, den) for total in sums] == want, spec
            assert futaki_blowup(spec) == want, spec
        for spec in REFERENCE_SPECS + rational_phi_specs():
            assert futaki_blowup(spec) == blowup_reference.futaki_by_pipeline(spec), spec

    def test_pipeline_side_disagreement_is_named(self, monkeypatch):
        real = chowcore._futaki_parts

        def skewed(chi, b, d_b):
            # The pipeline's F_1 moved by 1/75, whatever denominator w~'s
            # numerators come over.
            (first, *rest), den = real(chi, b, d_b)
            return [75 * first + den, *(75 * x for x in rest)], 75 * den

        monkeypatch.setattr(chowcore, "_futaki_parts", skewed)
        with pytest.raises(CrossCheckError) as info:
            futaki_blowup(aligned_four_point_spec(3))
        assert str(info.value) == (
            "point-sum invariants disagree with the chi/w pipeline at "
            "a = ['1/2', '3/2', '1'], m = 3, (alpha, phi, lambda) = [(1, '2', -6), "
            "(1, '-1', 3), (1, '-1', 3), (1, '-1', 3)]: point sums ['-1/5', '-1/25'], "
            "pipeline ['-14/75', '-1/25']")

    def test_scaling_homogeneity(self):
        # scaling (m, alphas) by c leaves F_1 fixed and scales F_l by c^{1-l}
        spec1 = aligned_four_point_spec(4, (2, 1, 1, 1))
        rng = random.Random(3)
        for c in (2, 3, 5):
            spec2 = aligned_four_point_spec(4 * c, (2 * c, c, c, c))
            f1 = futaki_blowup(spec1)
            f2 = futaki_blowup(spec2)
            assert f2 == [v * Fraction(1, c) ** (ell - 1)
                          for ell, v in enumerate(f1, start=1)]


class TestChowBlowup:
    def test_zero_data(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=2)
        assert chow_blowup(spec).is_zero

    def test_identity_with_pipeline(self):
        spec = aligned_four_point_spec(3)
        h = chowcore.HilbertData.from_poly(chi_tilde(spec), 2)
        w = chowcore.WeightData.from_poly(w_tilde(spec), 2)
        assert chow_blowup(spec) == chowcore.chow_weight_fn(h, w)

    def test_vanishes_iff_futaki_vanish(self):
        zero = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 0),), m=2)
        assert chow_blowup(zero).is_zero and futaki_blowup(zero) == [0, 0]
        nonzero = aligned_four_point_spec(3)
        assert not chow_blowup(nonzero).is_zero
        assert any(f != 0 for f in futaki_blowup(nonzero))


class TestAdiabatic:
    def test_zero_phi(self):
        spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(0), 5),), m=2)
        leading, w_cw = adiabatic(spec)
        assert leading == 0 and w_cw == 0

    def test_single_point_formula(self):
        for m in (2, 5, 9):
            spec = BlowupSpec(base=P2, points=(BlownPoint(1, Fraction(1), 0),), m=m)
            leading, w_cw = adiabatic(spec)
            assert leading == Fraction(1, m) / P2.degree
            assert w_cw == 1

    def test_error_term_bounded_over_sweep(self):
        # m^2 (F_1 - leading) stays inside a fixed interval on m = 10..40
        lo, hi = Fraction(2), Fraction(3)
        for m in range(10, 41):
            spec = aligned_four_point_spec(m)
            f1 = futaki_blowup(spec)[0]
            leading, _ = adiabatic(spec)
            err = m**2 * (f1 - leading)
            assert lo <= err <= hi


def rational_phi_config_spec():
    return cli._blowup_from_config(cli._load_config(str(CONFIGS / "blowup_rational_phi.json")))


class TestFractionReferences:
    """adiabatic and chowcore.chow_weight_fn, now on integer numerators,
    against the Fraction forms they replaced, bit for bit: the
    criterion-5 universe, the seeded blowups of P^3, phi over mixed
    denominators, the spec of configs/blowup_rational_phi.json, and a base
    of degree 2."""

    SPECS = (REFERENCE_SPECS + rational_phi_specs() + [rational_phi_config_spec()]
             + two_bases_one_geometry())

    def test_universe(self):
        assert len(self.SPECS) == 3552 + 60 + 24 + 1 + 2
        assert {spec.base.degree for spec in self.SPECS} == {1, 2}
        assert sum(len({p.phi.denominator for p in spec.points}) > 1 for spec in self.SPECS) > 20

    def test_adiabatic(self):
        for spec in self.SPECS:
            got, want = adiabatic(spec), blowup_reference.adiabatic(spec)
            assert pickle.dumps(got) == pickle.dumps(want), spec

    def test_chow_weight_fn(self):
        for spec in self.SPECS:
            data = blowup_reference.pipeline_data(spec)
            got = chowcore.chow_weight_fn(*data)
            want = blowup_reference.chow_weight_fn(*data)
            assert pickle.dumps((got.num, got.den)) == pickle.dumps((want.num, want.den)), spec


# (arguments, error, message) of each refusal of oracle_p2 on int arguments.
ORACLE_REFUSALS = [
    (((1, 0, 0), [(0, 1)], 2, 1), ValueError, "^weight vector must have trace zero$"),
    (((1, -1, 0), [(0, 1), (0, 1)], 3, 1), ValueError, "^blown points must be distinct$"),
    (((1, -1, 0), [(3, 1)], 2, 1), ValueError,
     "^only the three coordinate points of the plane are supported$"),
    (((1, -1, 0), [(0, 0)], 2, 1), ValueError, "^multiplicities must be >= 1$"),
    (((1, -1, 0), [(0, 2)], 1, 1), ValueError,
     r"^exactness regime requires m >= sum\(alpha\) = 2$"),
    (((1, -1, 0), [(0, 1)], 2, 0), ValueError, "^k must be >= 1$"),
    (((1, -1, 0), [(0, 1)], 101, 100), ResourceLimitError,
     "^oracle guard exceeded: mk = 10100 > 10000$"),
    # Several faults at once: the first check in the documented order fires.
    (((1, 0, 0), [(3, 0), (3, 0)], 1, 0), ValueError, "^weight vector must have trace zero$"),
    (((1, -1, 0), [(3, 0), (3, 0)], 1, 0), ValueError, "^only the three coordinate"),
    (((1, -1, 0), [(0, 0), (0, 0)], 1, 0), ValueError, "^blown points must be distinct$"),
    (((1, -1, 0), [(0, 0)], 0, 0), ValueError, "^multiplicities must be >= 1$"),
    (((1, -1, 0), [(0, 2)], 1, 0), ValueError, "^exactness regime"),
]


class TestOracleP2:
    def test_no_points_sl_weight(self):
        for k in range(1, 5):
            dim, weight = oracle_p2((3, -1, -2), [], 1, k)
            assert dim == (k + 1) * (k + 2) // 2
            assert weight == 0

    def test_dimension_example(self):
        assert oracle_p2((0, 0, 0), [(0, 1)], 2, 3)[0] == 22

    def test_weight_example(self):
        dim, weight = oracle_p2((2, -1, -1), [(0, 1)], 2, 1)
        assert dim == 5
        # five admissible degree-2 monomials, each contributing -(2e0 - e1 - e2)
        hand = 0
        for e0 in range(2):
            for e1 in range(2 - e0 + 1):
                e2 = 2 - e0 - e1
                hand += -(2 * e0 - e1 - e2)
        assert weight == hand

    def test_matches_closed_forms(self):
        weights = (2, -1, -1)
        points = [(0, 1), (1, 2)]
        m = 4
        alphas = [1, 2]
        phis = [Fraction(2), Fraction(-1)]
        lams = [-6, 3]
        geometry = blowup._geometry_for(P2, m, tuple(alphas))
        chi, w = geometry.chi, geometry.w_poly(geometry._integer_action(phis, lams))
        for k in range(1, 9):
            assert oracle_p2(weights, points, m, k) == (chi.evaluate(k), w.evaluate(k))

    def test_validation(self):
        for args, error, message in ORACLE_REFUSALS:
            with pytest.raises(error, match=message):
                oracle_p2(*args)

    # A short or long weight vector was once truncated by zip: both read (5, 2).
    @pytest.mark.parametrize("weights,length", [((1, -1), 2), ((1, -1, 0, 0), 4), ((), 0)])
    def test_weight_vector_needs_three_entries(self, weights, length):
        with pytest.raises(ValueError, match=f"^weights must have three entries, got {length}$"):
            oracle_p2(weights, [(0, 1)], 2, 1)

    @pytest.mark.parametrize("points,index", [
        ([(0, 1, 2)], 0), ([(0,)], 0), ([(0, 1), (1, 1, 1)], 1), ([(0, 1), ()], 1)])
    def test_point_needs_axis_and_alpha(self, points, index):
        with pytest.raises(ValueError, match=rf"^points\[{index}\] must be an \(axis, alpha\) pair"):
            oracle_p2((1, -1, 0), points, 3, 1)

    def test_int_subclasses_other_than_bool_accepted(self):
        class Small(enum.IntEnum):
            MINUS, ZERO, ONE, TWO = -1, 0, 1, 2

        got = oracle_p2((Small.ONE, Small.MINUS, Small.ZERO), [(Small.ZERO, Small.ONE)],
                        Small.TWO, Small.ONE)
        assert got == oracle_p2((1, -1, 0), [(0, 1)], 2, 1) == (5, 2)
        assert type(got[0]) is int and type(got[1]) is int

    def test_sequences_of_any_kind(self):
        want = oracle_p2((2, -1, -1), ((0, 1), (1, 2)), 4, 3)
        assert oracle_p2([2, -1, -1], [[1, 2], [0, 1]], 4, 3) == want
        assert oracle_p2(iter((2, -1, -1)), iter([(1, 2), (0, 1)]), 4, 3) == want


class TestOracleCache:
    def test_bound_keeps_the_suite_keys(self):
        stats = blowup._admissible_monomial_stats
        assert stats.cache_info().maxsize == ORACLE_CACHE_SIZE >= 840
        stats.cache_clear()
        weight_vectors = []
        for weights, points, m in verification.blowup_cases():
            if weights not in weight_vectors:
                if len(weight_vectors) == 2:
                    break
                weight_vectors.append(weights)
            for k in range(1, verification.BLOWUP_KMAX + 1):
                oracle_p2(weights, points, m, k)
        info = stats.cache_info()
        assert (info.misses, info.hits) == (840, 840)

    def test_cache_stays_bounded(self):
        stats = blowup._admissible_monomial_stats
        stats.cache_clear()
        for m in range(1, 41):
            for k in range(1, 41):
                oracle_p2((1, -1, 0), [], m, k)
        info = stats.cache_info()
        assert info.misses == 1600 and info.currsize == ORACLE_CACHE_SIZE
