"""Plane blowups: fixed-point data, vanishing loci, ampleness, search."""
import functools
import itertools
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import pytest

from chowstab import blowup, p2lab
from chowstab.errors import CrossCheckError, ResourceLimitError
from chowstab.exactalg import MPoly, Poly
from exact_reference import is_homogeneous, partial, total_degree
from chowstab.p2lab import (
    PSI_VARIABLES,
    SEARCH_MAX_GRID_BOUND,
    SEARCH_MAX_SCALE_BOUND,
    Candidate,
    DiagAction,
    PointConfig,
    _line_directions,
    ample_check,
    fixed_point_data,
    psi_reconstruct,
    search_unstable,
    three_point_loci,
    triple_point_check,
)


def reference_psis():
    """Independent transcription of the two published vanishing-locus polynomials."""
    m, a1, a2, a3, a4 = MPoly.generators(PSI_VARIABLES)

    def alternating(d):
        return 2 * a1**d - a2**d - a3**d - a4**d

    psi1 = (alternating(1) * (m**3 - 3 * a1**2 * m)
            - alternating(2) * (3 * m**2 - 3 * a1 * m)
            + alternating(3) * (3 * m - a1 - a2 - a3 - a4))
    psi2 = (alternating(1) * (m**2 - a1**2 - a2**2 - a3**2 - a4**2)
            - 2 * alternating(2) * m
            + 2 * alternating(3))
    return psi1, psi2


class TestFixedPointData:
    def test_vertex_of_heavy_weight(self):
        assert fixed_point_data(DiagAction((2, -1, -1)), {0}) == (2, -6)

    def test_point_on_fixed_line(self):
        assert fixed_point_data(DiagAction((2, -1, -1)), {1, 2}) == (-1, 3)

    def test_trivial_action(self):
        assert fixed_point_data(DiagAction((0, 0, 0)), {1}) == (0, 0)

    def test_non_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_data(DiagAction((1, -1, 0)), {0, 1})

    def test_trace_enforced(self):
        with pytest.raises(ValueError):
            DiagAction((1, 1, 1))

    @pytest.mark.parametrize("weights", [(1.0, -1, 0), (True, -1, 0), (1, -1, Fraction(0))])
    def test_weights_must_be_int(self, weights):
        with pytest.raises(TypeError, match=r"^w\[\d\] must"):
            DiagAction(weights)

    @pytest.mark.parametrize("action", [(1, -1, 0), None, "diag(1, -1, 0)"])
    def test_action_must_be_a_diag_action(self, action):
        with pytest.raises(TypeError, match="^action must be a DiagAction"):
            fixed_point_data(action, {0})


class TestPointConfig:
    def test_blocks_become_a_tuple_of_frozensets(self):
        config = PointConfig("three_general", [{0}, [1], (2,)])
        assert config.blocks == (frozenset({0}), frozenset({1}), frozenset({2}))
        assert config == PointConfig.three_general()
        assert hash(config) == hash(PointConfig.three_general())
        assert psi_reconstruct(config, DiagAction((1, -1, 0))) == \
            psi_reconstruct(PointConfig.three_general(), DiagAction((1, -1, 0)))

    @pytest.mark.parametrize("blocks", [
        ({0}, set(), {2}),
        ({0}, {1}, {3}),
        ({-1},),
    ])
    def test_block_outside_the_plane_refused(self, blocks):
        with pytest.raises(ValueError, match="nonempty subset"):
            PointConfig("two_points", blocks)

    @pytest.mark.parametrize("kind, blocks", [
        ("four_points_three_aligned", ({0},)),
        ("four_points_three_aligned", ({0}, {1}, {2}, {1, 2})),
        ("three_general", ({0}, {1}, {1, 2})),
    ])
    def test_named_kind_must_carry_its_blocks(self, kind, blocks):
        with pytest.raises(ValueError, match=f"^a {kind} configuration needs the blocks of its classmethod"):
            PointConfig(kind, blocks)

    def test_other_kinds_stay_legal(self):
        config = PointConfig("two_points", ({1}, {2}))
        psi1, psi2 = psi_reconstruct(config, DiagAction((0, 1, -1)))
        assert psi1.variables == psi2.variables == ("m", "a1", "a2")


class TestPsiReconstruct:
    def test_matches_reference_exactly(self):
        psi1, psi2 = psi_reconstruct(PointConfig.four_points_three_aligned())
        ref1, ref2 = reference_psis()
        assert psi1 == ref1
        assert psi2 == ref2

    def test_homogeneous_degrees(self):
        psi1, psi2 = psi_reconstruct(PointConfig.four_points_three_aligned())
        assert is_homogeneous(psi1) and total_degree(psi1) == 4
        assert is_homogeneous(psi2) and total_degree(psi2) == 3

    def test_single_multiplicity_restriction(self):
        psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
        m, a1 = MPoly.generators(("m", "a1"))
        zero = MPoly.zeros(("m", "a1"))
        restricted = psi1.evaluate({"m": m, "a1": a1, "a2": zero, "a3": zero, "a4": zero})
        assert restricted == 2 * a1 * (m - a1) ** 3

    def test_base_point_value(self):
        psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
        assert psi1.evaluate(dict(zip(PSI_VARIABLES, (1, 1, 0, 0, 0)))) == 0

    def test_three_general_requires_an_action(self):
        with pytest.raises(ValueError, match="action is required"):
            psi_reconstruct(PointConfig.three_general())

    def test_action_must_fix_the_points(self):
        with pytest.raises(ValueError, match="not fixed"):
            psi_reconstruct(PointConfig.four_points_three_aligned(), DiagAction((1, -1, 0)))
        with pytest.raises(TypeError):
            psi_reconstruct(PointConfig.four_points_three_aligned(), (2, -1, -1))

    def test_default_action_of_the_four_point_family(self):
        config = PointConfig.four_points_three_aligned()
        assert psi_reconstruct(config, DiagAction((2, -1, -1))) == psi_reconstruct(config)

    @pytest.mark.parametrize("weights, loci, off_locus", [
        ((1, -1, 0), ({"a2": "a1"}, {"m": "a1+a2+a3"}), {"a3": "a2"}),
        ((0, 1, -1), ({"a3": "a2"}, {"m": "a1+a2+a3"}), {"a2": "a1"}),
    ])
    def test_three_point_locus_is_symbolic(self, weights, loci, off_locus):
        """psi_1 and psi_2 of each torus generator vanish identically on the
        paper's locus, not only on a grid, and not on an unrelated hyperplane."""
        psis = psi_reconstruct(PointConfig.three_general(), DiagAction(weights))
        names = ("m", "a1", "a2", "a3")
        gens = dict(zip(names, MPoly.generators(names)))

        def restrict(psi, substitution):
            values = dict(gens)
            for name, expr in substitution.items():
                values[name] = sum((gens[v] for v in expr.split("+")), MPoly.zeros(names))
            return psi.evaluate(values)

        for psi in psis:
            assert psi.variables == names and not psi.is_zero
            for substitution in loci:
                assert restrict(psi, substitution).is_zero, (weights, substitution)
            assert not restrict(psi, off_locus).is_zero

    def test_sign_convention_is_the_unique_calibration(self):
        """Of the four (phi, lambda) sign choices, only the implemented one
        reproduces the reference quartic."""
        ref1, _ = reference_psis()
        config = PointConfig.four_points_three_aligned()
        action = DiagAction((2, -1, -1))
        data = [fixed_point_data(action, b) for b in config.blocks]
        ratios = MPoly.generators(tuple(f"x{j}" for j in range(1, 5)))
        base = blowup.projective_space_base(2)

        def build(phi_sign, lam_sign):
            phis = [phi_sign * phi for phi, _ in data]
            lams = [lam_sign * lam for _, lam in data]
            total = blowup.futaki_point_sums(2, base.a, ratios, phis, lams)[0]
            terms = {}
            for exps, coeff in total.terms():
                spare = 4 - sum(exps)
                assert spare >= 0
                terms[(spare,) + exps] = coeff
            return MPoly(PSI_VARIABLES, terms)

        outcomes = {(sp, sl): build(sp, sl) == ref1
                    for sp in (1, -1) for sl in (1, -1)}
        assert outcomes == {(1, 1): True, (1, -1): False, (-1, 1): False, (-1, -1): False}


class TestTriplePoint:
    def test_reconstructed_quartic(self):
        psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
        assert triple_point_check(psi1)

    def test_nonvanishing_polynomial(self):
        m = MPoly.variable(PSI_VARIABLES, "m")
        assert not triple_point_check(m**4)

    def test_fourth_order_vanishing(self):
        m, a1, *_ = MPoly.generators(PSI_VARIABLES)
        assert not triple_point_check((m - a1) ** 4)

    def test_multiplicity_is_the_lowest_degree_at_the_base_point(self):
        m, a1, a2, *_ = MPoly.generators(PSI_VARIABLES)
        assert triple_point_check((m - a1) ** 3 * m)
        assert triple_point_check(a2 ** 3 + (m - a1) ** 4)
        assert not triple_point_check((m - a1) ** 2 * m ** 2)
        assert not triple_point_check(MPoly.zeros(PSI_VARIABLES))

    def test_refuses_a_psi_in_other_variables(self):
        # The three-point psi_1 lives in (m, a1, a2, a3); zipped with the five
        # coordinates of B it would be tested at a truncated point.
        psi1, _ = psi_reconstruct(PointConfig.three_general(), DiagAction((1, -1, 0)))
        assert psi1.variables == ("m", "a1", "a2", "a3")
        with pytest.raises(ValueError, match="must be a polynomial in"):
            triple_point_check(psi1)
        m, a1 = MPoly.generators(("m", "a1"))
        with pytest.raises(ValueError, match="must be a polynomial in"):
            triple_point_check((m - a1) ** 3 * m)


class TestAmpleCheck:
    def test_three_general_examples(self):
        config = PointConfig.three_general()
        assert ample_check(config, 5, (2, 2, 2))
        assert not ample_check(config, 2, (1, 1, 1))
        assert ample_check(config, 3, (1, 1, 1))
        assert not ample_check(config, 5, (0, 2, 2))

    def test_four_point_negative_curves(self):
        config = PointConfig.four_points_three_aligned()
        assert ample_check(config, 131, (75, 14, 14, 14))
        # line through the three aligned points
        assert not ample_check(config, 6, (1, 2, 2, 2))
        # lines through p1 and an aligned point
        assert not ample_check(config, 5, (3, 2, 1, 1))
        assert not ample_check(config, 7, (4, 3, 3, 2))

    @pytest.mark.parametrize("config,m,alphas,field", [
        (PointConfig.three_general(), 5.0, (1, 1, 1), "^m must"),
        (PointConfig.three_general(), True, (1, 1, 1), "^m must"),
        (PointConfig.three_general(), 5, (1, 1.0, 1), r"^alphas\[1\] must"),
        (PointConfig.four_points_three_aligned(), 9, (1, 1, 1, False), r"^alphas\[3\] must"),
        ("three_general", 5, (1, 1, 1), "^config must be a PointConfig")])
    def test_ample_check_arguments_typed(self, config, m, alphas, field):
        with pytest.raises(TypeError, match=field):
            ample_check(config, m, alphas)


class TestThreePointLoci:
    def test_equal_multiplicities(self):
        assert three_point_loci(5, (1, 1, 1)) == (True, True)

    def test_sum_equals_twist(self):
        assert three_point_loci(4, (2, 1, 1)) == (True, True)

    def test_generic_nonvanishing(self):
        assert three_point_loci(5, (2, 1, 1)) == (False, False)

    def test_non_ample_rejected(self):
        with pytest.raises(ValueError):
            three_point_loci(2, (1, 1, 1))

    @pytest.mark.parametrize("m,alphas,field", [
        (5.0, (1, 1, 1), "m"), (True, (1, 1, 1), "m"),
        (5, (1.0, 1, 1), "alphas"), (5, (1, True, 1), "alphas")])
    def test_int_arguments(self, m, alphas, field):
        with pytest.raises(TypeError, match=f"^{field}"):
            three_point_loci(m, alphas)


def reference_psi_values(m, alphas):
    """F_l * deg^2 of both torus generators through futaki_blowup, one
    BlowupSpec per action, as three_point_loci derived its flags before it
    evaluated compiled polynomials."""
    out = []
    for weights in ((1, -1, 0), (0, 1, -1)):
        action = DiagAction(weights)
        points = tuple(blowup.BlownPoint(alpha, *fixed_point_data(action, {axis}))
                       for axis, alpha in enumerate(alphas))
        spec = blowup.BlowupSpec(base=blowup.projective_space_base(2), points=points, m=m)
        deg_sq = (m * m - sum(a * a for a in alphas)) ** 2
        out.append(tuple(f * deg_sq for f in blowup.futaki_blowup(spec)))
    return out


class TestThreePointProof:
    def test_compiled_psi_match_the_pipeline_on_a_stride(self):
        config = PointConfig.three_general()
        universe = [(m, alphas) for m in range(1, 21)
                    for alphas in itertools.product(range(1, 11), repeat=3)
                    if ample_check(config, m, alphas)][::5]
        assert len(universe) >= 900
        evaluators = [p2lab._psi(config, action)[1] for action in p2lab._THREE_POINT_ACTIONS]
        for m, alphas in universe:
            reference = reference_psi_values(m, alphas)
            compiled = [tuple(psi(m, *alphas) for psi in pair) for pair in evaluators]
            assert compiled == reference, (m, alphas)
            assert three_point_loci(m, alphas) == (
                all(f1 == 0 for f1, _ in reference), all(f2 == 0 for _, f2 in reference))

    def test_corrupted_point_sums_raise_every_call(self, monkeypatch):
        four_points, three_points = PointConfig.four_points_three_aligned(), PointConfig.three_general()
        first_action = p2lab._THREE_POINT_ACTIONS[0]
        true_psi2 = {config.kind: psi_reconstruct(config, action)[1] for config, action in (
            (four_points, DiagAction((2, -1, -1))), (three_points, first_action))}
        real = blowup.futaki_point_sums

        def corrupted(*args):
            sums = real(*args)
            return [sums[0], sums[1] + 1]       # psi_2's m^3 coefficient off by one

        monkeypatch.setattr(blowup, "futaki_point_sums", corrupted)
        p2lab._psi.cache_clear()
        calls = ((four_points, "diag(2, -1, -1)",
                  lambda: psi_reconstruct(four_points)),
                 (three_points, f"diag{first_action.w}",
                  lambda: three_point_loci(5, (2, 1, 1))))
        for config, action, call in calls:
            psi2 = true_psi2[config.kind]
            wrong = psi2 + MPoly.variable(psi2.variables, "m") ** 3
            for _ in range(2):
                with pytest.raises(CrossCheckError) as info:
                    call()
                message = str(info.value)
                assert message.startswith(f"psi_2 of {config.kind} under {action} disagrees")
                assert f"psi_2 = {wrong.pretty()}, pipeline {psi2.pretty()}" in message
                assert p2lab._psi.cache_info().currsize == 0

    def test_point_sum_above_the_clearing_degree_is_named(self, monkeypatch):
        real = blowup.futaki_point_sums

        def raised(n, a, ratios, phis, lams):
            sums = real(n, a, ratios, phis, lams)
            return [sums[0] + 7 * ratios[0] ** 5, sums[1]]

        monkeypatch.setattr(blowup, "futaki_point_sums", raised)
        p2lab._psi.cache_clear()
        action = p2lab._THREE_POINT_ACTIONS[0]
        with pytest.raises(CrossCheckError) as info:
            psi_reconstruct(PointConfig.three_general(), action)
        assert str(info.value) == (
            f"point sum for F_1 of three_general under diag{action.w} exceeds the "
            "clearing degree 4: term (5, 0, 0) with coefficient 7")
        assert p2lab._psi.cache_info().currsize == 0

    def test_non_integral_polynomial_is_named(self):
        m, a1 = MPoly.generators(("m", "a1"))
        with pytest.raises(CrossCheckError) as info:
            p2lab._compile_int_poly(m * m + Fraction(1, 2) * a1)
        assert str(info.value) == (
            "vanishing-locus polynomial is not integral: term (0, 1) in ('m', 'a1') "
            "has coefficient 1/2")

    def test_proof_builds_no_geometry(self):
        p2lab._psi.cache_clear()
        blowup._geometry_for.cache_clear()
        assert three_point_loci(5, (1, 1, 1)) == (True, True)
        assert p2lab._psi.cache_info().misses == 2
        assert blowup._geometry_for.cache_info().currsize == 0


class TestSearch:
    def test_axis_line_candidate_rejected(self):
        # direction (0,0,1,0,0): the quartic restricts to t^3(t-2), the
        # residual point (1,1,2,0,0) has zero multiplicities and is dropped.
        psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
        t = Poly((0, 1))
        line = psi1.evaluate({"m": Poly((1,)), "a1": Poly((1,)),
                              "a2": t, "a3": Poly(), "a4": Poly()})
        assert line == Poly((0, 0, 0, -2, 1))
        for cand in search_unstable(1, 3):
            assert 0 not in ((cand.m,) + cand.alphas)

    def test_first_hit(self):
        candidates = search_unstable(2, 1)
        assert [(c.m, c.alphas) for c in candidates] == [(131, (75, 14, 14, 14))]
        c = candidates[0]
        assert c.verified and c.ample
        assert c.psi1_value == 0 and c.psi2_value != 0

    def test_candidates_satisfy_reference_polynomials(self):
        ref1, ref2 = reference_psis()
        for c in search_unstable(2, 2):
            point = dict(zip(PSI_VARIABLES, (c.m,) + c.alphas))
            assert ref1.evaluate(point) == 0
            assert ref2.evaluate(point) == c.psi2_value != 0

    def test_scaling_layer(self):
        ones = search_unstable(2, 1)
        doubled = search_unstable(2, 2)
        assert len(doubled) == 2 * len(ones)
        scaled = {(2 * c.m, tuple(2 * a for a in c.alphas)) for c in ones}
        assert scaled <= {(c.m, c.alphas) for c in doubled}

    def test_recomputed_f2_disagreement_is_named(self, monkeypatch):
        real = p2lab._verify_candidate
        monkeypatch.setattr(p2lab, "_verify_candidate",
                            lambda m, alphas: real(m, alphas) + 1)
        with pytest.raises(CrossCheckError) as info:
            search_unstable(2, 1)
        # The first candidate of search_unstable(2, 1).
        psi2 = psi_reconstruct(PointConfig.four_points_three_aligned())[1]
        psi2_value = psi2.evaluate(dict(zip(PSI_VARIABLES, (131, 75, 14, 14, 14))))
        assert str(info.value) == (
            "psi_2 disagrees with F_2 * deg^2 recomputed through the blowup pipeline "
            f"at m = 131, alphas = (75, 14, 14, 14): psi_2 = {psi2_value}, "
            f"F_2 * deg^2 = {psi2_value + 1}")

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            search_unstable(0, 1)
        with pytest.raises(ValueError):
            search_unstable(1, 0)

    @pytest.mark.parametrize("bounds", [(2.0, 1), (True, 1), ("2", 1), (2, 1.0), (2, True)])
    def test_bounds_must_be_int(self, bounds):
        with pytest.raises(TypeError):
            search_unstable(*bounds)

    def test_grid_guard(self):
        with pytest.raises(ResourceLimitError):
            search_unstable(SEARCH_MAX_GRID_BOUND + 1, 1)

    def test_scale_guard(self):
        assert SEARCH_MAX_SCALE_BOUND >= 3
        with pytest.raises(ResourceLimitError, match="scale_bound"):
            search_unstable(1, SEARCH_MAX_SCALE_BOUND + 1)
        with pytest.raises(ResourceLimitError, match="scale_bound"):
            search_unstable(2, 10**9)


# ---------------------------------------------------------------------------
# Reference sweep: every direction of the box, residual point from the cubic
# jet of psi_1 at the triple point in Fraction arithmetic, first occurrence
# kept.  The library sweep must reproduce its candidates, order included.
# ---------------------------------------------------------------------------

_TRIPLE_POINT = (1, 1, 0, 0, 0)


def _int_terms(poly):
    return tuple((exps, int(coeff)) for exps, coeff in poly.terms())


def _eval_terms(terms, v):
    return sum(coeff * prod(x**e for x, e in zip(v, exps)) for exps, coeff in terms)


def _ray(v):
    """Primitive integer vector on the ray of a nonzero integer vector,
    first nonzero entry positive."""
    g = gcd(*v)
    sign = next(1 if c > 0 else -1 for c in v if c)
    return tuple(sign * c // g for c in v)


def _primitive_ray(point):
    den = lcm(*(c.denominator for c in point))
    return _ray([int(c * den) for c in point])


@functools.lru_cache(maxsize=None)
def reference_hits(bound):
    psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
    terms = _int_terms(psi1)
    base = dict(zip(PSI_VARIABLES, _TRIPLE_POINT))
    jet = []
    for combo in itertools.combinations_with_replacement(range(5), 3):
        p = psi1
        for i in combo:
            p = partial(p, PSI_VARIABLES[i])
        mult = prod(factorial(len(tuple(g))) for _, g in itertools.groupby(combo))
        value = p.evaluate(base) / mult
        if value:
            jet.append((combo, value))
    hits, seen = [], set()
    for v in itertools.product(range(-bound, bound + 1), repeat=5):
        if not any(v):
            continue
        c4 = _eval_terms(terms, v)
        if c4 == 0:
            continue
        c3 = sum(coeff * prod(v[i] for i in combo) for combo, coeff in jet)
        t = Fraction(-c3, c4)
        point = _primitive_ray([b + t * d for b, d in zip(_TRIPLE_POINT, v)])
        if point not in seen:
            seen.add(point)
            hits.append(point)
    return tuple(hits)


def reference_search(bound, scale):
    _, ref2 = reference_psis()
    psi2_terms = _int_terms(ref2)
    config = PointConfig.four_points_three_aligned()
    out = []
    for point in reference_hits(bound):
        if any(c < 1 for c in point):
            continue
        for k in range(1, scale + 1):
            m, alphas = k * point[0], tuple(k * c for c in point[1:])
            if not ample_check(config, m, alphas):
                continue
            psi2_value = Fraction(_eval_terms(psi2_terms, (m,) + alphas))
            if psi2_value:
                out.append(Candidate(m=m, alphas=alphas, psi1_value=Fraction(0),
                                     psi2_value=psi2_value, ample=True, verified=True))
    return out


@pytest.mark.parametrize("bound", [1, 2, 3])
@pytest.mark.parametrize("scale", [1, 2, 3])
def test_search_matches_full_box_reference(bound, scale):
    assert search_unstable(bound, scale) == reference_search(bound, scale)


@pytest.mark.parametrize("bound, lines", [(1, 121), (2, 1441), (3, 8161), (4, 27841)])
def test_line_directions_first_box_member(bound, lines):
    directions = list(_line_directions(bound))
    assert len(directions) == lines
    rays = [_ray(v) for v in directions]
    assert len(set(rays)) == lines
    for v, p in zip(directions, rays):
        assert v == tuple(-(bound // max(map(abs, p))) * c for c in p)
    assert directions == sorted(directions)


@pytest.mark.parametrize("bound", [1, 2])
def test_line_directions_brute_force(bound):
    first, seen = [], set()
    for v in itertools.product(range(-bound, bound + 1), repeat=5):
        if any(v) and _ray(v) not in seen:
            seen.add(_ray(v))
            first.append(v)
    assert list(_line_directions(bound)) == first
