"""Plane blowups: fixed-point data, vanishing loci, ampleness, search."""
import functools
import itertools
import re
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import pytest

from chowstab import blowup, chowcore, exactalg, p2lab
from chowstab.errors import CrossCheckError, ResourceLimitError
from chowstab.exactalg import MPoly, Poly
from exact_reference import evaluate, is_homogeneous, partial, total_degree
import blowup_reference
import p2lab_reference
from chowstab.p2lab import (
    PSI_VARIABLES,
    SEARCH_MAX_GRID_BOUND,
    SEARCH_MAX_SCALE_BOUND,
    Candidate,
    DiagAction,
    PointConfig,
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

    # A non-str kind was once accepted and failed later, in ample_check, as
    # "unknown configuration kind: 5".
    @pytest.mark.parametrize("kind", [5, None, ("three_general",)])
    def test_kind_must_be_a_str(self, kind):
        with pytest.raises(TypeError, match=f"^kind must be a str, got {re.escape(repr(kind))}$"):
            PointConfig(kind, ({0},))

    def test_no_blocks_refused(self):
        # once accepted, failing later inside psi_reconstruct with
        # "not enough values to unpack"
        with pytest.raises(ValueError, match="^a point configuration needs at least one"):
            PointConfig("none", ())

    # 1.0 == True == 1, so set membership alone once let float and bool
    # indices through: {True} was read as {1}, and fixed_point_data failed
    # on {1.0} while indexing the weights.
    @pytest.mark.parametrize("make", [
        lambda: PointConfig("x", ({1.0},)),
        lambda: PointConfig("three_general", ({0}, {True}, {2})),
        lambda: PointConfig("two_points", ({0}, {1, 2.0})),
        lambda: fixed_point_data(DiagAction((1, -1, 0)), {1.0}),
        lambda: fixed_point_data(DiagAction((1, -1, 0)), {False}),
        lambda: fixed_point_data(DiagAction((0, 0, 0)), {"0"}),
    ], ids=["float", "bool-in-named", "float-in-pair", "float-point", "bool-point", "str-point"])
    def test_non_int_indices_refused(self, make):
        with pytest.raises(TypeError, match=r"^block\[\d\] must be an int, got "):
            make()

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
        restricted = evaluate(psi1, {"m": m, "a1": a1, "a2": zero, "a3": zero, "a4": zero})
        assert restricted == 2 * a1 * (m - a1) ** 3

    def test_base_point_value(self):
        psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
        assert evaluate(psi1, dict(zip(PSI_VARIABLES, (1, 1, 0, 0, 0)))) == 0

    def test_three_general_requires_an_action(self):
        with pytest.raises(ValueError, match="action is required"):
            psi_reconstruct(PointConfig.three_general())

    def test_action_must_fix_the_points(self):
        with pytest.raises(ValueError, match="not fixed"):
            psi_reconstruct(PointConfig.four_points_three_aligned(), DiagAction((1, -1, 0)))
        with pytest.raises(TypeError):
            psi_reconstruct(PointConfig.four_points_three_aligned(), (2, -1, -1))

    @pytest.mark.parametrize("config, action", [
        (PointConfig.four_points_three_aligned(), DiagAction((2, -1, -1))),
        (PointConfig.three_general(), DiagAction((1, -1, 0))),
        (PointConfig.three_general(), DiagAction((0, 1, -1))),
        (PointConfig("p1_plus_4_aligned", ({0},) + ({1, 2},) * 4), DiagAction((2, -1, -1))),
        (PointConfig("p1_plus_5_aligned", ({0},) + ({1, 2},) * 5), DiagAction((2, -1, -1))),
    ], ids=["four_points", "three_general_1-10", "three_general_01-1", "p1_plus_4_aligned",
            "p1_plus_5_aligned"])
    def test_equals_the_clearing_reference(self, config, action):
        """The geometry's integer transcription on generators gives the psi of
        the point sums on ratio generators, cleared by substitution."""
        psis = psi_reconstruct(config, action)
        assert psis == p2lab_reference.psi_by_clearing(config, action)
        assert psis[0].variables == ("m",) + tuple(f"a{j}" for j in range(1, len(config.blocks) + 1))

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
            return evaluate(psi, values)

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
        assert all(phi.denominator == 1 for phi, _ in data)        # so q = 1
        m, *alphas = MPoly.generators(PSI_VARIABLES)
        columns = blowup._f_g_levels(blowup.projective_space_base(2), m, alphas)[2]

        def build(phi_sign, lam_sign):
            phi_nums = [phi_sign * phi.numerator for phi, _ in data]
            lams = [lam_sign * lam for _, lam in data]
            return Fraction(1, 3) * blowup._integer_dot(columns[0], phi_nums, 1, lams)

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

    @pytest.mark.parametrize("bad", [1, None, "m**4", (1, 1, 0, 0, 0)])
    def test_refuses_what_is_not_a_polynomial(self, bad):
        # triple_point_check(1) once raised AttributeError.
        with pytest.raises(TypeError, match="^psi1 must be an MPoly, got "):
            triple_point_check(bad)

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

    @pytest.mark.parametrize("variables", [("m", "a1", "a2"), PSI_VARIABLES + ("a5",)])
    def test_expansion_refuses_other_variables(self, variables):
        # Zipped with the five coordinates of B, three variables would be
        # expanded about (1, 1, 0) and six would fail on a bad exponent vector.
        m, a1, *_ = MPoly.generators(variables)
        with pytest.raises(ValueError) as info:
            p2lab._base_point_parts((m - a1) ** 3 * m)
        assert str(info.value) == (f"psi must be a polynomial in {PSI_VARIABLES}, "
                                   f"got one in {variables}")

    def test_expansion_matches_evaluation_on_shifted_generators(self):
        m, a1, a2, *_ = MPoly.generators(PSI_VARIABLES)
        shifted = {name: y + b for name, y, b in
                   zip(PSI_VARIABLES, MPoly.generators(PSI_VARIABLES), (1, 1, 0, 0, 0))}
        psi1, _ = psi_reconstruct(PointConfig.four_points_three_aligned())
        for poly in (psi1, Fraction(1, 3) * m**4 - a1 * a2, (m - a1) ** 2 * m**2):
            parts = p2lab._base_point_parts(poly)
            assert all(not part.is_zero and is_homogeneous(part) and total_degree(part) == degree
                       for degree, part in parts.items())
            assert sum(parts.values(), MPoly.zeros(PSI_VARIABLES)) == evaluate(poly, shifted)
        assert sorted(p2lab._base_point_parts(psi1)) == [3, 4]


@pytest.fixture
def cold_line_coefficients():
    p2lab._line_coefficients.cache_clear()
    yield p2lab._line_coefficients
    p2lab._line_coefficients.cache_clear()


class TestLineCoefficients:
    """The sweep's (c4, c3) come from one expansion of psi_1 at B, checked
    to have no part below degree 3 and psi_1 as its quartic part."""

    def test_coefficients_on_the_lines(self, cold_line_coefficients):
        config = PointConfig.four_points_three_aligned()
        line = p2lab._line_coefficients(config, DiagAction((2, -1, -1)))
        psi1 = p2lab._compile_int_poly(psi_reconstruct(config)[0])
        for u0, u2, u3, u4 in itertools.product(range(-2, 3), repeat=4):
            c4 = psi1(u0, 0, u2, u3, u4)
            assert line(u0, u2, u3, u4) == (c4, psi1(1 + u0, 1, u2, u3, u4) - c4)
        # The shift identity: v = g*u + v1*B gives c3(v) = g^3 c3(u) and
        # c4(v) = g^3 (g c4(u) + v1 c3(u)), u the class of v.
        shifted = 0
        for v in filter(_signs_can_keep, itertools.product(range(-2, 3), repeat=5)):
            u, g = line_class(v), line_scale(v)
            c4, c3 = line(*u)
            assert psi1(*v) == g**3 * (g * c4 + v[1] * c3)
            assert psi1(1 + v[0], 1 + v[1], *v[2:]) - psi1(*v) == g**3 * c3
            shifted += 1
        assert shifted == 25 * 2 * 2**3
        assert cold_line_coefficients.cache_info().currsize == 1

    @pytest.mark.parametrize("make, message", [
        (lambda m, a2: m**4, "has no triple point at (1, 1, 0, 0, 0): the degree-0 part "
                             "of psi_1(B + y) is 1"),
        (lambda m, a2: m**2 * a2**3, "is not a quartic form: the degree-4 part of "
                                     "psi_1(B + y) is 2*m*a2^3, psi_1 = m^2*a2^3"),
    ])
    def test_forced_failure_is_named(self, monkeypatch, cold_line_coefficients, make, message):
        m, _, a2, _, _ = MPoly.generators(PSI_VARIABLES)
        psi1 = make(m, a2)
        monkeypatch.setattr(p2lab, "_psi", lambda config, action: ((psi1, None), None))
        for call in (lambda: search_unstable(1, 1),
                     lambda: p2lab._line_coefficients(PointConfig.four_points_three_aligned(),
                                                      DiagAction((2, -1, -1)))):
            with pytest.raises(CrossCheckError) as info:
                call()
            assert str(info.value) == (
                f"psi_1 of four_points_three_aligned under diag(2, -1, -1) {message}")
        assert cold_line_coefficients.cache_info().currsize == 0


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

    def test_four_point_comparisons_are_the_negative_curves(self):
        """The plain comparisons of the four-point test against each class of
        negative curve, written out, over a box that crosses every wall."""
        config = PointConfig.four_points_three_aligned()
        verdicts = []
        for m in range(-2, 14):
            for alphas in itertools.product(range(-1, 8), repeat=4):
                a1, *aligned = alphas
                want = (m > 0 and min(alphas) > 0
                        and m - sum(aligned) > 0                          # line of the aligned points
                        and all(m - a1 - a > 0 for a in aligned)          # lines through p1
                        and m * m - sum(a * a for a in alphas) > 0)       # self-intersection
                assert ample_check(config, m, alphas) == want, (m, alphas)
                verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_four_point_length_checked_after_positivity(self):
        config = PointConfig.four_points_three_aligned()
        assert not ample_check(config, 0, (1, 1, 1))
        assert not ample_check(config, 5, (1, 0, 1, 1, 1))
        with pytest.raises(ValueError, match="four multiplicities expected"):
            ample_check(config, 5, (1, 1, 1))

    @pytest.mark.parametrize("config,m,alphas,field", [
        (PointConfig.three_general(), 5.0, (1, 1, 1), "^m must"),
        (PointConfig.three_general(), True, (1, 1, 1), "^m must"),
        (PointConfig.three_general(), 5, (1, 1.0, 1), r"^alphas\[1\] must"),
        (PointConfig.four_points_three_aligned(), 9, (1, 1, 1, False), r"^alphas\[3\] must"),
        ("three_general", 5, (1, 1, 1), "^config must be a PointConfig")])
    def test_ample_check_arguments_typed(self, config, m, alphas, field):
        with pytest.raises(TypeError, match=field):
            ample_check(config, m, alphas)


class TestAmpleScaleInvariance:
    """The search tests ampleness once per primitive point: the answer must
    not change under scaling, on and off the boundary of the cone."""

    GRIDS = {"three_general": (range(-1, 12), range(-1, 6), 3),
             "four_points_three_aligned": (range(0, 14), range(0, 6), 4)}

    @pytest.mark.parametrize("config", [PointConfig.three_general(),
                                        PointConfig.four_points_three_aligned()])
    def test_every_scale_agrees(self, config):
        ms, entries, size = self.GRIDS[config.kind]
        verdicts = []
        for m in ms:
            for alphas in itertools.product(entries, repeat=size):
                ample = ample_check(config, m, alphas)
                for s in range(2, 5):
                    assert ample_check(config, s * m, tuple(s * a for a in alphas)) == ample, (
                        config.kind, m, alphas, s)
                verdicts.append((m, alphas, ample))
        assert any(ample for *_, ample in verdicts) and not all(ample for *_, ample in verdicts)

        def on_boundary(m, alphas):
            if config.kind == "three_general":
                slacks = [m + a - sum(alphas) for a in alphas]
            else:
                a1, *rest = alphas
                slacks = [m - sum(rest), m * m - sum(a * a for a in alphas)]
                slacks += [m - a1 - a for a in rest]
            return min(slacks) == 0

        boundary = [(m, alphas) for m, alphas, _ in verdicts
                    if m > 0 and min(alphas) > 0 and on_boundary(m, alphas)]
        assert len(boundary) > 20
        assert not any(ample_check(config, m, alphas) for m, alphas in boundary)


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
        pairs = ((four_points, DiagAction((2, -1, -1))), (three_points, first_action))
        true_psi2 = {config.kind: psi_reconstruct(config, action)[1] for config, action in pairs}
        first_phi = {config.kind: fixed_point_data(action, config.blocks[0])[0]
                     for config, action in pairs}
        real = blowup._f_g_levels

        def corrupted(base, m, alphas):
            d_val, levels, columns = real(base, m, alphas)
            phi_col, lam_col = columns[1]
            # the first point's level-2 phi coefficient off by (n+1) m^3,
            # so psi_2's m^3 coefficient is off by that point's phi
            columns = [columns[0], ((phi_col[0] + 3 * m**3,) + phi_col[1:], lam_col)]
            return d_val, levels, columns

        monkeypatch.setattr(blowup, "_f_g_levels", corrupted)
        p2lab._psi.cache_clear()
        calls = ((four_points, "diag(2, -1, -1)",
                  lambda: psi_reconstruct(four_points)),
                 (three_points, f"diag{first_action.w}",
                  lambda: three_point_loci(5, (2, 1, 1))))
        for config, action, call in calls:
            psi2 = true_psi2[config.kind]
            wrong = psi2 + first_phi[config.kind] * MPoly.variable(psi2.variables, "m") ** 3
            for _ in range(2):
                with pytest.raises(CrossCheckError) as info:
                    call()
                message = str(info.value)
                assert message.startswith(f"psi_2 of {config.kind} under {action} disagrees")
                assert f"psi_2 = {wrong.pretty()}, pipeline {psi2.pretty()}" in message
                assert p2lab._psi.cache_info().currsize == 0

    def test_inhomogeneous_psi_is_named(self, monkeypatch):
        real = chowcore._futaki_numerators

        def skewed(a, b):
            first, second = real(a, b)
            return [first, second + MPoly.variable(second.variables, "m")]

        monkeypatch.setattr(chowcore, "_futaki_numerators", skewed)
        p2lab._psi.cache_clear()
        for _ in range(2):
            with pytest.raises(CrossCheckError) as info:
                psi_reconstruct(PointConfig.four_points_three_aligned())
            assert str(info.value) == (
                "psi_2 of four_points_three_aligned under diag(2, -1, -1) from chi~ and w~ "
                "is not homogeneous of degree 3: term (1, 0, 0, 0, 0) with coefficient 1/3")
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
        line = evaluate(psi1, {"m": Poly((1,)), "a1": Poly((1,)),
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
            assert evaluate(ref1, point) == 0
            assert evaluate(ref2, point) == c.psi2_value != 0

    def test_scaling_layer(self):
        ones = search_unstable(2, 1)
        doubled = search_unstable(2, 2)
        assert len(doubled) == 2 * len(ones)
        scaled = {(2 * c.m, tuple(2 * a for a in c.alphas)) for c in ones}
        assert scaled <= {(c.m, c.alphas) for c in doubled}

    @pytest.mark.parametrize("bounds", [(3, 3), (4, 3)])
    def test_each_primitive_point_is_verified_once(self, monkeypatch, bounds):
        """Every primitive point, those of an orbit's later classes included,
        goes once through each step of the pipeline: w~'s numerators, the
        generic F_l and their comparison with the point sums."""
        steps = {}

        def recorded(owner, name, key):
            real = getattr(owner, name)

            def step(*args):
                steps.setdefault(name, []).append(key(*args))
                return real(*args)
            monkeypatch.setattr(owner, name, step)

        for name in ("_w_numerators", "_check_point_sums"):
            recorded(blowup._Geometry, name, lambda geometry, *_: (geometry.m, geometry.alphas))
        # The generic F_l run on the verified point's chi~.
        recorded(chowcore, "_futaki_parts", lambda chi, *_: chi)
        candidates = search_unstable(*bounds)
        # Each verified primitive point heads its scale_bound copies.
        scale = bounds[1]
        primitive = [(c.m, c.alphas) for c in candidates[::scale]]
        assert steps["_w_numerators"] == steps["_check_point_sums"] == primitive
        assert steps["_futaki_parts"] == [
            blowup._geometry_for(blowup.projective_space_base(2), m, alphas).chi
            for m, alphas in primitive]
        assert len(primitive) == {(3, 3): 15, (4, 3): 66}[bounds]
        assert len(candidates) == scale * len(primitive)

    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_every_scaled_copy_passes_the_per_scale_recheck(self, bound, scale):
        p2lab_reference.recheck_every_scale(search_unstable(bound, scale))

    def test_two_searches_share_the_geometry_cache(self):
        # Only primitive points build geometries, 66 at (4, 3), fewer than
        # GEOMETRY_CACHE_SIZE, so the second search finds every one cached.
        assert blowup.GEOMETRY_CACHE_SIZE >= 66
        blowup._geometry_for.cache_clear()
        for _ in range(2):
            search_unstable(4, 3)
        info = blowup._geometry_for.cache_info()
        assert (info.misses, info.hits) == (66, 66)

    @pytest.mark.parametrize("skew, shown", [
        (lambda f1, f2, den: [f1 + den, f2], "F1=1, F2={f2}"),
        (lambda f1, f2, den: [f1, 0], "F1=0, F2=0"),
    ])
    def test_recomputed_f1_or_f2_failure_is_named(self, monkeypatch, skew, shown):
        # The integer numerators are skewed; the message shows the F_l as Fractions.
        real = blowup._Geometry.checked_futaki_parts

        def skewed(geometry, action):
            (f1, f2), den = real(geometry, action)
            return skew(f1, f2, den), den

        monkeypatch.setattr(blowup._Geometry, "checked_futaki_parts", skewed)
        with pytest.raises(CrossCheckError) as info:
            search_unstable(2, 1)
        points = tuple(blowup.BlownPoint(alpha, *fixed_point_data(DiagAction((2, -1, -1)), block))
                       for alpha, block in zip((75, 14, 14, 14),
                                               PointConfig.four_points_three_aligned().blocks))
        spec = blowup.BlowupSpec(base=blowup.projective_space_base(2), points=points, m=131)
        (f1, f2), den = real(spec._geometry, spec._action)
        assert f1 == 0
        assert str(info.value) == ("candidate (m=131, alphas=(75, 14, 14, 14)) failed "
                                   f"recomputation: {shown.format(f2=Fraction(f2, den))}")

    def test_verification_matches_the_pipeline_route(self):
        # Every primitive point of search_unstable(6, 1): the geometry's
        # integer check against the Poly-backed pipeline on a BlowupSpec.
        config, action = PointConfig.four_points_three_aligned(), DiagAction((2, -1, -1))
        data = [fixed_point_data(action, block) for block in config.blocks]
        integer_action = blowup._Geometry._integer_action(*zip(*data))
        candidates = search_unstable(6, 1)
        assert len(candidates) == 391
        for c in candidates:
            spec = blowup.BlowupSpec(
                base=blowup.projective_space_base(2), m=c.m,
                points=tuple(blowup.BlownPoint(alpha, phi, lam)
                             for alpha, (phi, lam) in zip(c.alphas, data)))
            want = blowup_reference.futaki_by_pipeline(spec)
            geometry = blowup._geometry_for(blowup.projective_space_base(2), c.m, c.alphas)
            assert geometry.checked_futaki(integer_action) == want, (c.m, c.alphas)
            deg = c.m**2 - sum(a * a for a in c.alphas)
            assert Fraction(*p2lab._verify_candidate(c.m, c.alphas, integer_action)) \
                == want[1] * deg**2 == c.psi2_value

    def test_search_builds_no_spec(self, monkeypatch):
        def refuse(name):
            def constructor(*args, **kwargs):
                raise AssertionError(f"the search built a {name}")
            return constructor

        want = search_unstable(4, 2)
        monkeypatch.setattr(blowup.BlowupSpec, "__post_init__", refuse("BlowupSpec"))
        monkeypatch.setattr(blowup.BlownPoint, "__post_init__", refuse("BlownPoint"))
        blowup._geometry_for.cache_clear()
        assert search_unstable(4, 2) == want
        # With the geometries cached, verification builds no polynomial either.
        monkeypatch.setattr(Poly, "__init__", refuse("Poly"))
        monkeypatch.setattr(exactalg, "_canonical", refuse("Poly"))
        monkeypatch.setattr(chowcore._PolyData, "_hold", refuse("HilbertData or WeightData"))
        assert search_unstable(4, 2) == want

    def test_recomputed_f2_disagreement_is_named(self, monkeypatch):
        real = p2lab._verify_candidate

        def plus_one(m, alphas, action):
            num, den = real(m, alphas, action)
            return num + den, den

        monkeypatch.setattr(p2lab, "_verify_candidate", plus_one)
        with pytest.raises(CrossCheckError) as info:
            search_unstable(2, 1)
        # The first candidate of search_unstable(2, 1).
        psi2 = psi_reconstruct(PointConfig.four_points_three_aligned())[1]
        psi2_value = evaluate(psi2, dict(zip(PSI_VARIABLES, (131, 75, 14, 14, 14))))
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
        value = evaluate(p, base) / mult
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


@pytest.mark.parametrize("scale, bound", [(s, b) for b in (1, 2, 3, 4) for s in (1, 2, 3)]
                         + [(1, 5), (1, 6), (1, 7), (1, 8)])
def test_search_matches_the_sweep_of_every_line(bound, scale):
    assert search_unstable(bound, scale) == p2lab_reference.search(bound, scale)


def line_class(v):
    """The line through B and v, as the class of v modulo B made primitive with v2 > 0."""
    u = (v[0] - v[1],) + tuple(v[2:])
    g = gcd(*u) * (1 if u[1] > 0 else -1)
    return tuple(c // g for c in u)


def line_scale(v):
    """The signed g with (v0 - v1, v2, v3, v4) = g * line_class(v)."""
    return gcd(v[0] - v[1], *v[2:]) * (1 if v[2] > 0 else -1)


def line_evaluator():
    return p2lab._line_coefficients(PointConfig.four_points_three_aligned(), DiagAction((2, -1, -1)))


def recorded_evaluator(monkeypatch, forced=None):
    """Patch the search's class evaluator with one that records each class
    it is asked for, in order, and answers forced(u, real) when given, else
    the real values."""
    real, calls = line_evaluator(), []

    def recorded(*u):
        calls.append(u)
        return forced(u, real) if forced else real(*u)

    monkeypatch.setattr(p2lab, "_line_coefficients", lambda *key: recorded)
    return calls


def descending(u):
    """Whether the tail (u2, u3, u4) of a class is descending: the class that
    stands for its orbit under permuting the tail."""
    return u[1] >= u[2] >= u[3]


def orbit_of(u):
    return (u[0],) + tuple(sorted(u[1:], reverse=True))


@pytest.mark.parametrize("bound, evaluations", [(2, 8), (3, 32), (4, 85)])
def test_one_evaluation_per_orbit(monkeypatch, bound, evaluations):
    """Each orbit of the classes the walk reaches is evaluated once, at its
    descending tail, in class order."""
    calls = recorded_evaluator(monkeypatch)
    search_unstable(bound, 1)
    assert calls == [u for u in p2lab._classes(bound) if descending(u)]
    assert len(calls) == evaluations
    assert set(calls) == {orbit_of(line_class(v)) for v in p2lab_reference.walk_directions(bound)}


@pytest.mark.parametrize("bound, classes", zip(range(1, SEARCH_MAX_GRID_BOUND + 1),
                                               (1, 16, 87, 274, 697, 1414, 2707, 4561)))
def test_classes_are_the_walks_at_first_appearance(bound, classes):
    """The search's classes are, in order, those the walk of lines meets, each
    at its first appearance, which is the direction (-b, u0 - b, -u2, -u3, -u4)."""
    first = {}
    for v in p2lab_reference.walk_directions(bound):
        first.setdefault(line_class(v), v)
    assert len(first) == classes
    for (u0, u2, u3, u4), v in first.items():
        assert v == (-bound, u0 - bound, -u2, -u3, -u4)
    assert list(p2lab._classes(bound)) == list(first)


def test_class_order_meets_each_orbit_first_at_its_descending_tail():
    # The classes of every accepted bound are among those of the largest.
    seen = set()
    for u in p2lab._classes(SEARCH_MAX_GRID_BOUND):
        assert (orbit_of(u) not in seen) == descending(u), u
        seen.add(orbit_of(u))


def test_line_coefficients_are_invariant_on_every_orbit():
    """(c4, c3) is the same at every permutation of the tail, for every class
    of every accepted bound (the classes of the largest)."""
    evaluate = line_evaluator()
    classes = list(p2lab._classes(SEARCH_MAX_GRID_BOUND))
    assert len(classes) == 4561
    for u0, *tail in classes:
        values = {evaluate(u0, *order) for order in itertools.permutations(tail)}
        assert values == {evaluate(u0, *tail)}, (u0, tail)


def test_ampleness_is_invariant_under_permuting_the_aligned_points():
    config = PointConfig.four_points_three_aligned()
    verdicts = []
    for m in range(0, 14):
        for a1 in range(0, 7):
            for tail in itertools.combinations_with_replacement(range(0, 7), 3):
                ample = p2lab._is_ample(p2lab.FOUR_POINTS_THREE_ALIGNED, m, (a1, *tail))
                for order in itertools.permutations(tail):
                    assert ample_check(config, m, (a1, *order)) == ample, (m, a1, order)
                verdicts.append((ample, len(set(tail))))
    # Ample and non-ample points, and ample ones with three distinct aligned multiplicities.
    assert (True, 3) in verdicts and (False, 3) in verdicts and (False, 1) in verdicts


def forced_psi(monkeypatch, psi1_extra=None, psi2_extra=None):
    """Patch _psi so that psi_1 and psi_2 gain the given terms, each a
    function of the generators; the evaluators are compiled from the result."""
    config, action = PointConfig.four_points_three_aligned(), DiagAction((2, -1, -1))
    psi1, psi2 = p2lab._psi(config, action)[0]
    gens = MPoly.generators(PSI_VARIABLES)
    if psi1_extra:
        psi1 = psi1 + psi1_extra(*gens)
    if psi2_extra:
        psi2 = psi2 + psi2_extra(*gens)
    polys = (psi1, psi2)
    evaluators = tuple(p2lab._compile_int_poly(p) for p in polys)
    monkeypatch.setattr(p2lab, "_psi", lambda *key: (polys, evaluators))


class TestOrbitProofs:
    """The search reuses an orbit's class work only on symmetries proved
    where its (c4, c3) evaluator is built, once per process."""

    WHERE = "of four_points_three_aligned under diag(2, -1, -1)"

    def test_proved_once_per_process(self, monkeypatch, cold_line_coefficients):
        proved = []
        real = p2lab._require_tail_symmetric
        monkeypatch.setattr(p2lab, "_require_tail_symmetric",
                            lambda name, poly: proved.append(name) or real(name, poly))
        search_unstable(2, 1)
        assert proved == [f"c4 of psi_1 {self.WHERE}", f"c3 of psi_1 {self.WHERE}",
                          f"psi_2 {self.WHERE}"]
        search_unstable(3, 1)
        assert len(proved) == 3

    def test_asymmetric_line_coefficients_refused(self, monkeypatch, cold_line_coefficients):
        # (a2 - a3) a2^3 keeps the triple point at B and the quartic form,
        # and gives c4 a term a2^4 - a2^3 a3 that moves when a2, a3 swap.
        forced_psi(monkeypatch, psi1_extra=lambda m, a1, a2, a3, a4: (a2 - a3) * a2**3)
        with pytest.raises(CrossCheckError) as info:
            search_unstable(1, 1)
        assert str(info.value).startswith(
            f"c4 of psi_1 {self.WHERE} is not invariant under permuting (a2, a3, a4): "
            "under (a2, a3, a4) -> (a2, a4, a3) it is ")

    def test_asymmetric_psi2_refused(self, monkeypatch, cold_line_coefficients):
        forced_psi(monkeypatch, psi2_extra=lambda m, a1, a2, a3, a4: (a2 - a4) * m**2)
        with pytest.raises(CrossCheckError) as info:
            search_unstable(1, 1)
        assert str(info.value).startswith(
            f"psi_2 {self.WHERE} is not invariant under permuting (a2, a3, a4): ")

    def test_action_with_two_aligned_data_refused(self, monkeypatch, cold_line_coefficients):
        phi_nums, q, lams = p2lab._FOUR_POINT_INTEGER_ACTION
        assert p2lab._integer_action(PointConfig.four_points_three_aligned(),
                                     DiagAction((2, -1, -1))) == (phi_nums, q, lams)
        skewed = (phi_nums, q, lams[:3] + (lams[3] + 1,))
        monkeypatch.setattr(p2lab, "_integer_action", lambda config, action: skewed)
        with pytest.raises(CrossCheckError) as info:
            search_unstable(1, 1)
        assert str(info.value) == (
            f"the integer action (P, q, lams) = {skewed} {self.WHERE} gives the aligned "
            "points 2 fixed-point data, not one")


@pytest.mark.parametrize("bound", range(1, SEARCH_MAX_GRID_BOUND + 1))
def test_no_class_has_c4_zero_on_its_first_direction(bound):
    """On the first direction (-b, u0 - b, -u2, -u3, -u4) of a class,
    c4(v) = (u0 - b) c3(u) - c4(u).  On the real psi_1 that is nonzero for
    every class of every accepted bound (9 757 in all), c3 = c4 = 0
    included, so each class resolves on its first direction; with
    test_classes_are_the_walks_at_first_appearance, class order is the
    order of a scan of the box."""
    evaluate = line_evaluator()
    for u in p2lab._classes(bound):
        c4, c3 = evaluate(*u)
        assert c4 != (u[0] - bound) * c3, u


def candidate_class(candidate):
    return line_class((candidate.m,) + candidate.alphas)


def test_forced_open_class_is_evaluated_once_in_class_order(monkeypatch):
    """Forced: at bound 3 the class (4, 1, 1, 1) of (131; 75, 14, 14, 14)
    answers c4 = c3, so c4(v) = (u0 - b) c3 - c4 = 0 on its first direction
    (-3, 1, -1, -1, -1).  The search still evaluates its orbit, the class
    alone, once, in class order, and tries no later direction: its point there is -c3*v, whose
    signs are mixed, so it is dropped, and every other candidate keeps its
    place."""
    classes = list(p2lab._classes(3))
    expected = search_unstable(3, 1)
    order = [classes.index(candidate_class(c)) for c in expected]
    assert order == sorted(order)
    point = (131, (75, 14, 14, 14))
    assert [(c.m, c.alphas) for c in expected if candidate_class(c) == (4, 1, 1, 1)] == [point]
    assert (expected[0].m, expected[0].alphas) == point and len(expected) > 1

    def forced(u, real):
        c4, c3 = real(*u)
        return (c3, c3) if u == (4, 1, 1, 1) else (c4, c3)

    calls = recorded_evaluator(monkeypatch, forced)
    found = search_unstable(3, 1)
    assert calls == [u for u in classes if descending(u)]
    assert found == [c for c in expected if (c.m, c.alphas) != point]


def _signs_can_keep(v):
    """The last three entries of a line's point are -c3 * (v2, v3, v4)."""
    return all(c < 0 for c in v[2:]) or all(c > 0 for c in v[2:])


def _can_be_ample(v):
    """m - a1 - a_j of a line's kept point is, up to a positive factor,
    s*(v0 - v1) - |v_j| for the sign s of the tail (v2, v3, v4)."""
    return _signs_can_keep(v) and (1 if v[2] > 0 else -1) * (v[0] - v[1]) > max(map(abs, v[2:]))


@pytest.mark.parametrize("bound, lines", [(1, 1), (2, 26), (3, 197), (4, 802)])
def test_line_directions_first_box_member(bound, lines):
    directions = list(p2lab_reference.walk_directions(bound))
    assert len(directions) == lines
    rays = [_ray(v) for v in directions]
    assert len(set(rays)) == lines
    for v, p in zip(directions, rays):
        assert v == tuple(-(bound // max(map(abs, p))) * c for c in p)
    assert directions == sorted(directions)
    assert directions == list(filter(_can_be_ample, p2lab_reference.line_directions(bound)))


@pytest.mark.parametrize("bound", [1, 2])
def test_line_directions_brute_force(bound):
    first, seen = [], set()
    for v in itertools.product(range(-bound, bound + 1), repeat=5):
        if any(v) and _ray(v) not in seen:
            seen.add(_ray(v))
            first.append(v)
    assert list(p2lab_reference.walk_directions(bound)) == list(filter(_can_be_ample, first))


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_dropped_lines_give_no_ample_point(bound):
    """Every sign-rule line the walk leaves out, evaluated as the reference
    does (two quartic evaluations), gives no kept ample point."""
    config = PointConfig.four_points_three_aligned()
    psi1 = p2lab._compile_int_poly(psi_reconstruct(config)[0])
    walked = set(p2lab_reference.walk_directions(bound))
    dropped = [v for v in p2lab_reference.line_directions(bound)
               if _signs_can_keep(v) and v not in walked]
    assert len(dropped) == {1: 9, 2: 191, 3: 1305, 4: 4975}[bound] - len(walked)
    for v in dropped:
        c4 = psi1(*v)
        c3 = psi1(1 + v[0], 1 + v[1], *v[2:]) - c4
        point = [c4 * b - c3 * c for b, c in zip(_TRIPLE_POINT, v)]
        if c4 and (min(point) > 0 or max(point) < 0):
            point = _ray(point)
            assert not ample_check(config, point[0], point[1:]), (v, point)


@pytest.mark.parametrize("bound", range(1, SEARCH_MAX_GRID_BOUND + 1))
def test_primitive_points_are_distinct(bound):
    """A point other than B fixes its line through B, and each class gives
    its point once, so no primitive point repeats."""
    points = [(c.m, c.alphas) for c in search_unstable(bound, 1)]
    assert len(points) == len(set(points))
