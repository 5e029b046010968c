"""The integer exact kernel against the Fraction-coefficient kernel it replaced.

Each derivation runs twice on fresh specs: once on chowstab.exactalg, and
once with the Poly and RatFn names of the modules that use them bound to
the reference kernel of exact_reference.  The coefficient tuples, read as
Fractions, must be equal.
"""
import itertools
import warnings
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact_reference as ref
from chowstab import blowup, chowcore, exactalg, p2lab, projbundle, verification
from chowstab.errors import AmplenessWarning
from projbundle_reference import twisted_slope

KERNEL_USERS = (projbundle, chowcore, blowup)

# Every 31st spec of the criterion-4 covering design; 31 is prime to the
# 2 twists x 6 B-degrees of its inner loops, so the sample meets every
# combination of them.
BUNDLE_STRIDE = 31


def coeffs(p) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in p.coeffs)


def ratfn_coeffs(f) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    return coeffs(f.num), coeffs(f.den)


def on_both_kernels(monkeypatch, derive, make_inputs):
    """derive() over fresh inputs on the library kernel, then on the reference.

    The blowup geometry cache holds polynomials of the kernel that built
    them, so each kernel starts from an empty cache, and the reference
    kernel's entries are dropped when it is unbound.
    """
    blowup._geometry_for.cache_clear()
    library = [derive(x) for x in make_inputs()]
    with monkeypatch.context() as patch:
        for module in KERNEL_USERS:
            patch.setattr(module, "Poly", ref.Poly)
            patch.setattr(module, "RatFn", ref.RatFn)
        blowup._geometry_for.cache_clear()
        try:
            reference = [derive(x) for x in make_inputs()]
        finally:
            blowup._geometry_for.cache_clear()
    return library, reference


def bundle_sample():
    return itertools.islice(verification.projbundle_specs(seed=0), 0, None, BUNDLE_STRIDE)


def bundle_values(spec):
    chi, w = projbundle.euler_char_poly(spec), projbundle.weight_poly(spec)
    out = {"kernel": type(chi), "r": spec.r, "chi": coeffs(chi), "w": coeffs(w)}
    if twisted_slope(spec) != 0:     # else chi has degree below n
        rep = chowcore.report(chowcore.HilbertData.from_poly(chi, spec.n),
                              chowcore.WeightData.from_poly(w, spec.n))
        out["report_chow"] = ratfn_coeffs(rep.chow)
        out["chow_weight"] = ratfn_coeffs(projbundle.chow_weight(spec))
        out["higher_futaki"] = tuple(projbundle.higher_futaki(spec))
    return out


def criterion5_specs():
    """A BlowupSpec for every case of the criterion-5 universe with D > 0."""
    base = blowup.projective_space_base(2)
    for weights, points, m in verification.blowup_cases():
        if base.degree - sum(Fraction(a, m) ** 2 for _, a in points) <= 0:
            continue
        action = p2lab.DiagAction(weights)
        yield blowup.BlowupSpec(base=base, m=m, points=tuple(
            blowup.BlownPoint(alpha, *p2lab.fixed_point_data(action, {axis}))
            for axis, alpha in points))


def criterion5_geometries():
    """One spec per geometry (m, alphas) of the criterion-5 universe: D, f_l
    and g_l do not depend on the action."""
    seen = set()
    for spec in criterion5_specs():
        if (spec.m, spec.alphas) not in seen:
            seen.add((spec.m, spec.alphas))
            yield spec


def blowup_values(spec):
    chi = blowup.chi_tilde(spec)
    return {"kernel": type(chi), "chi": coeffs(chi), "w": coeffs(blowup.w_tilde(spec)),
            "chow_blowup": ratfn_coeffs(blowup.chow_blowup(spec))}


def d_f_g_values(spec):
    out = {}
    for ell in range(1, spec.base.n + 1):
        d_val, f, g = blowup.d_f_g(spec, ell)
        out["kernel"] = type(f)
        out[ell] = (d_val, coeffs(f), coeffs(g))
    return out


def assert_same(library, reference):
    assert len(library) == len(reference)
    for got, want in zip(library, reference):
        assert got.pop("kernel") is exactalg.Poly
        assert want.pop("kernel") is ref.Poly
        assert got == want


def test_bundle_derivations_match_reference(monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AmplenessWarning)
        library, reference = on_both_kernels(monkeypatch, bundle_values, bundle_sample)
    twists = [v["r"] for v in library if "chow_weight" in v]
    assert twists.count(1) > 300 and twists.count(2) > 300
    assert_same(library, reference)


def test_blowup_derivations_match_reference(monkeypatch):
    library, reference = on_both_kernels(monkeypatch, blowup_values, criterion5_specs)
    assert len(library) > 2000
    assert_same(library, reference)
    library, reference = on_both_kernels(monkeypatch, d_f_g_values, criterion5_geometries)
    assert len(library) == 42
    assert_same(library, reference)


int_polys = st.lists(st.integers(-30, 30), min_size=1, max_size=5)
scalars = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)


@given(int_polys, int_polys, int_polys, scalars, scalars)
@settings(max_examples=300, deadline=None)
def test_reduction_matches_reference(a, b, g, c, d):
    assume(any(b) and any(g))
    got = exactalg.RatFn(exactalg.Poly(a) * exactalg.Poly(g) * c,
                         exactalg.Poly(b) * exactalg.Poly(g) * d)
    want = ref.RatFn(ref.Poly(a) * ref.Poly(g) * c, ref.Poly(b) * ref.Poly(g) * d)
    assert ratfn_coeffs(got) == ratfn_coeffs(want)
    if want.den.evaluate(7):
        assert got.evaluate(7) == want.evaluate(7)


def test_zero_numerator_is_canonical():
    f = exactalg.RatFn(exactalg.Poly(), exactalg.Poly((Fraction(-1, 2), 3)))
    assert ratfn_coeffs(f) == ((), (Fraction(1),))


@pytest.mark.parametrize("point", [3, Fraction(1, 3)])
def test_poly_evaluation_matches_reference(point):
    values = [Fraction(1, 6), Fraction(-5, 4), 0, Fraction(7, 3)]
    assert exactalg.Poly(values).evaluate(point) == ref.Poly(values).evaluate(point)
