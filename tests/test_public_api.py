"""The package's public names: every module's __all__ names what it defines,
and every public name, and every public member of a public class, has a
caller or a stated reason to be public."""
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import chowstab
from chowstab import (
    BaseSummary,
    BlownPoint,
    BlowupSpec,
    Candidate,
    CurveBundleSpec,
    DiagAction,
    HilbertData,
    MPoly,
    PointConfig,
    Poly,
    RatFn,
    Summand,
    WeightData,
    higher_futaki,
    projective_space_base,
    report,
    slope_classify,
)
from chowstab.verification import Mismatch

MODULES = ["chowstab"] + sorted(f"chowstab.{info.name}"
                                for info in pkgutil.iter_modules(chowstab.__path__))
REPO = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "demos", "perfbench")

# One entry per public name: each module's __all__ and what the package root
# re-exports.  An entry ending in ".py" is a file that calls the name (the
# defining module counts when another of its functions calls it); any other
# entry is the reason a name that nothing calls is public.  Prefer a caller:
# a reason is for a name that only states the paper.
PUBLIC = {
    # exactalg
    "Poly": "src/chowstab/chowcore.py",
    "RatFn": "src/chowstab/chowcore.py",
    "MPoly": "src/chowstab/p2lab.py",
    "parse_rational": "src/chowstab/cli.py",
    "format_rational": "src/chowstab/cli.py",
    "stirling_coeffs": "src/chowstab/blowup.py",
    "cm_constants": "perfbench/workloads.py",
    # chowcore
    "HilbertData": "src/chowstab/blowup.py",
    "WeightData": "src/chowstab/blowup.py",
    "InvariantReport": "src/chowstab/chowcore.py",
    "chow_weight_fn": "src/chowstab/chowcore.py",
    "futaki_invariants": "states the paper's F_l of a raw Hilbert and weight polynomial",
    "shift_linearization": "demos/01_invariants_from_polynomials.py",
    "report": "src/chowstab/blowup.py",
    # projbundle
    "Summand": "src/chowstab/cli.py",
    "CurveBundleSpec": "src/chowstab/cli.py",
    "SlopeVerdict": "src/chowstab/projbundle.py",
    "POLYSTABLE": "perfbench/workloads.py",
    "SEMISTABLE_NOT_POLYSTABLE": "perfbench/workloads.py",
    "UNSTABLE": "perfbench/workloads.py",
    "euler_char_poly": "src/chowstab/verification.py",
    "weight_poly": "src/chowstab/verification.py",
    "chow_weight": "src/chowstab/cli.py",
    "higher_futaki": "src/chowstab/cli.py",
    "slope_classify": "src/chowstab/cli.py",
    "oracle": "src/chowstab/verification.py",
    # blowup
    "BaseSummary": "src/chowstab/cli.py",
    "BlownPoint": "src/chowstab/cli.py",
    "BlowupSpec": "src/chowstab/cli.py",
    "projective_space_base": "src/chowstab/p2lab.py",
    "chi_tilde": "src/chowstab/cli.py",
    "w_tilde": "src/chowstab/cli.py",
    "d_f_g": "states the paper's D, f_l and g_l, whose point sums give F_l",
    "futaki_blowup": "src/chowstab/cli.py",
    "chow_blowup": "src/chowstab/cli.py",
    "adiabatic": "src/chowstab/cli.py",
    "oracle_p2": "src/chowstab/verification.py",
    # p2lab
    "DiagAction": "src/chowstab/verification.py",
    "PointConfig": "demos/04_unstable_polarizations.py",
    "Candidate": "src/chowstab/p2lab.py",
    "FOUR_POINTS_THREE_ALIGNED": "src/chowstab/p2lab.py",
    "THREE_GENERAL": "src/chowstab/p2lab.py",
    "PSI_VARIABLES": "src/chowstab/p2lab.py",
    "fixed_point_data": "src/chowstab/verification.py",
    "psi_reconstruct": "demos/04_unstable_polarizations.py",
    "triple_point_check": "demos/04_unstable_polarizations.py",
    "ample_check": "src/chowstab/p2lab.py",
    "three_point_loci": "src/chowstab/cli.py",
    "search_unstable": "src/chowstab/cli.py",
    # verification
    "Mismatch": "src/chowstab/verification.py",
    "projbundle_specs": "src/chowstab/verification.py",
    "check_projbundle_spec": "src/chowstab/verification.py",
    "run_projbundle_suite": "src/chowstab/cli.py",
    "blowup_cases": "src/chowstab/verification.py",
    "check_blowup_case": "src/chowstab/verification.py",
    "run_blowup_suite": "src/chowstab/cli.py",
    # errors, re-exported at the root
    "AmplenessWarning": "src/chowstab/projbundle.py",
    "CrossCheckError": "src/chowstab/chowcore.py",
    "DegenerateInputError": "src/chowstab/projbundle.py",
    "ResourceLimitError": "src/chowstab/p2lab.py",
}
CALLERS = {name: entry for name, entry in PUBLIC.items() if entry.endswith(".py")}

# One entry per public member of a public class, "Class.member": its
# methods, properties, classmethods and derived attributes, inherited from
# a class of the package or held by an instance.  An entry is a caller file
# that reads the member as an attribute, as in PUBLIC, or the reason that a
# member nothing reads is public.  Dataclass fields and the value protocol
# (every "_" name: equality, hash, repr, pickling and the arithmetic
# operators) need no entry: a field is what the constructor takes, and the
# protocol is what makes an instance a value.
MEMBERS = {
    # exactalg
    "Poly.one": "src/chowstab/exactalg.py",
    "Poly.coeffs": "src/chowstab/exactalg.py",
    "Poly.degree": "src/chowstab/chowcore.py",
    "Poly.is_zero": "src/chowstab/chowcore.py",
    "Poly.coefficient": "src/chowstab/verification.py",
    "Poly.descending": "src/chowstab/chowcore.py",
    "Poly.numerators": "src/chowstab/chowcore.py",
    "Poly.evaluate": "src/chowstab/verification.py",
    "Poly.pretty": "src/chowstab/cli.py",
    "RatFn.num": "src/chowstab/chowcore.py",
    "RatFn.den": "src/chowstab/chowcore.py",
    "RatFn.is_zero": "states the paper's case of a Chow weight that vanishes identically",
    "RatFn.evaluate": "src/chowstab/cli.py",
    "RatFn.pretty": "src/chowstab/cli.py",
    "MPoly.zeros": "src/chowstab/p2lab.py",
    "MPoly.constant": "src/chowstab/exactalg.py",
    "MPoly.variable": "src/chowstab/exactalg.py",
    "MPoly.generators": "src/chowstab/p2lab.py",
    "MPoly.variables": "src/chowstab/p2lab.py",
    "MPoly.is_zero": "src/chowstab/p2lab.py",
    "MPoly.terms": "src/chowstab/p2lab.py",
    "MPoly.pretty": "src/chowstab/p2lab.py",
    # chowcore
    "HilbertData.n": "src/chowstab/chowcore.py",
    "HilbertData.poly": "src/chowstab/chowcore.py",
    "HilbertData.from_poly": "src/chowstab/blowup.py",
    "HilbertData.a": "is the constructor field [a_0..a_n] that repr and pickle show",
    "WeightData.n": "src/chowstab/chowcore.py",
    "WeightData.poly": "src/chowstab/chowcore.py",
    "WeightData.from_poly": "src/chowstab/blowup.py",
    "WeightData.b": "demos/01_invariants_from_polynomials.py",
    # projbundle
    "CurveBundleSpec.n": "src/chowstab/projbundle.py",
    "CurveBundleSpec.deg_e": "src/chowstab/projbundle.py",
    "CurveBundleSpec.slope_gaps": "src/chowstab/projbundle.py",
    "CurveBundleSpec.chi": "src/chowstab/projbundle.py",
    "CurveBundleSpec.w": "src/chowstab/projbundle.py",
    "CurveBundleSpec.satisfies_ampleness_necessary": "src/chowstab/cli.py",
    # blowup
    "BaseSummary.degree": "src/chowstab/blowup.py",
    "BlowupSpec.alphas": "src/chowstab/blowup.py",
    "BlowupSpec.volume_gap": "src/chowstab/cli.py",
    "BlowupSpec.chi": "src/chowstab/blowup.py",
    "BlowupSpec.w": "src/chowstab/blowup.py",
    "BlowupSpec.hilbert_weight_data": "src/chowstab/blowup.py",
    # p2lab
    "PointConfig.four_points_three_aligned": "src/chowstab/p2lab.py",
    "PointConfig.three_general": "src/chowstab/p2lab.py",
}
MEMBER_CALLERS = {key: entry for key, entry in MEMBERS.items() if entry.endswith(".py")}


def public_objects() -> dict[str, object]:
    """Every name in a module's __all__, and every public non-module name of
    the root, with what it names."""
    objects = {}
    for name in MODULES:
        module = importlib.import_module(name)
        objects.update((attr, getattr(module, attr)) for attr in getattr(module, "__all__", ()))
    objects.update((attr, value) for attr, value in vars(chowstab).items()
                   if not attr.startswith("_") and not inspect.ismodule(value))
    return objects


def samples() -> dict[str, object]:
    """One instance of each public class that is not an error, its lazily
    derived numbers derived."""
    spec = CurveBundleSpec(genus=2, summands=(Summand(1, 1, 1), Summand(1, 0, 0)), b_deg=2)
    higher_futaki(spec)
    base = projective_space_base(2)
    point = BlownPoint(alpha=1, phi=Fraction(1, 3), lam=0)
    h, w = HilbertData(1, (1, 1)), WeightData(1, (0, -1, 0))
    return {
        "Poly": Poly((1, 2)), "RatFn": RatFn(Poly((1,)), Poly((1, 1))),
        "MPoly": MPoly.generators(("x",))[0], "HilbertData": h, "WeightData": w,
        "InvariantReport": report(h, w), "Summand": spec.summands[0],
        "CurveBundleSpec": spec, "SlopeVerdict": slope_classify(spec),
        "BaseSummary": base, "BlownPoint": point,
        "BlowupSpec": BlowupSpec(base=base, points=(point,), m=3),
        "DiagAction": DiagAction((2, -1, -1)), "PointConfig": PointConfig.three_general(),
        "Candidate": Candidate(m=131, alphas=(75, 14, 14, 14), psi1_value=Fraction(0),
                               psi2_value=Fraction(59976), ample=True, verified=True),
        "Mismatch": Mismatch(spec, 1, (1, 1), (1, 2)),
    }


def public_members() -> set[str]:
    """"Class.member" for every public member of every public class: what
    the package's classes in its MRO define, and what a sample instance
    holds, less the dataclass fields."""
    instances = samples()
    members = set()
    for name, cls in public_objects().items():
        if not inspect.isclass(cls):
            continue
        attrs = {attr for klass in cls.__mro__ if klass.__module__.startswith("chowstab.")
                 for attr in vars(klass)}
        if not issubclass(cls, BaseException):
            attrs.update(getattr(instances[name], "__dict__", ()))
        if dataclasses.is_dataclass(cls):
            attrs.difference_update(field.name for field in dataclasses.fields(cls))
        members.update(f"{name}.{attr}" for attr in attrs if not attr.startswith("_"))
    return members


def calls(path: Path, name: str) -> bool:
    """Whether the code of path uses name, as a name or an attribute; an
    import line, a definition, a string or a comment does not count."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(ast.parse(path.read_text())))


def reads(path: Path, member: str) -> bool:
    """Whether the code of path reads an attribute named member; an
    assignment, a definition, a string or a comment does not count."""
    return any(isinstance(node, ast.Attribute) and node.attr == member
               and isinstance(node.ctx, ast.Load)
               for node in ast.walk(ast.parse(path.read_text())))


def test_every_module_is_listed():
    assert {"chowstab.blowup", "chowstab.chowcore", "chowstab.p2lab", "chowstab.projbundle",
            "chowstab.verification"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    public = getattr(module, "__all__", None)
    if public is not None:
        assert len(public) == len(set(public)), name
        missing = [attr for attr in public if not hasattr(module, attr)]
        assert not missing, (name, missing)
    namespace = {}
    exec(f"from {name} import *", namespace)
    if public is not None:
        assert set(public) <= set(namespace)


def test_every_public_name_has_an_entry():
    assert sorted(public_objects().keys() - PUBLIC.keys()) == []


def test_every_entry_names_a_public_name():
    assert sorted(PUBLIC.keys() - public_objects().keys()) == []


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_caller_file_calls_the_name(name):
    path = REPO / CALLERS[name]
    assert path.parts[len(REPO.parts)] in CALLER_DIRS and path.is_file(), CALLERS[name]
    assert calls(path, name), f"{CALLERS[name]} does not call {name}"


def test_every_public_member_has_an_entry():
    assert sorted(public_members() - MEMBERS.keys()) == []


def test_every_member_entry_names_a_public_member():
    assert sorted(MEMBERS.keys() - public_members()) == []


@pytest.mark.parametrize("key", sorted(MEMBER_CALLERS))
def test_caller_file_reads_the_member(key):
    path = REPO / MEMBER_CALLERS[key]
    assert path.parts[len(REPO.parts)] in CALLER_DIRS and path.is_file(), MEMBER_CALLERS[key]
    assert reads(path, key.split(".")[1]), f"{MEMBER_CALLERS[key]} does not read {key}"
