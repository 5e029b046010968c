"""The package's public names: every module's __all__ names what it defines,
and every public name has a caller or a stated reason to be public."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import chowstab

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


def public_names() -> set[str]:
    """Every name in a module's __all__, and every public non-module name of the root."""
    names = {attr for name in MODULES
             for attr in getattr(importlib.import_module(name), "__all__", ())}
    names.update(attr for attr, value in vars(chowstab).items()
                 if not attr.startswith("_") and not inspect.ismodule(value))
    return names


def calls(path: Path, name: str) -> bool:
    """Whether the code of path uses name, as a name or an attribute; an
    import line, a definition, a string or a comment does not count."""
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
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
    assert sorted(public_names() - PUBLIC.keys()) == []


def test_every_entry_names_a_public_name():
    assert sorted(PUBLIC.keys() - public_names()) == []


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_caller_file_calls_the_name(name):
    path = REPO / CALLERS[name]
    assert path.parts[len(REPO.parts)] in CALLER_DIRS and path.is_file(), CALLERS[name]
    assert calls(path, name), f"{CALLERS[name]} does not call {name}"
