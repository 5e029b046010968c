"""The package's public names: every module's __all__ names what it defines."""
import importlib
import pkgutil

import pytest

import chowstab

MODULES = ["chowstab"] + sorted(f"chowstab.{info.name}"
                                for info in pkgutil.iter_modules(chowstab.__path__))


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
