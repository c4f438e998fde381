"""The public names: every module's ``__all__`` lists names that resolve,
each once, so a removed function cannot stay exported."""

import importlib
import pkgutil

import pytest

import chorefair

NAMES = ["chorefair"] + [
    info.name for info in pkgutil.walk_packages(chorefair.__path__, "chorefair.")
]
MODULES = [name for name in NAMES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted({n for n in exported if exported.count(n) > 1}) == []
