"""The public surface: every name in an `__all__` resolves, and none is listed
twice, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import deltaspec

MODULES = ["deltaspec"] + [
    f"deltaspec.{info.name}" for info in pkgutil.iter_modules(deltaspec.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []
