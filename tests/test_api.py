"""The public surface: every name in an `__all__` resolves, and none is listed
twice, in the package and in each of its modules; and the CLI starts without
a second LAPACK binding or a thread pool."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_scipy():
    # numpy is the only LAPACK binding; importing scipy.linalg alone would
    # cost every CLI invocation a few tenths of a second.  concurrent.futures
    # is imported only when a thread pool runs, for the same start-up cost.
    src = str(Path(deltaspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, deltaspec.cli; print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
