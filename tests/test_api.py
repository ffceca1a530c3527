"""The public surface: every name in an `__all__` resolves, and none is listed
twice, in the package and in each of its modules; the types holding arrays
compare by identity; and the CLI starts without a second LAPACK binding, a
thread pool or any other new module."""

import importlib
import json
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


# The top-level modules that `import deltaspec.cli` adds to a bare interpreter
# (Python 3.11, numpy 2.4).  A module outside this set is new start-up cost
# for every CLI invocation.
CLI_IMPORTS = {
    "__future__", "_ast", "_compat_pickle", "_contextvars", "_csv", "_ctypes",
    "_datetime", "_json", "_opcode", "_pickle", "_string", "argparse", "ast",
    "contextvars", "copy", "csv", "ctypes", "dataclasses", "datetime",
    "deltaspec", "dis", "gettext", "inspect", "json", "linecache", "logging",
    "numbers", "numpy", "opcode", "pickle", "platform", "string", "textwrap",
    "token", "tokenize", "traceback",
}


def test_cli_import_loads_no_scipy():
    # numpy is the only LAPACK binding; importing scipy.linalg alone would
    # cost every CLI invocation a few tenths of a second.  No CLI path starts a
    # thread, so concurrent.futures, a start-up cost too, is never imported.
    # Nor does the import load any top-level module beyond CLI_IMPORTS.
    src = str(Path(deltaspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\n"
        "def tops(): return {m.split('.')[0] for m in sys.modules}\n"
        "bare = tops()\n"
        "import deltaspec.cli\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.startswith('concurrent.futures')), sorted(tops() - bare)]))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    heavy, added = json.loads(out.stdout)
    assert heavy == []
    assert sorted(set(added) - CLI_IMPORTS) == []


def _array_holding_values():
    """One of each public type whose fields hold arrays, built twice over."""
    cfg = deltaspec.PointConfig(alpha=[-1.0, 2.0], points=[[0, 0, 0], [1, 0, 0]])
    return [
        cfg,
        deltaspec.certify_real_axis(cfg),
        deltaspec.negative_eigenvalues(cfg).eigenvalues[0],
        deltaspec.classify_zero(cfg),
        deltaspec.laurent_at_zero(cfg),
    ]


def test_array_holding_types_compare_and_hash_by_identity():
    # a generated __eq__ would take an array's truth value and raise
    for a, b in zip(_array_holding_values(), _array_holding_values()):
        assert a == a and a != b, type(a).__name__
        assert len({a, b, a}) == 2, type(a).__name__
