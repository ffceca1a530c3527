"""The public surface: every name in an `__all__` resolves, and none is listed
twice, in the package and in each of its modules; the types holding arrays
compare by identity; every result type hashes and refuses in-place writes;
and the CLI starts without a second LAPACK binding, a thread pool or any
other new module."""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # alpha = 0: a zero resonance, one kernel vector and a nonzero A_-1
    threshold = deltaspec.PointConfig(alpha=[0.0], points=[[0, 0, 0]])
    return [
        cfg,
        deltaspec.certify_real_axis(cfg),
        deltaspec.negative_eigenvalues(cfg)[0],
        deltaspec.classify_zero(threshold),
        deltaspec.laurent_at_zero(threshold),
    ]


def test_array_holding_types_compare_and_hash_by_identity():
    # a generated __eq__ would take an array's truth value and raise
    for a, b in zip(_array_holding_values(), _array_holding_values()):
        assert a == a and a != b, type(a).__name__
        assert len({a, b, a}) == 2, type(a).__name__


def _assert_frozen(value, path):
    """Fields cannot be set, containers are tuples and arrays are read-only,
    all the way down."""
    if dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, None)
            _assert_frozen(getattr(value, field.name), f"{path}.{field.name}")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _assert_frozen(item, f"{path}[{i}]")
    elif isinstance(value, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0
    else:
        assert isinstance(value, (bool, int, float, complex, str, type(None))), path


def test_result_types_hash_and_refuse_writes():
    # one center: the zero of alpha - iz/4pi at z = -0.2 pi i
    found = deltaspec.find_resonances(
        deltaspec.PointConfig(alpha=[0.05], points=[[0, 0, 0]]), deltaspec.Box(-1, 1, -1, 1)
    )
    values = [*_array_holding_values(), found, found.roots[0], found.searched]
    modules = [importlib.import_module(name) for name in MODULES]
    public = {getattr(module, name) for module in modules for name in module.__all__}
    assert {type(v) for v in values} == {t for t in public if dataclasses.is_dataclass(t)}
    for value in values:
        hash(value)
        _assert_frozen(value, type(value).__name__)
