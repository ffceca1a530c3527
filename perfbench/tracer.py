"""Per-layer spans around the deltaspec modules and the LAPACK entry points
they call.

Every public function of a deltaspec module is replaced, for the duration of
a `Tracer.installed()` block, by a wrapper that records a span.  Functions are
patched at every place the package looks them up: `spectral` binds
`gamma_imag_axis` and `resolvent` binds `gamma_entries` at import time, so
each deltaspec module namespace holding a reference to a wrapped function is
patched, not only the defining module.  The numpy.linalg entry points are
patched on `numpy.linalg`, which is where the package looks them up
(`np.linalg.solve(...)`).

Spans are aggregated as they close rather than stored: a layer's self time is
the span's duration minus the time covered by its child spans.  Layer calls
and assembled matrices are counted when control enters a layer from another
one, so `gamma_entries` calling `gamma_stack` counts as one model call; LAPACK
calls and matrices are counted at every routine span.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "model", "linalg", "resonance", "spectral", "resolvent")

# numpy.linalg entry points the package calls, each its own LAPACK routine.
NUMPY_ROUTINES = ("solve", "det", "svd", "cholesky", "eigvalsh", "eigh", "inv")

# deltaspec.linalg functions that are themselves one LAPACK routine: solve and
# lu_det call scipy's LU directly, cholesky is the pure-Python per-matrix
# fallback.  The other deltaspec.linalg functions reach LAPACK through the
# numpy entry points above.
DELTASPEC_ROUTINES = {"solve": "solve", "lu_det": "det", "cholesky": "cholesky"}


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def _batch_matrices(arr) -> int:
    """Number of square matrices in an array of shape (..., n, n)."""
    shape = getattr(arr, "shape", None) or np.shape(arr)
    if len(shape) < 2 or shape[-1] != shape[-2]:
        return 0
    return math.prod(shape[:-2])


class _Span:
    __slots__ = ("layer", "name", "caller", "children")

    def __init__(self, layer, name, caller):
        self.layer = layer
        self.name = name
        self.caller = caller  # innermost "layer.name" outside model and linalg
        self.children = 0.0


class Tracer:
    """Span aggregator.  Counters keep the totals of every installed block."""

    def __init__(self):
        self._stack: list[_Span] = []
        self.self_s = defaultdict(float)  # layer -> self time
        self.routine_self_s = defaultdict(float)  # LAPACK routine -> self time
        self.calls = Counter()  # layer -> entries from another layer
        self.function_calls = Counter()  # "layer.name" -> calls
        self.function_self_s = defaultdict(float)  # "layer.name" -> self time
        self.model_matrices = Counter()  # caller "layer.name" -> N x N matrices assembled
        self.routine_calls = Counter()  # routine -> calls
        self.routine_matrices = Counter()  # routine -> matrices factored or solved
        self.routine_calls_by_caller = Counter()  # (caller "layer.name", routine) -> calls
        self.cholesky_fallbacks = 0
        self._patches = None  # built on first install

    def _wrap(self, fn, layer, name, routine=None):
        stack = self._stack
        clock = time.perf_counter
        key = f"{layer}.{name}"
        leaf = layer in ("linalg", "model")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            caller = parent.caller if parent is not None else "none"
            entered = parent is None or parent.layer != layer
            self.function_calls[key] += 1
            if entered:
                self.calls[layer] += 1
            if routine is not None:
                self._count_routine(routine, name, args, parent, caller)
            span = _Span(layer, name, caller if leaf else key)
            stack.append(span)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent.children += elapsed
                own = elapsed - span.children
                self.self_s[layer] += own
                self.function_self_s[key] += own
                if routine is not None:
                    self.routine_self_s[routine] += own
            if layer == "model" and entered:
                self.model_matrices[caller] += _batch_matrices(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_routine(self, routine, name, args, parent, caller):
        self.routine_calls[routine] += 1
        self.routine_matrices[routine] += _batch_matrices(args[0]) if args else 0
        self.routine_calls_by_caller[(caller, routine)] += 1
        if name == "cholesky" and parent is not None and parent.name == "certify_real_axis":
            self.cholesky_fallbacks += 1

    def _plan(self):
        """(owner, attribute, wrapper) for every place a wrapped function is bound."""
        import deltaspec

        modules = {layer: sys.modules[f"deltaspec.{layer}"] for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for name, fn in _public_functions(module).items():
                routine = DELTASPEC_ROUTINES.get(name) if layer == "linalg" else None
                wrapped[fn] = self._wrap(fn, layer, name, routine)
        plan = []
        for module in [deltaspec, *modules.values()]:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrapped:
                    plan.append((module, attr, wrapped[value]))
        for name in NUMPY_ROUTINES:
            fn = getattr(np.linalg, name)
            plan.append((np.linalg, name, self._wrap(fn, "linalg", f"numpy.{name}", name)))
        return plan

    @contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block."""
        if self._patches is None:
            self._patches = self._plan()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        try:
            for owner, attr, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
