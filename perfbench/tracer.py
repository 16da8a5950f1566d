"""Layer tracer for schurlab, installed from outside the package.

Each schurlab module is one layer, and ``lapack`` is the layer of
``numpy.linalg.svd``, ``numpy.linalg.eigh`` and ``numpy.einsum``.  The tracer
wraps every public module-level function and rebinds the wrapper wherever
callers look the name up: the defining module, every schurlab module that
imported the name, the package namespace, and numpy's own namespaces for the
LAPACK entry points.  Nothing under ``src/`` changes, and ``uninstall``
restores the originals.

A wrapped call is a span.  Its self time is its duration minus the durations
of the spans it contains, so the self times of all spans plus the time spent
outside any span add up to the traced wall time.  Private helpers (leading
underscore) and methods are not spans; their time is self time of the public
function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "constants", "decomp", "divdiff", "dyadic", "functions",
           "hms", "lowerlab", "matrixnum", "schur", "symcalc")
LAYERS = MODULES + ("lapack",)
LAPACK = (("svd", np.linalg), ("eigh", np.linalg), ("einsum", np))

# A restart counts as near-best when its ratio is within this relative
# distance of the search's best ratio.
NEAR_BEST_REL = 1e-9


class SpanStats:
    """Aggregates of one span name: calls, outermost total time, self time."""

    __slots__ = ("calls", "total_s", "self_s", "durations", "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = []
        self.active = 0  # recursion depth, so total_s counts outermost calls once

    def p50(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


class Tracer:
    """Records spans for every public schurlab function while installed.

    Counters start at zero; ``reset`` clears them between passes.
    """

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.restarts = 0
        self.near_best = 0
        self._paused = 0
        self._local = threading.local()
        self._bindings: list = []  # (namespace, attribute, original)

    # -- counters ---------------------------------------------------------

    def reset(self):
        for st in self.stats.values():
            st.calls, st.total_s, st.self_s, st.durations = 0, 0.0, 0.0, []
        self.restarts = 0
        self.near_best = 0

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(st.self_s for name, st in self.stats.items() if name.startswith(prefix))

    @contextmanager
    def paused(self):
        """Calls made inside run unrecorded; their time is outside any span."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrapping ---------------------------------------------------------

    def _observe(self, name: str, result):
        if name == "schur.norm_lower_search":
            ratios = result.per_restart
            self.restarts += len(ratios)
            best = result.ratio
            self.near_best += sum(1 for r in ratios if r >= best - NEAR_BEST_REL * abs(best))

    def _wrap(self, name: str, fn):
        st = self.stat(name)
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            st.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st.active -= 1
                if stack:
                    stack[-1][0] += dt
                st.calls += 1
                st.self_s += dt - frame[0]
                if st.active == 0:
                    st.total_s += dt
                    st.durations.append(dt)
            self._observe(name, result)
            return result

        return span

    def install(self):
        """Wrap and rebind every public function; idempotent per tracer."""
        if self._bindings:
            return
        package = importlib.import_module("schurlab")
        modules = [importlib.import_module(f"schurlab.{m}") for m in MODULES]
        wrappers = {}
        for short, mod in zip(MODULES, modules):
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        for attr, ns in LAPACK:
            original = getattr(ns, attr)
            self._bindings.append((ns, attr, original))
            setattr(ns, attr, self._wrap(f"lapack.{attr}", original))

    def uninstall(self):
        for ns, attr, original in reversed(self._bindings):
            setattr(ns, attr, original)
        self._bindings = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
