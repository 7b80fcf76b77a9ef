"""Spans and counters recorded around polaron's public functions, from outside
the package.

The package's modules import each other with ``from .x import y``, so one
function object is reachable under several module namespaces (for example
``potential_term`` through ``polaron.massbound`` and ``polaron.cli``).
``Tracer.install`` replaces the function in every ``polaron`` namespace that
holds it, and ``Tracer.remove`` puts every original back.  Nothing under
``src/polaron`` is edited.

A span is (name, start, end, parent).  A layer is one of the modules in
``LAYERS``; a span's name is ``<layer>.<function>``.  While a tracer is
installed with ``memory=True``, tracemalloc runs, and each span also records
the peak of traced memory above its value at span entry; tracemalloc slows
allocation-heavy Python code several times over, so timings come from tracers
installed without it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("cli", "solver", "coulomb", "transforms", "momentum", "massbound")

# private functions that are still layer boundaries worth a span, by span name
_PRIVATE = {
    ("cli", "_write_state_json"): "cli.write_artifacts",
    ("cli", "_write_profiles_csv"): "cli.write_artifacts",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    peak_bytes: int = 0


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration minus the part covered by direct children."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.name] += (span.end - span.start) - covered
    return dict(out)


def inclusive_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed duration of spans not nested in one of the same name."""
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            out[span.name] += span.end - span.start
    return dict(out)


class Tracer:
    """Records spans and counts at polaron's layer boundaries while installed."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._base: list[int] = []   # traced memory at entry of each open span
        self._carry: list[int] = []  # peak seen so far inside each open span
        self._patched: list[tuple[object, str, object]] = []
        self._names: set[str] = {"transforms.interp_eval"}
        self._started_tracemalloc = False

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> int:
        current, peak = tracemalloc.get_traced_memory() if self.memory else (0, 0)
        if self._carry:
            self._carry[-1] = max(self._carry[-1], peak)
        if self.memory:
            tracemalloc.reset_peak()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self._base.append(current)
        self._carry.append(current)
        self.counts[name + ".calls"] += 1
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        return idx

    def _exit(self, idx: int) -> None:
        end = time.perf_counter()
        peak = max(self._carry.pop(),
                   tracemalloc.get_traced_memory()[1] if self.memory else 0)
        span = self.spans[idx]
        span.end = end
        span.peak_bytes = peak - self._base.pop()
        self._stack.pop()
        if self._carry:
            self._carry[-1] = max(self._carry[-1], peak)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            return tracer._after(name, result)

        return wrapper

    def _after(self, name: str, result):
        if name == "solver.solve_pekar":
            self.counts["solver.scf_iterations"] += result.iterations
        elif name == "transforms.interpolator":
            return self._wrap_evaluator(result)
        return result

    def _wrap_evaluator(self, evaluate):
        tracer = self

        def traced_evaluate(q):
            idx = tracer._enter("transforms.interp_eval")
            try:
                return evaluate(q)
            finally:
                tracer._exit(idx)
                tracer.counts["transforms.interp_points"] += int(np.size(q))

        return traced_evaluate

    # -- installation -----------------------------------------------------

    def targets(self) -> list[tuple[str, object]]:
        """(span name, function) for every wrapped function of every layer."""
        out = []
        for layer in LAYERS:
            module = sys.modules.get(f"polaron.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if not attr.startswith("_"):
                    out.append((f"{layer}.{attr}", obj))
                elif (layer, attr) in _PRIVATE:
                    out.append((_PRIVATE[layer, attr], obj))
        return out

    def install(self) -> "Tracer":
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "polaron" or name.startswith("polaron.")]
        for name, fn in self.targets():
            self._names.add(name)
            wrapper = self._wrap(name, fn)
            for module in namespaces:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))
        if self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        return self

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds and calls per function, self seconds and peak MB per
        layer, and the counts; zero for a wrapped function that was not called."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {"solver.scf_iterations": 0, "transforms.interp_points": 0}
        for name in self._names:
            out[f"{name}.s"] = selfs.get(name, 0.0)
            out[f"{name}.calls"] = 0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(t for name, t in selfs.items()
                                         if name.startswith(layer + "."))
            peaks = [s.peak_bytes for s in self.spans if s.name.startswith(layer + ".")]
            out[f"{layer}.peak_alloc_mb"] = max(peaks, default=0) / 2**20
        out.update(self.counts)
        out["transforms.interpolator.builds"] = self.counts.get("transforms.interpolator.calls", 0)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        selfs, incl = self_times(self.spans), inclusive_times(self.spans)
        return {name: {"calls": self.counts[name + ".calls"], "incl_s": incl.get(name, 0.0),
                       "self_s": t} for name, t in sorted(selfs.items())}
