"""Spans around fppkit's public layer functions, recorded from outside.

A function imported with `from .geodesics import dijkstra` is bound in
several modules, so `Tracer.install` replaces every binding of each target
in every loaded fppkit module (and the methods on RegionGraph), and
`Tracer.uninstall` puts the originals back.  Spans stay in memory as
[name, start, end, parent index]; a layer's self time is its span minus the
spans of its children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name); None as span name counts calls without a span
FUNCTIONS = (
    ("geodesics", "dijkstra", "geodesics.dijkstra"),
    ("geodesics", "enumerate_geodesics", "geodesics.enumerate_geodesics"),
    ("geodesics", "first_lex_geodesic", "geodesics.first_lex_geodesic"),
    ("geodesics", "extreme_length_geodesics", "geodesics.extreme_length_geodesics"),
    ("fields", "edge_times_for", "fields.edge_times_for"),
    ("fields", "splice", "fields.splice"),
    ("fields", "sample_conditioned", "fields.sample_conditioned"),
    ("patterns", "pattern_hits", "patterns.pattern_hits"),
    ("patterns", "condition_holds", None),
    ("renormalization", "typicality_bounded", "renormalization.typicality_bounded"),
    ("modification", "build_plan_unbounded", "modification.build_plan_unbounded"),
    ("modification", "verify_modification_unbounded", "modification.verify_modification_unbounded"),
    ("config", "write_csv", "config.write_csv"),
)
METHODS = (
    ("__init__", "geodesics.RegionGraph.init"),
    ("field_from", "geodesics.RegionGraph.field_from"),
    ("weights_of", "geodesics.RegionGraph.weights_of"),
)


def _count_result(counts: Counter, name: str, out) -> None:
    if name == "geodesics.enumerate_geodesics":
        counts[name + ".paths"] += len(out.paths)
        counts[name + ".truncated"] += int(out.truncated)
    elif name == "patterns.pattern_hits":
        counts[name + ".hits"] += len(out)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str | None):
        tracer = self
        if name is None:
            key = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.counts[key] += 1
                return fn(*args, **kwargs)

            counted.perfbench_wrapper = True
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            _count_result(tracer.counts, name, out)
            return out

        traced.perfbench_wrapper = True
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items()) if k == "fppkit" or k.startswith("fppkit.")]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules["fppkit." + mod_name], attr, None)
            if original is None:  # a layer that no longer exists reads 0
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, binding, original))
                        setattr(mod, binding, wrapper)
        graph_cls = sys.modules["fppkit.geodesics"].RegionGraph
        for attr, name in METHODS:
            original = graph_cls.__dict__.get(attr)
            if original is None:
                continue
            self._patched.append((graph_cls, attr, original))
            setattr(graph_cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Bindings in fppkit that still hold a tracing wrapper."""
        owners = [m for k, m in list(sys.modules.items()) if k == "fppkit" or k.startswith("fppkit.")]
        owners.append(sys.modules["fppkit.geodesics"].RegionGraph)
        return [
            f"{getattr(o, '__name__', o)}.{attr}"
            for o in owners
            for attr, value in list(vars(o).items())
            if getattr(value, "perfbench_wrapper", False)
        ]

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def layer_totals(self, roots: set[str]) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time) over the spans that lie
        under a root span whose name is in `roots`."""
        child_time = [0.0] * len(self.spans)
        under = [False] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                under[i] = under[parent] or self.spans[parent][0] in roots
        totals: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            if under[i]:
                calls, self_s = totals.get(name, (0, 0.0))
                totals[name] = (calls + 1, self_s + (end - start) - child_time[i])
        return totals
