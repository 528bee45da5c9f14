"""Per-layer tracing from outside the package.

Two instruments, both installed by the benchmark and never by the program:

* `Tracer` replaces public functions of the package's modules with wrappers
  that record a span (name, start, end, parent span) and a call count.  A
  function is replaced in every module that holds a reference to it, so calls
  between modules and calls inside one module are both seen.  Spans stay in
  memory until the run writes them once at its end.
* `layer_profile` sums a cProfile pass per module file of the package: each
  function's self time goes to its module, and the self time of builtins and
  other code outside the package goes to the package module that called it.
  Private kernels are therefore measured whatever they are named.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import time
from collections import Counter

LAYERS = ("graphs", "detect", "goodness", "corpus", "orientation", "decompose", "hypergraphs", "cli")

# Public functions wrapped for spans and counts, by defining module.
WRAPPED = {
    "cli": ("main",),
    "goodness": ("verify_ramsey_value", "all_colorings_hit"),
    "detect": ("find_path", "is_pn_free"),
    "corpus": ("generate_pn_free", "wl_fingerprint", "are_isomorphic"),
    "orientation": ("orient_p5_free", "orient_p6_free", "orient_p7_free", "check_nst_bounded"),
    "hypergraphs": (
        "detect_triangle_decomposition", "build_dual", "chromatic_index",
        "generate_small_instances", "question25_search",
    ),
    "decompose": ("run_pipeline", "konig_edge_coloring"),
}


class Tracer:
    """Spans and counts recorded by wrappers around the package's functions."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, counts, stack = self.spans, self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if result is True:
                counts[name + ":true"] += 1
            return result

        return wrapper

    def install(self) -> "Tracer":
        for layer, names in WRAPPED.items():
            module = getattr(self.pkg, layer)
            for attr in names:
                fn = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in self.pkg.modules():
                    if getattr(holder, attr, None) is fn:
                        self._saved.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._saved):
            setattr(holder, attr, fn)
        self._saved.clear()

    def span_seconds(self, name: str) -> float:
        """Total time inside outermost spans of the given name."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and not self._inside(parent, name):
                total += end - start
        return total

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def profile(fn):
    """Run fn under cProfile; (result, pstats table)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    return result, pstats.Stats(prof).stats


def _layer_of(filename: str, package_dir: str) -> str | None:
    if os.path.dirname(os.path.abspath(filename)) != package_dir:
        return None
    layer = os.path.splitext(os.path.basename(filename))[0]
    return layer if layer in LAYERS else None


def layer_profile(stats: dict, package_dir: str) -> tuple[dict[str, float], dict]:
    """(self seconds per layer, calls and times per package function).

    Time in functions outside the package is split over its callers by the
    caller edges' own self time; the share whose caller is a package module
    goes to that module.
    """
    self_s = {layer: 0.0 for layer in LAYERS}
    functions = {}
    for (filename, line, name), (_cc, nc, tt, ct, callers) in stats.items():
        layer = _layer_of(filename, package_dir)
        if layer is not None:
            self_s[layer] += tt
            functions[f"{layer}:{name}:{line}"] = {"calls": nc, "self_s": tt, "cum_s": ct}
            continue
        for (caller_file, _l, _n), edge in callers.items():
            caller_layer = _layer_of(caller_file, package_dir)
            if caller_layer is not None:
                self_s[caller_layer] += edge[2]
    return self_s, functions


def callee_totals(stats: dict, package_dir: str, layer: str, caller: str) -> tuple[float, int]:
    """(inclusive seconds, calls) of everything the named function of a layer
    calls directly, summed over the caller edges."""
    seconds, calls = 0.0, 0
    for (_f, _l, _n), (_cc, _nc, _tt, _ct, callers) in stats.items():
        for (caller_file, _cl, caller_name), edge in callers.items():
            if caller_name == caller and _layer_of(caller_file, package_dir) == layer:
                calls += edge[1]
                seconds += edge[3]
    return seconds, calls
