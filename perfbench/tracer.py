"""Spans and counts at the boundaries of the program's modules.

``Tracer.install`` wraps every public module-level function of each layer
and rebinds the wrapper wherever a stableseq module holds the function,
including names imported with ``from .exact import count_by_size``; without
that, calls through those names would escape the spans.  A span records
name, layer, start, end and the span that caused it.  Spans stay in memory;
``summary`` turns one pass of them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "stableseq"

LAYERS = ("cli", "graphs", "exact", "percolation", "seqshape", "bounds",
          "numerics", "cube", "cube_estimates")

# Leaf helpers called from the inner counting loops; a span there costs more
# than the work it would measure.
UNTRACED = {"numerics.popcount", "numerics.bits_of", "numerics.binom"}

# Per-function metrics: (function, metric suffixes).  A function that no
# longer exists is listed in ``Tracer.missing`` and reports 0.
FUNCTION_METRICS = (
    ("exact.side_profile", ("calls", "self_s")),
    ("exact.count_general", ("calls", "self_s")),
    ("exact.sequence_from_profile", ("self_s",)),
    ("graphs.graph_from_text", ("self_s",)),
    ("graphs.bipartition", ("self_s",)),
    ("graphs.regularity_profile", ("self_s",)),
    ("percolation.percolate", ("self_s",)),
    ("bounds.entropy_derivative", ("calls",)),
    ("bounds.build_bound_table", ("self_s",)),
    ("bounds.check_partition_dominance", ("self_s",)),
    ("numerics.ceil_of_product_with_e", ("calls", "self_s")),
    ("numerics.leq_exp_of", ("calls",)),
    ("cube.small_set_scan", ("self_s",)),
    ("cube_estimates.f_cut", ("calls", "self_s")),
    ("cube_estimates.estimate_window", ("self_s",)),
)

# Counts taken from arguments and results at the same boundaries.
COUNTERS = ("exact.subset_steps", "exact.vertices", "percolation.trials",
            "percolation.checked_ratio", "cube.cache_hits", "cube.cache_misses")

# Reported by the worker around the traced passes.
RUN_METRICS = ("trace.overhead_s", "trace.spans", "setup.import_s")


def metric_names() -> list[str]:
    names = [f"{layer}.{m}" for layer in LAYERS
             for m in ("calls", "busy_s", "self_s")]
    names += [f"{fn}.{m}" for fn, ms in FUNCTION_METRICS for m in ms]
    return names + list(COUNTERS) + list(RUN_METRICS)


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def _cache_snapshot(root):
    if not root or not os.path.isdir(root):
        return None
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size)
            for e in os.scandir(root)}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, layer, start, end, parent, outer]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []
        self._hooks = {
            "exact.count_by_size": (None, self._after_count),
            "exact.side_profile": (None, self._after_side_profile),
            "percolation.run_experiment": (None, self._after_experiment),
            "cube.small_set_scan": (self._before_scan, self._after_scan),
        }

    # -- counters ----------------------------------------------------------

    def _after_count(self, state, args, kwargs, result):
        self.counts["exact.vertices"] += args[0].n

    def _after_side_profile(self, state, args, kwargs, result):
        self.counts["exact.subset_steps"] += 1 << result.class_e_size

    def _after_experiment(self, state, args, kwargs, result):
        self.counts["percolation.trials"] += len(result.records)
        self.counts["percolation.unflagged"] += sum(
            not r.flagged for r in result.records)

    def _before_scan(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        root = bound.get("cache_dir") or os.environ.get("STABLESEQ_CACHE_DIR")
        return root, _cache_snapshot(root)

    def _after_scan(self, state, args, kwargs, result):
        root, before = state
        if root:   # a cache is configured: a hit leaves the directory as it was
            hit = before is not None and _cache_snapshot(root) == before
            self.counts["cube.cache_hits" if hit else "cube.cache_misses"] += 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        before, after = self._hooks.get(name, (None, None))
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(fn, args, kwargs) if before else None
            span = [name, layer, 0, 0, stack[-1] if stack else -1,
                    depth[layer] == 0]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                depth[layer] -= 1
                stack.pop()
            if after:
                after(state, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}                      # id(original) -> (original, wrapper)
        names, self.missing = set(), []
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{layer}")
            except ModuleNotFoundError:
                self.missing.append(layer)
                continue
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or not inspect.isfunction(obj) or \
                        obj.__module__ != mod.__name__ or name in UNTRACED or \
                        inspect.isgeneratorfunction(obj):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, layer, obj))
                names.add(name)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patches.append((mod, attr, obj))
        named = {fn for fn, _ in FUNCTION_METRICS} | set(self._hooks)
        self.missing += sorted(named - names)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far.  A layer's busy
        time is the time covered by its outermost spans; self time is span
        time minus the time of child spans."""
        child_ns = [0] * len(self.spans)
        for name, layer, start, end, parent, outer in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, busy, self_ns = Counter(), Counter(), Counter()
        for i, (name, layer, start, end, parent, outer) in enumerate(self.spans):
            for key in (name, layer):
                calls[key] += 1
                self_ns[key] += end - start - child_ns[i]
            if outer:
                busy[layer] += end - start
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.busy_s"] = busy[layer] / 1e9
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for fn, metrics in FUNCTION_METRICS:
            for m in metrics:
                out[f"{fn}.{m}"] = calls[fn] if m == "calls" else self_ns[fn] / 1e9
        for key in COUNTERS:
            out[key] = self.counts[key]
        trials = self.counts["percolation.trials"]
        out["percolation.checked_ratio"] = (
            self.counts["percolation.unflagged"] / trials if trials else 0.0)
        out["trace.spans"] = len(self.spans)
        return out
