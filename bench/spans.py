"""Spans around the package's layer boundaries, installed from outside.

The tracer wraps a layer's function and replaces every reference to it in
the ``qdistill`` modules (``ted.make_compact`` is the same object as
``states.make_compact``), so each caller goes through the wrapper.  Each
call leaves a span: name, start, end, parent span and op id.  Spans stay in
memory until the run writes them out.  A function's self time is its span
minus the time its child spans cover.

A target that no longer exists (a later change deleted or renamed it) is
reported as absent, with a note, instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _copies_sampled(counts, args, kwargs, result, missed) -> None:
    config = args[0] if args else kwargs["config"]
    counts["montecarlo.copies_sampled"] += result.trials * (config.n_copies - 1)


def _outcome_strings(counts, args, kwargs, result, missed) -> None:
    if missed:
        counts["montecarlo.outcome_strings"] += len(result[0])


def _members(counts, args, kwargs, result, missed) -> None:
    counts["tsd.members"] += len(result.members)


def _dim3(counts, args, kwargs, result, missed) -> None:
    a = args[0] if args else kwargs["a"]
    counts["linalg.root_fidelity.dim3"] += a.shape[0] ** 3


def _rows(counts, args, kwargs, result, missed) -> None:
    counts["sweep.rows"] += len(result)


@dataclass(frozen=True)
class Target:
    """``module.attr`` is traced as ``name``; ``count`` adds the layer's
    work counts after each call.  ``counts`` lists the counts it adds."""

    name: str
    module: str
    attr: str
    count: Callable | None = None
    counts: tuple[str, ...] = ()


TARGETS = (
    Target("states.perfect_like", "qdistill.states", "perfect_like"),
    Target("states.make_compact", "qdistill.states", "make_compact"),
    Target("states.make_dense", "qdistill.states", "make_dense"),
    Target("filters.ghz_partition_assignment", "qdistill.filters", "ghz_partition_assignment"),
    Target("filters.w_assignment", "qdistill.filters", "w_assignment"),
    Target("ted.run_ted", "qdistill.ted", "run_ted"),
    Target("ted.success_prob_per_copy", "qdistill.ted", "success_prob_per_copy"),
    Target("ted.closed_form_fidelity", "qdistill.ted", "closed_form_fidelity"),
    Target("ted.apply_filter_layer", "qdistill.ted", "apply_filter_layer"),
    Target("ted.assignment_for", "qdistill.ted", "assignment_for"),
    Target("montecarlo.run_stats", "qdistill.montecarlo", "run_stats",
           _copies_sampled, ("montecarlo.copies_sampled",)),
    Target("montecarlo.trial_rng", "qdistill.montecarlo", "trial_rng"),
    Target("montecarlo.simulate_trial", "qdistill.montecarlo", "simulate_trial"),
    Target("montecarlo.outcome_distribution", "qdistill.montecarlo", "outcome_distribution",
           _outcome_strings, ("montecarlo.outcome_strings",)),
    Target("tsd.run_tsd", "qdistill.tsd", "run_tsd"),
    Target("tsd.build_assemblage", "qdistill.tsd", "build_assemblage",
           _members, ("tsd.members",)),
    Target("tsd.filter_assemblage", "qdistill.tsd", "filter_assemblage"),
    Target("tsd.mix_assemblages", "qdistill.tsd", "mix_assemblages"),
    Target("tsd.assemblage_fidelity_by_setting", "qdistill.tsd", "assemblage_fidelity_by_setting"),
    Target("linalg.root_fidelity", "qdistill.linalg", "_root_fidelity",
           _dim3, ("linalg.root_fidelity.dim3",)),
    Target("linalg.check_dense_cap", "qdistill.linalg", "check_dense_cap"),
    Target("sweep.grid_rows", "qdistill.sweep", "grid_rows", _rows, ("sweep.rows",)),
    Target("cli.main", "qdistill.cli", "main"),
    Target("cli.build_parser", "qdistill.cli", "build_parser"),
)

# (metric name, module, attr) of the package's lru_caches
CACHES = (
    ("ted.assignment_cache", "qdistill.ted", "_cached_assignment"),
    ("ted.zero_layer_cache", "qdistill.ted", "_compact_zero_layer"),
    ("montecarlo.outcome_cache", "qdistill.montecarlo", "outcome_distribution"),
)

# counts added by the workloads themselves, at the boundary they drive
WORKLOAD_COUNTS = ("cli.bytes_written",)

EXACT_COUNTS = tuple(c for t in TARGETS for c in t.counts) + WORKLOAD_COUNTS


def _lookup(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "qdistill" or n.startswith("qdistill.")]


class Tracer:
    """Installs the wrappers, records spans, counts and cache statistics
    between ``reset`` calls, and turns them into per-layer metrics."""

    def __init__(self) -> None:
        self.absent: dict[str, str] = {}
        self.caches = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # shared with the workloads, which add their own counts to it
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts."""
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()
        self.cache_counts = {name: [0, 0] for name in self.caches}
        self.op_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._cache_before = {}

    def begin_op(self, op_id: int) -> None:
        """Cache counters are read around each op, since an op's set-up may
        empty the caches, which also zeroes their counters."""
        self.op_id = op_id
        self._cache_before = {name: fn.cache_info() for name, fn in self.caches.items()}

    def end_op(self) -> None:
        for name, fn in self.caches.items():
            info, before = fn.cache_info(), self._cache_before[name]
            self.cache_counts[name][0] += info.hits - before.hits
            self.cache_counts[name][1] += info.misses - before.misses

    def install(self) -> None:
        for name, module, attr in CACHES:
            fn = _lookup(module, attr)
            if hasattr(fn, "cache_info"):
                self.caches[name] = fn
            else:
                self.absent[name] = f"{module}.{attr} is missing or not an lru_cache"
        for target in TARGETS:
            fn = _lookup(target.module, target.attr)
            if fn is None:
                self.absent[target.name] = f"{target.module}.{target.attr} is missing"
                continue
            wrapper = self._wrap(target, fn)
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))
        self.reset()

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def _wrap(self, target: Target, fn):
        name, count = target.name, target.count
        info = getattr(fn, "cache_info", None) if count else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]  # span id, time covered by children
            tracer._next_id += 1
            misses = info().misses if info else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append((frame[0], name, start, end,
                                     -1 if parent is None else parent[0], tracer.op_id))
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
            if count is not None:
                count(tracer.counts, args, kwargs, result,
                      info is None or info().misses > misses)
            return result

        return traced

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans and counts since the last reset."""
        out: dict[str, tuple[float, str]] = {}
        for target in TARGETS:
            out[f"{target.name}.calls"] = (self.calls.get(target.name, 0), "count")
            out[f"{target.name}.self_s"] = (self.self_s.get(target.name, 0.0), "s")
            for key in target.counts:
                out[key] = (self.counts.get(key, 0), "count")
        for name, _, _ in CACHES:
            hits, misses = self.cache_counts.get(name, (0, 0))
            out[f"{name}.hits"] = (hits, "count")
            out[f"{name}.misses"] = (misses, "count")
            out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        strings = self.counts.get("montecarlo.outcome_strings", 0)
        copies = self.counts.get("montecarlo.copies_sampled", 0)
        out["montecarlo.strings_per_copy"] = (strings / copies if copies else 0.0, "ratio")
        for key in WORKLOAD_COUNTS:
            out[key] = (self.counts.get(key, 0), "count")
        return out

    def absent_notes(self) -> dict[str, str]:
        """Metric name -> why it is absent, for every metric whose target
        could not be found."""
        notes = {}
        for target in TARGETS:
            if target.name in self.absent:
                for key in (f"{target.name}.calls", f"{target.name}.self_s", *target.counts):
                    notes[key] = self.absent[target.name]
        for name, _, _ in CACHES:
            if name in self.absent:
                for key in ("hits", "misses", "hit_ratio"):
                    notes[f"{name}.{key}"] = self.absent[name]
        return notes

    def span_record(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
