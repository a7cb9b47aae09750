"""Spans around nlprob's public functions, recorded from outside the program.

A :class:`Tracer` replaces module attributes with timing wrappers while it
is installed and puts the originals back when it is removed. Each wrapper is
installed under the name its *caller* looks up (``nlprob.cli.execute`` is
what ``cli.main`` calls), so the program runs unchanged apart from the
wrapper's own cost.

A span records its name, start, end, parent and thread. The parent is the
innermost open span on the same thread; a span opened on a worker thread
with nothing open there (``--jobs 2`` path work) takes the innermost open
span of the thread that installed the tracer, which is blocked waiting for
the workers. A span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# counters derived from a wrapped call: (args, kwargs, result) -> {name: n}
Counter = Callable[[tuple, dict, Any], dict]


def _count_events(args, kwargs, result) -> dict:
    events = args[1] if len(args) > 1 else kwargs["events"]
    return {"capacity.events": len(events),
            "capacity.subset_pairs": len(events) ** 2}


def _count_cells(args, kwargs, result) -> dict:
    return {"models.cells": int(result.size)}


def _count_na(args, kwargs, result) -> dict:
    return {"dependence.na_checked": int(result.checked)}


def _count_path(args, kwargs, result) -> dict:
    return {"simulate.paths": 1, "simulate.steps": len(result.values)}


@dataclass(frozen=True)
class Probe:
    """Where a wrapper goes (``module``.``attr``) and the layer metric name."""

    module: str
    attr: str
    layer: str
    counter: Counter | None = None


# Every public function the benchmark workloads reach, under the name its
# caller uses. The layer names are the metric prefixes of BENCHMARK.json.
PROBES = (
    Probe("nlprob.cli", "parse_config", "config.parse_config"),
    Probe("nlprob.cli", "execute", "cli.execute"),
    Probe("nlprob.cli", "capacity_axiom_report", "capacity.axiom_report",
          _count_events),
    Probe("nlprob.cli", "sublinear_axiom_report",
          "expectation.sublinear_axiom_report"),
    Probe("nlprob.cli", "expectation_chain", "expectation.chain"),
    Probe("nlprob.cli", "inequality_suite", "expectation.inequality_suite"),
    Probe("nlprob.cli", "check_negative_association",
          "dependence.negative_association", _count_na),
    Probe("nlprob.cli", "check_vertical_independence", "dependence.vertical"),
    Probe("nlprob.cli", "forward_factorization_value", "dependence.forward"),
    Probe("nlprob.dependence", "product_expectation_table",
          "models.product_expectation_table", _count_cells),
    Probe("nlprob.models", "joint_expectation_table",
          "models.joint_expectation_table", _count_cells),
    Probe("nlprob.cli", "run_slln_experiment", "simulate.run_slln_experiment"),
    Probe("nlprob.simulate", "validate_schedule", "slln.validate_schedule"),
    Probe("nlprob.simulate", "sample_path", "simulate.sample_path", _count_path),
    Probe("nlprob.simulate", "normalized_partial_sums",
          "slln.normalized_partial_sums"),
    Probe("nlprob.cli", "dumps", "reports.dumps"),
)

LAYERS = tuple(p.layer for p in PROBES)
COUNTERS = ("capacity.events", "capacity.subset_pairs", "models.cells",
            "dependence.na_checked", "simulate.paths", "simulate.steps")
# the per-path work whose total grows when --jobs 2 threads wait on each other
PATH_LAYERS = ("simulate.sample_path", "slln.normalized_partial_sums")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Records spans and counters while installed; not reentrant."""

    def __init__(self, probes=PROBES) -> None:
        self.probes = probes
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            opener = stack or self._home
            parent = opener[-1] if opener else None
            span = Span(probe.layer, time.perf_counter(), 0.0, parent,
                        threading.get_ident())
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if probe.counter is not None:
                increments = probe.counter(args, kwargs, result)
                with self._lock:
                    for key, n in increments.items():
                        self.counts[key] += n
            return result
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._home = self._stack()
        for probe in self.probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr)
            self._saved.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrap(probe, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: summed self time, summed duration and call count."""
    totals = {layer: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
              for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name,
                              {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        t["self_s"] += own
        t["total_s"] += span.end - span.start
        t["calls"] += 1
    return totals


def root_time(spans: list[Span]) -> float:
    """Time covered by spans without a parent (the union of their intervals)."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    if not roots:
        return 0.0
    return covered(roots, min(a for a, _ in roots), max(b for _, b in roots))
