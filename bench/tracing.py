"""In-process tracing of `dqdsim.cli.main` through wrappers installed from here.

The package binds its functions with `from ... import`, so a wrapper has to
replace the name where the caller looks it up at call time: the layer entry
points in `dqdsim.cli` and `dqdsim.analysis`, and the bath functions in
`dqdsim.redfield` and `dqdsim.analytic`.  Bath functions are only counted: a
call takes about a microsecond, less than a span would cost.

A span records its name, start, end, parent span, and the workload and
invocation it belongs to.  `run_sweep` evaluates points on a worker thread;
a span opened on a thread with no open span of its own takes the innermost
open span of the invocation's thread as parent.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional


def _samples(args, kwargs, result) -> dict:
    return {"samples": len(result.times)}


def _propagate(args, kwargs, result) -> dict:
    n_steps = kwargs["n_steps"] if "n_steps" in kwargs else args[4]
    return {"steps": n_steps, "samples": len(result.times)}


def _points(args, kwargs, result) -> dict:
    return {"points": len(result.points)}


def _one_point(args, kwargs, result) -> dict:
    return {"points": 1}


# (module, attribute, span name, span attributes from (args, kwargs, result)).
# cli._run_engines is the CLI's inline copy of the per-point pipeline used by
# evolve and t2; the analysis.run_sweep.* metrics count it with run_sweep.
SPANS = (
    ("dqdsim.cli", "run_sweep", "analysis.run_sweep", _points),
    ("dqdsim.cli", "_run_engines", "cli._run_engines", _one_point),
    ("dqdsim.cli", "decoherence_time_empirical", "analysis.decoherence_time_empirical", None),
    ("dqdsim.cli", "chi_rate", "analytic.chi_rate", None),
    ("dqdsim.cli", "closed_form_trajectory", "analytic.closed_form_trajectory", _samples),
    ("dqdsim.cli", "build_tensor", "redfield.build_tensor", None),
    ("dqdsim.cli", "propagate_numeric", "redfield.propagate_numeric", _propagate),
    ("dqdsim.analysis", "decoherence_time_empirical", "analysis.decoherence_time_empirical", None),
    ("dqdsim.analysis", "chi_rate", "analytic.chi_rate", None),
    ("dqdsim.analysis", "closed_form_trajectory", "analytic.closed_form_trajectory", _samples),
    ("dqdsim.analysis", "build_tensor", "redfield.build_tensor", None),
    ("dqdsim.analysis", "propagate_numeric", "redfield.propagate_numeric", _propagate),
)
COUNTS = (
    ("dqdsim.cli", "spectral_density", "bath.spectral_density"),
    ("dqdsim.analytic", "spectral_density", "bath.spectral_density"),
    ("dqdsim.analytic", "bose_occupation", "bath.bose_occupation"),
    ("dqdsim.redfield", "spectral_density", "bath.spectral_density"),
    ("dqdsim.redfield", "bose_occupation", "bath.bose_occupation"),
)
ROOT_SPAN = "cli.main"
PIPELINE_SPANS = ("analysis.run_sweep", "cli._run_engines")
LAYERS = ("cli", "analysis", "analytic", "redfield")


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    workload: str
    invocation: str
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "workload": self.workload,
            "invocation": self.invocation,
            **self.attrs,
        }


class Tracer:
    """Spans and counts, kept in memory until the run writes them out."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.invocation = ""
        self.spans: list[Span] = []
        self.missing: list[str] = []  # patch targets the package no longer has
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._lock = threading.Lock()
        self._thread_counts: list[Counter] = []

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _counts(self) -> Counter:
        """This thread's counters; each thread only ever updates its own."""
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
            return counts

    @property
    def counts(self) -> Counter:
        with self._lock:
            return sum(self._thread_counts, Counter())

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(
            next(self._ids),
            name,
            None if parent is None else parent.id,
            0.0,
            self.workload,
            self.invocation,
        )
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def invocation_root(self, invocation: str):
        """The root span of one invocation, opened on the calling thread."""
        self.invocation = invocation
        self._root_stack = self._stack()
        root = self.open(ROOT_SPAN)
        try:
            yield root
        finally:
            self.close(root)

    def _timed(self, fn: Callable, name: str, measure) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            return result

        return traced

    def _counted(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._counts()[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original functions on exit."""
        originals = []
        try:
            for module_name, attr, name, measure in SPANS:
                wrap = functools.partial(self._timed, name=name, measure=measure)
                self._patch(originals, module_name, attr, wrap)
            for module_name, attr, name in COUNTS:
                self._patch(originals, module_name, attr, functools.partial(self._counted, name=name))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def _patch(self, originals: list, module_name: str, attr: str, wrap) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        originals.append((module, attr, fn))
        setattr(module, attr, wrap(fn))


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        result[s.id] = (s.end - s.start) - covered
    return result


def layer_stats(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, the rest counts)."""
    own = self_times(spans)
    stats: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        stats[f"{layer}.self_s"] = 0.0
    for s in spans:
        stats[f"{s.name.split('.')[0]}.self_s"] += own[s.id]
        name = PIPELINE_SPANS[0] if s.name in PIPELINE_SPANS else s.name
        stats[f"{name}.s"] += s.end - s.start
        stats[f"{name}.self_s"] += own[s.id]
        stats[f"{name}.calls"] += 1
        for key, value in s.attrs.items():
            stats[f"{name}.{key}"] += value
    stats["analysis.points"] = stats["analysis.run_sweep.points"]
    # bytes the closed form computes: 4 density-matrix entries of complex128
    stats["analytic.closed_form_trajectory.bytes"] = (
        stats["analytic.closed_form_trajectory.samples"] * 4 * 16
    )
    for name, n in counts.items():
        stats[f"{name}.calls"] += n
    return dict(stats)
