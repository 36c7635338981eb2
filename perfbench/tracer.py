"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each layer *from outside the
program*: entering a :class:`Tracer` replaces each class attribute or
module function listed below with a timing wrapper, and leaving it puts
the original back.  Nothing under ``src/`` knows it is being traced, and
an untraced run installs no wrapper at all.

Spans nest on one stack (main thread only; the socket coordinator's
exchange threads call through untouched).  A span's *self* time is its
duration minus the durations of the spans directly below it, so the self
times of all spans in a phase add up to the phase's covered wall-clock.
Every figure is kept per phase: ``setup`` (world generation, engine
construction, a churn run's epoch 0), ``measure`` (the work the
end-to-end metrics time), and ``socket.setup`` and ``socket.measure``
for the socket survey of a traced ``cold_survey`` run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  Several entry points may share a
#: span name; each is one boundary of that layer.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.topology.generator", "InternetGenerator.generate",
     "topology.generate"),
    ("repro.netsim.network", "SimulatedNetwork.send_query", "netsim"),
    ("repro.dns.server", "AuthoritativeServer.handle_query", "dns.server"),
    ("repro.dns.resolver", "IterativeResolver.zone_cut_chain",
     "dns.resolver"),
    ("repro.dns.resolver", "IterativeResolver.invalidate_zones",
     "dns.resolver.invalidate"),
    ("repro.core.delegation", "DelegationGraphBuilder.tcb_view",
     "core.delegation"),
    ("repro.core.delegation", "DelegationGraphBuilder.apply_changes",
     "core.delegation.apply_changes"),
    ("repro.vulns.fingerprint", "Fingerprinter.fingerprint", "vulns"),
    ("repro.core.engine", "compute_tcb_report", "core.tcb.report"),
    ("repro.core.mincut", "BottleneckAnalyzer.analyze", "core.mincut"),
    ("repro.core.passes", "AvailabilityPass.analyze",
     "core.passes.availability"),
    ("repro.core.passes", "ValueRankingPass.finalize",
     "core.passes.value.finalize"),
    ("repro.core.engine", "SurveyAggregator.add_record",
     "core.engine.aggregate"),
    ("repro.core.engine", "SurveyAggregator.merge_context",
     "core.engine.aggregate"),
    ("repro.core.engine", "SurveyAggregator.merge_maps",
     "core.engine.aggregate"),
    ("repro.core.engine", "SurveyAggregator.tcb_host_union",
     "core.engine.aggregate"),
    ("repro.core.engine", "SurveyAggregator.restrict_hosts",
     "core.engine.aggregate"),
    ("repro.core.engine", "SurveyAggregator.results",
     "core.engine.aggregate"),
    ("repro.topology.churn", "ChurnModel.advance", "topology.churn"),
    ("repro.core.delta", "DirtyIndex.__init__", "core.delta.index"),
    ("repro.core.delta", "DirtyIndex.dirty_names", "core.delta.index"),
    ("repro.core.engine", "SurveyEngine.run_delta", "core.delta"),
    # The epoch reduce has no public entry point; the runner calls it.
    ("repro.core.timeline", "_reduce_epoch", "core.timeline.reduce"),
    ("repro.core.timeline", "diff_results", "core.snapshot.diff"),
    ("repro.core.snapshot", "diff_results", "core.snapshot.diff"),
    ("repro.core.snapstore", "EpochStore.append", "core.snapstore.append"),
    ("repro.core.atomic", "AtomicFile.commit", "core.atomic.commit"),
    ("repro.core.snapstore", "EpochStore.load_epoch",
     "core.snapstore.load_epoch"),
    ("repro.core.snapstore", "LazySurveyResults.record_for",
     "core.snapstore.record_for"),
    ("repro.distrib.coordinator", "ShardCoordinator.__init__",
     "distrib.build"),
    ("repro.distrib.coordinator", "ShardCoordinator.run_shards", "distrib"),
    # The coordinator blocks here until every worker's reply frame is in.
    ("repro.distrib.coordinator", "ShardCoordinator._broadcast",
     "distrib.wait"),
    ("repro.distrib.coordinator", "unpack_shard_result", "distrib.decode"),
)

#: Entry points that are counted but not timed: too cheap for a span.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.engine", "WorkerContext.fingerprint",
     "core.engine.fingerprint"),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """Per-phase span and counter accumulators, plus the wrappers."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: (phase, parent span or None, span) -> [calls, total_s, self_s]
        self.spans: Dict[Tuple[str, Optional[str], str], List[float]] = {}
        #: (phase, counter) -> value
        self.counters: Dict[Tuple[str, str], float] = {}
        #: (phase, lazy view) for every epoch opened under tracing.
        self.views: List[Tuple[str, object]] = []
        self._stack: List[List[object]] = []
        self._main = threading.get_ident()
        self._originals: List[Tuple[object, str, object]] = []
        self._on_return: Dict[str, Callable[[object], None]] = {
            "topology.churn": lambda events: self.count(
                "topology.churn.events", len(events)),
            "core.delta": lambda outcome: self.count(
                "core.delta.dirty_names", outcome.stats.dirty_names),
            "core.snapstore.append": lambda path: self.count(
                "core.snapstore.append_bytes", path.stat().st_size),
            "core.snapstore.load_epoch": lambda view: self.views.append(
                (self.phase, view)),
        }

    # -- installation ------------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        """Install every wrapper."""
        for module_name, path, name in SPANS:
            self._patch(module_name, path, self._span(name))
        for module_name, path, name in COUNTED:
            self._patch(module_name, path, self._counter(name))
        return self

    def __exit__(self, *exc_info) -> None:
        """Put every original back."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _patch(self, module_name: str, path: str,
               make_wrapper: Callable[[Callable], Callable]) -> None:
        owner, attribute = _resolve(module_name, path)
        original = getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    # -- wrappers ----------------------------------------------------------------------

    def count(self, counter: str, amount: float = 1) -> None:
        key = (self.phase, counter)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _counter(self, name: str):
        def make(func):
            @functools.wraps(func)
            def counted(*args, **kwargs):
                if threading.get_ident() == self._main:
                    self.count(name)
                return func(*args, **kwargs)
            return counted
        return make

    def _span(self, name: str):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        main = self._main
        on_return = self._on_return.get(name)

        def make(func):
            @functools.wraps(func)
            def span(*args, **kwargs):
                if threading.get_ident() != main:
                    return func(*args, **kwargs)
                frame = [name, 0.0]
                stack.append(frame)
                started = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    stack.pop()
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += elapsed
                    key = (self.phase,
                           parent[0] if parent is not None else None, name)
                    entry = spans.get(key)
                    if entry is None:
                        entry = spans[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                if on_return is not None:
                    on_return(result)
                return result
            return span
        return make

    # -- queries -----------------------------------------------------------------------

    def _sum(self, field: int, name: str, phase: str,
             parent: object = ...) -> float:
        return sum(entry[field] for (span_phase, span_parent, span_name),
                   entry in self.spans.items()
                   if span_phase == phase and span_name == name
                   and (parent is ... or span_parent == parent))

    def calls(self, name: str, phase: str = "measure",
              parent: object = ...) -> int:
        return int(self._sum(0, name, phase, parent))

    def self_s(self, name: str, phase: str = "measure",
               parent: object = ...) -> float:
        return self._sum(2, name, phase, parent)

    def total_s(self, name: str, phase: str = "measure",
                parent: object = ...) -> float:
        return self._sum(1, name, phase, parent)

    def counter(self, name: str, phase: str = "measure") -> float:
        return self.counters.get((phase, name), 0)

    def top_level_s(self, phase: str = "measure") -> float:
        """Wall-clock covered by spans (the sum of top-level durations)."""
        return sum(entry[1] for (span_phase, parent, _name), entry
                   in self.spans.items()
                   if span_phase == phase and parent is None)

    def breakdown(self, phase: str = "measure"
                  ) -> List[Tuple[str, int, float]]:
        """(span, calls, self_s) per span name, largest self time first."""
        rows: Dict[str, List[float]] = {}
        for (span_phase, _parent, name), entry in self.spans.items():
            if span_phase == phase:
                row = rows.setdefault(name, [0, 0.0])
                row[0] += entry[0]
                row[1] += entry[2]
        return sorted(((name, int(calls), self_time)
                       for name, (calls, self_time) in rows.items()),
                      key=lambda row: -row[2])

    def hydrated_rows(self, phase: str = "measure") -> int:
        return sum(view.hydrated_record_count
                   for view_phase, view in self.views if view_phase == phase)
