"""Spans around the public entry points of each ``repro`` layer.

:class:`Tracer` replaces a fixed list of entry points with timing
wrappers (:data:`ENTRY_POINTS`), keeps one span per call in memory —
name, layer, start, end, parent, thread — and puts the original objects
back on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes: every
span is taken from outside, at a layer boundary.

Counters come from the wrapped calls' return values (the
``SaturationStats`` that ``saturate`` returns, the ``SatResult`` of each
solve, ...), so each ratio is measured where the work happens.  The
session's own ``StageStats`` is not used: its "encode" window also covers
``IncrementalSolver.ensure_vars`` and ``add_clauses``, which belong to the
SAT layer.

``EGraph.rebuild``, ``merge`` and ``find`` are deliberately absent: they
run about 10^5 times per run, and a wrapper there costs more than they do.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional

# (module, attribute path, layer).  A layer's self time is the time its
# spans spend outside every nested span.
ENTRY_POINTS = (
    ("repro.core.pipeline", "Denali.compile_gma", "core"),
    # The name session.py calls, so the saturation stage is timed whole.
    ("repro.core.session", "saturate", "matching"),
    ("repro.encode.constraints", "IncrementalEncoder.__init__", "encode"),
    ("repro.encode.constraints", "IncrementalEncoder.ensure_budget", "encode"),
    ("repro.encode.constraints", "IncrementalEncoder.budget_clauses", "encode"),
    ("repro.encode.constraints", "IncrementalEncoder.budget_stats", "encode"),
    ("repro.sat.incremental", "IncrementalSolver.ensure_vars", "sat.feed"),
    ("repro.sat.incremental", "IncrementalSolver.add_clauses", "sat.feed"),
    ("repro.sat.incremental", "IncrementalSolver.push_budget", "sat.feed"),
    ("repro.sat.incremental", "IncrementalSolver.solve", "sat.solve"),
    ("repro.sat.incremental", "IncrementalSolver.retire_budget", "sat.retire"),
    ("repro.core.probes", "LinearScheduler.search", "probes"),
    ("repro.core.probes", "BinaryScheduler.search", "probes"),
    ("repro.core.emit", "extract_schedule", "emit"),
    ("repro.extraction.refine", "refine_exact", "extraction"),
    ("repro.extraction.refine", "greedy_stats", "extraction"),
    ("repro.verify.checker", "check_schedule", "verify"),
    ("repro.lang", "parse_program", "lang"),
    ("repro.lang", "translate_procedure", "lang"),
    # Client side of the service: submit, the wait between polls, and
    # each status poll's HTTP round trip.
    ("repro.fabric.client", "FabricClient.submit", "fabric.submit"),
    ("repro.fabric.client", "FabricClient.result", "fabric.wait"),
    ("repro.fabric.client", "FabricClient._job_request", "fabric.poll"),
)

LAYERS = tuple(dict.fromkeys(layer for _m, _a, layer in ENTRY_POINTS))


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    layer: str
    name: str
    start: float
    end: float
    thread: int


# -- counters taken from return values ------------------------------------------


def _count_saturation(counts: Dict[str, float], stats) -> None:
    counts["matching.calls"] += 1
    counts["matching.rounds"] += stats.rounds
    counts["matching.matches_attempted"] += stats.matches_attempted
    counts["matching.matches_found"] += stats.matches_found
    counts["matching.instances"] += stats.instances_asserted
    counts["matching.budget_hits"] += 1 if stats.budget_hits else 0
    counts["egraph.enodes"] += stats.enodes
    counts["egraph.classes"] += stats.classes


def _count_budget_size(counts: Dict[str, float], size) -> None:
    counts["encode.vars_max"] = max(counts["encode.vars_max"], size["vars"])
    counts["encode.clauses_max"] = max(
        counts["encode.clauses_max"], size["clauses"]
    )


def _count_solve(counts: Dict[str, float], result) -> None:
    counts["sat.solves"] += 1
    counts["sat.conflicts"] += result.stats.conflicts
    counts["sat.propagations"] += result.stats.propagations
    if result.satisfiable is False:
        counts["sat.unsat"] += 1
    elif result.satisfiable is None:
        counts["sat.undecided"] += 1


def _count_search(counts: Dict[str, float], outcome) -> None:
    counts["probes.searches"] += 1
    counts["probes.probes"] += len(outcome.probes)


def _count_refine(counts: Dict[str, float], refined) -> None:
    _schedule, record = refined
    counts["extraction.refines"] += 1
    counts["extraction.solves"] += record.get("solves", 0)
    counts["extraction.improved"] += 1 if record.get("improved") else 0


def _count_poll(counts: Dict[str, float], _payload) -> None:
    counts["fabric.polls"] += 1


COUNTERS: Dict[str, Callable[[Dict[str, float], object], None]] = {
    "saturate": _count_saturation,
    "IncrementalEncoder.budget_stats": _count_budget_size,
    "IncrementalSolver.solve": _count_solve,
    "LinearScheduler.search": _count_search,
    "BinaryScheduler.search": _count_search,
    "refine_exact": _count_refine,
    "FabricClient._job_request": _count_poll,
}


# -- the tracer -----------------------------------------------------------------


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # (owner, attribute, original, owner defined it itself)
        self._saved: list = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, path, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for name in owners:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            own = attr in vars(owner)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, path, layer))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)
        spans, ids, lock = self.spans, self._ids, self._lock
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(
                    Span(
                        span_id, parent, layer, name, start, end,
                        threading.get_ident(),
                    )
                )
            if counter is not None:
                with lock:
                    counter(counts, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        return {
            span.id: (span.end - span.start) - covered[span.id]
            for span in self.spans
        }

    def layer_self_seconds(self) -> Dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        selfs = self.self_times()
        for span in self.spans:
            totals[span.layer] += selfs[span.id]
        return totals

    def layer_calls(self) -> Dict[str, int]:
        calls = dict.fromkeys(LAYERS, 0)
        for span in self.spans:
            calls[span.layer] += 1
        return calls

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (Perfetto and chrome://tracing read it)."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {
            ident: index
            for index, ident in enumerate(
                dict.fromkeys(s.thread for s in self.spans)
            )
        }
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {"id": span.id, "parent": span.parent},
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
