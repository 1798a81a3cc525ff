"""Staged compilation sessions.

One :class:`CompilationSession` runs the paper's Figure 1 pipeline for a
single GMA as explicit, observable stages — **saturation** (matcher +
axioms, served from the cross-compilation saturation cache when the same
goals were saturated before), **encode** (per-budget CNF, sharing the
budget-independent prefix across probes), **sat** (the CDCL solver, with
deadline/cancellation plumbing for the portfolio scheduler), **extract**
(model decoding) and **verify** (differential checking) — and threads a
:class:`StageStats` record through them.

Completed sessions are announced to registered observers
(:func:`add_observer`), which is how the CLI's ``--stats-json`` report
and the benchmark harness's per-test stage breakdowns are collected
without the pipeline knowing about either.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import cache as _cache
from repro.core.probes import Probe, SearchOutcome, get_scheduler
from repro.egraph.egraph import EGraph, EGraphSnapshot, ENode
from repro.encode.constraints import (
    IncrementalEncoder,
    cycle_floor,
    encode_schedule,
)
from repro.lang.gma import GMA
from repro.matching.saturation import SaturationStats, saturate
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import CdclSolver


@dataclass
class StageStats:
    """Per-stage telemetry of one compilation session.

    ``timings`` maps stage names (``saturation``, ``encode``, ``sat``,
    ``extract``, ``verify``, ``total``) to wall-clock seconds; ``encode``,
    ``sat`` and ``extract`` are summed over all probes.  ``cache`` holds
    the session's own hit/miss events (not the global cache totals).
    """

    label: str = ""
    strategy: str = ""
    # Which engine compiled this GMA ("sat" | "stochastic" | "race") and,
    # for races, which contestant's schedule was kept.
    backend: str = "sat"
    winner: Optional[str] = None
    # The stochastic campaign's per-chain telemetry (StochasticOutcome
    # .stats_dict()), present for the stochastic and race backends.
    stochastic: Optional[dict] = None
    timings: Dict[str, float] = field(default_factory=dict)
    probes: List[Probe] = field(default_factory=list)
    saturation: Optional[SaturationStats] = None
    # The extraction stage's record (mode, selected-term costs, solver
    # effort) — present for both the greedy and the exact mode.
    extraction: Optional[dict] = None
    cache: Dict[str, int] = field(
        default_factory=lambda: {
            "saturation_hits": 0,
            "saturation_misses": 0,
            "cnf_prefix_cycles_reused": 0,
            "cnf_prefix_cycles_built": 0,
            "solver_clauses_fed": 0,
            "solver_learned_reused": 0,
            "solver_learnts_dropped": 0,
            # Flat-core telemetry: peak clause-arena bytes across the
            # session's solvers, watch-list / arena compaction counts,
            # and bytes moved by E-graph snapshot/restore copies.
            "solver_arena_bytes": 0,
            "solver_watch_compactions": 0,
            "solver_arena_compactions": 0,
            "snapshot_copy_bytes": 0,
        }
    )
    best_cycles: Optional[int] = None
    optimal: bool = False
    # The encoder's proved cycle floor (the probe ladder's first budget)
    # and what proves the optimum: "floor" (the best budget is the floor
    # itself), "unsat" (a probe refuted the budget below) or None.
    cycle_floor: Optional[int] = None
    optimal_by: Optional[str] = None
    verified: Optional[bool] = None

    def add_time(self, stage: str, seconds: float) -> None:
        self.timings[stage] = self.timings.get(stage, 0.0) + seconds

    def to_dict(self) -> dict:
        sat = None
        if self.saturation is not None:
            s = self.saturation
            sat = {
                "rounds": s.rounds,
                "instances_asserted": s.instances_asserted,
                "quiescent": s.quiescent,
                "enodes": s.enodes,
                "classes": s.classes,
                "incremental": s.incremental,
                "matches_attempted": s.matches_attempted,
                "matches_found": s.matches_found,
                "matches_pruned": s.matches_pruned,
                "clauses_recorded": s.clauses_recorded,
                "clause_assertions": s.clause_assertions,
                "constants_folded": s.constants_folded,
                "constants_synthesized": s.constants_synthesized,
                "budget_hits": {
                    key: dict(val) if isinstance(val, dict) else val
                    for key, val in s.budget_hits.items()
                },
                "per_axiom": {
                    name: {
                        "seconds": round(entry.get("seconds", 0.0), 6),
                        "matches": entry.get("matches", 0),
                        "instances": entry.get("instances", 0),
                    }
                    for name, entry in s.per_axiom.items()
                },
                "phase_seconds": {
                    k: round(v, 6) for k, v in s.phase_seconds.items()
                },
            }
        return {
            "label": self.label,
            "strategy": self.strategy,
            "backend": self.backend,
            "winner": self.winner,
            "stochastic": self.stochastic,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "probes": [p.to_dict() for p in self.probes],
            "saturation": sat,
            "extraction": self.extraction,
            "cache": dict(self.cache),
            "best_cycles": self.best_cycles,
            "optimal": self.optimal,
            "cycle_floor": self.cycle_floor,
            "optimal_by": self.optimal_by,
            "verified": self.verified,
            "cnf": {
                "max_vars": max((p.vars for p in self.probes), default=0),
                "max_clauses": max((p.clauses for p in self.probes), default=0),
                "total_conflicts": sum(p.conflicts for p in self.probes),
            },
        }


def aggregate_stats(collected: List["StageStats"]) -> dict:
    """Sum per-stage timings and cache counters over many sessions.

    Shared by the CLI's ``--stats-json`` report, the benchmark harness's
    per-test breakdowns and the compilation service's per-worker metrics.
    """
    timings: Dict[str, float] = {}
    cache: Dict[str, int] = {}
    saturation: Dict[str, int] = {
        "sessions": 0,
        "incremental_sessions": 0,
        "rounds": 0,
        "quiescent": 0,
        "instances_asserted": 0,
        "matches_attempted": 0,
        "matches_found": 0,
        "matches_pruned": 0,
    }
    budget_hits: Dict[str, int] = {}
    extraction: Dict[str, int] = {
        "sessions": 0,
        "exact_sessions": 0,
        "improved": 0,
        "proved": 0,
        "greedy_cost": 0,
        "exact_cost": 0,
        "solves": 0,
        "pruned": 0,
        "fallbacks": 0,
    }
    # Per-backend win counts: which engine produced the kept schedule.
    wins: Dict[str, int] = {"sat": 0, "stochastic": 0}
    stochastic: Dict[str, int] = {
        "campaigns": 0,
        "chains": 0,
        "proposals": 0,
        "accepted": 0,
        "oracle_calls": 0,
        "oracle_passes": 0,
        "counterexamples": 0,
        "restarts": 0,
        "unsupported": 0,
    }
    # The probe ladder's proved floors and what backed each optimum.
    floors: Dict[str, int] = {"sessions": 0, "sum": 0, "at_optimum": 0}
    optimal_by: Dict[str, int] = {"floor": 0, "unsat": 0}
    for stats in collected:
        if stats.cycle_floor is not None:
            floors["sessions"] += 1
            floors["sum"] += stats.cycle_floor
            if stats.best_cycles == stats.cycle_floor:
                floors["at_optimum"] += 1
        if stats.optimal_by is not None:
            optimal_by[stats.optimal_by] += 1
        for stage, seconds in stats.timings.items():
            timings[stage] = timings.get(stage, 0.0) + seconds
        for key, value in stats.cache.items():
            cache[key] = cache.get(key, 0) + value
        if stats.best_cycles is not None:
            winner = stats.winner or (
                "stochastic" if stats.backend == "stochastic" else "sat"
            )
            wins[winner] = wins.get(winner, 0) + 1
        sto = stats.stochastic
        if sto is not None:
            stochastic["campaigns"] += 1
            if sto.get("unsupported"):
                stochastic["unsupported"] += 1
            totals = sto.get("totals", {})
            for key in (
                "chains",
                "proposals",
                "accepted",
                "oracle_calls",
                "oracle_passes",
                "counterexamples",
                "restarts",
            ):
                stochastic[key] += totals.get(key, 0)
        ext = stats.extraction
        if ext is not None:
            extraction["sessions"] += 1
            if ext.get("mode") == "exact":
                extraction["exact_sessions"] += 1
                extraction["improved"] += 1 if ext.get("improved") else 0
                extraction["proved"] += 1 if ext.get("proved") else 0
                extraction["greedy_cost"] += ext.get("greedy_cost") or 0
                extraction["exact_cost"] += ext.get("exact_cost") or 0
                extraction["solves"] += ext.get("solves", 0)
                extraction["pruned"] += ext.get("pruned", 0)
                if ext.get("fallback"):
                    extraction["fallbacks"] += 1
        sat = stats.saturation
        if sat is not None:
            saturation["sessions"] += 1
            saturation["incremental_sessions"] += 1 if sat.incremental else 0
            saturation["rounds"] += sat.rounds
            saturation["quiescent"] += 1 if sat.quiescent else 0
            saturation["instances_asserted"] += sat.instances_asserted
            saturation["matches_attempted"] += sat.matches_attempted
            saturation["matches_found"] += sat.matches_found
            saturation["matches_pruned"] += sat.matches_pruned
            hits = sat.budget_hits
            max_matches = hits.get("max_matches")
            if max_matches:
                budget_hits["max_matches"] = budget_hits.get(
                    "max_matches", 0
                ) + sum(max_matches.values())
            if "max_enodes_round" in hits:
                budget_hits["max_enodes"] = budget_hits.get("max_enodes", 0) + 1
            if "max_rounds" in hits:
                budget_hits["max_rounds"] = budget_hits.get("max_rounds", 0) + 1
    saturation["budget_hits"] = budget_hits
    return {
        "sessions": len(collected),
        "probes": sum(len(s.probes) for s in collected),
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "cache": cache,
        "saturation": saturation,
        "extraction": extraction,
        "backend_wins": wins,
        "stochastic": stochastic,
        "cycle_floor": floors,
        "optimal_by": optimal_by,
    }


# -- observers ----------------------------------------------------------------

_observers: List[Callable[[StageStats], None]] = []
_observer_lock = threading.Lock()


def add_observer(fn: Callable[[StageStats], None]) -> None:
    """Register a callback invoked with each completed session's stats."""
    with _observer_lock:
        _observers.append(fn)


def remove_observer(fn: Callable[[StageStats], None]) -> None:
    with _observer_lock:
        try:
            _observers.remove(fn)
        except ValueError:
            pass


def _notify(stats: StageStats) -> None:
    with _observer_lock:
        observers = list(_observers)
    for fn in observers:
        fn(stats)


@dataclass
class SaturationHandle:
    """The saturation stage's product: a working graph plus its frozen source.

    ``egraph`` is the session's private, mutable graph (the pipeline
    injects ldiq constants and latency-override terms into it);
    ``goal_ids`` are the goal classes inside it.  ``snapshot`` is the
    pristine saturated master the working graph was restored from — the
    same handle the saturation LRU holds, so callers can re-seed further
    sessions without re-saturating; it is ``None`` when the saturation
    cache is disabled (nothing froze the graph).
    """

    egraph: EGraph
    goal_ids: List[int]
    stats: SaturationStats
    snapshot: Optional[EGraphSnapshot] = None

    def __iter__(self):
        # Unpacks like the historical (eg, goal_ids) pair.
        return iter((self.egraph, self.goal_ids))


class _StageTimer:
    def __init__(self, stats: StageStats, stage: str) -> None:
        self.stats = stats
        self.stage = stage

    def __enter__(self):
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.stats.add_time(self.stage, time.perf_counter() - self._start)
        return False


class CompilationSession:
    """One staged run of the pipeline for one GMA.

    The session is created by :class:`~repro.core.pipeline.Denali` (which
    owns the long-lived pieces: spec, axioms, registry, config) and is
    discarded after producing a
    :class:`~repro.core.pipeline.CompilationResult`.
    """

    def __init__(self, denali, gma: GMA, label: str = "") -> None:
        self.denali = denali
        self.spec = denali.spec
        self.axioms = denali.axioms
        self.registry = denali.registry
        self.config = denali.config
        self.gma = gma
        self.stats = StageStats(label=label, strategy=self.config.strategy.value)
        # An extra stop signal combined into every probe's stop_check —
        # this is how a losing race contestant is cancelled from outside
        # the session's own scheduler.
        self.external_stop: Optional[Callable[[], bool]] = None
        self._lock = threading.Lock()  # guards the E-graph + encoder
        self._encoder: Optional[IncrementalEncoder] = None
        # The persistent solver shared by every probe of this session
        # (created in make_probe when the incremental path is enabled).
        self._solver: Optional[IncrementalSolver] = None
        self._fed_clauses = 0  # master clauses already handed to the solver
        self._fed_budgets: set = set()

    def _stop(
        self, cancel: Optional[Callable[[], bool]]
    ) -> Optional[Callable[[], bool]]:
        """Combine a scheduler's cancel token with the session-level stop."""
        ext = self.external_stop
        if ext is None:
            return cancel
        if cancel is None:
            return ext
        return lambda: bool(cancel()) or bool(ext())

    # -- stage 1: saturation -------------------------------------------------

    def saturate(self) -> SaturationHandle:
        """Build (or fetch) the saturated E-graph.

        Returns a :class:`SaturationHandle` — unpackable as the historical
        ``(eg, goal_ids)`` pair — whose ``snapshot`` field is the pristine
        saturated master held by the cross-compilation LRU: on a hit the
        working graph is restored from it without re-running the matcher,
        on a miss the freshly saturated graph is frozen into it.
        """
        cfg = self.config
        goals = self.gma.goal_terms()
        copy_bytes_before = EGraph.copy_bytes_total
        with _StageTimer(self.stats, "saturation"):
            key = None
            if cfg.enable_saturation_cache:
                key = _cache.saturation_key(
                    goals, self.axioms, self.registry, cfg.saturation
                )
                hit = _cache.global_saturation_cache().lookup_snapshot(key)
                if hit is not None:
                    self.stats.cache["saturation_hits"] += 1
                    snapshot, sat_stats = hit
                    eg = snapshot.restore()
                    self.stats.saturation = sat_stats
                    goal_ids = [eg.find(eg.add_term(t)) for t in goals]
                    self.stats.cache["snapshot_copy_bytes"] += (
                        EGraph.copy_bytes_total - copy_bytes_before
                    )
                    return SaturationHandle(eg, goal_ids, sat_stats, snapshot)
                self.stats.cache["saturation_misses"] += 1
            eg = EGraph()
            goal_ids = [eg.add_term(t) for t in goals]
            sat_stats = saturate(eg, self.axioms, self.registry, cfg.saturation)
            goal_ids = [eg.find(g) for g in goal_ids]
            self.stats.saturation = sat_stats
            snapshot = None
            if key is not None:
                snapshot = eg.snapshot()
                _cache.global_saturation_cache().store_snapshot(
                    key, snapshot, sat_stats
                )
        self.stats.cache["snapshot_copy_bytes"] += (
            EGraph.copy_bytes_total - copy_bytes_before
        )
        return SaturationHandle(eg, goal_ids, sat_stats, snapshot)

    # -- stages 2-4: probe = encode + sat + extract ---------------------------

    def make_probe(
        self,
        eg: EGraph,
        goal_ids: List[int],
        input_registers: Dict[str, str],
        unsafe: Optional[Dict[ENode, int]],
        overrides: Optional[Dict[ENode, int]],
    ):
        """The instrumented probe function handed to the scheduler.

        Two probe flavours share one shape (encode, solve, maybe extract):

        * **incremental** (default): one :class:`IncrementalSolver` serves
          every probe of the session.  The encoder's master clauses are
          fed exactly once (``_fed_clauses`` marks how far), each budget's
          gated suffix is fed on first probe, and the solve runs under the
          budget's selector assumptions.  Definite verdicts retire the
          budget — schedulers never revisit an answered budget — which
          drops its selector-local learnt clauses.
        * **scratch**: PR 1 behaviour, a fresh :class:`CdclSolver` per
          probe; kept as the reference path for the differential tests
          and the benchmark baseline.
        """
        from repro.core.emit import extract_schedule

        cfg = self.config
        use_incremental = bool(
            cfg.enable_incremental_solver and cfg.enable_cnf_prefix_cache
        )
        if cfg.enable_cnf_prefix_cache:
            with self._lock:
                self._encoder = IncrementalEncoder(
                    eg, self.spec, goal_ids, cfg.encoding, unsafe, overrides
                )
                if use_incremental:
                    self._solver = IncrementalSolver()
                    self._fed_clauses = 0
                    self._fed_budgets = set()
                self.stats.cycle_floor = self._encoder.cycle_floor
        else:
            self.stats.cycle_floor = cycle_floor(
                eg, self.spec, goal_ids, cfg.encoding, unsafe, overrides
            )

        def probe_incremental(k: int, cancel=None):
            p = Probe(cycles=k, satisfiable=None, solver="incremental")
            enc, solver = self._encoder, self._solver
            t0 = time.perf_counter()
            with self._lock:
                reused = enc.ensure_budget(k)
                p.prefix_cycles_reused = reused
                self.stats.cache["cnf_prefix_cycles_reused"] += reused
                self.stats.cache["cnf_prefix_cycles_built"] += k - reused
                # Feed the solver everything it has not seen yet: the new
                # master (cycle-block) clauses, then this budget's gated
                # suffix.  Both are root-level adds; the solver's own lock
                # makes them wait for any in-flight portfolio solve.
                solver.ensure_vars(enc.master.num_vars)
                master_clauses = enc.master.clauses
                if self._fed_clauses < len(master_clauses):
                    solver.add_clauses(
                        master_clauses[self._fed_clauses:], trusted=True
                    )
                    self.stats.cache["solver_clauses_fed"] += (
                        len(master_clauses) - self._fed_clauses
                    )
                    self._fed_clauses = len(master_clauses)
                if k not in self._fed_budgets:
                    gated = enc.budget_clauses(k)
                    solver.add_clauses(gated, trusted=True)
                    solver.push_budget(k, enc.selector(k))
                    self.stats.cache["solver_clauses_fed"] += len(gated)
                    self._fed_budgets.add(k)
                size = enc.budget_stats(k)
            t1 = time.perf_counter()
            p.encode_seconds = t1 - t0
            self.stats.add_time("encode", p.encode_seconds)
            p.vars, p.clauses = size["vars"], size["clauses"]
            res = solver.solve_budget(
                k,
                conflict_budget=cfg.solver_conflict_budget,
                deadline_seconds=cfg.solver_deadline_seconds,
                stop_check=self._stop(cancel),
                canonical_model=True,
            )
            p.satisfiable = res.satisfiable
            p.conflicts = res.stats.conflicts
            p.propagations = res.stats.propagations
            p.learned = res.stats.learned
            p.learned_reused = res.stats.learned_kept
            p.solve_seconds = res.stats.time_seconds
            p.time_seconds = res.stats.time_seconds
            self.stats.add_time("sat", p.solve_seconds)
            self.stats.cache["solver_learned_reused"] += res.stats.learned_kept
            self._note_flat_counters(solver.flat_counters())
            payload = None
            if res.satisfiable:
                t2 = time.perf_counter()
                with self._lock:
                    payload = extract_schedule(
                        eg, enc.decode_view(k), res.model, input_registers
                    )
                p.extract_seconds = time.perf_counter() - t2
                self.stats.add_time("extract", p.extract_seconds)
            if res.satisfiable is not None:
                # Answered budgets are never probed again; retiring frees
                # the selector's learnt clauses for the remaining ladder.
                self.stats.cache["solver_learnts_dropped"] += (
                    solver.retire_budget(k)
                )
            return res.satisfiable, payload, p

        def probe_scratch(k: int, cancel=None):
            p = Probe(cycles=k, satisfiable=None)
            t0 = time.perf_counter()
            with self._lock:
                if self._encoder is not None:
                    encoding = self._encoder.encode(k)
                    p.prefix_cycles_reused = encoding.prefix_cycles_reused
                    self.stats.cache["cnf_prefix_cycles_reused"] += (
                        encoding.prefix_cycles_reused
                    )
                    self.stats.cache["cnf_prefix_cycles_built"] += (
                        k - encoding.prefix_cycles_reused
                    )
                else:
                    encoding = encode_schedule(
                        eg, self.spec, goal_ids, k, cfg.encoding, unsafe,
                        overrides,
                    )
                    self.stats.cache["cnf_prefix_cycles_built"] += k
            t1 = time.perf_counter()
            p.encode_seconds = t1 - t0
            self.stats.add_time("encode", p.encode_seconds)
            st = encoding.cnf.stats()
            p.vars, p.clauses = st["vars"], st["clauses"]
            solver = CdclSolver(
                conflict_budget=cfg.solver_conflict_budget,
                deadline_seconds=cfg.solver_deadline_seconds,
                stop_check=self._stop(cancel),
            )
            res = solver.solve(encoding.cnf, canonical_model=True)
            if solver.last_flat_counters is not None:
                self._note_flat_counters(
                    solver.last_flat_counters, accumulate=True
                )
            p.satisfiable = res.satisfiable
            p.conflicts = res.stats.conflicts
            p.propagations = res.stats.propagations
            p.learned = res.stats.learned
            p.solve_seconds = res.stats.time_seconds
            p.time_seconds = res.stats.time_seconds
            self.stats.add_time("sat", p.solve_seconds)
            payload = None
            if res.satisfiable:
                t2 = time.perf_counter()
                with self._lock:
                    payload = extract_schedule(
                        eg, encoding, res.model, input_registers
                    )
                p.extract_seconds = time.perf_counter() - t2
                self.stats.add_time("extract", p.extract_seconds)
            return res.satisfiable, payload, p

        return probe_incremental if use_incremental else probe_scratch

    def _note_flat_counters(self, fc: Dict[str, int], accumulate=False) -> None:
        """Fold one solver's flat-arena telemetry into the session cache.

        The incremental path reports one core's *cumulative* counters, so
        later snapshots supersede earlier ones (max); the scratch path
        builds a fresh core per probe, so its compaction counts add up
        (``accumulate``).  Arena bytes are always tracked as a peak.
        """
        cache = self.stats.cache
        if fc["arena_bytes"] > cache["solver_arena_bytes"]:
            cache["solver_arena_bytes"] = fc["arena_bytes"]
        for key, name in (
            ("solver_watch_compactions", "watch_compactions"),
            ("solver_arena_compactions", "arena_compactions"),
        ):
            if accumulate:
                cache[key] += fc[name]
            elif fc[name] > cache[key]:
                cache[key] = fc[name]

    def search(self, probe, lo: int, hi: int) -> SearchOutcome:
        """Run the configured probe scheduler over ``[lo, hi]``.

        The ladder starts at the encoder's proved cycle floor (computed
        by :meth:`make_probe`), which also seeds the proved floor.
        """
        cfg = self.config
        scheduler = get_scheduler(cfg.strategy, cfg.portfolio_workers)
        outcome = scheduler.search(probe, lo, hi, floor=self.stats.cycle_floor)
        self.stats.probes = outcome.probes
        self.stats.best_cycles = outcome.best_cycles
        self.stats.optimal = outcome.optimal
        self.stats.optimal_by = outcome.optimal_by
        return outcome

    # -- stage 4b: extraction refinement ---------------------------------------

    def refine_extraction(
        self,
        eg: EGraph,
        schedule,
        cycles: Optional[int],
        input_registers: Dict[str, str],
        overrides: Optional[Dict[ENode, int]] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ):
        """Minimise the schedule's selected-term cost (``extraction=exact``).

        In the default ``greedy`` mode this only records the decoded
        schedule's cost; in ``exact`` mode it re-enters the session's
        persistent solver (see :mod:`repro.extraction.refine`) and may
        return a cheaper schedule of the same cycle count.  Falls back to
        the greedy schedule — with the reason in the stats record — when
        the incremental path was disabled or no schedule exists.
        """
        from repro.extraction.costs import latency_cost
        from repro.extraction.refine import greedy_stats, refine_exact

        cfg = self.config
        cost = latency_cost(self.spec, overrides)
        if cfg.extraction != "exact":
            self.stats.extraction = greedy_stats(schedule, cost)
            return schedule
        if schedule is None or cycles is None:
            self.stats.extraction = {
                "mode": "exact",
                "cost": None,
                "fallback": "no-schedule",
            }
            return schedule
        enc, solver = self._encoder, self._solver
        if enc is None or solver is None:
            record = greedy_stats(schedule, cost)
            record.update({"mode": "exact", "fallback": "no-incremental"})
            self.stats.extraction = record
            return schedule
        # The refinement is a pure function of (goals, axioms, budget,
        # registers, overrides, knobs): repeat compiles through the same
        # Denali reuse the proved answer instead of re-entering the
        # solver (mirrors the saturation snapshot cache).
        memo = getattr(self.denali, "_extraction_memo", None)
        key = None
        if memo is not None:
            key = (
                _cache.saturation_key(
                    self.gma.goal_terms(), self.axioms, self.registry,
                    cfg.saturation,
                ),
                cycles,
                tuple(sorted(input_registers.items())),
                tuple(
                    sorted((repr(n), lat) for n, lat in (overrides or {}).items())
                ),
                cfg.extraction_conflict_budget,
                cfg.extraction_max_solves,
            )
            hit = memo.get(key)
            if hit is not None:
                best, record = hit
                record = dict(record)
                record["cached"] = True
                self.stats.extraction = record
                return best
        with _StageTimer(self.stats, "extraction"):
            with self._lock:
                best, record = refine_exact(
                    eg,
                    enc,
                    solver,
                    cycles,
                    schedule,
                    input_registers,
                    live_budgets=sorted(self._fed_budgets),
                    saturation=self.stats.saturation,
                    conflict_budget=cfg.extraction_conflict_budget,
                    max_solves=cfg.extraction_max_solves,
                    stop_check=self._stop(cancel),
                )
        self.stats.extraction = record
        if memo is not None and key is not None:
            memo[key] = (best, dict(record))
        return best

    # -- stage 5: verification -------------------------------------------------

    def verify(self, schedule) -> bool:
        from repro.verify.checker import check_schedule

        with _StageTimer(self.stats, "verify"):
            report = check_schedule(
                self.gma,
                schedule,
                self.registry,
                trials=self.config.verify_trials,
                definitions=self.axioms.definitions(),
            )
        self.stats.verified = report.passed
        return report.passed

    def finish(self, total_seconds: float) -> None:
        """Seal the stats record and announce it to observers."""
        self.stats.timings["total"] = total_seconds
        _notify(self.stats)
