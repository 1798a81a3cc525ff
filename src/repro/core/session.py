"""Staged compilation sessions.

One :class:`CompilationSession` runs the paper's Figure 1 pipeline for a
single GMA as explicit, observable stages — **saturation** (matcher +
axioms, served from the cross-compilation saturation cache when the same
goals were saturated before), **encode** (per-budget CNF, sharing the
budget-independent prefix across probes), **sat** (one incremental CDCL
solver for the whole probe ladder, with deadline and cancellation
plumbing), **extract** (model decoding) and **verify** (differential
checking) — and threads a :class:`StageStats` record through them.
The record travels on the result (``CompilationResult.stats``); callers
that report on many compilations aggregate those with
:func:`aggregate_stats`, and fold totals of separate runs (job payloads,
fabric nodes) with :func:`merge_totals`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core import cache as _cache
from repro.core.probes import Probe, SearchOutcome, get_scheduler
from repro.egraph.egraph import EGraph, EGraphSnapshot, ENode
from repro.encode.constraints import IncrementalEncoder
from repro.lang.gma import GMA
from repro.matching.saturation import SaturationStats, saturate
from repro.sat.incremental import IncrementalSolver


@dataclass
class StageStats:
    """Per-stage telemetry of one compilation session.

    ``timings`` maps stage names (``saturation``, ``encode``, ``feed``,
    ``sat``, ``extract``, ``verify``, ``total``) to wall-clock seconds;
    ``encode``, ``feed`` (handing new clauses to the solver), ``sat`` and
    ``extract`` are summed over all probes.  ``cache`` holds the
    session's own hit/miss events (not the global cache totals).
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
    # The totals schema's "cache" block, counted for this session.
    cache: Dict[str, int] = field(
        default_factory=lambda: _zero_totals()["cache"]
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


# The ladder solver's per-probe work counters (the totals' "solver" block).
SOLVER_COUNTERS = ("propagations", "conflicts", "learned", "learned_reused")

# Counters whose total is the largest value, not the sum: a session's
# solver arena bytes is already that session's peak.
PEAK_COUNTERS = frozenset({"solver_arena_bytes"})


def _zero_totals() -> dict:
    """The totals schema with every counter at zero.

    The one declaration of the key tree that ``--stats-json``, job
    payloads and ``/v1/metrics`` share.  ``timings`` (per stage) and
    ``saturation.budget_hits`` (per budget) are open maps: they gain a
    key the first time a session reports one.
    """
    return {
        "sessions": 0,
        "probes": 0,
        "timings": {},
        "cache": {
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
        },
        "solver": dict.fromkeys(SOLVER_COUNTERS, 0),
        # Matcher runs only: a saturation-cache hit re-uses a run.
        "saturation": {
            "sessions": 0,
            "rounds": 0,
            "quiescent": 0,
            "instances_asserted": 0,
            "matches_attempted": 0,
            "matches_found": 0,
            "matches_pruned": 0,
            "budget_hits": {},
        },
        "extraction": {
            "sessions": 0,
            "exact_sessions": 0,
            "improved": 0,
            "proved": 0,
            "greedy_cost": 0,
            "exact_cost": 0,
            "solves": 0,
            "pruned": 0,
            "fallbacks": 0,
            # The exact refinement's floors and what backed each optimum.
            "floor_by": {"dag": 0, "selection": 0},
            "optimal_by": {"floor": 0, "unsat": 0},
        },
        # Which engine produced each kept schedule.
        "backend_wins": {"sat": 0, "stochastic": 0},
        "stochastic": {
            "campaigns": 0,
            "chains": 0,
            "proposals": 0,
            "accepted": 0,
            "oracle_calls": 0,
            "oracle_passes": 0,
            "counterexamples": 0,
            "restarts": 0,
            "unsupported": 0,
        },
        # The probe ladder's proved floors and what backed each optimum.
        "cycle_floor": {"sessions": 0, "sum": 0, "at_optimum": 0},
        "optimal_by": {"floor": 0, "unsat": 0},
    }


def merge_totals(into: dict, other: dict) -> dict:
    """Fold the counter tree ``other`` into ``into``; returns ``into``.

    Nested dicts merge recursively and numbers add (seconds rounded to
    microseconds), except :data:`PEAK_COUNTERS`, which take the max.  A
    key missing from ``into`` is added.  Folding the totals of two runs
    gives the totals of both: ``merge_totals(aggregate_stats(a),
    aggregate_stats(b)) == aggregate_stats(a + b)`` up to timings.
    """
    for key, value in other.items():
        if isinstance(value, dict):
            merge_totals(into.setdefault(key, {}), value)
        elif key in PEAK_COUNTERS:
            into[key] = max(into.get(key, 0), value)
        elif isinstance(value, float):
            into[key] = round(into.get(key, 0.0) + value, 6)
        else:
            into[key] = into.get(key, 0) + value
    return into


def _session_totals(stats: "StageStats") -> dict:
    """One session's contribution to the totals: a sub-tree of the schema.

    Work served from a cache is not counted again: a saturation-cache
    hit adds no matcher run, and a memoised exact-extraction record adds
    its outcome but not the ``solves`` and ``pruned`` of the run it
    copies.
    """
    out: dict = {
        "sessions": 1,
        "probes": len(stats.probes),
        "timings": stats.timings,
        "cache": stats.cache,
        "solver": {
            key: sum(getattr(p, key) for p in stats.probes)
            for key in SOLVER_COUNTERS
        },
    }
    if stats.cycle_floor is not None:
        out["cycle_floor"] = {
            "sessions": 1,
            "sum": stats.cycle_floor,
            "at_optimum": int(stats.best_cycles == stats.cycle_floor),
        }
    if stats.optimal_by is not None:
        out["optimal_by"] = {stats.optimal_by: 1}
    if stats.best_cycles is not None:
        winner = stats.winner or (
            "stochastic" if stats.backend == "stochastic" else "sat"
        )
        out["backend_wins"] = {winner: 1}
    sto = stats.stochastic
    if sto is not None:
        out["stochastic"] = merge_totals(
            {"campaigns": 1, "unsupported": int(bool(sto.get("unsupported")))},
            sto.get("totals", {}),
        )
    ext = stats.extraction
    if ext is not None:
        block = out["extraction"] = {"sessions": 1}
        if ext.get("mode") == "exact":
            block.update(
                exact_sessions=1,
                improved=int(bool(ext.get("improved"))),
                proved=int(bool(ext.get("proved"))),
                greedy_cost=ext.get("greedy_cost") or 0,
                exact_cost=ext.get("exact_cost") or 0,
                fallbacks=int(bool(ext.get("fallback"))),
                solves=ext.get("solves", 0),
                pruned=ext.get("pruned", 0),
            )
            if ext.get("floor_by") is not None:
                block["floor_by"] = {ext["floor_by"]: 1}
            if ext.get("optimal_by") is not None:
                block["optimal_by"] = {ext["optimal_by"]: 1}
    sat = stats.saturation
    if sat is not None and not stats.cache["saturation_hits"]:
        hits = sat.budget_hits
        budget_hits = {}
        if hits.get("max_matches"):
            budget_hits["max_matches"] = sum(hits["max_matches"].values())
        if "max_enodes_round" in hits:
            budget_hits["max_enodes"] = 1
        if "max_rounds" in hits:
            budget_hits["max_rounds"] = 1
        out["saturation"] = {
            "sessions": 1,
            "rounds": sat.rounds,
            "quiescent": int(sat.quiescent),
            "instances_asserted": sat.instances_asserted,
            "matches_attempted": sat.matches_attempted,
            "matches_found": sat.matches_found,
            "matches_pruned": sat.matches_pruned,
            "budget_hits": budget_hits,
        }
    return out


def aggregate_stats(collected: List["StageStats"]) -> dict:
    """The totals of many sessions: :func:`merge_totals` folded over each
    session's contribution, starting from the zeroed schema.

    Shared by the CLI's ``--stats-json`` report and the compilation
    service's job payloads, which the engine folds into ``/v1/metrics``
    with the same :func:`merge_totals`.
    """
    totals = _zero_totals()
    for stats in collected:
        merge_totals(totals, _session_totals(stats))
    return totals


@dataclass
class SaturationHandle:
    """The saturation stage's product: a working graph plus its frozen source.

    ``egraph`` is the session's private, mutable graph (the pipeline
    injects ldiq constants and latency-override terms into it);
    ``goal_ids`` are the goal classes inside it.  ``snapshot`` is the
    pristine saturated master: the graph this session's saturation froze
    on a cache miss, or the one its working graph was restored from on a
    hit.  It is the same handle the saturation LRU holds, so callers can
    re-seed further sessions without re-saturating.
    """

    egraph: EGraph
    goal_ids: List[int]
    stats: SaturationStats
    snapshot: EGraphSnapshot


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
        # The stop_check of every solve — how a losing race contestant is
        # cancelled from outside the session.
        self.external_stop: Optional[Callable[[], bool]] = None
        # The encoder and the persistent solver shared by every probe of
        # this session (both created in make_probe).
        self._encoder: Optional[IncrementalEncoder] = None
        self._solver: Optional[IncrementalSolver] = None
        self._fed_clauses = 0  # master clauses already handed to the solver
        self._fed_budgets: set = set()

    # -- stage 1: saturation -------------------------------------------------

    def saturate(self) -> SaturationHandle:
        """Build (or fetch) the saturated E-graph.

        Returns a :class:`SaturationHandle` whose ``snapshot`` field is
        the pristine saturated master held by the cross-compilation LRU:
        on a hit the working graph is restored from it without re-running
        the matcher, on a miss the freshly saturated graph is frozen into
        it.
        """
        cfg = self.config
        goals = self.gma.goal_terms()
        copy_bytes_before = EGraph.copy_bytes_total
        with _StageTimer(self.stats, "saturation"):
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

        One :class:`IncrementalSolver` serves every probe of the session.
        The encoder's master clauses are fed exactly once (``_fed_clauses``
        marks how far), each budget's gated suffix is fed on first probe,
        and the solve runs under the budget's selector assumptions.
        Definite verdicts retire the budget — schedulers never revisit an
        answered budget — which drops its selector-local learnt clauses.
        """
        from repro.core.emit import extract_schedule

        enc = self._encoder = IncrementalEncoder(
            eg, self.spec, goal_ids, unsafe, overrides
        )
        solver = self._solver = IncrementalSolver()
        self._fed_clauses = 0
        self._fed_budgets = set()
        self.stats.cycle_floor = enc.cycle_floor

        def probe(k: int):
            p = Probe(cycles=k, satisfiable=None)
            t0 = time.perf_counter()
            reused = enc.ensure_budget(k)
            p.prefix_cycles_reused = reused
            self.stats.cache["cnf_prefix_cycles_reused"] += reused
            self.stats.cache["cnf_prefix_cycles_built"] += k - reused
            t1 = time.perf_counter()
            # Feed the solver everything it has not seen yet: the new
            # master (cycle-block) clauses, then this budget's gated
            # suffix.  Both are root-level adds, timed as "feed".
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
            t2 = time.perf_counter()
            size = enc.budget_stats(k)
            p.encode_seconds = t1 - t0 + time.perf_counter() - t2
            self.stats.add_time("encode", p.encode_seconds)
            self.stats.add_time("feed", t2 - t1)
            p.vars, p.clauses = size["vars"], size["clauses"]
            res = solver.solve_budget(k, stop_check=self.external_stop)
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
                t3 = time.perf_counter()
                payload = extract_schedule(
                    eg, enc.decode_view(k), res.model, input_registers
                )
                p.extract_seconds = time.perf_counter() - t3
                self.stats.add_time("extract", p.extract_seconds)
            if res.satisfiable is not None:
                # Answered budgets are never probed again; retiring frees
                # the selector's learnt clauses for the remaining ladder.
                self.stats.cache["solver_learnts_dropped"] += (
                    solver.retire_budget(k)
                )
            return res.satisfiable, payload, p

        return probe

    def _note_flat_counters(self, fc: Dict[str, int]) -> None:
        """Fold the solver's flat-arena telemetry into the session cache.

        The solver reports its core's *cumulative* counters, so later
        snapshots supersede earlier ones; arena bytes are a peak.
        """
        cache = self.stats.cache
        for key, name in (
            ("solver_arena_bytes", "arena_bytes"),
            ("solver_watch_compactions", "watch_compactions"),
            ("solver_arena_compactions", "arena_compactions"),
        ):
            if fc[name] > cache[key]:
                cache[key] = fc[name]

    def search(self, probe, lo: int, hi: int) -> SearchOutcome:
        """Run the configured probe scheduler over ``[lo, hi]``.

        The ladder starts at the encoder's proved cycle floor (computed
        by :meth:`make_probe`), which also seeds the proved floor.
        """
        scheduler = get_scheduler(self.config.strategy)
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
    ):
        """Minimise the schedule's selected-term cost (``extraction=exact``).

        In the default ``greedy`` mode this only records the decoded
        schedule's cost; in ``exact`` mode it re-enters the session's
        persistent solver (see :mod:`repro.extraction.refine`) and may
        return a cheaper schedule of the same cycle count.  Falls back to
        the greedy schedule — with the reason in the stats record — when
        no schedule exists.
        """
        from repro.extraction.costs import latency_cost
        from repro.extraction.refine import greedy_stats, refine_exact

        if self.config.extraction != "exact":
            cost = latency_cost(self.spec, overrides)
            self.stats.extraction = greedy_stats(schedule, cost)
            return schedule
        if schedule is None or cycles is None:
            self.stats.extraction = {
                "mode": "exact",
                "cost": None,
                "fallback": "no-schedule",
            }
            return schedule
        with _StageTimer(self.stats, "extraction"):
            best, record = refine_exact(
                eg,
                self._encoder,
                self._solver,
                cycles,
                schedule,
                input_registers,
                live_budgets=sorted(self._fed_budgets),
                saturation=self.stats.saturation,
                stop_check=self.external_stop,
            )
        self.stats.extraction = record
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
        """Seal the stats record."""
        self.stats.timings["total"] = total_seconds
