"""Job specifications and the batch compilation engine.

A :class:`JobSpec` describes one compilation request as plain data
(source text plus options), so it crosses process boundaries without
pickling interned terms.  :func:`run_job` is the worker-side entry
point: it compiles every GMA of the requested procedures exactly the way
the one-shot CLI does, but inside a long-lived process whose axiom and
saturation caches stay warm across jobs.

:class:`CompilationEngine` is the parent-side orchestrator: it coalesces
identical in-flight requests onto one job, serves repeats from the
persistent :class:`~repro.service.store.ResultStore`, fans misses out
over a :class:`~repro.service.pool.WorkerPool`, retries crashed or
timed-out attempts with exponential backoff, and aggregates per-worker
stage statistics for the metrics endpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from repro.service.pool import WorkerPool
from repro.service.store import ResultStore


class JobError(Exception):
    """Raised for malformed job specifications."""


class JobState:
    """Lifecycle states of a job (plain strings: they travel as JSON)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class JobSpec:
    """One compilation request, as plain picklable data.

    ``kind`` is ``"compile"`` for real work; ``"sleep"`` and ``"crash"``
    are diagnostic kinds used by the pool's tests and health checks
    (a sleep occupies a worker for ``seconds``; a crash kills it).
    """

    kind: str = "compile"
    source: str = ""
    name: str = ""  # display label, e.g. the source file name
    proc: Optional[str] = None  # compile only this procedure
    arch: str = "ev6"
    min_cycles: int = 1
    max_cycles: int = 12
    strategy: str = "binary"
    max_rounds: int = 12
    max_enodes: int = 4000
    verify: bool = True
    load_latency: int = 3
    miss_latency: int = 12
    incremental: bool = True  # persistent solver across the probe ladder
    incremental_match: bool = True  # dirty-cone matching during saturation
    axiom_tiers: bool = False  # tiered (cheap-first) axiom scheduling
    backend: str = "sat"  # "sat" | "stochastic" | "race"
    extraction: str = "greedy"  # "greedy" | "exact" schedule selection
    seed: int = 0  # session seed (stochastic chains + verifier trials)
    mcmc_seed: int = 0
    mcmc_chains: int = 4
    mcmc_moves: int = 20000
    timeout_seconds: Optional[float] = None
    seconds: float = 0.0  # for kind == "sleep"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobError("job spec must be an object, got %r" % (data,))
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise JobError("unknown job spec fields: %s" % sorted(unknown))
        spec = cls(**data)
        lo, hi = spec.min_cycles, spec.max_cycles
        # Reject an empty cycle window here, so the service answers 400
        # instead of failing the job inside a worker.
        if not (type(lo) is int and type(hi) is int and 1 <= lo <= hi):
            raise JobError(
                "need 1 <= min_cycles <= max_cycles, got %r and %r" % (lo, hi)
            )
        return spec


# Fields that change what a compilation produces.  ``name`` (display
# only) and ``timeout_seconds`` (an operational bound) are excluded, so
# the same goal submitted under different labels coalesces.
_SEMANTIC_FIELDS = (
    "kind",
    "source",
    "proc",
    "arch",
    "min_cycles",
    "max_cycles",
    "strategy",
    "max_rounds",
    "max_enodes",
    "verify",
    "load_latency",
    "miss_latency",
    "incremental",
    "incremental_match",
    "axiom_tiers",
    "backend",
    "extraction",
    "seed",
    "mcmc_seed",
    "mcmc_chains",
    "mcmc_moves",
    "seconds",
)


def job_fingerprint(spec: JobSpec) -> str:
    """A stable key identifying a job's output.

    Includes the package version: a new release may change the axiom
    corpus or the encoder, so persisted results never leak across
    versions.
    """
    from repro import __version__

    payload = [__version__] + [getattr(spec, f) for f in _SEMANTIC_FIELDS]
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:32]


def default_corpus_key(target: str = "ev6") -> str:
    """Store key of the compiled built-in axiom corpus for ``target``.

    Version-, registry- and target-fingerprinted, so a fabric node never
    preloads a corpus compiled by an incompatible peer, and an rv64
    corpus never shadows an ev6 one.
    """
    from repro import __version__
    from repro.core.cache import registry_fingerprint
    from repro.terms.ops import default_registry

    digest = hashlib.sha256(
        repr(registry_fingerprint(default_registry())).encode("utf-8")
    ).hexdigest()
    return "default:%s:%s:%s" % (__version__, target, digest[:16])


# -- worker-side execution -----------------------------------------------------


def run_job(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job in the worker process; returns a plain-dict payload."""
    spec = JobSpec.from_dict(spec_dict)
    if spec.kind == "sleep":
        time.sleep(spec.seconds)
        return {"ok": True, "kind": "sleep", "units": [], "pid": os.getpid()}
    if spec.kind == "crash":
        os._exit(3)
    if spec.kind != "compile":
        raise JobError("unknown job kind %r" % spec.kind)
    return _compile(spec)


def _build_spec(spec: JobSpec):
    from repro.isa.targets import get_target

    try:
        target = get_target(spec.arch)
    except KeyError:
        raise JobError("unknown arch %r" % spec.arch)
    return target.spec(load_latency=spec.load_latency)


def _compile(spec: JobSpec) -> Dict[str, Any]:
    from repro.axioms import AxiomSet
    from repro.core import cache as _cache
    from repro.core.pipeline import Denali, DenaliConfig
    from repro.core.probes import SearchStrategy
    from repro.core.session import add_observer, aggregate_stats, remove_observer
    from repro.lang import parse_program, translate_procedure
    from repro.matching import SaturationConfig

    start = time.perf_counter()
    program = parse_program(spec.source)
    if not program.procedures:
        raise JobError("no procedures in source %r" % (spec.name or "<job>"))
    procedures = program.procedures
    if spec.proc is not None:
        procedures = [program.procedure(spec.proc)]

    arch_spec = _build_spec(spec)
    from repro.isa.targets import target_for_spec

    target = target_for_spec(arch_spec)
    corpus = _cache.global_axiom_cache().default_corpus(
        program.registry, target
    )
    axioms = corpus + AxiomSet(program.axioms, "program")
    from repro.stochastic.search import StochasticConfig

    config = DenaliConfig(
        target=target,
        min_cycles=spec.min_cycles,
        max_cycles=spec.max_cycles,
        strategy=SearchStrategy(spec.strategy),
        verify=spec.verify,
        miss_latency=spec.miss_latency,
        enable_incremental_solver=spec.incremental,
        backend=spec.backend,
        extraction=spec.extraction,
        seed=spec.seed,
        stochastic=StochasticConfig(
            seed=spec.mcmc_seed,
            chains=spec.mcmc_chains,
            moves=spec.mcmc_moves,
        ),
        saturation=SaturationConfig(
            max_rounds=spec.max_rounds,
            max_enodes=spec.max_enodes,
            incremental_match=spec.incremental_match,
            axiom_tiers=spec.axiom_tiers,
        ),
    )
    den = Denali(
        arch_spec, axioms=axioms, registry=program.registry,
        config=config,
    )

    collected: List[Any] = []
    add_observer(collected.append)
    units: List[Dict[str, Any]] = []
    ok = True
    try:
        for proc in procedures:
            gmas = translate_procedure(proc, program.registry)
            for label, gma in gmas:
                result = den.compile_gma(gma, label=label)
                if result.schedule is None:
                    ok = False
                    units.append(
                        {
                            "label": label,
                            "assembly": None,
                            "cycles": None,
                            "optimal": False,
                            "verified": None,
                            "backend": result.backend,
                            "winner": None,
                            "summary": result.summary(),
                        }
                    )
                    continue
                if result.verified is False:
                    ok = False
                units.append(
                    {
                        "label": label,
                        "assembly": result.schedule.render(
                            label=label.replace(".", "_")
                        ),
                        "cycles": result.cycles,
                        "optimal": result.optimal,
                        "verified": result.verified,
                        "backend": result.backend,
                        "winner": result.winner,
                        "summary": result.summary(),
                    }
                )
    finally:
        remove_observer(collected.append)

    return {
        "ok": ok,
        "kind": "compile",
        "name": spec.name,
        "target": target,
        "units": units,
        "stats": aggregate_stats(collected),
        "elapsed_seconds": round(time.perf_counter() - start, 6),
        "pid": os.getpid(),
    }


# -- the engine ----------------------------------------------------------------


@dataclass
class _JobRecord:
    id: str
    spec: JobSpec
    fingerprint: str
    state: str = JobState.PENDING
    attempts: int = 0
    coalesced: int = 0  # duplicate submissions folded onto this job
    from_store: bool = False
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    worker: Optional[int] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    done: threading.Event = field(default_factory=threading.Event)

    def status(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.spec.name,
            "kind": self.spec.kind,
            "fingerprint": self.fingerprint,
            "state": self.state,
            "attempts": self.attempts,
            "coalesced": self.coalesced,
            "from_store": self.from_store,
            "worker": self.worker,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


def _canonical_target(arch: str) -> str:
    """The canonical target name of a job's ``arch`` (identity fallback)."""
    from repro.isa.targets import get_target

    try:
        return get_target(arch).name
    except KeyError:
        return arch


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class CompilationEngine:
    """Submit/await compilation jobs over a worker pool and a store.

    Args:
        workers: worker process count.
        store: persistent result store (defaults to in-memory).
        max_retries: extra attempts after a crashed/timed-out attempt.
        retry_backoff: base delay before a retry; doubles per attempt.
        default_timeout: per-job wall-clock bound when the spec has none.
    """

    def __init__(
        self,
        workers: int = 2,
        store: Optional[ResultStore] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        default_timeout: Optional[float] = None,
        mp_context: Optional[str] = None,
    ) -> None:
        self.store = store if store is not None else ResultStore(None)
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.default_timeout = default_timeout
        self._lock = threading.RLock()
        self._jobs: Dict[str, _JobRecord] = {}
        self._inflight: Dict[str, str] = {}  # fingerprint -> job id
        self._order: List[str] = []
        self._counter = 0
        self._coalesced_total = 0
        self._latencies: List[float] = []
        self._worker_stages: Dict[int, Dict[str, float]] = {}
        # Matcher counters summed over completed compile jobs (the
        # "saturation" block of /v1/metrics, incl. budget truncations).
        self._saturation_totals: Dict[str, int] = {
            "sessions": 0,
            "incremental_sessions": 0,
            "rounds": 0,
            "quiescent": 0,
            "instances_asserted": 0,
            "matches_attempted": 0,
            "matches_found": 0,
            "matches_pruned": 0,
        }
        self._saturation_budget_hits: Dict[str, int] = {}
        # Per-target job aggregates over compile jobs (the "targets"
        # block of /v1/metrics).  Keys are canonical target names; a
        # store hit counts under ``cache_hits`` without compiling.
        self._target_totals: Dict[str, Dict[str, int]] = {}
        # Which engine produced each kept schedule, over completed compile
        # jobs; ``cache_hit`` counts submissions served straight from the
        # result store without compiling at all.
        self._backend_wins: Dict[str, int] = {
            "sat": 0,
            "stochastic": 0,
            "cache_hit": 0,
        }
        # Stochastic campaign counters summed over completed compile jobs
        # (the "stochastic" block of /v1/metrics).
        self._stochastic_totals: Dict[str, int] = {
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
        # Flat-core counters over completed compile jobs (the
        # "flat_cores" block of /v1/metrics): the solver arena footprint
        # is a peak, the rest are cumulative work counts.
        self._flat_core_totals: Dict[str, int] = {
            "solver_arena_bytes_peak": 0,
            "solver_watch_compactions": 0,
            "solver_arena_compactions": 0,
            "snapshot_copy_bytes": 0,
        }
        # Probe-ladder floors and optimality proofs over completed compile
        # jobs (aggregate_stats' "cycle_floor" and "optimal_by" blocks).
        self._cycle_floor_totals: Dict[str, int] = {
            "sessions": 0,
            "sum": 0,
            "at_optimum": 0,
        }
        self._optimal_by_totals: Dict[str, int] = {"floor": 0, "unsat": 0}
        self._timers: List[threading.Timer] = []
        self._started_monotonic = time.monotonic()
        self._shutdown = False
        # Warm the compiled axiom corpus from the store *before* the pool
        # forks, so every worker inherits it.
        self._warm_corpus()
        self.pool = WorkerPool(
            workers,
            on_result=self._on_pool_result,
            on_start=self._on_pool_start,
            context=mp_context,
        )

    # -- warm start --------------------------------------------------------

    def _corpus_key(self, target: str = "ev6") -> str:
        return default_corpus_key(target)

    def _warm_corpus(self) -> None:
        """Warm the per-target axiom corpora from the store.

        ``corpus_warmed`` is True only when *every* registered target's
        corpus came out of the store; any target compiled locally is
        written back so peers (and the next restart) can skip the work.
        """
        from repro.core import cache as _cache
        from repro.isa.targets import target_names
        from repro.terms.ops import default_registry

        registry = default_registry()
        warmed = True
        for target in target_names():
            key = self._corpus_key(target)
            corpus = self.store.corpus_get(key)
            if corpus is not None:
                _cache.global_axiom_cache().preload(registry, corpus, target)
                continue
            warmed = False
            corpus = _cache.global_axiom_cache().default_corpus(
                registry, target
            )
            self.store.corpus_put(key, corpus)
        self.corpus_warmed = warmed

    # -- submission --------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Register one job; returns its id.

        A spec identical to an in-flight job returns the in-flight job's
        id (request coalescing); a spec whose result is already in the
        store returns an immediately-done job served from the store.
        """
        if self._shutdown:
            raise JobError("engine is shut down")
        fingerprint = job_fingerprint(spec)
        with self._lock:
            live_id = self._inflight.get(fingerprint)
            if live_id is not None:
                live = self._jobs[live_id]
                if live.state in (JobState.PENDING, JobState.RUNNING):
                    live.coalesced += 1
                    self._coalesced_total += 1
                    return live_id
            record = self._new_record(spec, fingerprint)
            if spec.kind == "compile":
                cached = self.store.get(fingerprint)
                if cached is not None:
                    record.state = JobState.DONE
                    record.from_store = True
                    record.result = cached
                    record.finished_at = time.time()
                    record.done.set()
                    self._backend_wins["cache_hit"] += 1
                    self._target_bucket(
                        _canonical_target(spec.arch)
                    )["cache_hits"] += 1
                    return record.id
            self._inflight[fingerprint] = record.id
            record.attempts = 1
        self.pool.submit(
            record.id,
            spec.to_dict(),
            timeout=spec.timeout_seconds or self.default_timeout,
        )
        return record.id

    def submit_batch(self, specs: Sequence[JobSpec]) -> List[str]:
        return [self.submit(spec) for spec in specs]

    def _new_record(self, spec: JobSpec, fingerprint: str) -> _JobRecord:
        self._counter += 1
        record = _JobRecord(
            id="job-%04d" % self._counter,
            spec=spec,
            fingerprint=fingerprint,
            submitted_at=time.time(),
        )
        self._jobs[record.id] = record
        self._order.append(record.id)
        return record

    # -- pool callbacks ----------------------------------------------------

    def _on_pool_start(self, job_id: str, worker_id: int) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.state not in (JobState.PENDING,):
                return
            record.state = JobState.RUNNING
            record.worker = worker_id
            if record.started_at is None:
                record.started_at = time.time()

    def _on_pool_result(
        self, job_id: str, status: str, payload: Any, worker_id: int
    ) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.done.is_set():
                return  # stale answer (e.g. finished during a timeout race)
            if record.state == JobState.CANCELLED:
                return
            if status == "ok":
                self._finish_ok(record, payload, worker_id)
            elif status == "error":
                # The job itself raised (parse error, bad spec): retrying
                # would fail identically, so fail fast.
                self._finish_failed(record, str(payload))
            else:  # "crashed" | "timeout": the *attempt* failed; retry.
                if record.attempts <= self.max_retries:
                    delay = self.retry_backoff * (2 ** (record.attempts - 1))
                    record.attempts += 1
                    record.state = JobState.PENDING
                    record.worker = None
                    timer = threading.Timer(delay, self._resubmit, (job_id,))
                    timer.daemon = True
                    self._timers.append(timer)
                    timer.start()
                else:
                    self._finish_failed(
                        record,
                        "%s after %d attempts" % (status, record.attempts),
                    )

    def _resubmit(self, job_id: str) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if (
                record is None
                or record.state != JobState.PENDING
                or self._shutdown
            ):
                return
            spec = record.spec
        self.pool.submit(
            job_id,
            spec.to_dict(),
            timeout=spec.timeout_seconds or self.default_timeout,
        )

    def _target_bucket(self, name: str) -> Dict[str, int]:
        bucket = self._target_totals.get(name)
        if bucket is None:
            bucket = {"done": 0, "failed": 0, "cache_hits": 0, "units": 0}
            self._target_totals[name] = bucket
        return bucket

    def _finish_ok(
        self, record: _JobRecord, payload: Dict[str, Any], worker_id: int
    ) -> None:
        record.state = JobState.DONE
        record.result = payload
        record.worker = worker_id
        record.finished_at = time.time()
        self._latencies.append(record.finished_at - record.submitted_at)
        stats = payload.get("stats") if isinstance(payload, dict) else None
        if stats and isinstance(stats.get("timings"), dict):
            per_worker = self._worker_stages.setdefault(worker_id, {})
            for stage, seconds in stats["timings"].items():
                per_worker[stage] = per_worker.get(stage, 0.0) + seconds
        if stats and isinstance(stats.get("saturation"), dict):
            sat = stats["saturation"]
            for key in self._saturation_totals:
                self._saturation_totals[key] += int(sat.get(key, 0) or 0)
            for key, count in (sat.get("budget_hits") or {}).items():
                self._saturation_budget_hits[key] = (
                    self._saturation_budget_hits.get(key, 0) + int(count)
                )
        if stats and isinstance(stats.get("backend_wins"), dict):
            for name, count in stats["backend_wins"].items():
                self._backend_wins[name] = (
                    self._backend_wins.get(name, 0) + int(count or 0)
                )
        if stats and isinstance(stats.get("stochastic"), dict):
            for key in self._stochastic_totals:
                self._stochastic_totals[key] += int(
                    stats["stochastic"].get(key, 0) or 0
                )
        for key, totals in (
            ("cycle_floor", self._cycle_floor_totals),
            ("optimal_by", self._optimal_by_totals),
        ):
            if stats and isinstance(stats.get(key), dict):
                for name in totals:
                    totals[name] += int(stats[key].get(name, 0) or 0)
        if stats and isinstance(stats.get("cache"), dict):
            cache = stats["cache"]
            flat = self._flat_core_totals
            arena = int(cache.get("solver_arena_bytes", 0) or 0)
            if arena > flat["solver_arena_bytes_peak"]:
                flat["solver_arena_bytes_peak"] = arena
            for key in ("solver_watch_compactions",
                        "solver_arena_compactions", "snapshot_copy_bytes"):
                flat[key] += int(cache.get(key, 0) or 0)
        if record.spec.kind == "compile":
            target = None
            if isinstance(payload, dict):
                target = payload.get("target")
            bucket = self._target_bucket(
                target or _canonical_target(record.spec.arch)
            )
            bucket["done"] += 1
            if isinstance(payload, dict):
                bucket["units"] += len(payload.get("units") or ())
        if record.spec.kind == "compile" and payload.get("ok"):
            self.store.put(record.fingerprint, payload)
        self._inflight.pop(record.fingerprint, None)
        record.done.set()

    def _finish_failed(self, record: _JobRecord, error: str) -> None:
        record.state = JobState.FAILED
        record.error = error
        if record.spec.kind == "compile":
            self._target_bucket(
                _canonical_target(record.spec.arch)
            )["failed"] += 1
        record.finished_at = time.time()
        self._inflight.pop(record.fingerprint, None)
        record.done.set()

    # -- inspection / waiting ----------------------------------------------

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self._jobs.get(job_id)
            return record.status() if record else None

    def result(
        self,
        job_id: str,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """The job's result payload; waits for completion by default."""
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise JobError("unknown job %r" % job_id)
        if wait and not record.done.wait(timeout):
            return None
        return record.result

    def wait(
        self, job_ids: Sequence[str], timeout: Optional[float] = None
    ) -> bool:
        """Block until every job finished; False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for job_id in job_ids:
            with self._lock:
                record = self._jobs.get(job_id)
            if record is None:
                raise JobError("unknown job %r" % job_id)
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return False
            if not record.done.wait(remaining):
                return False
        return True

    def cancel(self, job_id: str, kill_running: bool = False) -> bool:
        """Cancel a pending job (or kill a running one)."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.done.is_set():
                return False
            if record.state == JobState.RUNNING and not kill_running:
                return False
            record.state = JobState.CANCELLED
            record.finished_at = time.time()
            self._inflight.pop(record.fingerprint, None)
            record.done.set()
        self.pool.cancel(job_id, kill_running=kill_running)
        return True

    def backlog(self) -> int:
        """Unique compilations admitted but not yet finished.

        O(1) — the fabric front end calls this on *every* submission
        when deciding whether to shed load, so it must not scale with
        the (ever-growing) job-record table.  Coalesced duplicates
        share one in-flight entry and count once: shedding is about
        outstanding work, not outstanding ids.
        """
        with self._lock:
            return len(self._inflight)

    def queue_stats(self) -> Dict[str, Any]:
        """Lightweight backlog/latency snapshot for admission control."""
        with self._lock:
            recent = self._latencies[-64:]
            return {
                "backlog": len(self._inflight),
                "p50_seconds": round(_percentile(recent, 0.50), 6),
                "workers": len(self.pool.stats()),
            }

    def metrics(self) -> Dict[str, Any]:
        """Aggregate service metrics (the ``/v1/metrics`` payload)."""
        with self._lock:
            states: Dict[str, int] = {}
            for record in self._jobs.values():
                states[record.state] = states.get(record.state, 0) + 1
            done = states.get(JobState.DONE, 0)
            elapsed = time.monotonic() - self._started_monotonic
            latencies = list(self._latencies)
            worker_stats = self.pool.stats()
            for entry in worker_stats:
                entry["stages"] = {
                    k: round(v, 6)
                    for k, v in self._worker_stages.get(
                        entry["id"], {}
                    ).items()
                }
            return {
                "jobs": {
                    "submitted": len(self._jobs),
                    "coalesced": self._coalesced_total,
                    "by_state": states,
                },
                "throughput": {
                    "done": done,
                    "elapsed_seconds": round(elapsed, 3),
                    "jobs_per_second": round(done / elapsed, 4)
                    if elapsed > 0
                    else 0.0,
                },
                "latency_seconds": {
                    "count": len(latencies),
                    "p50": round(_percentile(latencies, 0.50), 6),
                    "p95": round(_percentile(latencies, 0.95), 6),
                    "mean": round(
                        sum(latencies) / len(latencies), 6
                    )
                    if latencies
                    else 0.0,
                },
                "store": self.store.to_dict(),
                "corpus_warmed_from_store": self.corpus_warmed,
                "workers": worker_stats,
                "saturation": dict(
                    self._saturation_totals,
                    budget_hits=dict(self._saturation_budget_hits),
                ),
                "flat_cores": dict(self._flat_core_totals),
                "targets": {
                    name: dict(bucket)
                    for name, bucket in sorted(self._target_totals.items())
                },
                "backends": dict(self._backend_wins),
                "stochastic": dict(self._stochastic_totals),
                "cycle_floor": dict(self._cycle_floor_totals),
                "optimal_by": dict(self._optimal_by_totals),
            }

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every submitted job to reach a terminal state."""
        with self._lock:
            ids = list(self._order)
        return self.wait(ids, timeout=timeout)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        if drain:
            self.drain(timeout=timeout)
        self._shutdown = True
        for timer in self._timers:
            timer.cancel()
        self.pool.shutdown()
        self.store.close()
