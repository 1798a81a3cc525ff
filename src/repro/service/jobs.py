"""Job specifications and the batch compilation engine.

A :class:`JobSpec` describes one compilation request as plain data
(source text plus options), so it crosses process boundaries without
pickling interned terms.  :func:`compile_job` runs one in-process and
returns a :class:`CompileReport`; the one-shot CLI calls it directly,
and :func:`run_job`, the worker-side entry point, calls it inside a
long-lived process whose axiom and saturation caches stay warm across
jobs.

:class:`CompilationEngine` is the parent-side orchestrator: it coalesces
identical in-flight requests onto one job, serves repeats from the
persistent :class:`~repro.service.store.ResultStore`, fans misses out
over a :class:`~repro.service.pool.WorkerPool`, retries crashed or
timed-out attempts with exponential backoff, and aggregates per-worker
stage statistics for the metrics endpoint.
"""

from __future__ import annotations

import collections
import copy
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.session import aggregate_stats, merge_totals
from repro.isa.targets import canonical_target
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore


class JobError(Exception):
    """Raised for malformed job specifications.

    ``field`` names the offending :class:`JobSpec` field, when there is one.
    """

    def __init__(self, message: str, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.field = field


class JobState:
    """Lifecycle states of a job (plain strings: they travel as JSON)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


# Annotation name -> the one runtime type a field of it accepts (JSON
# true is not an int; 1 is not a bool).
_EXACT_TYPES = {"int": int, "bool": bool, "str": str}

# Int field -> its least legal value.  A latency is at least one cycle
# and a stochastic run needs a chain; rounds, enodes and moves may be 0.
# (The cycle bounds have their own joint check.)
_INT_FLOORS = {
    "load_latency": 1,
    "miss_latency": 1,
    "mcmc_chains": 1,
    "max_rounds": 0,
    "max_enodes": 0,
    "mcmc_moves": 0,
}


@dataclass
class JobSpec:
    """One compilation request, as plain picklable data.

    The only compile request: the CLI's flags, the service's JSON body
    and the fuzz oracles all build one, and :meth:`to_config` is the one
    mapping onto :class:`~repro.core.pipeline.DenaliConfig`.

    A spec validates on construction (:meth:`validate`), so no ill-typed
    or out-of-range request exists to reach a worker.

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
    backend: str = "sat"  # "sat" | "stochastic"
    extraction: str = "greedy"  # "greedy" | "exact" schedule selection
    seed: int = 0  # session seed (stochastic chains + verifier trials)
    mcmc_chains: int = 4
    mcmc_moves: int = 20000
    timeout_seconds: Optional[float] = None
    seconds: float = 0.0  # for kind == "sleep"

    def __post_init__(self) -> None:
        self.validate()

    def to_dict(self) -> Dict[str, Any]:
        # Every field is a scalar: a flat read, not asdict's deep copy.
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobError("job spec must be an object, got %r" % (data,))
        unknown = set(data).difference(_FIELD_NAMES)
        if unknown:
            raise JobError("unknown job spec fields: %s" % sorted(unknown))
        return cls(**data)

    def validate(self) -> "JobSpec":
        """Check every field's type and range; returns ``self``.

        Rejects what a worker would refuse (or choke on), so the service
        answers 400 and the CLI a usage error instead of a job failing,
        or a worker slot wedging, later.  Types come from the field
        annotations: ints must be non-bool ints, bools bools, and the
        float fields non-negative numbers (or None where optional).
        """
        lo, hi = self.min_cycles, self.max_cycles
        if not (type(lo) is int and type(hi) is int and 1 <= lo <= hi):
            raise JobError(
                "need 1 <= min_cycles <= max_cycles, got %r and %r" % (lo, hi),
                "min_cycles",
            )
        for f in fields(self):
            value = getattr(self, f.name)
            kind = f.type.replace("Optional[", "").rstrip("]")
            if value is None and kind != f.type:
                continue
            if kind == "float":
                ok = type(value) in (int, float) and value >= 0
            else:
                ok = type(value) is _EXACT_TYPES[kind]
            if not ok:
                sign = "non-negative " if kind == "float" else ""
                raise JobError(
                    "%s must be a %s%s, got %r" % (f.name, sign, kind, value),
                    f.name,
                )
        for name, floor in _INT_FLOORS.items():
            value = getattr(self, name)
            if value < floor:
                raise JobError(
                    "%s must be >= %d, got %r" % (name, floor, value), name
                )
        from repro.core.pipeline import BACKENDS, EXTRACTION_MODES
        from repro.core.probes import SearchStrategy
        from repro.isa.targets import get_target, target_names

        for name, value, allowed in (
            ("strategy", self.strategy, [s.value for s in SearchStrategy]),
            ("backend", self.backend, BACKENDS),
            ("extraction", self.extraction, EXTRACTION_MODES),
        ):
            if value not in allowed:
                raise JobError(
                    "unknown %s %r (expected one of %s)"
                    % (name, value, ", ".join(allowed)),
                    name,
                )
        try:
            get_target(self.arch)
        except KeyError:
            raise JobError(
                "unknown arch %r (expected a target or alias of %s)"
                % (self.arch, ", ".join(target_names())),
                "arch",
            )
        return self

    def to_config(self):
        """The :class:`~repro.core.pipeline.DenaliConfig` this request
        compiles under."""
        from repro.core.pipeline import DenaliConfig
        from repro.core.probes import SearchStrategy
        from repro.isa.targets import get_target
        from repro.matching import SaturationConfig
        from repro.stochastic.search import StochasticConfig

        return DenaliConfig(
            target=get_target(self.arch).name,
            min_cycles=self.min_cycles,
            max_cycles=self.max_cycles,
            strategy=SearchStrategy(self.strategy),
            verify=self.verify,
            miss_latency=self.miss_latency,
            backend=self.backend,
            extraction=self.extraction,
            seed=self.seed,
            stochastic=StochasticConfig(
                chains=self.mcmc_chains, moves=self.mcmc_moves
            ),
            saturation=SaturationConfig(
                max_rounds=self.max_rounds, max_enodes=self.max_enodes
            ),
        )


_FIELD_NAMES = tuple(f.name for f in fields(JobSpec))

# Fields that change what a compilation produces.  ``name`` (display
# only) and ``timeout_seconds`` (an operational bound) are excluded, so
# the same goal submitted under different labels coalesces.
_SEMANTIC_FIELDS = tuple(
    name for name in _FIELD_NAMES if name not in ("name", "timeout_seconds")
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


# -- one compile request, one report --------------------------------------------


@dataclass
class CompileReport:
    """What one compile request produced.

    ``results`` pairs each compiled GMA's label with its in-process
    :class:`~repro.core.pipeline.CompilationResult` (schedule, E-graph and
    per-GMA ``StageStats``); ``procedures`` holds the stitched programs of
    a whole-procedure compile, and ``errors`` the procedures that failed.
    :meth:`to_dict` is the wire form the store persists and
    ``/v1/jobs/<id>`` serves: per-GMA stats travel only as totals.
    """

    name: str
    target: str
    denali: Any  # the Denali that compiled it (--dimacs re-encodes with it)
    results: List[Tuple[str, Any]] = field(default_factory=list)
    procedures: List[Any] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def units(self) -> List[Dict[str, Any]]:
        """One record per GMA: the rendered block and its verdicts."""
        return [
            {
                "label": label,
                "assembly": None
                if result.schedule is None
                else result.schedule.render(label=label.replace(".", "_")),
                "cycles": result.cycles,
                "optimal": result.optimal,
                "verified": result.verified,
                "backend": result.backend,
                "summary": result.summary(),
                "floor": result.search.proved_floor,
                "optimal_by": result.stats.optimal_by,
            }
            for label, result in self.results
        ]

    @property
    def ok(self) -> bool:
        return (
            not self.errors
            and all(
                result.schedule is not None and result.verified is not False
                for _label, result in self.results
            )
            and all(proc.all_verified() for proc in self.procedures)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "kind": "compile",
            "name": self.name,
            "target": self.target,
            "units": self.units,
            "stats": aggregate_stats(
                [result.stats for _label, result in self.results]
            ),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "pid": os.getpid(),
        }


def compile_job(
    spec: JobSpec, program=None, whole: bool = False
) -> CompileReport:
    """Compile ``spec`` in this process: what the CLI and the worker run.

    ``program`` is ``spec.source`` already parsed, when the caller has
    it.  ``whole`` compiles each procedure into one stitched program
    (:meth:`~repro.core.pipeline.Denali.compile_procedure`) instead of
    per-GMA blocks.  A procedure that fails to translate or compile is
    recorded in ``errors`` and the others still compile.
    """
    from repro.axioms import AxiomSet
    from repro.core.cache import global_axiom_cache
    from repro.core.pipeline import Denali
    from repro.isa.targets import get_target
    from repro.lang import parse_program, translate_procedure

    start = time.perf_counter()
    if program is None:
        program = parse_program(spec.source)
    if not program.procedures:
        raise JobError("no procedures in %s" % (spec.name or "<job>"))
    procedures = program.procedures
    if spec.proc is not None:
        try:
            procedures = [program.procedure(spec.proc)]
        except KeyError as exc:
            raise JobError(str(exc), "proc")

    config = spec.to_config()
    corpus = global_axiom_cache().default_corpus(
        program.registry, config.target
    )
    den = Denali(
        get_target(spec.arch).spec(load_latency=spec.load_latency),
        axioms=corpus + AxiomSet(program.axioms, "program"),
        registry=program.registry,
        config=config,
    )
    report = CompileReport(spec.name, config.target, den)
    for proc in procedures:
        try:
            if whole:
                stitched = den.compile_procedure(proc)
            else:
                gmas = translate_procedure(proc, program.registry)
        except Exception as exc:
            what = "error compiling" if whole else "translation error in"
            report.errors.append("%s %s: %s" % (what, proc.name, exc))
            continue
        if whole:
            report.procedures.append(stitched)
            report.results.extend(stitched.results)
            continue
        for label, gma in gmas:
            report.results.append((label, den.compile_gma(gma, label=label)))
    report.elapsed_seconds = time.perf_counter() - start
    return report


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
    report = compile_job(spec)
    if report.errors:
        raise JobError(report.errors[0])
    return report.to_dict()


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
    # The result payload as JSON text, kept once: a compile's is the
    # store's own text (the same ``str`` for an in-memory store).
    result_text: Optional[str] = None
    done: threading.Event = field(default_factory=threading.Event)
    # Callbacks fired once when the job settles (see ``on_settle``).
    waiters: Optional[List[Callable[[], None]]] = None

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


# A settled job's record (status, result text) outlives it by this many
# later settlements; then it is evicted, oldest first, and its id
# answers "unknown job".  Live records are never evicted.
SETTLED_JOBS_KEPT = 4096
# The /v1/metrics latency percentiles cover this many most recent jobs.
LATENCY_WINDOW = 1024


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
        self._settled: Deque[str] = collections.deque()  # oldest first
        self._counter = 0  # records ever made: the "submitted" count
        self._by_state: Dict[str, int] = {}
        self._coalesced_total = 0
        self._latencies: Deque[float] = collections.deque(maxlen=LATENCY_WINDOW)
        self._worker_stages: Dict[int, Dict[str, float]] = {}
        # Compile totals summed over completed jobs (``aggregate_stats``'
        # schema; the "totals" block of /v1/metrics).
        self._totals = aggregate_stats([])
        # Per-target job aggregates over compile jobs (the "targets"
        # block of /v1/metrics).  Keys are canonical target names; a
        # store hit counts under ``cache_hits`` without compiling.
        self._target_totals: Dict[str, Dict[str, int]] = {}
        self._timers: List[threading.Timer] = []
        self._started_monotonic = time.monotonic()
        self._shutdown = False
        # Compile every target's axiom corpus *before* the pool forks,
        # so every worker inherits them.
        from repro.core.cache import global_axiom_cache
        from repro.isa.targets import target_names
        from repro.terms.ops import default_registry

        registry = default_registry()
        for target in target_names():
            global_axiom_cache().default_corpus(registry, target)
        self.pool = WorkerPool(
            workers,
            on_result=self._on_pool_result,
            on_start=self._on_pool_start,
            context=mp_context,
        )

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
                cached = self.store.get_text(fingerprint)
                if cached is not None:
                    self._set_state(record, JobState.DONE)
                    record.from_store = True
                    record.result_text = cached
                    record.finished_at = time.time()
                    self._settle(record)
                    self._target_bucket(
                        canonical_target(spec.arch)
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
        self._by_state[record.state] = self._by_state.get(record.state, 0) + 1
        return record

    def _set_state(self, record: _JobRecord, state: str) -> None:
        counts = self._by_state
        counts[record.state] -= 1
        if not counts[record.state]:
            del counts[record.state]
        counts[state] = counts.get(state, 0) + 1
        record.state = state

    # -- pool callbacks ----------------------------------------------------

    def _on_pool_start(self, job_id: str, worker_id: int) -> None:
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.state not in (JobState.PENDING,):
                return
            self._set_state(record, JobState.RUNNING)
            record.worker = worker_id
            if record.started_at is None:
                record.started_at = time.time()

    def _live_record(self, job_id: str) -> Optional[_JobRecord]:
        """The job's record while it is not settled (call under the lock)."""
        record = self._jobs.get(job_id)
        if record is None or record.done.is_set():
            return None  # stale answer (e.g. finished during a timeout race)
        return record

    def _on_pool_result(
        self, job_id: str, status: str, payload: Any, worker_id: int
    ) -> None:
        if status == "ok":
            self._finish_ok(job_id, payload, worker_id)
            return
        with self._lock:
            record = self._live_record(job_id)
            if record is None:
                return
            if status == "error":
                # The job itself raised (parse error, bad spec): retrying
                # would fail identically, so fail fast.
                self._finish_failed(record, str(payload))
            else:  # "crashed" | "timeout": the *attempt* failed; retry.
                if record.attempts <= self.max_retries:
                    delay = self.retry_backoff * (2 ** (record.attempts - 1))
                    record.attempts += 1
                    self._set_state(record, JobState.PENDING)
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
            # Runs on the retry's own Timer thread: a fired timer has
            # nothing left to cancel, so the engine drops it here.
            timer = threading.current_thread()
            if timer in self._timers:
                self._timers.remove(timer)
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
        self, job_id: str, payload: Dict[str, Any], worker_id: int
    ) -> None:
        """Settle a job whose attempt succeeded.

        The payload is encoded and stored outside the engine lock: a
        store write must not hold up the submits and result reads that
        the front end answers on its event loop.
        """
        with self._lock:
            record = self._live_record(job_id)
            if record is None:
                return
            compiled = record.spec.kind == "compile"
            fingerprint = record.fingerprint
        if compiled and payload["ok"]:
            text = self.store.put(fingerprint, payload)
        else:
            text = json.dumps(payload, sort_keys=True)
        with self._lock:
            record = self._live_record(job_id)
            if record is None:
                return  # cancelled while the result was being stored
            self._set_state(record, JobState.DONE)
            record.worker = worker_id
            record.finished_at = time.time()
            self._latencies.append(record.finished_at - record.submitted_at)
            if compiled:  # a CompileReport's wire form
                stats = payload["stats"]
                merge_totals(self._totals, stats)
                merge_totals(
                    self._worker_stages.setdefault(worker_id, {}),
                    stats["timings"],
                )
                bucket = self._target_bucket(payload["target"])
                bucket["done"] += 1
                bucket["units"] += len(payload["units"])
            record.result_text = text
            self._inflight.pop(record.fingerprint, None)
            self._settle(record)

    def _finish_failed(self, record: _JobRecord, error: str) -> None:
        self._set_state(record, JobState.FAILED)
        record.error = error
        if record.spec.kind == "compile":
            self._target_bucket(
                canonical_target(record.spec.arch)
            )["failed"] += 1
        record.finished_at = time.time()
        self._inflight.pop(record.fingerprint, None)
        self._settle(record)

    def _settle(self, record: _JobRecord) -> None:
        """Mark ``record`` terminal, wake whoever waits on it, and evict
        the oldest settled record beyond ``SETTLED_JOBS_KEPT``."""
        record.done.set()
        waiters, record.waiters = record.waiters, None
        for callback in waiters or ():
            callback()
        self._settled.append(record.id)
        while len(self._settled) > SETTLED_JOBS_KEPT:
            del self._jobs[self._settled.popleft()]

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
        """The job's result payload; waits for completion by default.

        Parsed from the kept JSON text on each call, so callers may
        mutate what they get.
        """
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise JobError("unknown job %r" % job_id)
        if wait and not record.done.wait(timeout):
            return None
        text = record.result_text
        return None if text is None else json.loads(text)

    def done_result(self, job_id: str) -> Optional[Tuple[bool, str]]:
        """``(from_store, result payload as JSON text)`` of a job in state
        done (no wait, no copy); None while it is live, after it failed or
        was cancelled, or once it is evicted."""
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.state != JobState.DONE:
                return None
            return record.from_store, record.result_text

    def on_settle(self, job_id: str, callback: Callable[[], None]) -> bool:
        """Call ``callback()`` once when the job reaches a terminal state.

        Returns False, registering nothing, when the job is unknown or
        already terminal.  The callback runs on the thread that settles
        the job, under the engine lock: it must only hand off (e.g.
        ``loop.call_soon_threadsafe``), never block.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None or record.done.is_set():
                return False
            if record.waiters is None:
                record.waiters = []
            record.waiters.append(callback)
            return True

    def discard_on_settle(
        self, job_id: str, callback: Callable[[], None]
    ) -> None:
        """Withdraw a callback :meth:`on_settle` registered (if unfired)."""
        with self._lock:
            record = self._jobs.get(job_id)
            waiters = record.waiters if record is not None else None
            if waiters and callback in waiters:
                waiters.remove(callback)
                if not waiters:
                    record.waiters = None

    def wait(
        self, job_ids: Sequence[str], timeout: Optional[float] = None
    ) -> bool:
        """Block until every job finished; False on timeout."""
        records = []
        with self._lock:
            for job_id in job_ids:
                record = self._jobs.get(job_id)
                if record is None:
                    raise JobError("unknown job %r" % job_id)
                records.append(record)
        return self._wait_records(records, timeout)

    @staticmethod
    def _wait_records(
        records: Sequence[_JobRecord], timeout: Optional[float]
    ) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        for record in records:
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
            self._set_state(record, JobState.CANCELLED)
            record.finished_at = time.time()
            self._inflight.pop(record.fingerprint, None)
            self._settle(record)
        self.pool.cancel(job_id, kill_running=kill_running)
        return True

    def backlog(self) -> int:
        """Unique compilations admitted but not yet finished.

        O(1) — the fabric front end calls this on *every* submission
        when deciding whether to shed load, so it must not scale with
        the job-record table.  Coalesced duplicates
        share one in-flight entry and count once: shedding is about
        outstanding work, not outstanding ids.
        """
        with self._lock:
            return len(self._inflight)

    def queue_stats(self) -> Dict[str, Any]:
        """Lightweight backlog/latency snapshot for admission control."""
        with self._lock:
            recent = list(self._latencies)[-64:]
            return {
                "backlog": len(self._inflight),
                "p50_seconds": round(_percentile(recent, 0.50), 6),
                "workers": len(self.pool.stats()),
            }

    def metrics(self) -> Dict[str, Any]:
        """Aggregate service metrics (the ``/v1/metrics`` payload)."""
        with self._lock:
            done = self._by_state.get(JobState.DONE, 0)
            elapsed = time.monotonic() - self._started_monotonic
            latencies = list(self._latencies)
            worker_stats = self.pool.stats()
            for entry in worker_stats:
                entry["stages"] = dict(self._worker_stages.get(entry["id"], {}))
            return {
                "jobs": {
                    "submitted": self._counter,
                    "coalesced": self._coalesced_total,
                    "by_state": dict(self._by_state),
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
                "workers": worker_stats,
                "targets": {
                    name: dict(bucket)
                    for name, bucket in sorted(self._target_totals.items())
                },
                "totals": copy.deepcopy(self._totals),
            }

    # -- lifecycle ---------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for every submitted job to reach a terminal state."""
        with self._lock:
            live = [r for r in self._jobs.values() if not r.done.is_set()]
        return self._wait_records(live, timeout)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        if drain:
            self.drain(timeout=timeout)
        self._shutdown = True
        with self._lock:
            pending = list(self._timers)
        for timer in pending:
            timer.cancel()
        self.pool.shutdown(drain=drain)
        self.store.close()
