"""The compilation service: a long-lived, batch-oriented front end.

The one-shot CLI pays full cold start (interpreter launch, axiom
compilation, E-graph saturation) on every invocation.  This package
turns the staged-session machinery of ``repro.core`` into a serving
subsystem with three layers:

* **job engine** (:mod:`repro.service.jobs`, :mod:`repro.service.pool`)
  — fans a batch of compilation requests out over a ``multiprocessing``
  worker pool, with per-job timeouts wired into the solver's deadline
  hooks, bounded retries with backoff for crashed workers, and graceful
  drain/cancellation;
* **persistent result store** (:mod:`repro.service.store`) — extends the
  in-process fingerprint caches of ``repro.core.cache`` to an on-disk
  sqlite store, so warm results survive process restarts; identical
  in-flight requests are coalesced so each distinct goal compiles once;
* **client** (:mod:`repro.service.client`) — the stdlib-only
  JSON-over-HTTP client for the submit/status/result/metrics endpoints.

The HTTP server is a :class:`repro.fabric.FabricNode` (one node unless
it is given peers).  The CLI verbs ``repro serve`` (a fabric node) and
``repro batch`` (a local engine, or ``--url`` to a node) are thin
wrappers over these layers.
"""

from repro.service.jobs import (
    CompilationEngine,
    CompileReport,
    JobError,
    JobSpec,
    JobState,
    compile_job,
    job_fingerprint,
    run_job,
)
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadError,
)

__all__ = [
    "CompilationEngine",
    "CompileReport",
    "JobError",
    "JobSpec",
    "JobState",
    "compile_job",
    "job_fingerprint",
    "run_job",
    "WorkerPool",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceOverloadError",
]
