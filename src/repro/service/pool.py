"""A supervised ``multiprocessing`` worker pool for compilation jobs.

Each worker is a long-lived process looping over its own inbox queue and
reporting on a shared outbox; the pool's monitor thread enforces per-job
wall-clock deadlines (terminating the worker — the only reliable way to
bound a job stuck inside the SAT solver's C-level loops) and respawns
workers that crash, distinguishing a *timeout* (deadline exceeded) from
a *crash* (process died mid-job) so the engine can retry appropriately.

The pool prefers the ``fork`` start method when the platform offers it:
forked workers inherit the parent's already-compiled axiom corpus and
warm saturation cache, which is most of the cold-start cost the service
exists to amortize.  On spawn-only platforms each worker pays one cold
start and then stays warm for the rest of its life.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
import traceback
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple


def _worker_main(worker_id: int, inbox, outbox) -> None:
    """Worker process body: drain the inbox until the ``None`` sentinel."""
    from repro.service.jobs import run_job

    while True:
        item = inbox.get()
        if item is None:
            return
        job_id, spec_dict = item
        try:
            payload = run_job(spec_dict)
        except BaseException:
            outbox.put((worker_id, job_id, "error", traceback.format_exc()))
        else:
            outbox.put((worker_id, job_id, "ok", payload))


class _WorkerHandle:
    """Parent-side state of one worker process."""

    def __init__(self, worker_id: int, ctx) -> None:
        self.id = worker_id
        self.ctx = ctx
        self.inbox = ctx.Queue()
        self.process: Optional[multiprocessing.Process] = None
        self.current_job: Optional[str] = None
        self.deadline: Optional[float] = None
        self.busy_since: Optional[float] = None
        self.jobs_done = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0
        self.restarts = 0

    def start(self, outbox) -> None:
        self.process = self.ctx.Process(
            target=_worker_main,
            args=(self.id, self.inbox, outbox),
            daemon=True,
            name="repro-worker-%d" % self.id,
        )
        self.process.start()

    def respawn(self, outbox) -> None:
        """Replace a dead/killed process (with a fresh inbox: the old
        queue's feeder thread may be wedged mid-item)."""
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.inbox = self.ctx.Queue()
        self.restarts += 1
        self.start(outbox)

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stats(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "pid": self.process.pid if self.process else None,
            "alive": self.alive(),
            "busy": self.current_job is not None,
            "current_job": self.current_job,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "busy_seconds": round(self.busy_seconds, 6),
            "restarts": self.restarts,
        }


class WorkerPool:
    """Dispatches jobs to worker processes and supervises them.

    Args:
        num_workers: process count.
        on_result: ``fn(job_id, status, payload, worker_id)`` invoked
            from the collector/monitor threads with status ``"ok"``,
            ``"error"`` (job raised; payload is the traceback text),
            ``"crashed"`` (worker died) or ``"timeout"`` (deadline hit;
            worker was killed).  Called outside the pool lock.
        on_start: ``fn(job_id, worker_id)`` when a job is handed to a
            worker.
        context: multiprocessing start method (default: ``fork`` when
            available, else the platform default).
    """

    _POLL = 0.05

    def __init__(
        self,
        num_workers: int,
        on_result: Callable[[str, str, Any, int], None],
        on_start: Optional[Callable[[str, int], None]] = None,
        context: Optional[str] = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else methods[0]
        self.start_method = context
        self._ctx = multiprocessing.get_context(context)
        self._on_result = on_result
        self._on_start = on_start
        self._outbox = self._ctx.Queue()
        self._lock = threading.Lock()
        self._pending: Deque[Tuple[str, dict, Optional[float]]] = deque()
        self._cancelled: set = set()
        self._closing = False
        self._workers = [_WorkerHandle(i, self._ctx) for i in range(num_workers)]
        for handle in self._workers:
            handle.start(self._outbox)
        self._collector = threading.Thread(
            target=self._collect_loop, daemon=True, name="repro-pool-collector"
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, daemon=True, name="repro-pool-monitor"
        )
        self._collector.start()
        self._monitor.start()

    # -- submission --------------------------------------------------------

    def submit(
        self, job_id: str, spec_dict: dict, timeout: Optional[float] = None
    ) -> None:
        """Queue a job; it runs as soon as a worker is idle."""
        starts: List[Tuple[str, int]] = []
        with self._lock:
            if self._closing:
                raise RuntimeError("pool is shut down")
            self._pending.append((job_id, spec_dict, timeout))
            self._dispatch_locked(starts)
        self._announce_starts(starts)

    def cancel(self, job_id: str, kill_running: bool = False) -> bool:
        """Drop a pending job; optionally kill the worker running it."""
        victim = None
        with self._lock:
            for i, (pending_id, _, _) in enumerate(self._pending):
                if pending_id == job_id:
                    del self._pending[i]
                    self._cancelled.add(job_id)
                    return True
            if kill_running:
                for handle in self._workers:
                    if handle.current_job == job_id:
                        victim = handle
                        self._cancelled.add(job_id)
                        break
        if victim is not None:
            self._reap(victim, report=None)
            return True
        return False

    # -- dispatch ----------------------------------------------------------

    def _dispatch_locked(self, starts: List[Tuple[str, int]]) -> None:
        for handle in self._workers:
            if not self._pending:
                return
            if handle.current_job is not None or not handle.alive():
                continue
            job_id, spec_dict, timeout = self._pending.popleft()
            # The deadline first: a bad timeout must raise before the
            # worker is marked busy, or the slot stays taken for good.
            now = time.monotonic()
            deadline = None if timeout is None else now + timeout
            handle.current_job = job_id
            handle.busy_since = now
            handle.deadline = deadline
            handle.inbox.put((job_id, spec_dict))
            starts.append((job_id, handle.id))

    def _announce_starts(self, starts: List[Tuple[str, int]]) -> None:
        if self._on_start is None:
            return
        for job_id, worker_id in starts:
            self._on_start(job_id, worker_id)

    # -- collector / monitor ------------------------------------------------

    def _collect_loop(self) -> None:
        while True:
            try:
                item = self._outbox.get(timeout=0.1)
            except queue.Empty:
                if self._closing:
                    return
                continue
            worker_id, job_id, status, payload = item
            starts: List[Tuple[str, int]] = []
            suppressed = False
            with self._lock:
                handle = self._workers[worker_id]
                if handle.current_job == job_id:
                    handle.current_job = None
                    handle.deadline = None
                    if handle.busy_since is not None:
                        handle.busy_seconds += (
                            time.monotonic() - handle.busy_since
                        )
                        handle.busy_since = None
                    if status == "ok":
                        handle.jobs_done += 1
                    else:
                        handle.jobs_failed += 1
                else:
                    suppressed = True  # answer for a job we already reaped
                if job_id in self._cancelled:
                    self._cancelled.discard(job_id)
                    suppressed = True
                self._dispatch_locked(starts)
            self._announce_starts(starts)
            if not suppressed:
                self._on_result(job_id, status, payload, worker_id)

    def _monitor_loop(self) -> None:
        while not self._closing:
            time.sleep(self._POLL)
            victims: List[Tuple[_WorkerHandle, Optional[Tuple[str, str]]]] = []
            with self._lock:
                if self._closing:
                    return
                now = time.monotonic()
                for handle in self._workers:
                    if handle.current_job is not None:
                        if (
                            handle.deadline is not None
                            and now > handle.deadline
                        ):
                            victims.append(
                                (handle, (handle.current_job, "timeout"))
                            )
                        elif not handle.alive():
                            victims.append(
                                (handle, (handle.current_job, "crashed"))
                            )
                    elif not handle.alive():
                        victims.append((handle, None))  # idle death
            for handle, report in victims:
                self._reap(handle, report)

    def _reap(
        self, handle: _WorkerHandle, report: Optional[Tuple[str, str]]
    ) -> None:
        """Kill/replace a worker and (optionally) report its job's fate."""
        with self._lock:
            job_id = handle.current_job
            if report is not None and job_id != report[0]:
                return  # the job finished in the race window
            handle.current_job = None
            handle.deadline = None
            if handle.busy_since is not None:
                handle.busy_seconds += time.monotonic() - handle.busy_since
                handle.busy_since = None
            if report is not None:
                handle.jobs_failed += 1
            suppressed = job_id in self._cancelled
            self._cancelled.discard(job_id)
            handle.respawn(self._outbox)
            starts: List[Tuple[str, int]] = []
            self._dispatch_locked(starts)
        self._announce_starts(starts)
        if report is not None and not suppressed:
            self._on_result(report[0], report[1], None, handle.id)

    # -- inspection / lifecycle --------------------------------------------

    def stats(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [handle.stats() for handle in self._workers]

    def idle(self) -> bool:
        with self._lock:
            return not self._pending and all(
                handle.current_job is None for handle in self._workers
            )

    def shutdown(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Stop accepting work, send sentinels, reap every worker.

        A worker still running a job gets ``timeout`` seconds to finish
        it; with ``drain=False`` it is terminated at once instead.
        """
        with self._lock:
            self._closing = True
            self._pending.clear()
            workers = list(self._workers)
            busy = [h for h in workers if h.current_job is not None]
        if not drain:
            for handle in busy:
                handle.process.terminate()
        for handle in workers:
            try:
                handle.inbox.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + timeout
        for handle in workers:
            if handle.process is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
        self._collector.join(timeout=1.0)
        self._monitor.join(timeout=1.0)
