"""Asyncio HTTP front end for a fabric node.

The only HTTP server of the compilation service: a single-threaded
asyncio accept/parse loop in front of the (threaded,
multiprocessing-backed) compilation engine.  It serves the service API
(``/healthz``, ``/v1/submit``, ``/v1/jobs/<id>[/result]``,
``/v1/metrics``, ``/v1/shutdown``) plus the fabric's own routes
(``/v1/fabric/ring``, ``/join``, ``/replicate``):

* **non-blocking accept/parse** — every connection is a coroutine;
  thousands of keep-alive clients cost no threads.  ``TCP_NODELAY`` is
  set and each response is a single ``write`` so small JSON round-trips
  never stall on Nagle/delayed-ACK.  A request whose body cannot be
  framed (a malformed or oversized ``Content-Length``) is answered with
  400 or 413 and ``Connection: close``: its unread body must never be
  parsed as the next request.
* **inline admission of owned work** — a submission whose every job
  this node owns (a one-member ring, a ``forwarded`` request, or
  fingerprints that all map here) is parsed and admitted on the loop:
  that is lock-guarded dict work and one store lookup, so a store hit
  costs one loop turn and no thread hand-off.
* **bounded admission queue** — the requests that block on another
  node (joins, which probe the joiner's ``/healthz``; submissions that
  forward jobs to a peer) and replication writes pass through an
  ``asyncio.Queue`` drained by a small, fixed pool of dispatcher tasks
  that run them in the default executor.  Forwarding never runs on the
  loop: a slow or dead peer would stall every connection of the node.
  The queue bound plus an engine-backlog bound (checked for every
  submission) make overload a first-class state: requests beyond
  either bound are **shed** with ``429`` and a ``Retry-After`` estimated
  from the current backlog and recent job latency, instead of
  accumulating unbounded memory and latency.
* **per-endpoint backpressure metrics** — request/shed counters per
  route plus admission-queue high-water marks, surfaced under the
  ``fabric`` key of ``/v1/metrics``.

Read-only routes (health, metrics, ring, job status) bypass the
admission queue on purpose: they must keep answering *while* the node is
shedding, or operators and health checks would go blind exactly when
they matter.

``GET /v1/jobs/<id>/result?wait=S`` is a **long poll**: while the job is
pending or running, the connection's coroutine awaits a future that the
engine's settle callback resolves (:meth:`CompilationEngine.on_settle`),
for at most S seconds, and then answers as an immediate request would.
A hold costs no thread and no timer poll.  A finished result is spliced
into the response as the JSON text the engine keeps, never re-encoded
(:func:`done_reply`).  ``POST /v1/submit`` answers each job that is
already done, a store hit for one, with that same reply inline under
``results``, so a client reads it without a second request.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import socket
import sys
import threading
import urllib.parse
from typing import Any, Dict, Optional, Tuple, Union

from repro.service.jobs import JobState

_MAX_BODY = 32 * 1024 * 1024
# How long a rejected connection's unread input is drained before the
# socket closes (closing with unread bytes would reset the connection
# and could destroy the error response in flight).
_LINGER_SECONDS = 1.0
_REASONS = {
    200: "OK",
    202: "Accepted",
    307: "Temporary Redirect",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Unframeable(Exception):
    """A request whose body cannot be delimited; answered, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class FrontendMetrics:
    """Per-endpoint request/shed counters (thread-safe: loop + executor)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.endpoints: Dict[str, Dict[str, int]] = {}
        self.queue_high_water = 0
        self.shed_queue_full = 0
        self.shed_backlog = 0
        self.connections = 0

    def count(self, endpoint: str, key: str = "requests") -> None:
        with self._lock:
            entry = self.endpoints.setdefault(
                endpoint, {"requests": 0, "shed": 0}
            )
            entry[key] = entry.get(key, 0) + 1

    def shed(self, endpoint: str, reason: str) -> None:
        with self._lock:
            entry = self.endpoints.setdefault(
                endpoint, {"requests": 0, "shed": 0}
            )
            entry["shed"] += 1
            if reason == "queue_full":
                self.shed_queue_full += 1
            else:
                self.shed_backlog += 1

    def note_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.queue_high_water:
                self.queue_high_water = depth

    def to_dict(self, queue_depth: int, max_queue: int) -> Dict[str, Any]:
        with self._lock:
            return {
                "endpoints": {
                    name: dict(entry)
                    for name, entry in sorted(self.endpoints.items())
                },
                "admission": {
                    "max_queue": max_queue,
                    "queue_depth": queue_depth,
                    "queue_high_water": self.queue_high_water,
                    "shed_queue_full": self.shed_queue_full,
                    "shed_backlog": self.shed_backlog,
                },
                "connections": self.connections,
            }


class AsyncFrontend:
    """The HTTP face of one :class:`~repro.fabric.node.FabricNode`.

    Args:
        node: the owning FabricNode (engine, registry, store, clients).
        host/port: bind address (port 0 picks an ephemeral port).
        max_queue: bound on both the admission queue and the engine's
            admitted-but-unfinished backlog; beyond either, shed.
        dispatchers: dispatcher tasks draining the admission queue.
        verbose: log each request's method, path and status to stderr.
    """

    def __init__(
        self,
        node,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 512,
        dispatchers: int = 4,
        verbose: bool = False,
    ) -> None:
        self.node = node
        self.host = host
        self.port = port
        self.max_queue = max(1, max_queue)
        self.dispatchers = max(1, dispatchers)
        self.verbose = verbose
        self.metrics = FrontendMetrics()
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._tasks: list = []
        self._connections: set = set()

    # -- lifecycle (called via run_coroutine_threadsafe) -------------------

    async def start(self) -> Tuple[str, int]:
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        for _ in range(self.dispatchers):
            self._tasks.append(asyncio.create_task(self._dispatch_loop()))
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        self._tasks = []
        for task in list(self._connections):
            task.cancel()
        self._connections.clear()

    # -- connection handling -----------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self.metrics.connections += 1
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Unframeable as exc:
                    self._log(writer, "-", "-", exc.status)
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    await self._linger(reader, writer)
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._route(
                    method, path, body
                )
                self._log(writer, method, path, status)
                close = headers.get("connection", "").lower() == "close"
                await self._respond(
                    writer, status, payload, extra, close=close
                )
                if close:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            pass  # frontend.stop() tearing down live keep-alive conns
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; None at end of stream.

        Raises :class:`_Unframeable` when the body cannot be read: the
        caller answers it and closes the connection.
        """
        try:
            line = await reader.readline()
        except (ValueError, ConnectionResetError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            try:
                raw = await reader.readline()
            except ValueError:  # a header line beyond the stream limit
                raise _Unframeable(400, "header line too long") from None
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _Unframeable(400, "malformed Content-Length %r" % declared)
        length = int(declared)
        if length > _MAX_BODY:
            raise _Unframeable(413, "body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _linger(self, reader, writer) -> None:
        """Half-close, then drop unread input until EOF or a timeout."""

        async def discard() -> None:
            while await reader.read(65536):
                pass

        try:
            writer.write_eof()
            await asyncio.wait_for(discard(), _LINGER_SECONDS)
        except (asyncio.TimeoutError, OSError):
            pass

    def _log(self, writer, method: str, path: str, status: int) -> None:
        if self.verbose:
            peer = writer.get_extra_info("peername") or ("-",)
            print(
                '%s - "%s %s" %d' % (peer[0], method, path, status),
                file=sys.stderr,
            )

    async def _respond(
        self,
        writer,
        status: int,
        payload: Union[Dict[str, Any], bytes],
        extra: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        """Send one response; a ``bytes`` payload is an encoded body."""
        if isinstance(payload, bytes):
            body = payload
        else:
            body = json.dumps(payload).encode("utf-8")
        lines = [
            "HTTP/1.1 %d %s" % (status, _REASONS.get(status, "OK")),
            "Content-Type: application/json",
            "Content-Length: %d" % len(body),
        ]
        for name, value in (extra or {}).items():
            lines.append("%s: %s" % (name, value))
        if close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)  # one write: no partial-segment stall
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any], Optional[Dict[str, str]]]:
        path, _, query = path.partition("?")
        if method == "GET":
            return await self._route_get(path, query)
        if method == "POST":
            return await self._route_post(path, body)
        return 404, {"error": "unsupported method %r" % method}, None

    async def _route_get(self, path: str, query: str):
        node = self.node
        if path == "/healthz":
            self.metrics.count("/healthz")
            return (
                200,
                {"ok": True, "ready": node.ready, "node": node.node_id},
                None,
            )
        if path == "/v1/metrics":
            self.metrics.count("/v1/metrics")
            if not node.ready:
                return 503, {"error": "node still starting"}, None
            payload = await self._in_executor(node.engine.metrics)
            payload["fabric"] = self.describe_fabric()
            return 200, payload, None
        if path == "/v1/fabric/ring":
            self.metrics.count("/v1/fabric/ring")
            return 200, node.registry.describe(), None
        job_route = self._job_route(path)
        if job_route is not None:
            return await self._route_job(*job_route, query)
        self.metrics.count("(unknown)")
        return 404, {"error": "no such route %r" % path}, None

    async def _route_post(self, path: str, body: bytes):
        node = self.node
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            return 400, {"error": "malformed JSON body"}, None
        if not isinstance(data, dict):
            return 400, {"error": "body must be a JSON object"}, None
        if path == "/v1/shutdown":
            self.metrics.count("/v1/shutdown")
            node.request_shutdown()
            return 200, {"ok": True}, None
        if path == "/v1/fabric/join":
            return await self._admit(
                "/v1/fabric/join", node.handle_join, data
            )
        if path == "/v1/submit":
            return await self._admit(
                "/v1/submit", node.handle_submit, data
            )
        if path == "/v1/fabric/replicate":
            return await self._admit(
                "/v1/fabric/replicate", node.handle_replicate, data
            )
        self.metrics.count("(unknown)")
        return 404, {"error": "no such route %r" % path}, None

    def _job_route(self, path: str) -> Optional[Tuple[str, bool]]:
        parts = path.rstrip("/").split("/")
        if len(parts) == 4 and parts[:3] == ["", "v1", "jobs"]:
            return parts[3], False
        if (
            len(parts) == 5
            and parts[:3] == ["", "v1", "jobs"]
            and parts[4] == "result"
        ):
            return parts[3], True
        return None

    async def _route_job(self, job_id: str, want_result: bool, query: str):
        node = self.node
        endpoint = "/v1/jobs"
        self.metrics.count(endpoint)
        if not node.ready:
            return 503, {"error": "node still starting"}, None
        local_id, owner = node.split_job_id(job_id)
        if owner is not None and owner != node.node_id:
            url = node.registry.url_of(owner)
            if url is None:
                return 404, {"error": "unknown node %r" % owner}, None
            suffix = "/result" if want_result else ""
            if query:  # the owner must see the same ?wait=
                suffix += "?" + query
            return (
                307,
                {"redirect": url},
                {"Location": "%s/v1/jobs/%s%s" % (url, job_id, suffix)},
            )
        wait = 0.0
        if want_result:
            try:
                wait = float(_query_param(query, "wait") or 0)
            except ValueError:
                wait = math.nan
            if not 0 <= wait < math.inf:
                return 400, {"error": "'wait' must be seconds >= 0"}, None
        # Status/result reads are a lock acquisition plus dict lookups;
        # running them inline beats an executor round-trip per poll
        # (the hot path of a store-hit soak).
        unknown = 404, {"error": "unknown job %r" % job_id}, None
        status = node.engine.status(local_id)
        if status is None:
            return unknown
        if not want_result:
            status["id"] = node.qualify_job_id(local_id)
            return 200, status, None
        state = status["state"]
        if wait and state in (JobState.PENDING, JobState.RUNNING):
            await self._hold(local_id, wait)
            status = node.engine.status(local_id)
            if status is None:  # settled and evicted during the hold
                return unknown
            state = status["state"]
        if state in (JobState.PENDING, JobState.RUNNING):
            return 202, {"state": state}, None
        if state != JobState.DONE:
            return 500, {"state": state, "error": status.get("error")}, None
        body = done_reply(node.engine, local_id)
        if body is None:  # evicted since the status read
            return unknown
        return 200, body.encode("utf-8"), None

    async def _hold(self, local_id: str, seconds: float) -> None:
        """Return once the job settles or ``seconds`` pass, whichever is first.

        The engine fires the settle callback on whatever thread finishes
        the job; it only schedules the future's resolution on this loop.
        The callback is withdrawn on every exit (timeout, cancellation
        by :meth:`stop`), so an expired hold leaves nothing behind.
        """
        loop = asyncio.get_running_loop()
        settled = loop.create_future()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(_resolve, settled)
            except RuntimeError:  # the loop closed: nobody is waiting
                pass

        engine = self.node.engine
        if not engine.on_settle(local_id, wake):
            return  # settled since the status read
        try:
            await asyncio.wait((settled,), timeout=seconds)
        finally:
            engine.discard_on_settle(local_id, wake)

    # -- admission control --------------------------------------------------

    async def _admit(self, endpoint: str, handler, data: Dict[str, Any]):
        self.metrics.count(endpoint)
        node = self.node
        # A starting node already answers joins: its peers announce
        # themselves while it forks its workers.
        if not node.ready and endpoint != "/v1/fabric/join":
            return 503, {"error": "node still starting"}, None
        call = functools.partial(handler, data)
        if endpoint == "/v1/submit":
            jobs = data.get("jobs")
            njobs = len(jobs) if isinstance(jobs, list) else 1
            backlog = node.engine.backlog()  # O(1), inline on purpose
            if backlog + njobs > self.max_queue:
                return self._shed(endpoint, "backlog", backlog)
            # Parsing and admitting jobs this node owns is lock-guarded
            # dict work and a store lookup: inline, like result reads.
            # Only a submission that forwards to a peer hands back a
            # callable, which blocks on the peer and so leaves the loop.
            try:
                outcome = call()
            except Exception as exc:
                return 500, {"error": repr(exc)}, None
            if not callable(outcome):
                return outcome
            call = outcome
        future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((call, future))
        except asyncio.QueueFull:
            return self._shed(endpoint, "queue_full", self.max_queue)
        self.metrics.note_depth(self._queue.qsize())
        return await future

    def _shed(self, endpoint: str, reason: str, backlog: int):
        self.metrics.shed(endpoint, reason)
        retry_after = self._retry_after(backlog)
        return (
            429,
            {
                "error": "overloaded (%s)" % reason,
                "retry_after": retry_after,
                "backlog": backlog,
            },
            {"Retry-After": str(retry_after)},
        )

    def _retry_after(self, backlog: int) -> int:
        """Seconds until the backlog plausibly has room again."""
        stats = self.node.engine.queue_stats()
        per_job = max(stats.get("p50_seconds", 0.0), 0.02)
        workers = max(stats.get("workers", 1), 1)
        estimate = math.ceil(backlog * per_job / workers)
        return int(min(30, max(1, estimate)))

    async def _dispatch_loop(self) -> None:
        while True:
            call, future = await self._queue.get()
            try:
                outcome = await self._in_executor(call)
            except Exception as exc:  # surface, don't kill the dispatcher
                outcome = (500, {"error": repr(exc)}, None)
            if not future.done():
                future.set_result(outcome)
            self._queue.task_done()

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args
        )

    # -- metrics -----------------------------------------------------------

    def describe_fabric(self) -> Dict[str, Any]:
        depth = self._queue.qsize() if self._queue is not None else 0
        out = self.metrics.to_dict(depth, self.max_queue)
        out["node"] = self.node.node_id
        out["ring"] = self.node.registry.describe()
        return out


def done_reply(engine, local_id: str) -> Optional[str]:
    """The body of ``GET /v1/jobs/<id>/result`` for a job in state done,
    or None when it is not done or no longer kept.

    ``/v1/submit`` inlines the same text for the jobs it answers already
    done, so the two replies cannot drift.  The result is the engine's
    kept JSON text, spliced in, never re-encoded.
    """
    done = engine.done_result(local_id)
    if done is None:
        return None
    from_store, text = done
    return '{"state": "done", "from_store": %s, "result": %s}' % (
        "true" if from_store else "false",
        text,
    )


def _query_param(query: str, name: str) -> Optional[str]:
    """The first value of ``name`` in a URL query string, or None."""
    values = urllib.parse.parse_qs(query).get(name)
    return values[0] if values else None


def _resolve(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


__all__ = ["AsyncFrontend", "FrontendMetrics", "done_reply"]
