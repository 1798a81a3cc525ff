"""Stdlib HTTP client for the compilation service.

Used by ``repro batch --url`` (through its ring-aware subclass), by
fabric nodes for their peer and health requests, and by the service
tests.  It frames HTTP/1.1 itself over a plain socket: each request is
one ``sendall``, and a reply is read as a status line, headers and a
``Content-Length`` body from the socket's buffered reader, under
``http.client``'s limits (65536 bytes a line, 100 headers); a chunked
or otherwise unframeable reply is an error.  Connections are **kept
alive** and reused across requests (one pool per thread, so a
multi-threaded soak driver never shares a socket), with ``TCP_NODELAY``
set so small JSON requests don't stall on Nagle/delayed-ACK.
Transient connection resets — the server recycling an idle keep-alive
socket, a node restarting — are retried with jittered exponential
backoff before surfacing as :class:`ServiceError`.

All methods raise :class:`ServiceError` on transport failures or
non-2xx responses, with two refinements:

* 202 is "result not ready yet" (returned, not raised);
* 429 raises :class:`ServiceOverloadError` carrying the server's
  ``Retry-After`` hint — load shedding is an explicit signal to the
  caller, never silently retried.

A submit reply's ``results`` (the jobs already done, such as store
hits) are kept per thread, and :meth:`ServiceClient.result` answers
such a job from them without sending a request.

Redirects (307 from a fabric node that doesn't own a job) are followed
transparently, which makes this plain client work against a sharded
fabric; :class:`repro.fabric.client.FabricClient` avoids the extra hop
by routing on the ring directly.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
import urllib.parse
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.service.jobs import SETTLED_JOBS_KEPT, JobSpec

_REDIRECT_CODES = (301, 302, 307, 308)
_MAX_REDIRECTS = 4
# Inline results kept per thread until result() reads them; beyond this
# many the oldest is dropped, and its id falls back to the GET.
_INLINE_RESULTS_KEPT = SETTLED_JOBS_KEPT


class ServiceError(Exception):
    """Transport or protocol failure talking to the service.

    Attributes:
        payload: the error reply's JSON body, or ``{}`` when there was
            none (a transport failure).
    """

    def __init__(
        self, message: str, payload: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.payload = payload or {}


class ServiceOverloadError(ServiceError):
    """The server shed the request (HTTP 429).

    Attributes:
        retry_after: the server's suggested backoff in seconds.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


# http.client's limits on a reply, kept: a node's health client reads
# the reply of whatever URL a join names.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _Malformed(Exception):
    """A reply this client cannot frame (raised as ServiceError)."""


class _Connection:
    """One pooled keep-alive socket and the buffered reader of its replies.

    Speaks the HTTP/1.1 subset a fabric node speaks: a request leaves in
    one ``sendall``; a reply is a status line, at most 100 headers and a
    ``Content-Length`` body, or a body read to EOF when it declares no
    length (the connection is then not reused).  A socket the server
    closed before a whole reply raises ``ConnectionResetError``, which
    the caller retries as it does every transport failure; a reply that
    breaks the framing (a chunked body, a malformed status line, an
    over-long line, too many headers) raises :class:`_Malformed`.
    """

    def __init__(self, netloc: str, timeout: float) -> None:
        split = urllib.parse.urlsplit("//" + netloc)
        try:
            address = (split.hostname, split.port or 80)
        except ValueError:  # a port that is not a number
            address = (None, 0)
        if not address[0]:
            raise ServiceError("bad address %r" % netloc)
        self.netloc = netloc
        self.sock = socket.create_connection(address, timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def exchange(
        self, method: str, path: str, data: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes, bool]:
        """Send one request; ``(status, headers, body, reusable)``."""
        head = (
            "%s %s HTTP/1.1\r\nHost: %s\r\nAccept: application/json\r\n"
            % (method, path, self.netloc)
        )
        if data is not None:
            head += (
                "Content-Type: application/json\r\nContent-Length: %d\r\n"
                % len(data)
            )
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + (data or b""))
        return self._read_reply()

    def _line(self) -> bytes:
        line = self.reader.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Malformed("a line longer than %d bytes" % _MAX_LINE)
        return line

    def _read_reply(self) -> Tuple[int, Dict[str, str], bytes, bool]:
        line = self._line()
        if not line:  # e.g. a keep-alive socket the server recycled
            raise ConnectionResetError("server closed the connection")
        parts = line.split(None, 2)
        if (
            len(parts) < 2
            or not parts[0].startswith(b"HTTP/1.")
            or not (len(parts[1]) == 3 and parts[1].isdigit())
        ):
            raise _Malformed("status line %r" % line[:80])
        version, status = parts[0], int(parts[1])
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionResetError("reply ended in its headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _Malformed("header line %r" % line[:80])
            headers[name.strip().lower()] = value.strip()
        else:
            raise _Malformed("more than %d headers" % _MAX_HEADERS)
        if "transfer-encoding" in headers:
            raise _Malformed(
                "Transfer-Encoding %r" % headers["transfer-encoding"]
            )
        connection = headers.get("connection", "").lower()
        reusable = "close" not in connection and (
            version != b"HTTP/1.0" or "keep-alive" in connection
        )
        declared = headers.get("content-length")
        if declared is None:
            return status, headers, self.reader.read(), False
        if not (declared.isascii() and declared.isdigit()):
            raise _Malformed("Content-Length %r" % declared)
        length = int(declared)
        body = self.reader.read(length)
        if len(body) < length:
            raise ConnectionResetError(
                "reply ended %d bytes into a %d-byte body"
                % (len(body), length)
            )
        return status, headers, body, reusable


class ServiceClient:
    """Talks JSON to a service node (:class:`~repro.fabric.FabricNode`).

    Args:
        url: base URL, e.g. ``http://127.0.0.1:8642``.
        timeout: per-request socket timeout in seconds.
        retries: extra attempts after a connection reset/refusal.
        backoff: base retry delay; doubles per attempt, with jitter.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
    ) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        # Per thread: netloc -> _Connection, and job id -> the inline
        # result its submit reply carried.
        self._pool = threading.local()

    # -- transport ---------------------------------------------------------

    def _connections(self) -> Dict[str, "_Connection"]:
        pool = getattr(self._pool, "conns", None)
        if pool is None:
            pool = self._pool.conns = {}
        return pool

    def _connection(self, netloc: str) -> "_Connection":
        pool = self._connections()
        conn = pool.get(netloc)
        if conn is None:
            conn = pool[netloc] = _Connection(netloc, self.timeout)
        return conn

    def _inline_results(self) -> Dict[str, Dict[str, Any]]:
        kept = getattr(self._pool, "results", None)
        if kept is None:
            kept = self._pool.results = {}
        return kept

    def _keep_results(self, response: Dict[str, Any]) -> None:
        """Keep a submit reply's inline results for :meth:`result`."""
        results = response.get("results")
        if not isinstance(results, dict):
            return
        kept = self._inline_results()
        for job_id, payload in results.items():
            if isinstance(payload, dict):
                payload["_http_status"] = 200
                kept[job_id] = payload
        while len(kept) > _INLINE_RESULTS_KEPT:
            del kept[next(iter(kept))]

    def _drop(self, netloc: str) -> None:
        conn = self._connections().pop(netloc, None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def _roundtrip(
        self, netloc: str, method: str, path: str, data: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        try:
            conn = self._connection(netloc)
            status, headers, raw, keep = conn.exchange(method, path, data)
        except _Malformed as exc:
            self._drop(netloc)
            raise ServiceError(
                "malformed reply from %s to %s %s: %s"
                % (netloc, method, path, exc)
            ) from None
        if not keep:
            self._drop(netloc)
        return status, headers, raw

    def _request(
        self,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        base: Optional[str] = None,
        _hops: int = 0,
    ) -> Dict[str, Any]:
        base = (base or self.url).rstrip("/")
        netloc = urllib.parse.urlsplit(base).netloc
        method = "GET" if body is None else "POST"
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        status = headers = raw = None
        for attempt in range(self.retries + 1):
            try:
                status, headers, raw = self._roundtrip(
                    netloc, method, path, data
                )
                break
            except OSError as exc:
                # Connection reset/refused, stale keep-alive socket, or a
                # half-written response: drop the pooled connection and
                # retry with jittered backoff.
                self._drop(netloc)
                if attempt >= self.retries:
                    raise ServiceError(
                        "cannot reach %s: %s" % (base, exc)
                    )
                time.sleep(
                    self.backoff
                    * (2 ** attempt)
                    * (0.5 + random.random())
                )
        if status in _REDIRECT_CODES and _hops < _MAX_REDIRECTS:
            location = headers.get("location")
            if location:
                split = urllib.parse.urlsplit(location)
                new_base = "%s://%s" % (
                    split.scheme or "http",
                    split.netloc or netloc,
                )
                new_path = split.path + (
                    "?" + split.query if split.query else ""
                )
                return self._request(
                    new_path, body=body, base=new_base, _hops=_hops + 1
                )
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            payload = {}
        if not isinstance(payload, dict):
            payload = {"value": payload}
        payload["_http_status"] = status
        if status == 202:  # result not ready: not an error
            return payload
        if status == 429:
            try:
                retry_after = float(headers.get("retry-after", "1"))
            except ValueError:
                retry_after = 1.0
            raise ServiceOverloadError(
                "%s shed %s (retry after %.1fs)"
                % (base, path, retry_after),
                retry_after=retry_after,
            )
        if not 200 <= (status or 0) < 300:
            raise ServiceError(
                "HTTP %s on %s: %s"
                % (status, path, payload.get("error", "")),
                payload,
            )
        return payload

    def close(self) -> None:
        """Close this thread's pooled connections."""
        for netloc in list(self._connections()):
            self._drop(netloc)

    # -- endpoints ---------------------------------------------------------

    def health(self) -> bool:
        return bool(self._request("/healthz").get("ok"))

    def metrics(self) -> Dict[str, Any]:
        return self._request("/v1/metrics")

    def submit(self, specs: Sequence[JobSpec]) -> List[str]:
        body = {"jobs": [spec.to_dict() for spec in specs]}
        response = self._request("/v1/submit", body)
        self._keep_results(response)
        return response["ids"]

    def _job_request(self, job_id: str, path: str) -> Dict[str, Any]:
        """GET ``path``, a route of job ``job_id`` (subclasses route it)."""
        return self._request(path)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._job_request(job_id, "/v1/jobs/%s" % job_id)

    def result(
        self,
        job_id: str,
        wait: bool = True,
        poll: Optional[float] = None,
        timeout: Optional[float] = 120.0,
    ) -> Dict[str, Any]:
        """The job's result wrapper; long-polls until done when ``wait``.

        Each request asks the node to hold it until the job settles
        (``?wait=``), for at most half the socket timeout and never past
        ``timeout``, so the client never sleeps between requests.
        ``poll`` is accepted and ignored: there is no interval left to
        set, and existing callers still pass it.

        Returns the server's ``/result`` payload: ``{"state": "done",
        "from_store": ..., "result": {...}}``.  A job this thread's
        submit reply carried inline is answered from it, once, with no
        request.  Raises ServiceError if the wait timed out, or if the
        job failed or was cancelled: then the message names the job, its
        state and its error, and ``payload`` holds the node's reply.
        """
        inline = self._inline_results().pop(job_id, None)
        if inline is not None:
            return inline
        deadline = None if timeout is None else time.monotonic() + timeout
        path = "/v1/jobs/%s/result" % job_id
        while True:
            query = ""
            if wait:
                hold = self.timeout / 2
                if deadline is not None:
                    hold = min(hold, max(0.0, deadline - time.monotonic()))
                query = "?wait=%.3f" % hold
            try:
                payload = self._job_request(job_id, path + query)
            except ServiceError as exc:
                # A failed or cancelled job answers 500 with its state.
                state = exc.payload.get("state")
                if state is None:
                    raise
                raise ServiceError(
                    "job %s %s: %s" % (job_id, state, exc.payload.get("error")),
                    exc.payload,
                ) from None
            if not wait or payload.get("_http_status") != 202:
                return payload
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError("timed out waiting for job %s" % job_id)

    def shutdown(self) -> None:
        self._request("/v1/shutdown", body={})

    # -- convenience -------------------------------------------------------

    def run_batch(
        self, specs: Sequence[JobSpec], timeout: Optional[float] = 300.0
    ) -> List[Dict[str, Any]]:
        """Submit a batch and wait for every result (in submit order)."""
        ids = self.submit(specs)
        return [self.result(job_id, timeout=timeout) for job_id in ids]
