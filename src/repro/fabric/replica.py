"""Replicated result store: gossip completed work to peers.

Layered on :class:`repro.service.store.ResultStore` — the engine talks
to a :class:`ReplicatedStore` exactly as it would to the local store,
and every locally *computed* result is additionally queued for gossip to
the other fabric members.  Replication is asynchronous and best-effort:
a shed or lost replica costs at most one recompilation somewhere else,
never correctness, so the gossip pump runs outside every request path.

Replicated entries are written through :meth:`ReplicatedStore.put_replica`,
which deliberately does **not** re-enqueue gossip — that is what keeps a
full-mesh gossip fan-out from becoming a storm (every result travels at
most one hop from the node that computed it).

Only results replicate.  The compiled axiom corpus does not: every node
compiles its own before its workers fork (~15 ms per target, see
:class:`~repro.service.jobs.CompilationEngine`).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, Optional, Tuple

from repro.service.store import ResultStore


class ReplicationStats:
    """Counters of one node's gossip traffic (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.queued = 0
        self.sent = 0
        self.send_failures = 0
        self.received = 0
        self.dropped = 0  # outbox full: oldest entries discarded

    def to_dict(self) -> Dict[str, int]:
        with self._lock:
            return {
                "queued": self.queued,
                "sent": self.sent,
                "send_failures": self.send_failures,
                "received": self.received,
                "dropped": self.dropped,
            }


class ReplicatedStore:
    """A :class:`ResultStore` facade that gossips computed results.

    Args:
        local: the node-local backing store.
        outbox_limit: bound on queued-but-unsent gossip entries; when
            full the oldest entry is dropped (best-effort semantics).
    """

    def __init__(
        self, local: Optional[ResultStore] = None, outbox_limit: int = 4096
    ) -> None:
        self.local = local if local is not None else ResultStore(None)
        self.stats = ReplicationStats()
        self.outbox: "queue.Queue[Tuple[str, dict]]" = queue.Queue(
            maxsize=outbox_limit
        )

    # -- ResultStore interface (engine-facing) -----------------------------

    @property
    def path(self):
        return self.local.path

    def get_text(self, fingerprint: str) -> Optional[str]:
        return self.local.get_text(fingerprint)

    def put(self, fingerprint: str, payload: dict) -> str:
        """Store a locally computed result and queue it for gossip."""
        text = self.local.put(fingerprint, payload)
        with self.stats._lock:
            self.stats.queued += 1
        try:
            self.outbox.put_nowait((fingerprint, payload))
        except queue.Full:
            try:
                self.outbox.get_nowait()
            except queue.Empty:
                pass
            with self.stats._lock:
                self.stats.dropped += 1
            try:
                self.outbox.put_nowait((fingerprint, payload))
            except queue.Full:
                pass
        return text

    def put_replica(self, fingerprint: str, payload: dict) -> None:
        """Store a result gossiped by a peer (no re-gossip)."""
        if fingerprint not in self.local:
            self.local.put(fingerprint, payload)
        with self.stats._lock:
            self.stats.received += 1

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.local

    def __len__(self) -> int:
        return len(self.local)

    def to_dict(self) -> Dict[str, Any]:
        out = self.local.to_dict()
        out["replication"] = self.stats.to_dict()
        return out

    def close(self) -> None:
        self.local.close()


class GossipPump:
    """Background thread draining a :class:`ReplicatedStore` outbox.

    Each drained result is POSTed to every *alive* peer's
    ``/v1/fabric/replicate``.  Failures mark the peer failed (feeding
    the same liveness state the health loop maintains) and are counted,
    not retried — the next result will try again, and a recovering peer
    warms up from subsequent traffic plus its own compiles.
    """

    def __init__(self, store: ReplicatedStore, registry, client) -> None:
        self.store = store
        self.registry = registry  # NodeRegistry
        self.client = client  # ServiceClient-compatible, multi-base
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-fabric-gossip"
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                fingerprint, payload = self.store.outbox.get(timeout=0.1)
            except queue.Empty:
                continue
            body = {"fingerprint": fingerprint, "payload": payload}
            for peer in self.registry.peers():
                if not peer.alive:
                    continue
                try:
                    self.client._request(
                        "/v1/fabric/replicate", body=body, base=peer.url
                    )
                except Exception:
                    self.registry.mark_failed(peer.node_id)
                    with self.store.stats._lock:
                        self.store.stats.send_failures += 1
                else:
                    with self.store.stats._lock:
                        self.store.stats.sent += 1

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait (best-effort) for the outbox to drain; tests only."""
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.store.outbox.empty():
                return True
            time.sleep(0.02)
        return False

