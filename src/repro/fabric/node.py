"""One member of the compilation fabric.

A :class:`FabricNode` owns the full per-node stack:

* the PR-2 **engine** (worker pool + coalescing + retries) as the
  compilation backend;
* a :class:`~repro.fabric.replica.ReplicatedStore` wrapping the
  node-local result store, with a gossip pump shipping locally computed
  results to peers;
* a :class:`~repro.fabric.ring.NodeRegistry` (consistent-hash ring +
  liveness) fed by a health-check loop that probes peers and routes
  around the dead;
* an :class:`~repro.fabric.frontend.AsyncFrontend` accepting traffic.

Sharding is **server-side and cooperative**: a node receiving a
submission groups the jobs by the ring owner of each fingerprint,
admits its own share locally and forwards the rest to their home nodes
(marked ``forwarded`` so divergent ring views can never forward in a
loop — a forwarded job is always admitted where it lands).  If a home
node is unreachable or sheds, the receiving node compiles the job
itself: any node *can* compile anything, sharding only decides where
warm state accumulates.  Job ids are qualified as
``<local-id>@<node-id>`` so any node can answer a status poll for any
job — locally, or with a 307 redirect to the owning node.

Startup of a joining node, in order: bind the front end, announce
itself to its peers (``/v1/fabric/join``, adopting their membership
views in return), then build the engine, which compiles every target's
axiom corpus before forking the worker pool so every worker inherits
it.  Nodes never exchange corpora: compiling one takes ~15 ms.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.fabric.frontend import AsyncFrontend
from repro.fabric.replica import GossipPump, ReplicatedStore
from repro.fabric.ring import NodeRegistry, node_id_for_url
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadError,
)
from repro.service.jobs import (
    CompilationEngine,
    JobError,
    JobSpec,
    job_fingerprint,
)
from repro.service.store import ResultStore


class FabricNode:
    """A complete fabric member: front end, engine, ring, replication.

    Args:
        host/port: bind address (port 0 picks an ephemeral port).
        peers: advertised URLs of other fabric members (any subset —
            membership is merged transitively at join time).
        workers: local worker process count.
        store_path: node-local sqlite store (None: in-memory).
        max_queue: admission/backlog bound before load-shedding.
        health_interval: seconds between peer health probes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        peers: Optional[List[str]] = None,
        workers: int = 2,
        store_path: Optional[str] = None,
        max_queue: int = 512,
        health_interval: float = 1.0,
        max_retries: int = 2,
        default_timeout: Optional[float] = None,
        verbose: bool = False,
    ) -> None:
        self.configured_peers = [u.rstrip("/") for u in (peers or [])]
        self.workers = workers
        self.max_queue = max_queue
        self.health_interval = health_interval
        self.max_retries = max_retries
        self.default_timeout = default_timeout
        self.verbose = verbose

        self.store = ReplicatedStore(ResultStore(store_path))
        self.frontend = AsyncFrontend(
            self, host=host, port=port, max_queue=max_queue, verbose=verbose
        )
        self.ready = False
        self.url: Optional[str] = None
        self.node_id: Optional[str] = None
        self.registry: Optional[NodeRegistry] = None
        self.engine: Optional[CompilationEngine] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._gossip: Optional[GossipPump] = None
        self._health_stop = threading.Event()
        self._health_thread: Optional[threading.Thread] = None
        self._shutdown_event = threading.Event()
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> str:
        """Bind, join, fork workers; returns the node URL."""
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever,
            daemon=True,
            name="repro-fabric-loop",
        )
        self._loop_thread.start()
        host, port = asyncio.run_coroutine_threadsafe(
            self.frontend.start(), self._loop
        ).result(timeout=10.0)
        self.url = "http://%s:%d" % (host, port)

        self.registry = NodeRegistry(self.url)
        self.node_id = self.registry.self_id
        self.peer_client = ServiceClient(self.url, timeout=10.0, retries=1)
        self.health_client = ServiceClient(self.url, timeout=2.0, retries=0)
        for peer_url in self.configured_peers:
            self.registry.add_peer(peer_url)
        self._announce_join()

        self.engine = CompilationEngine(
            workers=self.workers,
            store=self.store,
            max_retries=self.max_retries,
            default_timeout=self.default_timeout,
        )

        self._gossip = GossipPump(self.store, self.registry, self.peer_client)
        self._gossip.start()
        self._health_thread = threading.Thread(
            target=self._health_loop,
            daemon=True,
            name="repro-fabric-health",
        )
        self._health_thread.start()
        self.ready = True
        return self.url

    def stop(self, drain: bool = True) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.ready = False
        self._health_stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=2.0)
        if self._gossip is not None:
            self._gossip.stop()
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.frontend.stop(), self._loop
            ).result(timeout=5.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=2.0)
        if self.engine is not None:
            self.engine.shutdown(drain=drain)
        self._shutdown_event.set()

    def request_shutdown(self) -> None:
        self._shutdown_event.set()

    def wait_for_shutdown(self) -> None:
        self._shutdown_event.wait()

    def __enter__(self) -> "FabricNode":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=False)

    # -- join --------------------------------------------------------------

    def _announce_join(self) -> None:
        """Tell each configured peer about us; adopt their membership."""
        for peer_url in self.configured_peers:
            try:
                description = self.peer_client._request(
                    "/v1/fabric/join", body={"url": self.url}, base=peer_url
                )
            except ServiceError:
                continue
            self.registry.mark_ok(self.registry.add_peer(peer_url))
            for entry in description.get("nodes", []):
                url = entry.get("url")
                if url and url != self.url:
                    self.registry.add_peer(url)

    # -- job id qualification ----------------------------------------------

    def qualify_job_id(self, local_id: str) -> str:
        return "%s@%s" % (local_id, self.node_id)

    def split_job_id(self, job_id: str) -> Tuple[str, Optional[str]]:
        if "@" in job_id:
            local_id, owner = job_id.rsplit("@", 1)
            return local_id, owner
        return job_id, None

    # -- request handlers (called from the frontend's executor) ------------

    def handle_submit(self, data: Dict[str, Any]):
        jobs = data.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            return 400, {"error": "'jobs' must be a non-empty list"}, None
        try:
            specs = [JobSpec.from_dict(item) for item in jobs]
        except (JobError, TypeError) as exc:
            return 400, {"error": str(exc)}, None
        forwarded = bool(data.get("forwarded"))
        try:
            if forwarded or len(self.registry.ring) == 1:
                ids = [self._submit_local(spec) for spec in specs]
            else:
                ids = self._submit_sharded(specs)
        except JobError as exc:
            return 400, {"error": str(exc)}, None
        return 200, {"ids": ids, "node": self.node_id}, None

    def handle_join(self, data: Dict[str, Any]):
        """Admit ``data["url"]`` as an alive member once a fabric node
        answers ``/healthz`` there under the node id that URL derives
        (the health client: 2 s timeout, no retry)."""
        url = data.get("url")
        if not isinstance(url, str) or not url:
            return 400, {"error": "'url' required"}, None
        try:
            health = self.health_client._request("/healthz", base=url)
        except (ServiceError, ValueError):
            health = {}
        if health.get("node") != node_id_for_url(url):
            return 400, {"error": "no fabric node answers at %r" % url}, None
        self.registry.mark_ok(self.registry.add_peer(url))
        return 200, self.registry.describe(), None

    def handle_replicate(self, data: Dict[str, Any]):
        fingerprint = data.get("fingerprint")
        payload = data.get("payload")
        if not isinstance(fingerprint, str) or not isinstance(payload, dict):
            return (
                400,
                {"error": "'fingerprint' and 'payload' required"},
                None,
            )
        self.store.put_replica(fingerprint, payload)
        return 200, {"ok": True}, None

    # -- sharding ----------------------------------------------------------

    def _submit_local(self, spec: JobSpec) -> str:
        return self.qualify_job_id(self.engine.submit(spec))

    def _submit_sharded(self, specs: List[JobSpec]) -> List[str]:
        ids: List[Optional[str]] = [None] * len(specs)
        groups: Dict[str, List[Tuple[int, JobSpec]]] = {}
        for index, spec in enumerate(specs):
            owner = (
                self.registry.owner_of(job_fingerprint(spec))
                or self.node_id
            )
            groups.setdefault(owner, []).append((index, spec))
        for owner, entries in groups.items():
            if owner == self.node_id:
                for index, spec in entries:
                    ids[index] = self._submit_local(spec)
                continue
            url = self.registry.url_of(owner)
            remote_ids = (
                self._forward(url, owner, entries) if url else None
            )
            if remote_ids is None:
                # Home node gone or shedding: serve the corpus anyway.
                for index, spec in entries:
                    ids[index] = self._submit_local(spec)
            else:
                for (index, _), remote_id in zip(entries, remote_ids):
                    ids[index] = remote_id
        return ids  # type: ignore[return-value]

    def _forward(
        self, url: str, owner: str, entries: List[Tuple[int, JobSpec]]
    ) -> Optional[List[str]]:
        body = {
            "jobs": [spec.to_dict() for _, spec in entries],
            "forwarded": True,
        }
        try:
            response = self.peer_client._request(
                "/v1/submit", body=body, base=url
            )
        except ServiceOverloadError:
            return None  # peer is shedding, not dead
        except ServiceError:
            self.registry.mark_failed(owner)
            return None
        remote_ids = response.get("ids")
        if (
            not isinstance(remote_ids, list)
            or len(remote_ids) != len(entries)
        ):
            return None
        self.registry.mark_ok(owner)
        return remote_ids

    # -- health ------------------------------------------------------------

    def _health_loop(self) -> None:
        while not self._health_stop.wait(self.health_interval):
            for peer in self.registry.peers():
                try:
                    payload = self.health_client._request(
                        "/healthz", base=peer.url
                    )
                except ServiceError:
                    self.registry.mark_failed(peer.node_id)
                    continue
                if payload.get("ok"):
                    self.registry.mark_ok(peer.node_id)
                else:
                    self.registry.mark_failed(peer.node_id)
