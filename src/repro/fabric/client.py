"""Ring-aware client for the compilation fabric.

A :class:`FabricClient` is a drop-in :class:`ServiceClient` that fetches
the fabric's ring description once (``/v1/fabric/ring``), computes each
job's home node locally with the same stable hash the nodes use, and
talks to the home node directly — skipping the server-side forwarding
hop for submissions and the 307 redirect hop for status polls.

Routing is an optimization, never a correctness requirement: a stale
view simply lands a request on a non-owner, which re-shards server-side
(submit) or redirects (status) — the client follows, then refreshes its
view.  Shed responses (429) surface as
:class:`~repro.service.client.ServiceOverloadError` unless the caller
opts into honoring the server's ``Retry-After`` with ``shed_retries``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.session import aggregate_stats, merge_totals
from repro.fabric.ring import RingView, ring_from_description
from repro.service.client import (
    ServiceClient,
    ServiceError,
    ServiceOverloadError,
)
from repro.service.jobs import JobSpec, job_fingerprint


class FabricClient(ServiceClient):
    """Talks to a sharded fabric through any member node.

    Args:
        url: URL of any fabric member (the "seed" node).
        shed_retries: times to honor a 429's ``Retry-After`` and retry a
            submission before letting :class:`ServiceOverloadError`
            propagate (0: propagate immediately).
    """

    def __init__(
        self,
        url: str,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.05,
        shed_retries: int = 0,
    ) -> None:
        super().__init__(
            url, timeout=timeout, retries=retries, backoff=backoff
        )
        self.shed_retries = shed_retries
        self._view: Optional[RingView] = None

    # -- ring view ---------------------------------------------------------

    def ring(self, refresh: bool = False) -> RingView:
        if self._view is None or refresh:
            description = self._request("/v1/fabric/ring")
            self._view = ring_from_description(description)
        return self._view

    def _base_for_key(self, key: str) -> str:
        try:
            url = self.ring().url_for_key(key)
        except ServiceError:
            url = None
        return url or self.url

    def _base_for_node(self, node_id: Optional[str]) -> str:
        if node_id is None:
            return self.url
        try:
            url = self.ring().url_of(node_id)
        except ServiceError:
            url = None
        return url or self.url

    # -- endpoints ---------------------------------------------------------

    def submit(self, specs: Sequence[JobSpec]) -> List[str]:
        """Submit each job directly to its home node (in submit order)."""
        ids: List[Optional[str]] = [None] * len(specs)
        groups: Dict[str, List[int]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(
                self._base_for_key(job_fingerprint(spec)), []
            ).append(index)
        for base, indexes in groups.items():
            body = {"jobs": [specs[i].to_dict() for i in indexes]}
            response = self._submit_with_shed_retry(base, body)
            self._keep_results(response)
            for index, job_id in zip(indexes, response["ids"]):
                ids[index] = job_id
        return ids  # type: ignore[return-value]

    def _submit_with_shed_retry(
        self, base: str, body: Dict[str, Any]
    ) -> Dict[str, Any]:
        attempts = 0
        while True:
            try:
                return self._request("/v1/submit", body=body, base=base)
            except ServiceOverloadError as exc:
                if attempts >= self.shed_retries:
                    raise
                attempts += 1
                time.sleep(exc.retry_after)
            except ServiceError:
                if base == self.url:
                    raise
                # Home node unreachable: refresh the view and let the
                # seed node reroute server-side.
                self.ring(refresh=True)
                base = self.url

    def _job_request(self, job_id: str, path: str) -> Dict[str, Any]:
        node_id = job_id.rsplit("@", 1)[1] if "@" in job_id else None
        base = self._base_for_node(node_id)
        try:
            return self._request(path, base=base)
        except ServiceOverloadError:
            raise
        except ServiceError:
            if base == self.url:
                raise
            self.ring(refresh=True)
            return self._request(path, base=self.url)

    def metrics(self) -> Dict[str, Any]:
        """Fabric-wide metrics: node payloads plus merged counters.

        Shape-compatible with the single-node ``/v1/metrics`` payload
        (``throughput``, ``jobs``, ``store``, ``totals``) so the
        ``repro batch`` footer and ``--metrics-json`` report
        whole-fabric numbers, with the raw per-node payloads preserved
        under ``"nodes"``.  ``jobs`` and ``totals`` fold with
        :func:`~repro.core.session.merge_totals`.
        """
        per_node = self.fabric_metrics()
        if not per_node:
            return super().metrics()
        throughput: Dict[str, float] = {"done": 0, "jobs_per_second": 0.0}
        store = {"hits": 0, "misses": 0, "writes": 0}
        jobs: Dict[str, Any] = {}
        totals = aggregate_stats([])
        for payload in per_node.values():
            for key in throughput:
                throughput[key] += payload["throughput"][key]
            for key in store:
                store[key] += payload["store"][key]
            merge_totals(jobs, payload["jobs"])
            merge_totals(totals, payload["totals"])
        lookups = store["hits"] + store["misses"]
        store["hit_rate"] = (
            round(store["hits"] / lookups, 4) if lookups else 0.0
        )
        return {
            "fabric": True,
            "throughput": throughput,
            "jobs": jobs,
            "store": store,
            "totals": totals,
            "nodes": per_node,
        }

    def fabric_metrics(self) -> Dict[str, Dict[str, Any]]:
        """``/v1/metrics`` of every alive member, keyed by node id."""
        out: Dict[str, Dict[str, Any]] = {}
        view = self.ring(refresh=True)
        for node_id, url in view.urls.items():
            try:
                out[node_id] = self._request("/v1/metrics", base=url)
            except ServiceError:
                continue
        return out

    def shutdown_all(self) -> None:
        """Ask every member to shut down (tests and CLI teardown)."""
        try:
            view = self.ring(refresh=True)
        except ServiceError:
            self._request("/v1/shutdown", body={})
            return
        for url in view.all_urls():
            try:
                self._request("/v1/shutdown", body={}, base=url)
            except ServiceError:
                continue

