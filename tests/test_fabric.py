"""Integration tests for the compilation fabric (nodes, sharding, shed).

Fast tests drive real :class:`FabricNode` instances on ephemeral ports
with diagnostic ``sleep`` jobs (distinct ``seed`` values give distinct
fingerprints without compile cost), covering the ISSUE's acceptance
points: sharded submission with qualified job ids, 307 redirects for
plain clients, ring-aware client routing, result gossip, corpus
shipping to a joining node, dead-node rerouting, and 429 load-shedding
with a usable ``Retry-After``.  The one real-compile test (warm-corpus
shipping) runs the smallest workload once.
"""

import http.client
import json
import socket
import threading
import time
import urllib.parse

import pytest

from repro.fabric import FabricClient, FabricNode
from repro.service import (
    JobSpec,
    ServiceClient,
    ServiceOverloadError,
    job_fingerprint,
)

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""


def sleep_spec(seed, seconds=0.0):
    """A diagnostic job; distinct seeds → distinct fingerprints."""
    return JobSpec(kind="sleep", seconds=seconds, seed=seed)


def compile_spec(source=SIMPLE, **kwargs):
    defaults = dict(
        kind="compile",
        source=source,
        name="test.dn",
        strategy="linear",
        min_cycles=1,
        max_cycles=10,
        max_rounds=8,
        max_enodes=2500,
    )
    defaults.update(kwargs)
    return JobSpec(**defaults)


def boot(peers=None, **kwargs):
    defaults = dict(workers=1, health_interval=0.1)
    defaults.update(kwargs)
    node = FabricNode(peers=peers, **defaults)
    node.start()
    return node


@pytest.fixture
def node():
    n = boot()
    yield n
    n.stop(drain=False)


@pytest.fixture
def pair():
    a = boot()
    b = boot(peers=[a.url])
    yield a, b
    b.stop(drain=False)
    a.stop(drain=False)


def wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# -- one node ------------------------------------------------------------------


class TestSingleNode:
    def test_submit_result_qualified_id(self, node):
        client = FabricClient(node.url)
        try:
            (job_id,) = client.submit([sleep_spec(1)])
            assert job_id.endswith("@%s" % node.node_id)
            payload = client.result(job_id, timeout=10.0)
            assert payload["state"] == "done"
            assert payload["result"]["ok"] is True
        finally:
            client.close()

    def test_healthz_ring_and_fabric_metrics(self, node):
        client = ServiceClient(node.url)
        try:
            health = client._request("/healthz")
            assert health["ok"] and health["node"] == node.node_id
            ring = client._request("/v1/fabric/ring")
            assert [n["id"] for n in ring["nodes"]] == [node.node_id]
            metrics = client.metrics()
            fabric = metrics["fabric"]
            assert fabric["node"] == node.node_id
            assert fabric["admission"]["max_queue"] == node.max_queue
            assert "/healthz" in fabric["endpoints"]
        finally:
            client.close()

    def test_unknown_strategy_submit_400(self, node):
        from repro.service import ServiceError

        client = ServiceClient(node.url)
        try:
            spec = compile_spec().to_dict()
            spec["strategy"] = "portfolio"
            with pytest.raises(ServiceError, match="400.*unknown strategy"):
                client._request("/v1/submit", {"jobs": [spec]})
            assert client.metrics()["jobs"]["submitted"] == 0
        finally:
            client.close()

    @pytest.mark.parametrize(
        "field, value", [("axiom_tiers", True), ("mcmc_seed", 3)]
    )
    def test_removed_job_field_submit_400(self, node, field, value):
        # The tiered schedule and the second MCMC seed are gone: a job
        # that still carries either field is refused, not half-honoured.
        from repro.service import ServiceError

        client = ServiceClient(node.url)
        try:
            spec = compile_spec().to_dict()
            spec[field] = value
            with pytest.raises(ServiceError, match="400.*" + field):
                client._request("/v1/submit", {"jobs": [spec]})
            assert client.metrics()["jobs"]["submitted"] == 0
        finally:
            client.close()

    def test_verbose_node_logs_each_request(self, capsys):
        node = boot(verbose=True)
        client = ServiceClient(node.url)
        try:
            assert client.health() is True
        finally:
            client.close()
            node.stop(drain=False)
        assert '"GET /healthz" 200' in capsys.readouterr().err

    def test_unknown_job_and_route(self, node):
        client = ServiceClient(node.url)
        try:
            with pytest.raises(Exception):
                client.status("nope@%s" % node.node_id)
            with pytest.raises(Exception):
                client._request("/v1/no/such/route")
        finally:
            client.close()

    def test_evicted_job_answers_404_and_newest_is_served(
        self, node, monkeypatch
    ):
        from repro.service import ServiceError, jobs

        monkeypatch.setattr(jobs, "SETTLED_JOBS_KEPT", 2)
        client = FabricClient(node.url)
        try:
            ids = []
            for seed in range(4):
                (job_id,) = client.submit([sleep_spec(seed)])
                assert client.result(job_id, timeout=10.0)["state"] == "done"
                ids.append(job_id)
            with pytest.raises(ServiceError, match="HTTP 404"):
                client.result(ids[0], timeout=1.0)
            with pytest.raises(ServiceError, match="HTTP 404"):
                client.status(ids[1])
            payload = client.result(ids[-1], timeout=1.0)
            assert payload["result"]["ok"] is True
            assert client.metrics()["jobs"]["submitted"] == 4
        finally:
            client.close()

    def test_join_without_a_node_behind_the_url_is_refused(self, node):
        from repro.service import ServiceError

        with socket.socket() as sock:  # a port nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        ghost = "http://127.0.0.1:%d" % port
        client = ServiceClient(node.url)
        try:
            with pytest.raises(ServiceError, match="HTTP 400"):
                client._request("/v1/fabric/join", body={"url": ghost})
            # A live node under a URL other than its own is refused too:
            # its /healthz answers with the id of its own URL.
            alias = node.url + "/alias"
            with pytest.raises(ServiceError, match="HTTP 400"):
                client._request("/v1/fabric/join", body={"url": alias})
            ring = client._request("/v1/fabric/ring")
            assert [n["url"] for n in ring["nodes"]] == [node.url]
        finally:
            client.close()


# -- request framing -----------------------------------------------------------


def raw_exchange(url, request, timeout=3.0):
    """Send raw bytes to a node; return all it writes until it closes."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    chunks = []
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        while True:
            try:
                chunk = sock.recv(65536)
            except socket.timeout:
                pytest.fail("node left the connection open: %r" % chunks)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestFraming:
    """A body the front end cannot delimit is answered, then the
    connection closes: its bytes are never parsed as a next request."""

    @pytest.mark.parametrize(
        "header, error",
        [
            (b"Content-Length: abc", "Content-Length"),
            (b"Content-Length: -5", "Content-Length"),
            (b"X-Pad: " + b"a" * 70_000, "header line too long"),
        ],
        ids=["length-letters", "length-negative", "header-too-long"],
    )
    def test_unframeable_request_is_400(self, node, header, error):
        reply = raw_exchange(
            node.url,
            b"POST /v1/submit HTTP/1.1\r\n" + header + b"\r\n\r\n{}",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
        assert b"Connection: close" in head
        assert error in json.loads(body)["error"]
        assert reply.count(b"HTTP/1.1 ") == 1
        client = ServiceClient(node.url)
        try:
            assert client.health() is True  # the node kept serving
        finally:
            client.close()

    def test_oversized_body_is_413_and_closes(self, node, monkeypatch):
        from repro.fabric import frontend

        monkeypatch.setattr(frontend, "_MAX_BODY", 16)
        smuggled = b"GET /healthz HTTP/1.1\r\n\r\n"
        reply = raw_exchange(
            node.url,
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(smuggled)
            + smuggled,
        )
        head, _, _ = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 "), reply
        assert b"Connection: close" in head
        assert reply.count(b"HTTP/1.1 ") == 1, reply

    def test_too_large_lookalike_body_is_plain_json(self, node):
        body = b"__too_large__"
        reply = raw_exchange(
            node.url,
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: %d\r\n"
            b"Connection: close\r\n\r\n" % len(body)
            + body,
        )
        assert reply.startswith(b"HTTP/1.1 400 "), reply
        assert b"malformed JSON body" in reply


# -- long-poll results ---------------------------------------------------------


def http_get(url, path, timeout=10.0):
    """One GET that follows no redirect: ``(status, headers, body)``."""
    conn = http.client.HTTPConnection(
        urllib.parse.urlsplit(url).netloc, timeout=timeout
    )
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        headers = {k.lower(): v for k, v in resp.getheaders()}
        return resp.status, headers, resp.read()
    finally:
        conn.close()


def record_of(node, job_id):
    return node.engine._jobs[node.split_job_id(job_id)[0]]


class TestLongPoll:
    """``/result?wait=S`` holds the request until the job settles."""

    def submit(self, node, spec):
        client = ServiceClient(node.url)
        try:
            (job_id,) = client.submit([spec])
        finally:
            client.close()
        return job_id

    def test_held_result_returns_when_the_job_finishes(self, node):
        job_id = self.submit(node, sleep_spec(1, seconds=0.4))
        status, _, body = http_get(
            node.url, "/v1/jobs/%s/result?wait=5" % job_id
        )
        returned = time.time()
        assert status == 200
        assert json.loads(body)["result"]["ok"] is True
        finished = record_of(node, job_id).finished_at
        assert 0 <= returned - finished < 0.05

    def test_expired_hold_is_202_and_leaves_no_callback(self, node):
        job_id = self.submit(node, sleep_spec(2, seconds=3.0))
        start = time.monotonic()
        status, _, body = http_get(
            node.url, "/v1/jobs/%s/result?wait=0.3" % job_id
        )
        elapsed = time.monotonic() - start
        assert status == 202 and json.loads(body)["state"] in (
            "pending",
            "running",
        )
        assert 0.25 <= elapsed < 1.5
        assert record_of(node, job_id).waiters is None

    def test_failed_job_wakes_its_held_request(self):
        node = boot(max_retries=0)
        try:
            job_id = self.submit(node, JobSpec(kind="crash"))
            status, _, body = http_get(
                node.url, "/v1/jobs/%s/result?wait=10" % job_id
            )
            assert status == 500
            assert json.loads(body)["state"] == "failed"
        finally:
            node.stop(drain=False)

    def test_cancelled_job_wakes_its_held_request(self, node):
        blocker = self.submit(node, sleep_spec(3, seconds=1.0))
        victim = self.submit(node, sleep_spec(4))
        replies = []

        def hold():
            replies.append(
                http_get(node.url, "/v1/jobs/%s/result?wait=10" % victim)
            )

        thread = threading.Thread(target=hold)
        thread.start()
        assert wait_until(lambda: record_of(node, victim).waiters)
        start = time.monotonic()
        assert node.engine.cancel(node.split_job_id(victim)[0])
        thread.join(5.0)
        assert time.monotonic() - start < 0.5
        (status, _, body), = replies
        assert status == 500
        assert json.loads(body)["state"] == "cancelled"
        client = ServiceClient(node.url)
        try:
            client.result(blocker, timeout=10.0)
        finally:
            client.close()

    def test_stop_with_a_request_on_hold_is_clean(self):
        node = boot()
        job_id = self.submit(node, sleep_spec(5, seconds=30.0))
        ended = []

        def hold():
            try:
                http_get(node.url, "/v1/jobs/%s/result?wait=60" % job_id)
            except (OSError, http.client.HTTPException):
                pass  # the node closed the connection
            ended.append(time.monotonic())

        thread = threading.Thread(target=hold)
        thread.start()
        assert wait_until(lambda: record_of(node, job_id).waiters)
        start = time.monotonic()
        node.stop(drain=False)
        thread.join(5.0)
        assert not thread.is_alive()
        assert ended[0] - start < 1.0
        assert record_of(node, job_id).waiters is None

    def test_stop_without_drain_kills_a_busy_worker_at_once(self):
        node = boot()
        job_id = self.submit(node, sleep_spec(6, seconds=30.0))
        assert wait_until(
            lambda: record_of(node, job_id).state == "running"
        )
        start = time.monotonic()
        node.stop(drain=False)
        assert time.monotonic() - start < 2.0

    def test_store_hit_and_miss_results_agree(self, node):
        spec = compile_spec()
        miss = self.submit(node, spec)
        status, _, miss_body = http_get(
            node.url, "/v1/jobs/%s/result?wait=60" % miss
        )
        assert status == 200
        hit = self.submit(node, spec)
        status, _, hit_body = http_get(node.url, "/v1/jobs/%s/result" % hit)
        assert status == 200
        miss_reply, hit_reply = json.loads(miss_body), json.loads(hit_body)
        assert (miss_reply["from_store"], hit_reply["from_store"]) == (
            False,
            True,
        )
        assert miss_reply["result"] == hit_reply["result"]
        assert "s4addq" in hit_reply["result"]["units"][0]["assembly"]

    @pytest.mark.parametrize("wait", ["-1", "abc", "nan", "inf"])
    def test_bad_wait_is_400(self, node, wait):
        job_id = self.submit(node, sleep_spec(6))
        status, _, body = http_get(
            node.url, "/v1/jobs/%s/result?wait=%s" % (job_id, wait)
        )
        assert status == 400 and "wait" in json.loads(body)["error"]

    def test_client_waits_in_one_request(self, node):
        client = FabricClient(node.url)
        requests = []
        route = client._job_request
        client._job_request = lambda job_id, path: (
            requests.append(path) or route(job_id, path)
        )
        try:
            (job_id,) = client.submit([sleep_spec(7, seconds=0.3)])
            assert client.result(job_id, timeout=10.0)["state"] == "done"
        finally:
            client.close()
        assert requests == ["/v1/jobs/%s/result?wait=5.000" % job_id]

    def test_redirect_keeps_the_query(self, pair):
        a, b = pair
        client = ServiceClient(b.url)
        try:
            (job_id,) = client.submit([sleep_spec(8, seconds=0.3)])
        finally:
            client.close()
        owner = job_id.rsplit("@", 1)[1]
        other = a if owner == b.node_id else b
        status, headers, _ = http_get(
            other.url, "/v1/jobs/%s/result?wait=5" % job_id
        )
        assert status == 307
        assert headers["location"].endswith(
            "/v1/jobs/%s/result?wait=5" % job_id
        )


# -- load shedding -------------------------------------------------------------


class TestShedding:
    def test_backlog_shed_429_with_retry_after(self):
        node = boot(max_queue=2)
        client = ServiceClient(node.url)
        try:
            ids = [
                client.submit([sleep_spec(seed, seconds=1.0)])[0]
                for seed in (1, 2)
            ]
            with pytest.raises(ServiceOverloadError) as excinfo:
                client.submit([sleep_spec(3, seconds=1.0)])
            assert excinfo.value.retry_after >= 1
            metrics = client.metrics()
            admission = metrics["fabric"]["admission"]
            assert (
                admission["shed_backlog"] + admission["shed_queue_full"]
                >= 1
            )
            shed = metrics["fabric"]["endpoints"]["/v1/submit"]["shed"]
            assert shed >= 1
            # Health stays answerable while shedding.
            assert client._request("/healthz")["ok"] is True
            # Once the backlog drains, admission reopens.
            for job_id in ids:
                client.result(job_id, timeout=15.0)
            assert wait_until(lambda: node.engine.backlog() == 0)
            (late,) = client.submit([sleep_spec(4)])
            assert client.result(late, timeout=10.0)["state"] == "done"
        finally:
            client.close()
            node.stop(drain=False)

    def test_fabric_client_honors_retry_after(self):
        node = boot(max_queue=1)
        client = FabricClient(node.url, shed_retries=5)
        try:
            (first,) = client.submit([sleep_spec(1, seconds=0.5)])
            (second,) = client.submit([sleep_spec(2)])  # retries through
            for job_id in (first, second):
                assert (
                    client.result(job_id, timeout=15.0)["state"] == "done"
                )
        finally:
            client.close()
            node.stop(drain=False)


# -- two nodes -----------------------------------------------------------------


class TestTwoNodes:
    def test_membership_converges(self, pair):
        a, b = pair
        ids = {a.node_id, b.node_id}
        assert set(a.registry.alive_ids()) == ids
        assert set(b.registry.alive_ids()) == ids

    def test_sharded_submit_matches_ring(self, pair):
        a, b = pair
        client = FabricClient(a.url)
        try:
            specs = [sleep_spec(seed) for seed in range(16)]
            ids = client.submit(specs)
            view = client.ring()
            owners = set()
            for spec, job_id in zip(specs, ids):
                expected = view.ring.node_for(
                    job_fingerprint(spec), alive=view.alive
                )
                assert job_id.endswith("@" + expected)
                owners.add(expected)
            assert owners == {a.node_id, b.node_id}
            for job_id in ids:
                assert (
                    client.result(job_id, timeout=15.0)["state"] == "done"
                )
        finally:
            client.close()

    def test_plain_client_follows_redirects(self, pair):
        a, b = pair
        # Submit directly to B so the job is B-local, then poll via A:
        # A answers with a 307 the plain client follows.
        submit_client = ServiceClient(b.url)
        poll_client = ServiceClient(a.url)
        try:
            (job_id,) = submit_client.submit([sleep_spec(99)])
            # Route the id that lives on one node through the other.
            owner = job_id.rsplit("@", 1)[1]
            other = poll_client if owner == b.node_id else submit_client
            payload = other.result(job_id, timeout=10.0)
            assert payload["state"] == "done"
        finally:
            submit_client.close()
            poll_client.close()

    def test_results_gossip_to_both_stores(self, pair):
        # Only compile results are stored (and therefore gossiped), so
        # this one drives two real (tiny) compiles.
        a, b = pair
        client = FabricClient(a.url)
        try:
            specs = [
                compile_spec(SIMPLE.replace("4", str(multiplier)))
                for multiplier in (4, 8)
            ]
            ids = client.submit(specs)
            for job_id in ids:
                client.result(job_id, timeout=60.0)
            for node in pair:
                node._gossip.flush(timeout=5.0)
            fingerprints = [job_fingerprint(spec) for spec in specs]
            assert wait_until(
                lambda: all(fp in a.store for fp in fingerprints)
                and all(fp in b.store for fp in fingerprints),
                timeout=15.0,
            ), "results did not replicate to both stores"
            received = (
                a.store.stats.to_dict()["received"]
                + b.store.stats.to_dict()["received"]
            )
            assert received >= len(specs)
        finally:
            client.close()

    def test_fabric_metrics_merge_node_totals(self, pair):
        a, _ = pair
        client = FabricClient(a.url)
        try:
            specs = [
                compile_spec(SIMPLE.replace("4", str(multiplier)))
                for multiplier in (2, 4, 8, 16)
            ] + [sleep_spec(seed) for seed in range(8)]
            for job_id in client.submit(specs):
                client.result(job_id, timeout=60.0)
            metrics = client.metrics()
            nodes = metrics["nodes"].values()
            assert len(nodes) == 2
            assert metrics["totals"]["sessions"] == sum(
                node["totals"]["sessions"] for node in nodes
            ) == 4
            assert metrics["totals"]["solver"]["propagations"] == sum(
                node["totals"]["solver"]["propagations"] for node in nodes
            )
            assert metrics["jobs"]["by_state"]["done"] == len(specs)
            assert metrics["jobs"]["submitted"] == len(specs)
        finally:
            client.close()

    def test_zero_lost_jobs_in_burst(self, pair):
        a, _ = pair
        client = FabricClient(a.url)
        try:
            specs = [sleep_spec(seed) for seed in range(40)]
            ids = client.submit(specs)
            assert len(ids) == len(specs) and None not in ids
            assert len(set(ids)) == len(ids)
            for job_id in ids:
                payload = client.result(job_id, timeout=30.0)
                assert payload["state"] == "done"
        finally:
            client.close()

    def test_dead_peer_reroutes_to_survivor(self, pair):
        a, b = pair
        b.stop(drain=False)
        assert wait_until(
            lambda: b.node_id not in a.registry.alive_ids(), timeout=10.0
        ), "health loop never declared the dead peer"
        client = ServiceClient(a.url)
        try:
            specs = [sleep_spec(seed) for seed in range(8)]
            ids = client.submit(specs)
            for job_id in ids:
                assert job_id.endswith("@" + a.node_id)
                assert (
                    client.result(job_id, timeout=15.0)["state"] == "done"
                )
        finally:
            client.close()
