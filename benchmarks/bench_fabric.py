"""E-fabric — soak of the sharded fabric on one and three nodes.

Drives thousands of concurrent jobs (the fig2 + byteswap4 + checksum
mix, seed-varied into distinct fingerprints, then repeated hot) against
two topologies:

* **fabric 1-node** — one :class:`FabricNode` (asyncio front end,
  keep-alive clients, bounded admission), warm store; this is what a
  plain ``repro serve`` runs;
* **fabric 3-node** — three nodes on localhost, ring-sharded, gossip
  replication on.

The soak phase is store-hit dominated on purpose: with the corpus and
results warm, the request path (accept, parse, route, respond) is the
bottleneck.  Throughput is recorded, not gated: the blocking HTTP
server the fabric was once gated against has been deleted, and
three-node scaling is unmeasurable on a small runner (three Python
nodes sharing one core run at ~0.7x one node: pure process overhead).
Regression cover for the fabric's request path is the ``service-mix``
workload of ``perfsuite/``.

Also measured:

* **shed behaviour** — a tiny ``--max-queue`` node under a sleep-job
  burst must shed (429) with ``Retry-After`` in [1, 30] while every
  *admitted* job completes (zero lost) with bounded p99;
* **byte-identical assembly** across all topologies.

Gated on every run: zero lost or failed jobs, identical assembly and
the shed behaviour.  Env knobs (CI smoke):
``BENCH_FABRIC_JOBS`` (soak submissions per topology, default 3000),
``BENCH_FABRIC_THREADS`` (default 16), ``BENCH_FABRIC_PROFILES`` (csv
subset of fabric1,fabric3).  Results land in
``benchmarks/out/bench_fabric.json``; a full run (both profiles, >= 2000
jobs) also rewrites the repo-root ``BENCH_fabric.json`` summary, which
tracks the trajectory across changes.
"""

from __future__ import annotations

import json
import os
import threading
import time

from benchmarks.conftest import output_dir

WORKLOAD_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "workloads"
)
WORKLOADS = ["fig2.dn", "byteswap4.dn", "checksum.dn"]

JOBS = int(os.environ.get("BENCH_FABRIC_JOBS", "3000"))
THREADS = int(os.environ.get("BENCH_FABRIC_THREADS", "16"))
PROFILES = [
    p.strip()
    for p in os.environ.get(
        "BENCH_FABRIC_PROFILES", "fabric1,fabric3"
    ).split(",")
    if p.strip()
]
FULL_RUN = set(PROFILES) == {"fabric1", "fabric3"} and JOBS >= 2000


def _specs(seeds=(0,), timeout=300.0):
    """The workload mix; distinct seeds give distinct fingerprints."""
    from repro.service import JobSpec

    specs = []
    for seed in seeds:
        for name in WORKLOADS:
            with open(os.path.join(WORKLOAD_DIR, name)) as handle:
                source = handle.read()
            specs.append(
                JobSpec(
                    kind="compile",
                    source=source,
                    name=name,
                    strategy="linear",
                    min_cycles=1,
                    max_cycles=10,
                    max_rounds=8,
                    max_enodes=2500,
                    seed=seed,
                    timeout_seconds=timeout,
                )
            )
    return specs


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _units(payload):
    """label -> assembly of one result payload."""
    result = payload.get("result", payload)
    return {
        unit["label"]: unit["assembly"] for unit in result.get("units", [])
    }


def _soak(make_client, specs, jobs, threads):
    """Submit+await ``jobs`` hot requests from ``threads`` workers."""
    counter = {"next": 0}
    counter_lock = threading.Lock()
    latencies = []
    errors = []
    done = []
    lat_lock = threading.Lock()

    def worker():
        client = make_client()
        local = []
        try:
            while True:
                with counter_lock:
                    index = counter["next"]
                    if index >= jobs:
                        break
                    counter["next"] = index + 1
                spec = specs[index % len(specs)]
                start = time.perf_counter()
                try:
                    (job_id,) = client.submit([spec])
                    payload = client.result(job_id)
                    assert _units(payload), payload
                except Exception as exc:  # noqa: BLE001 - recorded, gated
                    with lat_lock:
                        errors.append(repr(exc))
                    continue
                local.append(time.perf_counter() - start)
        finally:
            client.close()
        with lat_lock:
            latencies.extend(local)
            done.append(len(local))

    start = time.perf_counter()
    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    elapsed = time.perf_counter() - start
    completed = sum(done)
    return {
        "jobs": jobs,
        "completed": completed,
        "errors": len(errors),
        "error_sample": errors[:3],
        "elapsed_seconds": round(elapsed, 3),
        "jobs_per_second": round(completed / elapsed, 2) if elapsed else 0.0,
        "p50_ms": round(1000 * _percentile(latencies, 0.50), 3),
        "p99_ms": round(1000 * _percentile(latencies, 0.99), 3),
    }


def _warm_through(client, result_of, specs):
    """Drive the distinct mix through once; returns label->assembly."""
    ids = client.submit(specs)
    assemblies = {}
    for job_id in ids:
        assemblies.update(_units(result_of(client, job_id)))
    return assemblies


# -- topologies ----------------------------------------------------------------


def _run_fabric(node_count, specs, jobs, threads):
    from repro.fabric import FabricClient, FabricNode

    nodes = []
    try:
        for _ in range(node_count):
            peers = [nodes[0].url] if nodes else None
            node = FabricNode(workers=2, peers=peers, health_interval=0.5)
            node.start()
            nodes.append(node)
        seed_url = nodes[0].url
        warm_client = FabricClient(seed_url, timeout=30.0)
        assemblies = _warm_through(
            warm_client,
            lambda c, i: c.result(i, timeout=300.0),
            specs,
        )
        warm_client.close()
        soak = _soak(
            lambda: FabricClient(seed_url, timeout=30.0, shed_retries=2),
            specs,
            jobs,
            threads,
        )
    finally:
        for node in reversed(nodes):
            node.stop(drain=False)
    soak["topology"] = "fabric %d-node" % node_count
    return soak, assemblies


# -- shed behaviour ------------------------------------------------------------


def _run_shed_phase(burst=120, threads=4):
    from repro.fabric import FabricNode
    from repro.service import JobSpec, ServiceClient, ServiceOverloadError

    node = FabricNode(workers=1, max_queue=8)
    node.start()
    stats = {"shed": 0, "admitted": [], "retry_after": []}
    lock = threading.Lock()

    def worker(offset):
        # Burst-submit the whole quota first (no waiting — that is what
        # overruns the tiny queue), then await every admitted job.
        client = ServiceClient(node.url, timeout=30.0)
        pending = []
        try:
            for i in range(burst // threads):
                spec = JobSpec(
                    kind="sleep", seconds=0.05, seed=offset * 10_000 + i
                )
                start = time.perf_counter()
                try:
                    (job_id,) = client.submit([spec])
                except ServiceOverloadError as exc:
                    with lock:
                        stats["shed"] += 1
                        stats["retry_after"].append(exc.retry_after)
                    continue
                pending.append((job_id, start))
            for job_id, start in pending:
                client.result(job_id, timeout=60.0)
                with lock:
                    stats["admitted"].append(
                        time.perf_counter() - start
                    )
        finally:
            client.close()

    pool = [
        threading.Thread(target=worker, args=(n,)) for n in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    metrics = node.frontend.metrics
    node.stop(drain=False)
    admitted = stats["admitted"]
    return {
        "burst": burst,
        "max_queue": 8,
        "shed": stats["shed"],
        "shed_rate": round(stats["shed"] / burst, 3),
        "admitted": len(admitted),
        "admitted_p99_ms": round(
            1000 * _percentile(admitted, 0.99), 1
        ),
        "retry_after_min": min(stats["retry_after"], default=None),
        "retry_after_max": max(stats["retry_after"], default=None),
        "shed_backlog": metrics.shed_backlog,
        "shed_queue_full": metrics.shed_queue_full,
    }


# -- the benchmark -------------------------------------------------------------


def test_fabric_soak(report):
    distinct = _specs(seeds=(0, 1))  # 6 distinct fingerprints, hot mix

    runs = {}
    assemblies = {}
    if "fabric1" in PROFILES:
        runs["fabric1"], assemblies["fabric1"] = _run_fabric(
            1, distinct, JOBS, THREADS
        )
    if "fabric3" in PROFILES:
        runs["fabric3"], assemblies["fabric3"] = _run_fabric(
            3, distinct, JOBS, THREADS
        )

    reference = next(iter(assemblies.values()))
    identical = all(a == reference for a in assemblies.values())

    shed = _run_shed_phase()

    fabric_ratio = None
    if "fabric1" in runs and "fabric3" in runs:
        base = runs["fabric1"]["jobs_per_second"]
        fabric_ratio = (
            round(runs["fabric3"]["jobs_per_second"] / base, 2)
            if base
            else None
        )

    result = {
        "workloads": WORKLOADS,
        "jobs": JOBS,
        "threads": THREADS,
        "cpus": os.cpu_count(),
        "soak": runs,
        "assembly_identical_across_topologies": identical,
        "shed_phase": shed,
        "fabric3_vs_fabric1_ratio_ungated": fabric_ratio,
    }
    with open(os.path.join(output_dir(), "bench_fabric.json"), "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    lines = [
        "topology            jobs  done   jobs/s    p50ms    p99ms  err",
    ]
    for key in ("fabric1", "fabric3"):
        if key not in runs:
            continue
        entry = runs[key]
        lines.append(
            "%-18s %5d %5d %8.1f %8.2f %8.2f %4d"
            % (
                key,
                entry["jobs"],
                entry["completed"],
                entry["jobs_per_second"],
                entry["p50_ms"],
                entry["p99_ms"],
                entry["errors"],
            )
        )
    lines.append(
        "shed: %d/%d shed (%.0f%%), admitted p99 %.0fms, Retry-After [%s, %s]"
        % (
            shed["shed"],
            shed["burst"],
            100 * shed["shed_rate"],
            shed["admitted_p99_ms"],
            shed["retry_after_min"],
            shed["retry_after_max"],
        )
    )
    if fabric_ratio is not None:
        lines.append(
            "fabric 3-node vs 1-node: %.2fx on %d CPU(s) (ungated)"
            % (fabric_ratio, os.cpu_count() or 1)
        )
    report("fabric soak (%d jobs, %d threads)" % (JOBS, THREADS),
           "\n".join(lines))

    _write_summary(result)

    # Always-on gates: correctness of what actually ran.
    assert identical, "assembly diverged across topologies"
    for entry in runs.values():
        assert entry["errors"] == 0, entry
        assert entry["completed"] == entry["jobs"], entry
    assert shed["shed"] > 0, "tiny max-queue burst must shed"
    assert shed["admitted"] + shed["shed"] == shed["burst"]
    assert 1 <= shed["retry_after_min"] <= shed["retry_after_max"] <= 30
    assert shed["admitted_p99_ms"] <= 10_000


def _write_summary(result):
    """The repo-root BENCH_fabric.json trajectory entry (full runs)."""
    if not FULL_RUN:
        return
    root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )
    summary = {
        "bench": "fabric soak: one node vs three sharded nodes",
        "jobs": result["jobs"],
        "threads": result["threads"],
        "cpus": result["cpus"],
        "jobs_per_second": {
            key: entry["jobs_per_second"]
            for key, entry in result["soak"].items()
        },
        "p99_ms": {
            key: entry["p99_ms"] for key, entry in result["soak"].items()
        },
        "fabric3_vs_fabric1_ratio_ungated": result[
            "fabric3_vs_fabric1_ratio_ungated"
        ],
        "shed_rate": result["shed_phase"]["shed_rate"],
        "assembly_identical": result[
            "assembly_identical_across_topologies"
        ],
        "note": (
            "soak is store-hit dominated (request-path bound); "
            "throughput is recorded, not gated (perfsuite's "
            "service-mix workload carries the regression bound)"
        ),
    }
    with open(os.path.join(root, "BENCH_fabric.json"), "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
