"""Tests for the compilation service (jobs, pool, store, HTTP API).

Fast tests exercise the machinery with diagnostic jobs (``sleep`` /
``crash``) and small compiles; the slow tier runs the ISSUE's acceptance
workloads end-to-end (batch throughput vs the one-shot CLI, warm-store
reruns).
"""

import gc
import json
import os
import sqlite3
import subprocess
import sys
import time
import tracemalloc

import pytest

from repro.core.cache import global_axiom_cache, global_saturation_cache
from repro.isa.targets import target_names
from repro.service import (
    CompilationEngine,
    JobError,
    JobSpec,
    JobState,
    ResultStore,
    ServiceClient,
    job_fingerprint,
    run_job,
)
from repro.terms.ops import default_registry

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""

WORKLOAD_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "workloads",
)


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


@pytest.fixture
def engine():
    # Workers fork from this process: start them with a cold saturation
    # cache, so a compile's totals count its matcher run.
    global_saturation_cache().clear()
    eng = CompilationEngine(workers=1, max_retries=1, retry_backoff=0.05)
    yield eng
    eng.shutdown(drain=False)


# -- specs and fingerprints ----------------------------------------------------


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = compile_spec(proc="scale", timeout_seconds=5.0)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict({"kind": "compile", "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(JobError):
            JobSpec.from_dict(["not", "a", "dict"])

    @pytest.mark.parametrize(
        "window", [(5, 3), (0, 4), (-1, 2), ("1", 4), (1, 2.5)]
    )
    def test_empty_cycle_window_rejected(self, window):
        lo, hi = window
        with pytest.raises(JobError, match="min_cycles"):
            JobSpec.from_dict(
                {"kind": "compile", "min_cycles": lo, "max_cycles": hi}
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("strategy", "portfolio"),
            ("strategy", "BINARY"),
            ("backend", "smt"),
            ("extraction", "best"),
            ("arch", "vax"),
        ],
    )
    def test_unknown_enum_value_rejected(self, field, value):
        with pytest.raises(JobError, match="unknown %s" % field):
            JobSpec.from_dict({"kind": "compile", field: value})

    def test_enum_values_and_target_aliases_accepted(self):
        spec = JobSpec.from_dict(
            {"kind": "compile", "strategy": "linear", "backend": "race",
             "extraction": "exact", "arch": "riscv"}
        )
        assert spec.arch == "riscv"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("timeout_seconds", "5"),
            ("timeout_seconds", -1.0),
            ("seconds", None),
            ("seconds", float("nan")),
            ("verify", 1),
            ("max_rounds", True),
            ("max_enodes", 2.5),
            ("seed", "0"),
            ("source", None),
            ("proc", 3),
        ],
    )
    def test_ill_typed_field_rejected(self, field, value):
        with pytest.raises(JobError, match=field) as info:
            JobSpec.from_dict({"kind": "compile", field: value})
        assert info.value.field == field

    def test_numeric_timeouts_accepted(self):
        for value in (None, 0, 5, 2.5):
            JobSpec.from_dict({"kind": "compile", "timeout_seconds": value})

    def test_removed_path_fields_rejected(self):
        # The scratch-solver and full-rescan-matcher switches are gone.
        for name in ("incremental", "incremental_match"):
            with pytest.raises(JobError, match="unknown job spec fields"):
                JobSpec.from_dict({"kind": "compile", name: False})


class TestFingerprint:
    def test_stable_across_calls(self):
        assert job_fingerprint(compile_spec()) == job_fingerprint(compile_spec())

    def test_ignores_display_name_and_timeout(self):
        a = compile_spec(name="a.dn", timeout_seconds=None)
        b = compile_spec(name="b.dn", timeout_seconds=9.0)
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_sensitive_to_semantic_fields(self):
        base = job_fingerprint(compile_spec())
        assert job_fingerprint(compile_spec(source=SIMPLE + " ")) != base
        assert job_fingerprint(compile_spec(max_cycles=9)) != base
        assert job_fingerprint(compile_spec(arch="rv64")) != base

    def test_pinned_fingerprint(self, monkeypatch):
        # The semantic fields are derived from JobSpec's field order; a
        # persistent store keyed by this digest must not move with it.
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-pin")
        spec = JobSpec(
            kind="compile",
            source="(\\procdecl f ((a long)) long (:= (\\res a)))",
            name="pin.dn",
            arch="rv64",
            max_cycles=9,
            extraction="exact",
            seed=7,
            timeout_seconds=3.0,
        )
        assert job_fingerprint(spec) == "a51823eed0074faf9b8d2ed812a3abc0"

    def test_includes_package_version(self, monkeypatch):
        import repro

        base = job_fingerprint(compile_spec())
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert job_fingerprint(compile_spec()) != base


# -- the result store ----------------------------------------------------------


class TestResultStore:
    def test_memory_put_get(self):
        store = ResultStore(None)
        assert store.get("fp") is None
        store.put("fp", {"x": 1})
        assert store.get("fp") == {"x": 1}
        assert "fp" in store and len(store) == 1
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.hit_rate == 0.5

    def test_memory_get_text_is_the_written_text(self):
        store = ResultStore(None)
        text = store.put("fp", {"b": 2, "a": 1})
        assert text == '{"a": 1, "b": 2}'
        assert store.get_text("fp") is text  # kept once, never copied
        assert store.get_text("missing") is None
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_sqlite_survives_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        store.put("fp", {"units": ["a"]})
        store.close()
        reopened = ResultStore(path)
        assert reopened.get("fp") == {"units": ["a"]}
        reopened.close()

    def test_opens_a_store_with_a_corpora_table(self, tmp_path, monkeypatch):
        # Older stores also kept pickled axiom corpora in a ``corpora``
        # table.  Such a file must still serve its results, and nothing
        # may read that table (its blob here is not even a pickle).
        path = str(tmp_path / "old.sqlite")
        db = sqlite3.connect(path)
        db.executescript(
            """
            CREATE TABLE results (
                fingerprint TEXT PRIMARY KEY,
                payload     TEXT NOT NULL,
                created_at  REAL NOT NULL,
                hits        INTEGER NOT NULL DEFAULT 0
            );
            CREATE TABLE corpora (
                key        TEXT PRIMARY KEY,
                blob       BLOB NOT NULL,
                created_at REAL NOT NULL
            );
            """
        )
        db.execute(
            "INSERT INTO results VALUES (?, ?, 0, 0)",
            ("fp", '{"units": ["a"]}'),
        )
        db.execute(
            "INSERT INTO corpora VALUES (?, ?, 0)", ("ev6", b"not a pickle")
        )
        db.commit()
        db.close()

        touched = []
        connect = sqlite3.connect

        def guarded_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)

            def authorize(action, arg1, *rest):
                if arg1 == "corpora":
                    touched.append(action)
                    return sqlite3.SQLITE_DENY
                return sqlite3.SQLITE_OK

            conn.set_authorizer(authorize)
            return conn

        monkeypatch.setattr(sqlite3, "connect", guarded_connect)
        store = ResultStore(path)
        try:
            assert store.get_text("fp") == '{"units": ["a"]}'
            assert len(store) == 1
        finally:
            store.close()
        assert touched == []

    def test_to_dict_reports_rates(self, tmp_path):
        store = ResultStore(str(tmp_path / "s.sqlite"))
        store.get("missing")
        info = store.to_dict()
        assert info["misses"] == 1 and info["entries"] == 0
        assert info["path"].endswith("s.sqlite")
        store.close()


# -- worker-side runner --------------------------------------------------------


class TestRunJob:
    def test_compile_payload_shape(self):
        payload = run_job(compile_spec().to_dict())
        assert payload["ok"] is True
        unit = payload["units"][0]
        assert "s4addq" in unit["assembly"]
        assert unit["verified"] is True and unit["cycles"] == 1
        assert unit["floor"] == 0 and unit["optimal_by"] == "floor"
        assert payload["stats"]["sessions"] == 1
        assert "saturation" in payload["stats"]["timings"]

    def test_parse_error_raises(self):
        with pytest.raises(Exception):
            run_job(compile_spec(source="(\\procdecl broken").to_dict())

    def test_translation_error_fails_the_job(self):
        bad = SIMPLE + r"(\procdecl bad ((b long)) long (:= (\res nope)))"
        with pytest.raises(JobError, match="translation error in bad"):
            run_job(compile_spec(source=bad).to_dict())

    def test_unknown_kind_raises(self):
        with pytest.raises(JobError):
            run_job(JobSpec(kind="bogus").to_dict())


# -- the engine ----------------------------------------------------------------


class TestEngine:
    def test_compile_submit_and_result(self, engine):
        job_id = engine.submit(compile_spec())
        payload = engine.result(job_id, timeout=60)
        assert payload["ok"] is True
        assert engine.status(job_id)["state"] == JobState.DONE

    def test_inflight_coalescing(self, engine):
        spec = JobSpec(kind="sleep", seconds=0.4)
        first = engine.submit(spec)
        second = engine.submit(spec)
        assert first == second
        assert engine.status(first)["coalesced"] == 1
        engine.result(first, timeout=10)

    def test_done_compile_served_from_store(self, engine):
        spec = compile_spec()
        first = engine.submit(spec)
        cold = engine.result(first, timeout=60)
        second = engine.submit(spec)
        status = engine.status(second)
        assert second != first
        assert status["state"] == JobState.DONE
        assert status["from_store"] is True
        assert engine.result(second, wait=False) == cold

    def test_crash_retried_then_failed(self, engine):
        job_id = engine.submit(JobSpec(kind="crash"))
        engine.result(job_id, timeout=30)
        status = engine.status(job_id)
        assert status["state"] == JobState.FAILED
        assert status["attempts"] == 2  # initial + one retry
        assert "crashed" in status["error"]
        # The pool replaced the dead worker: new jobs still run.
        ok = engine.submit(JobSpec(kind="sleep", seconds=0.01))
        assert engine.result(ok, timeout=30)["ok"] is True

    def test_timeout_kills_and_fails(self, engine):
        job_id = engine.submit(
            JobSpec(kind="sleep", seconds=30.0, timeout_seconds=0.2)
        )
        engine.result(job_id, timeout=30)
        status = engine.status(job_id)
        assert status["state"] == JobState.FAILED
        assert "timeout" in status["error"]

    def test_in_job_error_not_retried(self, engine):
        job_id = engine.submit(compile_spec(source="(\\procdecl broken"))
        engine.result(job_id, timeout=30)
        status = engine.status(job_id)
        assert status["state"] == JobState.FAILED
        assert status["attempts"] == 1

    def test_cancel_pending_job(self, engine):
        blocker = engine.submit(JobSpec(kind="sleep", seconds=0.6))
        victim = engine.submit(JobSpec(kind="sleep", seconds=0.01))
        assert engine.cancel(victim) is True
        assert engine.status(victim)["state"] == JobState.CANCELLED
        engine.result(blocker, timeout=10)

    def test_store_hit_keeps_the_store_text(self, engine):
        spec = compile_spec()
        engine.result(engine.submit(spec), timeout=60)
        hit = engine.submit(spec)
        text = engine.store.get_text(job_fingerprint(spec))
        assert engine.result_text(hit) is text
        assert engine.result(hit, wait=False) == json.loads(text)
        # Each call parses afresh: a caller's edit cannot reach the record.
        engine.result(hit, wait=False)["units"].clear()
        assert engine.result(hit, wait=False)["units"]

    def test_store_hits_retain_under_4kb_each(self, engine):
        with open(os.path.join(WORKLOAD_DIR, "fig2.dn")) as handle:
            spec = compile_spec(source=handle.read(), name="fig2.dn")
        engine.result(engine.submit(spec), timeout=120)
        wire = spec.to_dict()  # each hit parses its own spec, as over HTTP
        engine.submit(JobSpec.from_dict(wire))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                engine.submit(JobSpec.from_dict(wire))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert engine.store.stats.hits == 1001
        assert retained / 1000 < 4096, retained / 1000

    def test_settled_records_past_the_bound_are_evicted(self, engine):
        from repro.service import jobs

        with open(os.path.join(WORKLOAD_DIR, "fig2.dn")) as handle:
            spec = compile_spec(source=handle.read(), name="fig2.dn")
        first = engine.submit(spec)
        engine.result(first, timeout=120)
        wire = spec.to_dict()
        hits = jobs.SETTLED_JOBS_KEPT + 2000
        # Traced from the start, so evicting a record frees traced memory.
        tracemalloc.start()
        try:
            for _ in range(jobs.SETTLED_JOBS_KEPT + 1000):  # past the bound
                engine.submit(JobSpec.from_dict(wire))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                newest = engine.submit(JobSpec.from_dict(wire))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Each hit evicts the oldest settled record, so memory stays flat
        # up to one resize of the table's dict (~100 KB); an unbounded
        # table kept ~1.9 KB per hit, ~1.9 MB here.
        assert retained < 256 * 1024, retained
        assert len(engine._jobs) == jobs.SETTLED_JOBS_KEPT
        assert engine.status(first) is None
        assert engine.result(newest)["ok"] is True
        metrics = engine.metrics()["jobs"]
        assert metrics["submitted"] == hits + 1
        assert metrics["by_state"] == {JobState.DONE: hits + 1}

    def test_settle_callback_fires_once(self, engine):
        job_id = engine.submit(JobSpec(kind="sleep", seconds=0.2))
        fired = []
        assert engine.on_settle(job_id, lambda: fired.append(1)) is True
        engine.result(job_id, timeout=10)
        assert fired == [1]
        assert engine._jobs[job_id].waiters is None
        # A settled job registers nothing: the caller reads it directly.
        assert engine.on_settle(job_id, lambda: fired.append(2)) is False
        assert engine.on_settle("job-9999", lambda: None) is False
        assert fired == [1]

    def test_discarded_settle_callback_never_fires(self, engine):
        job_id = engine.submit(JobSpec(kind="sleep", seconds=0.2))
        fired = []

        def callback():
            fired.append(1)

        assert engine.on_settle(job_id, callback) is True
        engine.discard_on_settle(job_id, callback)
        assert engine._jobs[job_id].waiters is None
        engine.result(job_id, timeout=10)
        assert fired == []

    def test_failed_and_cancelled_jobs_fire_settle(self, engine):
        fired = []
        crash = engine.submit(JobSpec(kind="crash"))
        engine.on_settle(crash, lambda: fired.append("crash"))
        blocker = engine.submit(JobSpec(kind="sleep", seconds=0.6))
        victim = engine.submit(JobSpec(kind="sleep", seconds=0.01, seed=1))
        engine.on_settle(victim, lambda: fired.append("victim"))
        assert engine.cancel(victim) is True
        assert fired == ["victim"]
        engine.result(crash, timeout=30)
        engine.result(blocker, timeout=10)
        assert fired == ["victim", "crash"]

    def test_metrics_shape(self, engine):
        engine.result(engine.submit(compile_spec()), timeout=60)
        metrics = engine.metrics()
        assert metrics["jobs"]["by_state"][JobState.DONE] == 1
        assert metrics["throughput"]["jobs_per_second"] > 0
        assert metrics["latency_seconds"]["p95"] >= metrics["latency_seconds"]["p50"]
        worker = metrics["workers"][0]
        assert worker["jobs_done"] == 1
        assert "saturation" in worker["stages"]
        assert 0.0 <= metrics["store"]["hit_rate"] <= 1.0
        sat = metrics["totals"]["saturation"]
        assert sat["sessions"] >= 1
        assert "incremental_sessions" not in sat
        assert sat["matches_attempted"] > 0
        assert isinstance(sat["budget_hits"], dict)

    def test_metrics_report_cycle_floor(self, engine):
        engine.result(engine.submit(compile_spec()), timeout=60)
        totals = engine.metrics()["totals"]
        # s4addq: one cycle, and the floor proves it without an UNSAT probe.
        assert totals["cycle_floor"] == {
            "sessions": 1, "sum": 1, "at_optimum": 1,
        }
        assert totals["optimal_by"] == {"floor": 1, "unsat": 0}

    def test_metrics_report_solver_work(self, engine):
        payload = engine.result(engine.submit(compile_spec()), timeout=60)
        totals = engine.metrics()["totals"]
        assert totals["solver"] == payload["stats"]["solver"]
        assert totals["solver"]["propagations"] > 0
        assert (
            totals["cache"]["solver_arena_bytes"]
            == payload["stats"]["cache"]["solver_arena_bytes"]
        )

    def test_metrics_report_extraction_floors(self, engine):
        engine.result(engine.submit(compile_spec()), timeout=60)
        engine.result(
            engine.submit(compile_spec(extraction="exact")), timeout=60
        )
        ext = engine.metrics()["totals"]["extraction"]
        assert ext["sessions"] == 2 and ext["exact_sessions"] == 1
        assert ext["proved"] == 1
        # s4addq: the dag bound alone meets the greedy cost.
        assert ext["floor_by"] == {"dag": 1, "selection": 0}
        assert ext["optimal_by"] == {"floor": 1, "unsat": 0}

    def test_every_target_corpus_is_compiled_before_the_pool_forks(self):
        # Forked workers inherit the parent's axiom cache as it stands
        # when the pool starts; the engine fills it first.
        cache = global_axiom_cache()
        cache.clear()
        eng = CompilationEngine(workers=1)
        try:
            assert cache.stats.misses == len(target_names())
            for target in target_names():
                cache.default_corpus(default_registry(), target)
            assert cache.stats.misses == len(target_names())
        finally:
            eng.shutdown(drain=False)


# -- HTTP API (served by a one-node fabric) -----------------------------------


@pytest.fixture
def service():
    from repro.fabric import FabricNode

    node = FabricNode(port=0, workers=1, max_retries=0)
    node.start()
    client = ServiceClient(node.url, timeout=10.0)
    yield client
    client.close()
    node.stop(drain=False)


class TestHttpService:
    def test_health_and_metrics(self, service):
        assert service.health() is True
        metrics = service.metrics()
        assert "jobs" in metrics and "store" in metrics

    def test_submit_result_round_trip(self, service):
        ids = service.submit([compile_spec()])
        wrapper = service.result(ids[0], timeout=60)
        assert wrapper["state"] == "done"
        assert "s4addq" in wrapper["result"]["units"][0]["assembly"]

    def test_result_not_ready_is_202(self, service):
        ids = service.submit([JobSpec(kind="sleep", seconds=0.5)])
        payload = service.result(ids[0], wait=False)
        assert payload["_http_status"] == 202
        service.result(ids[0], timeout=10)

    def test_status_unknown_job_404(self, service):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            service.status("job-9999")

    def test_malformed_submit_400(self, service):
        from repro.service import ServiceError

        with pytest.raises(ServiceError):
            service._request("/v1/submit", {"jobs": "nope"})

    def test_empty_cycle_window_submit_400(self, service):
        from repro.service import ServiceError

        with pytest.raises(ServiceError, match="400"):
            service._request(
                "/v1/submit",
                {"jobs": [compile_spec(min_cycles=5, max_cycles=3).to_dict()]},
            )
        # Rejected at admission: no job was created, none failed.
        assert service.metrics()["jobs"]["submitted"] == 0

    def test_unknown_strategy_submit_400(self, service):
        from repro.service import ServiceError

        spec = compile_spec().to_dict()
        spec["strategy"] = "portfolio"
        with pytest.raises(ServiceError, match="400.*unknown strategy"):
            service._request("/v1/submit", {"jobs": [spec]})
        assert service.metrics()["jobs"]["submitted"] == 0

    def test_ill_typed_submit_400_keeps_worker_free(self, service):
        from repro.service import ServiceError

        spec = compile_spec().to_dict()
        spec["timeout_seconds"] = "5"
        with pytest.raises(ServiceError, match="400.*timeout_seconds"):
            service._request("/v1/submit", {"jobs": [spec]})
        # The node's one worker slot is still free for a good job.
        ids = service.submit([compile_spec(timeout_seconds=30.0)])
        wrapper = service.result(ids[0], timeout=60)
        assert wrapper["state"] == "done"

    def test_failed_job_result_is_error(self, service):
        from repro.service import ServiceError

        ids = service.submit([JobSpec(kind="crash")])
        with pytest.raises(ServiceError):
            service.result(ids[0], timeout=30)


# -- acceptance (slow tier) ----------------------------------------------------


def _workload_specs():
    specs = []
    for name in ("fig2.dn", "byteswap4.dn", "checksum.dn"):
        with open(os.path.join(WORKLOAD_DIR, name)) as handle:
            specs.append(compile_spec(source=handle.read(), name=name,
                                      timeout_seconds=120.0))
    return specs


def _unique_assemblies(engine, ids):
    out = {}
    for job_id in ids:
        payload = engine.result(job_id, wait=False)
        assert payload and payload["ok"], payload
        for unit in payload["units"]:
            out[unit["label"]] = unit["assembly"]
    return out


@pytest.mark.slow
class TestAcceptance:
    def test_batch_beats_sequential_cli_2x(self, tmp_path):
        """4-worker batch >= 2x the one-shot CLI's requests/second."""
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        flags = ["--strategy", "linear", "--min-cycles", "1",
                 "--max-cycles", "10", "--max-rounds", "8",
                 "--max-enodes", "2500", "--quiet"]
        start = time.perf_counter()
        for name in ("fig2.dn", "byteswap4.dn", "checksum.dn"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro",
                 os.path.join(WORKLOAD_DIR, name)] + flags,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            assert proc.returncode == 0, proc.stderr.decode()
        sequential_rate = 3 / (time.perf_counter() - start)

        specs = _workload_specs() * 3
        engine = CompilationEngine(
            workers=4, store=ResultStore(str(tmp_path / "store.sqlite"))
        )
        try:
            start = time.perf_counter()
            engine.submit_batch(specs)
            assert engine.drain(timeout=600)
            batch_rate = len(specs) / (time.perf_counter() - start)
        finally:
            engine.shutdown(drain=False)
        assert batch_rate >= 2.0 * sequential_rate, (
            "batch %.2f req/s vs sequential %.2f req/s"
            % (batch_rate, sequential_rate)
        )

    def test_warm_store_hit_rate_and_identical_assembly(self, tmp_path):
        """A restarted engine answers >= 90% from the store, byte-identical."""
        path = str(tmp_path / "store.sqlite")
        specs = _workload_specs()

        cold = CompilationEngine(workers=2, store=ResultStore(path))
        try:
            ids = cold.submit_batch(specs)
            assert cold.drain(timeout=600)
            cold_assemblies = _unique_assemblies(cold, ids)
        finally:
            cold.shutdown(drain=False)

        warm = CompilationEngine(workers=2, store=ResultStore(path))
        try:
            ids = warm.submit_batch(specs)
            assert warm.drain(timeout=60)
            warm_assemblies = _unique_assemblies(warm, ids)
            store_stats = warm.metrics()["store"]
            for job_id in ids:
                assert warm.status(job_id)["from_store"] is True
        finally:
            warm.shutdown(drain=False)

        assert store_stats["hit_rate"] >= 0.9
        assert warm_assemblies == cold_assemblies
