"""The one totals schema: ``aggregate_stats`` and ``merge_totals``.

``--stats-json``'s ``totals``, a job payload's ``stats`` and
``/v1/metrics``' ``totals`` all carry ``aggregate_stats``' key tree, and
folding two runs' totals with ``merge_totals`` gives the totals of both.
"""

import json
import os
import time

import pytest

from repro.cli import main
from repro.core.cache import global_saturation_cache
from repro.core.session import aggregate_stats, merge_totals
from repro.sat.incremental import IncrementalSolver
from repro.service import CompilationEngine, JobSpec, compile_job

SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""

BYTESWAP = r"""
(\procdecl %s ((a long)) long
  (:= (\res (\storeb (\storeb (\storeb (\storeb 0 0 (\selectb a 3))
                                       1 (\selectb a 2))
                              2 (\selectb a 1))
                     3 (\selectb a 0)))))
"""

WORKLOAD_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "workloads",
)

# Maps keyed by data (stage names, budget names), not by the schema.
OPEN_MAPS = ("timings", "budget_hits")


def spec(source=SIMPLE, **kwargs):
    return JobSpec(source=source, name="t.dn", **kwargs)


def key_tree(totals, open_maps=()):
    """The nested key structure of ``totals`` (open maps as leaves)."""
    return {
        key: None
        if key in open_maps or not isinstance(value, dict)
        else key_tree(value, open_maps)
        for key, value in totals.items()
    }


def without_timings(totals):
    return {k: v for k, v in totals.items() if k != "timings"}


class TestSchema:
    def test_every_projection_has_the_zeroed_schema(self, tmp_path):
        path = str(tmp_path / "simple.dn")
        with open(path, "w") as handle:
            handle.write(SIMPLE)
        stats_path = str(tmp_path / "stats.json")
        assert main([path, "--quiet", "--stats-json", stats_path]) == 0
        with open(stats_path) as handle:
            cli = json.load(handle)["totals"]
        report = compile_job(spec()).to_dict()["stats"]
        engine = CompilationEngine(workers=1)
        try:
            engine.result(engine.submit(spec()), timeout=60)
            served = engine.metrics()["totals"]
        finally:
            engine.shutdown(drain=False)
        # The same compile gives the same tree, open maps included ...
        assert key_tree(cli) == key_tree(report) == key_tree(served)
        # ... and every projection is the zeroed schema's tree.
        schema = key_tree(aggregate_stats([]), OPEN_MAPS)
        for totals in (cli, report, served):
            assert key_tree(totals, OPEN_MAPS) == schema

    def test_zeroed_schema_counts_nothing(self):
        def leaves(tree):
            for value in tree.values():
                if isinstance(value, dict):
                    yield from leaves(value)
                else:
                    yield value

        assert set(leaves(aggregate_stats([]))) == {0}


class TestMergeLaw:
    def test_merged_totals_equal_totals_of_the_union(self):
        with open(os.path.join(WORKLOAD_DIR, "fig2.dn")) as handle:
            first = compile_job(spec(handle.read(), extraction="exact"))
        second = compile_job(spec(BYTESWAP % "swap", extraction="exact"))
        a = [result.stats for _label, result in first.results]
        b = [result.stats for _label, result in second.results]
        merged = merge_totals(aggregate_stats(a), aggregate_stats(b))
        whole = aggregate_stats(a + b)
        assert without_timings(merged) == without_timings(whole)
        assert set(merged["timings"]) == set(whole["timings"])
        for stage, seconds in whole["timings"].items():
            assert merged["timings"][stage] == pytest.approx(seconds, abs=1e-5)
        # The arena is a peak: the larger run's, not the sum.
        arenas = [s.cache["solver_arena_bytes"] for s in a + b]
        assert min(arenas) > 0
        assert whole["cache"]["solver_arena_bytes"] == max(arenas)
        assert whole["sessions"] == len(a) + len(b)

    def test_peak_counters_take_the_max_and_open_maps_grow(self):
        into = {"cache": {"solver_arena_bytes": 5, "solver_clauses_fed": 1}}
        merge_totals(into, {
            "cache": {"solver_arena_bytes": 3, "solver_clauses_fed": 2},
            "timings": {"sat": 0.25},
        })
        merge_totals(into, {"timings": {"sat": 0.5, "verify": 0.125}})
        assert into == {
            "cache": {"solver_arena_bytes": 5, "solver_clauses_fed": 3},
            "timings": {"sat": 0.75, "verify": 0.125},
        }


class TestCachedWork:
    def test_cache_hits_do_not_count_work_twice(self):
        # Two procedures with the same GMA: the second is served by the
        # saturation cache, but its exact extraction solves afresh.
        global_saturation_cache().clear()
        source = BYTESWAP % "f" + BYTESWAP % "g"
        report = compile_job(spec(source, extraction="exact"))
        (_, first), (_, second) = report.results
        assert first.stats.cache["saturation_misses"] == 1
        assert second.stats.cache["saturation_hits"] == 1
        totals = report.to_dict()["stats"]
        sat = totals["saturation"]
        assert sat["sessions"] == totals["cache"]["saturation_misses"] == 1
        assert sat["rounds"] == first.stats.saturation.rounds
        assert (
            sat["matches_attempted"]
            == first.stats.saturation.matches_attempted
        )
        ext = totals["extraction"]
        solves = first.stats.extraction["solves"]
        assert solves >= 1
        assert second.stats.extraction["solves"] == solves
        assert ext["solves"] == 2 * solves
        assert ext["pruned"] == 2 * first.stats.extraction["pruned"]
        assert ext["exact_sessions"] == 2
        assert ext["proved"] == 2 * int(first.stats.extraction["proved"])
        assert ext["exact_cost"] == 2 * first.stats.extraction["exact_cost"]


class TestStageTimings:
    def test_solver_feeding_is_timed_as_feed_not_encode(self, monkeypatch):
        # Handing clauses to the solver is SAT work: a slow add_clauses
        # shows up under "feed", and neither the "encode" stage nor any
        # probe's encode_seconds carries it.
        delay = 0.2
        calls = []
        add_clauses = IncrementalSolver.add_clauses

        def slow_add_clauses(self, *args, **kwargs):
            calls.append(None)
            time.sleep(delay)
            return add_clauses(self, *args, **kwargs)

        monkeypatch.setattr(IncrementalSolver, "add_clauses", slow_add_clauses)
        ((_, result),) = compile_job(spec()).results
        stats = result.stats
        assert calls and stats.probes
        assert stats.timings["feed"] >= delay * len(calls)
        assert stats.timings["encode"] < delay
        assert sum(p.encode_seconds for p in stats.probes) == pytest.approx(
            stats.timings["encode"]
        )
