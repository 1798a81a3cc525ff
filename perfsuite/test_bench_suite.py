"""Self-test of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfsuite/test_bench_suite.py -o addopts=""

It runs one plain and one traced single-pass run of two small programs
in-process, then checks the reporting, the trace and the tracer's
clean-up, plus the comparison verdicts and the refusal to run without
the program's source.
"""

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import bench_suite
import runners
import suite
import tracing

TINY = {
    "kind": "compile",
    "target": "ev6",
    "extraction": "greedy",
    "programs": ["fig2", "mulchain"],
}


def _entry_point_objects():
    suite.import_repro()
    objects = []
    for module_name, path, _layer in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for name in path.split("."):
            owner = getattr(owner, name)
        objects.append(owner)
    return objects


@pytest.fixture(scope="module")
def bench():
    return suite.load_benchmark()


@pytest.fixture(scope="module")
def tiny(tmp_path_factory, bench):
    """Entry points before, then a plain and a traced one-pass run."""
    before = _entry_point_objects()
    config = suite.load_suite()["config"]
    out = suite.OUT
    suite.OUT = str(tmp_path_factory.mktemp("out"))
    try:
        runs = {}
        for trace in (0, 1):
            started = time.perf_counter()
            result = runners.run_compile(
                "tiny", TINY, config, 7, 0.0, bool(trace), started
            )
            runs[trace] = bench_suite.make_run(
                "tiny", 7, 0.0, trace, result, result["setup_samples"], bench
            )
    finally:
        suite.OUT = out
    return before, runs


def test_runs_are_correct(tiny):
    _before, runs = tiny
    for run in runs.values():
        assert run["correct"], run["failures"]
        assert run["attempted"] >= 1 and run["failed"] == 0


def test_every_metric_prints_with_its_unit(tiny, bench, capsys):
    _before, runs = tiny
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        bench_suite.print_run(runs[trace])
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            match = re.match(
                r"tiny (\S+) (\S+) (\S+) n=\d+ iqr=\S+( raw=\S+)?$", line
            )
            if match:
                float(match.group(2))
                printed[match.group(1)] = match.group(3)
        assert printed == {m["name"]: m["unit"] for m in bench[declared]}


def test_shares_are_fractions(tiny):
    _before, runs = tiny
    for run in runs.values():
        for name, m in run["metrics"].items():
            # The overhead is a difference of two timings, not a share of
            # a whole, and may read below zero on a noisy machine.
            if m["unit"] == "fraction" and name != "trace.overhead_share":
                assert 0.0 <= m["value"] <= 1.0, (name, m["value"])


def test_trace_loads_as_chrome_trace_events(tiny):
    _before, runs = tiny
    report = runs[1]["layers"]
    path = os.path.join(suite.ROOT, report["trace_file"])
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    names = {event["name"] for event in events}
    assert "Denali.compile_gma" in names and "saturate" in names
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_self_times_sum_to_root_spans(tiny):
    _before, runs = tiny
    report = runs[1]["layers"]
    assert report["root_s"] > 0
    assert abs(report["self_sum_s"] - report["root_s"]) <= 0.05 * report["root_s"]


def test_entry_points_are_restored(tiny):
    before, _runs = tiny
    after = _entry_point_objects()
    assert all(a is b for a, b in zip(before, after))


def test_layer_map_names_known_metrics_and_workloads(bench):
    layer_map = suite.load_suite()["per_layer"]
    assert list(layer_map) == [m["name"] for m in bench["per_layer"]]
    metrics = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in layer_map.values():
        for metric, workload in entry["moves"]:
            assert metric in metrics and workload in workloads


def test_seed_orders_the_same_programs():
    suite.import_repro()
    spec = suite.load_suite()["workloads"]["fuzz-mix"]
    first = runners.workload_sources(spec, 3)
    assert first == runners.workload_sources(spec, 3)
    assert sorted(first) == sorted(runners.workload_sources(spec, 4))


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([10.0] * 10, [9.0] * 10, "lower", "improved"),
        ([10.0] * 10, [12.0] * 10, "lower", "regressed"),
        ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.0, 10.1], "lower", "unchanged"),
        ([5.0, 10.0, 15.0, 10.0], [9.0, 11.0, 10.0, 10.5], "lower", "unresolved"),
        ([100.0] * 4, [85.0] * 4, "higher", "regressed"),
        ([100.0] * 4, [95.0] * 4, "higher", "unchanged"),
    ],
)
def test_compare_verdicts(parent, change, better, expected):
    assert bench_suite.verdict(parent, change, better, 0.1) == expected


def test_refuses_a_checkout_without_source(tmp_path):
    """With only BENCHMARK.json and the suite, it fails and prints no result."""
    shutil.copy(suite.BENCHMARK_JSON, tmp_path)
    shutil.copytree(
        suite.HERE,
        tmp_path / "perfsuite",
        ignore=shutil.ignore_patterns("out", "__pycache__", "results"),
    )
    proc = subprocess.run(
        [sys.executable, "perfsuite/bench_suite.py", "--workload", "ev6-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
