"""The repository's benchmark: cold compiles and the compilation service.

Run from the root of a checkout::

    python3 perfsuite/bench_suite.py --seed 0                 # every workload
    python3 perfsuite/bench_suite.py --workload ev6-suite --seed 3
    python3 perfsuite/bench_suite.py --seed 0 --trace          # per-layer run
    python3 perfsuite/bench_suite.py --compare PARENT.json CHANGE.json

Each workload runs in its own fresh child process.  Every metric prints
as ``workload metric value unit n=<samples> iqr=<q3-q1>``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics, or per-layer metrics with
``--trace``).  Runs are written to ``perfsuite/out/last.json`` and, with
``--out FILE``, added to FILE.  The exit code is 0 only when every output
check passed; 2 means the checkout cannot run the benchmark.

``--seed`` is the only source of randomness: it orders the programs,
draws the service's miss keys and request order, seeds the re-check
inputs and sets ``DenaliConfig.seed``.  Workload definitions are in
``workloads/suite.json``; metric units and bounds in ``BENCHMARK.json``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import suite

# setup_s counts from here: a fresh interpreter that has loaded only the
# standard library, not repro.
STARTED = time.perf_counter()

# A run must end within 180 s; the slowest workload needs about 30 s.
CHILD_TIMEOUT = 160.0
SETUP_TIMEOUT = 60.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench_suite.py",
        description="Run, trace or compare the repository's benchmark.",
    )
    parser.add_argument(
        "--workload",
        "--workloads",
        dest="workloads",
        default=None,
        help="comma-separated workload names (default: every workload)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="workload seed (default: suite.json's default_seed)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed length of each run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): a traced run reporting per-layer metrics",
    )
    parser.add_argument(
        "--out", metavar="FILE", default=None,
        help="also add this invocation's runs to FILE (created if missing)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("PARENT", "CHANGE"), default=None,
        help="compare two run files side by side and print verdicts",
    )
    parser.add_argument(
        "--child", choices=("run", "setup"), default=None,
        help=argparse.SUPPRESS,
    )
    return parser.parse_args(argv)


# -- child processes ------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this (fresh) process; print its JSON record."""
    import runners

    definition = suite.load_suite()
    name = args.workloads
    spec = definition["workloads"][name]
    if spec["kind"] == "compile":
        result = runners.run_compile(
            name, spec, definition["config"], args.seed, args.seconds,
            bool(args.trace), STARTED, setup_only=args.child == "setup",
        )
    else:
        result = runners.run_service(
            name, spec, definition["config"], definition["workloads"],
            args.seed, args.seconds, bool(args.trace),
        )
    print(json.dumps(result))
    return 0


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(mode: str, name: str, seed: int, seconds: float, trace: int,
              timeout: float) -> dict:
    """Run a workload in a fresh interpreter of its own process group."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, cwd=suite.ROOT,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        raise suite.SuiteError("%s %s run exceeded %.0f s" % (name, mode, timeout))
    except BaseException:
        _kill_group(proc)
        proc.communicate()
        raise
    # Nothing the child started may outlive it.
    _kill_group(proc)
    if proc.returncode != 0:
        raise suite.SuiteError(
            "%s %s run exited with code %d" % (name, mode, proc.returncode)
        )
    lines = stdout.decode("utf-8").strip().splitlines()
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 definition: dict, bench: dict) -> dict:
    """One run of one workload in fresh child processes."""
    result = run_child("run", name, seed, seconds, trace, CHILD_TIMEOUT)
    setups = list(result["setup_samples"])
    if not trace and definition["workloads"][name]["kind"] == "compile":
        # The service spawns several nodes itself; a compile workload gets
        # its other set-up samples from set-up-only interpreters.
        while len(setups) < definition["setup_samples"]:
            extra = run_child("setup", name, seed, 0, 0, SETUP_TIMEOUT)
            setups += extra["setup_samples"]
    return make_run(name, seed, seconds, trace, result, setups, bench)


def make_run(name: str, seed: int, seconds: float, trace: int, result: dict,
             setups: List[float], bench: dict) -> dict:
    """A child's result as a run record, units attached from BENCHMARK.json."""
    if trace:
        measured = result["per_layer"]
        declared = bench["per_layer"]
    else:
        measured = dict(result["metrics"])
        measured["setup_s"] = suite.metric(statistics.median(setups), setups)
        declared = bench["end_to_end"]
    metrics = {}
    for entry in declared:
        if entry["name"] not in measured:
            raise suite.SuiteError(
                "%s did not measure %s" % (name, entry["name"])
            )
        metrics[entry["name"]] = dict(
            measured[entry["name"]], unit=entry["unit"]
        )
    run = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"],
        "metrics": metrics,
    }
    if trace:
        run["layers"] = result["trace"]
    return run


# -- reporting ------------------------------------------------------------------


def print_run(run: dict) -> None:
    for name, m in run["metrics"].items():
        raw = " raw=%.6g" % m["raw"] if "raw" in m else ""
        print("%s %s %.6g %s n=%d iqr=%.4g%s" % (
            run["workload"], name, m["value"], m["unit"], m["n"], m["iqr"], raw))
    for failure in run["failures"]:
        print("%s FAILED %s" % (run["workload"], failure))
    if run["trace"]:
        print_layers(run)
    sys.stdout.flush()


def print_layers(run: dict) -> None:
    report = run["layers"]
    total = report["self_sum_s"] or 1.0
    print("%s self time over %d traced passes (overhead %+.1f%%, trace %s)"
          % (run["workload"], report["traced_passes"],
             100.0 * run["metrics"]["trace.overhead_share"]["value"],
             report["trace_file"]))
    print("  %-14s %10s %7s %8s" % ("layer", "self_s", "share", "calls"))
    rows = sorted(report["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for layer, entry in rows:
        if entry["calls"]:
            print("  %-14s %10.4f %6.1f%% %8d" % (
                layer, entry["self_s"], 100.0 * entry["self_s"] / total,
                entry["calls"],
            ))


def summary_line(runs: List[dict]) -> dict:
    """The last stdout line: the runs' verdict and metrics as one object."""
    out = {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
    }

    def plain(run):
        return {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in run["metrics"].items()
        }

    if len(runs) == 1:
        out["metrics"] = plain(runs[0])
    else:
        out["workloads"] = {run["workload"]: plain(run) for run in runs}
    return out


def load_runs(path: str) -> List[dict]:
    if not os.path.exists(path):
        return []
    return suite.load_json(path)["runs"]


def save_runs(path: str, runs: List[dict], append: bool) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    existing = load_runs(path) if append else []
    with open(path, "w") as handle:
        json.dump({"runs": existing + runs}, handle, indent=1)
        handle.write("\n")


def run_main(args: argparse.Namespace) -> int:
    suite.check_checkout()
    bench = suite.load_benchmark()
    definition = suite.load_suite()
    known = [w["name"] for w in bench["workloads"]]
    names = args.workloads.split(",") if args.workloads else known
    for name in names:
        if name not in known or name not in definition["workloads"]:
            raise suite.SuiteError(
                "unknown workload %r (known: %s)" % (name, ", ".join(known))
            )
    seed = definition["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    runs = []
    for name in names:
        run = run_workload(name, seed, seconds, args.trace, definition, bench)
        print_run(run)
        runs.append(run)
    save_runs(os.path.join(suite.OUT, "last.json"), runs, append=False)
    if args.out:
        save_runs(args.out, runs, append=True)
    print(json.dumps(summary_line(runs)))
    return 0 if all(run["correct"] for run in runs) else 1


# -- comparison -----------------------------------------------------------------


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    """improved / regressed / unchanged / unresolved for one metric.

    *Improved*: the change wins at least nine tenths of the paired runs
    (ties count for neither) and the medians differ by more than the
    parent's interquartile range.  *Regressed*: the change's median is
    worse than the parent's by more than ``bound`` (a share of the
    parent's median).  Where the parent's own spread is wider than the
    bound the answer is *unresolved* — unless every change run reads
    better (then no regression is possible) or every one reads worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, p_median, q3 = suite.quartiles(parent)
    c_median = statistics.median(change)
    scale = abs(p_median) or 1.0
    worse = sign * (c_median - p_median) / scale
    spread = (q3 - q1) / scale
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    if (pairs and wins >= 0.9 * len(pairs) and worse < 0
            and abs(c_median - p_median) > q3 - q1):
        return "improved"
    if worse > bound:
        return "regressed" if spread <= bound or all_worse else "unresolved"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _values(runs: List[dict], workload: str, trace: int, metric: str):
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and run["trace"] == trace
        and metric in run["metrics"]
    ]


def _cell(values: List[float]) -> str:
    q1, median, q3 = suite.quartiles(values)
    return "%.5g [%.5g, %.5g]" % (median, q1, q3)


def compare(parent_runs: List[dict], change_runs: List[dict],
            bench: dict) -> Dict[str, str]:
    """Print both sides per workload and metric; return the verdicts."""
    verdicts: Dict[str, str] = {}
    workloads = list(dict.fromkeys(run["workload"] for run in parent_runs))
    print("%-12s %-15s %-32s %-32s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "verdict"))
    for workload in workloads:
        for entry in bench["end_to_end"]:
            name = entry["name"]
            parent = _values(parent_runs, workload, 0, name)
            change = _values(change_runs, workload, 0, name)
            if not parent or not change:
                continue
            p_median = statistics.median(parent)
            delta = statistics.median(change) / p_median - 1.0 if p_median else 0.0
            result = verdict(parent, change, entry["better"], entry["bound"])
            verdicts["%s/%s" % (workload, name)] = result
            print("%-12s %-15s %-32s %-32s %+7.1f%%  %s" % (
                workload, name, _cell(parent), _cell(change),
                100.0 * delta, result))
    timed = [e["name"] for e in bench["per_layer"] if e["unit"] == "s"]
    for workload in workloads:
        rows = []
        for name in timed:
            parent = _values(parent_runs, workload, 1, name)
            change = _values(change_runs, workload, 1, name)
            if parent and change:
                p_median = statistics.median(parent)
                c_median = statistics.median(change)
                rows.append((c_median - p_median, name, p_median, c_median))
        if not rows:
            continue
        rows.sort(key=lambda row: -abs(row[0]))
        print("%s per-layer self time (s per pass), largest move first:"
              % workload)
        for delta, name, p_median, c_median in rows:
            print("  %-20s %10.5f -> %10.5f  %+10.5f" % (
                name, p_median, c_median, delta))
        print("  moved most: %s (%+.5f s per pass)" % (rows[0][1], rows[0][0]))
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        if args.child:
            suite.check_checkout()
            return child_main(args)
        if args.compare:
            for path in args.compare:
                if not os.path.isfile(path):
                    raise suite.SuiteError("no run file %s" % path)
            verdicts = compare(
                load_runs(args.compare[0]), load_runs(args.compare[1]),
                suite.load_benchmark(),
            )
            return 1 if "regressed" in verdicts.values() else 0
        return run_main(args)
    except suite.SuiteError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
