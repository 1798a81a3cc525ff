"""Paths, configuration and statistics shared by the benchmark's processes.

Importing this module touches no file: the JSON definitions are read by
the functions below, and ``repro`` is imported only by :func:`import_repro`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_DIR = os.path.join(HERE, "workloads")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


class SuiteError(Exception):
    """The checkout cannot run the benchmark (missing source, bad config)."""


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def load_benchmark() -> dict:
    """The root ``BENCHMARK.json``: workloads, metrics, bounds, run length."""
    return load_json(BENCHMARK_JSON)


def load_suite() -> dict:
    """``workloads/suite.json``: workload configs and the per-layer map."""
    return load_json(os.path.join(WORKLOAD_DIR, "suite.json"))


def load_expected() -> dict:
    """Hand-checked proved-optimal cycle counts: target -> program -> GMA."""
    return load_json(os.path.join(WORKLOAD_DIR, "expected.json"))


def read_workload_source(name: str) -> str:
    with open(os.path.join(WORKLOAD_DIR, name + ".dn")) as handle:
        return handle.read()


def check_checkout() -> None:
    """Refuse to run without the checkout's own ``src/repro`` package."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SuiteError(
            "no repro package under %s: run from a full checkout" % SRC
        )


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    check_checkout()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    location = os.path.abspath(repro.__file__)
    if not location.startswith(SRC + os.sep):
        raise SuiteError("repro was imported from %s, not %s" % (location, SRC))
    return repro


# -- statistics -----------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated between samples."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value: float, samples: Sequence[float] = (), n: int = 0) -> Dict:
    """One measured value with its sample count and interquartile range.

    ``n`` overrides the count when the value rests on more measurements
    than ``samples`` lists.  Units live in ``BENCHMARK.json``; the
    reporting process adds them.
    """
    record = {"value": value, "n": n or max(1, len(samples)), "iqr": 0.0}
    if len(samples) >= 2:
        q1, _median, q3 = quartiles(samples)
        record["iqr"] = q3 - q1
    return record
