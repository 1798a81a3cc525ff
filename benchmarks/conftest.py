"""Shared fixtures and helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index).  Benchmarks print a
paper-vs-measured table; run with ``pytest benchmarks/ --benchmark-only -s``
to see the tables inline, or read ``bench_output.txt``.  Generated
telemetry (``bench_service.json``, ...) lands in the git-ignored
``benchmarks/out/`` directory.
"""

from __future__ import annotations

import os

import pytest

from repro import DenaliConfig, SearchStrategy, const, inp, mk
from repro.matching import SaturationConfig


def output_dir() -> str:
    """``benchmarks/out/``, created on demand (git-ignored)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


def byteswap_goal(n: int):
    """r<i> := a<n-1-i>, the Figure 3 byte swap as a term."""
    a = inp("a")
    r = const(0)
    for i in range(n):
        r = mk("storeb", r, const(i), mk("selectb", a, const(n - 1 - i)))
    return r


def default_config(max_cycles: int = 8, **kwargs) -> DenaliConfig:
    defaults = dict(
        min_cycles=2,
        max_cycles=max_cycles,
        strategy=SearchStrategy.LINEAR,
        saturation=SaturationConfig(max_rounds=16, max_enodes=6000),
    )
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


@pytest.fixture
def report(capsys):
    """Print a table unconditionally (benchmarks run with -s or teed)."""

    def _print(title: str, body: str) -> None:
        with capsys.disabled():
            print()
            print("### %s" % title)
            print(body)

    return _print
