"""Shared fixtures for the service, fabric, stochastic and target benches.

Each ``bench_*.py`` module here measures one extension (see
EXPERIMENTS.md) and gates on what it checks; run one with
``pytest benchmarks/bench_service.py -q -s -o addopts=""`` to see its
table inline.  Generated telemetry (``bench_service.json``, ...) lands
in the git-ignored ``benchmarks/out/`` directory.  The paper's own
claims are tests: ``tests/test_paper_claims.py``.
"""

from __future__ import annotations

import os

import pytest


def output_dir() -> str:
    """``benchmarks/out/``, created on demand (git-ignored)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture
def report(capsys):
    """Print a table unconditionally (benchmarks run with -s or teed)."""

    def _print(title: str, body: str) -> None:
        with capsys.disabled():
            print()
            print("### %s" % title)
            print(body)

    return _print
