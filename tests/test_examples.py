"""Smoke tests: the fast example scripts run to completion.

(The byteswap and checksum examples take longer; their kernels are
claims E1 and E5 in ``test_paper_claims.py``.)
"""

import os
import runpy
import sys

import pytest

pytestmark = pytest.mark.slow

_EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def _run(name):
    path = os.path.join(_EXAMPLES, name)
    argv = sys.argv
    sys.argv = [path]
    try:
        runpy.run_path(path, run_name="__main__")
    finally:
        sys.argv = argv


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "fig2_walkthrough.py",
        "software_pipelining.py",
        "whole_procedure.py",
    ],
)
def test_example_runs(script, capsys):
    _run(script)
    out = capsys.readouterr().out
    assert out.strip()  # produced output and did not crash
