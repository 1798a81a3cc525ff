"""``repro`` imports nothing outside itself and the standard library.

A fresh interpreter installs a ``sys.meta_path`` finder that records
every top-level module name requested (and which module asked), then
imports the package's public entry points.  Recording *requests*, not
successful imports, catches an optional ``try: import numpy`` even on a
machine where numpy is absent.
"""

import importlib.util
import json
import os
import subprocess
import sys
import sysconfig

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

_RECORDER = r"""
import json
import sys


def _requester():
    frame = sys._getframe(2)
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if not name.startswith(("importlib", "_frozen_importlib")):
            return name.partition(".")[0]
        frame = frame.f_back
    return ""


class _Recorder:
    requests = {}

    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        top = fullname.partition(".")[0]
        cls.requests.setdefault(top, set()).add(_requester())
        return None


sys.meta_path.insert(0, _Recorder)
import repro, repro.cli, repro.service, repro.fabric  # noqa: E401,F401
sys.meta_path.remove(_Recorder)
print(json.dumps({k: sorted(v) for k, v in _Recorder.requests.items()}))
"""


def _under(path, roots):
    return any(
        path == root or path.startswith(root + os.sep) for root in roots
    )


def stdlib_by_origin(name):
    """Classify a top-level module by where it would load from.

    True for built-in and frozen modules and for files under the
    interpreter's stdlib paths but outside its site-packages; False for
    anything else; None when no finder locates the name.
    """
    spec = importlib.util.find_spec(name)
    if spec is None:
        return None
    if spec.origin in ("built-in", "frozen"):
        return True
    locations = list(spec.submodule_search_locations or ())
    origin = spec.origin or (locations[0] if locations else None)
    if origin is None:
        return False
    paths = sysconfig.get_paths()
    real = os.path.realpath(origin)
    stdlib = {os.path.realpath(paths[k]) for k in ("stdlib", "platstdlib")}
    site = {os.path.realpath(paths[k]) for k in ("purelib", "platlib")}
    return _under(real, stdlib) and not _under(real, site)


def is_stdlib(name, fallback=False):
    """Whether ``name`` is part of the standard library.

    Uses ``sys.stdlib_module_names`` (Python 3.10+) unless ``fallback``
    is set or it is missing; the fallback classifies by origin and
    answers None for a name no finder locates.
    """
    names = getattr(sys, "stdlib_module_names", None)
    if names is not None and not fallback:
        return name in names
    return stdlib_by_origin(name)


def is_allowed(name, requesters, fallback=False):
    """Whether a request for ``name`` keeps ``repro`` stdlib-only.

    Besides ``repro`` and the stdlib, a name no finder locates passes
    when only stdlib modules asked for it: the stdlib's own optional
    probes (``copy`` and ``pickle`` ask for Jython's ``org``; on posix,
    ``subprocess`` asks for ``msvcrt``).
    """
    if name == "repro" or is_stdlib(name, fallback):
        return True
    return importlib.util.find_spec(name) is None and all(
        is_stdlib(r, fallback) for r in requesters
    )


@pytest.fixture(scope="module")
def requests():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", _RECORDER],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout)


def test_imports_only_repro_and_stdlib(requests):
    assert "repro" in requests
    foreign = {
        name: requesters
        for name, requesters in requests.items()
        if not is_allowed(name, requesters)
    }
    assert foreign == {}


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"),
    reason="needs sys.stdlib_module_names to check the fallback against",
)
def test_origin_fallback_agrees_with_stdlib_names(requests):
    # The origin-based classifier is what Python 3.9 uses; check it
    # against the interpreter's own list wherever that list exists.
    for name, requesters in requests.items():
        if importlib.util.find_spec(name) is not None:
            assert is_stdlib(name, fallback=True) == is_stdlib(name), name
        assert is_allowed(name, requesters, fallback=True) == is_allowed(
            name, requesters
        ), name
