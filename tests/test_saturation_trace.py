"""The matcher's work on the benchmark programs, against a golden file.

For every GMA of the benchmark's programs (five on ev6, four on rv64),
saturation runs with the benchmark's budgets on a fresh graph, and the
run's counters — rounds, matches found/attempted/pruned, instances,
clauses, enodes, classes — the graph's ``version`` and ``merges``, and
a digest of every node the graph ever held, in creation order, must
equal ``tests/golden/saturation_trace.json``.  The schedule golden
(``test_golden_schedules.py``) pins the bytes a compile emits; this one
pins the mutation sequence that produced them, so a matcher change that
claims to do the same work more cheaply is held to doing the same work.

Regenerate the file (only for a change that is meant to alter what the
matcher asserts) with
``PYTHONPATH=src python tests/test_saturation_trace.py --write``.
"""

import hashlib
import json
import os
import sys

from repro.axioms import AxiomSet
from repro.core import cache as _cache
from repro.core.pipeline import Denali, DenaliConfig
from repro.egraph import EGraph
from repro.isa.targets import get_target
from repro.lang import parse_program, translate_procedure
from repro.matching import SaturationConfig, saturate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfsuite", "workloads")
GOLDEN = os.path.join(ROOT, "tests", "golden", "saturation_trace.json")
SUITES = (
    ("ev6", ("fig2", "byteswap3", "byteswap4", "checksum", "mulchain")),
    ("rv64", ("fig2", "byteswap3", "checksum", "mulchain")),
)


def _node_digest(eg):
    """A digest of the node table: every node's key, in creation order."""
    digest = hashlib.sha256()
    for node in eg.flat_view().node_key:
        digest.update(repr(tuple(node)).encode())
    return digest.hexdigest()[:16]


def _trace(target, program):
    """``{key: counters}`` for every GMA of one benchmark program."""
    with open(os.path.join(WORKLOADS, program + ".dn")) as handle:
        parsed = parse_program(handle.read())
    axioms = _cache.global_axiom_cache().default_corpus(
        parsed.registry, target
    ) + AxiomSet(parsed.axioms, "program")
    # Denali derives the target's saturation switches from its spec.
    den = Denali(
        get_target(target).spec(load_latency=3),
        axioms=axioms,
        registry=parsed.registry,
        config=DenaliConfig(
            target=target,
            saturation=SaturationConfig(max_rounds=12, max_enodes=4000),
        ),
    )
    out = {}
    for proc in parsed.procedures:
        for label, gma in translate_procedure(proc, parsed.registry):
            eg = EGraph()
            for term in gma.goal_terms():
                eg.add_term(term)
            stats = saturate(
                eg, den.axioms, den.registry, den.config.saturation
            )
            out["%s/%s/%s" % (target, program, label)] = {
                "rounds": stats.rounds,
                "matches_found": stats.matches_found,
                "matches_attempted": stats.matches_attempted,
                "matches_pruned": stats.matches_pruned,
                "instances": stats.instances_asserted,
                "clauses": stats.clauses_recorded,
                "enodes": stats.enodes,
                "classes": stats.classes,
                "version": eg.version,
                "merges": eg.merges,
                "nodes": _node_digest(eg),
            }
    return out


def _trace_suites():
    out = {}
    for target, programs in SUITES:
        for program in programs:
            out.update(_trace(target, program))
    return out


def test_saturation_matches_the_golden_trace():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    traced = _trace_suites()
    assert sorted(traced) == sorted(golden)
    for key, record in sorted(golden.items()):
        assert traced[key] == record, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_saturation_trace.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(_trace_suites(), handle, indent=1, sort_keys=True)
        handle.write("\n")
