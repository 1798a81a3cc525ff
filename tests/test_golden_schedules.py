"""Byte-identity of the benchmark programs' schedules against a golden file.

Every benchmark program compiles, with the benchmark's own compile
configuration, to exactly the assembly recorded in
``tests/golden/perfsuite_schedules.json``, with the same ``optimal_by``
verdicts (the ladder's, and exact extraction's where it runs).  An
encoder or solver change that claims to leave the canonical model alone
is held to that claim here.

The file also pins the search that found each schedule: every probe's
``[cycles, satisfiable, conflicts, propagations, learned,
learned_reused]`` and, under exact extraction, the refinement's
``solves``.  A change that claims "same search", not only "same bytes"
(a solver refactor, say), must leave these counters alone too.

Regenerate the file (only for a change that is meant to move bytes or
the search) with
``PYTHONPATH=src python tests/test_golden_schedules.py --write``.
"""

import json
import os
import sys

from repro.axioms import AxiomSet
from repro.core import cache as _cache
from repro.core.pipeline import Denali, DenaliConfig
from repro.core.probes import SearchStrategy
from repro.isa.targets import get_target
from repro.lang import parse_program, translate_procedure
from repro.matching import SaturationConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "perfsuite", "workloads")
GOLDEN = os.path.join(ROOT, "tests", "golden", "perfsuite_schedules.json")
# (target, extraction, programs): the benchmark's three compile suites.
# rv64 byteswap4 is not among them (its canonical decode takes minutes).
SUITES = (
    ("ev6", "greedy", ("fig2", "byteswap3", "byteswap4", "checksum", "mulchain")),
    ("ev6", "exact", ("fig2", "byteswap3", "byteswap4", "checksum", "mulchain")),
    ("rv64", "greedy", ("fig2", "byteswap3", "checksum", "mulchain")),
)


def _compile(target, extraction, program):
    """``{key: record}`` for every GMA of one benchmark program."""
    with open(os.path.join(WORKLOADS, program + ".dn")) as handle:
        parsed = parse_program(handle.read())
    axioms = _cache.global_axiom_cache().default_corpus(
        parsed.registry, target
    ) + AxiomSet(parsed.axioms, "program")
    config = DenaliConfig(
        target=target,
        min_cycles=1,
        max_cycles=16,
        strategy=SearchStrategy.BINARY,
        verify=True,
        verify_trials=16,
        backend="sat",
        extraction=extraction,
        seed=0,
        saturation=SaturationConfig(max_rounds=12, max_enodes=4000),
    )
    den = Denali(
        get_target(target).spec(load_latency=3),
        axioms=axioms,
        registry=parsed.registry,
        config=config,
    )
    out = {}
    for proc in parsed.procedures:
        for label, gma in translate_procedure(proc, parsed.registry):
            result = den.compile_gma(gma, label=label)
            assert result.verified is True, (target, program, label)
            record = {
                "asm": result.schedule.render(
                    label=label.replace(".", "_")
                ).splitlines(),
                "optimal_by": result.stats.optimal_by,
                "probes": [
                    [
                        probe.cycles,
                        probe.satisfiable,
                        probe.conflicts,
                        probe.propagations,
                        probe.learned,
                        probe.learned_reused,
                    ]
                    for probe in result.stats.probes
                ],
            }
            if extraction == "exact":
                record["extraction_optimal_by"] = (
                    result.stats.extraction["optimal_by"]
                )
                record["extraction_solves"] = result.stats.extraction["solves"]
            out["%s/%s/%s/%s" % (target, extraction, program, label)] = record
    return out


def _compile_suites():
    out = {}
    for target, extraction, programs in SUITES:
        for program in programs:
            out.update(_compile(target, extraction, program))
    return out


def test_schedules_match_the_golden_file():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    compiled = _compile_suites()
    assert sorted(compiled) == sorted(golden)
    for key, record in sorted(golden.items()):
        assert compiled[key] == record, key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_schedules.py --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(_compile_suites(), handle, indent=1, sort_keys=True)
        handle.write("\n")
