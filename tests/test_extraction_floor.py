"""The exact refinement's selection-relaxation floor.

:func:`~repro.extraction.refine.refine_exact` stops its downward cost
ladder at a floor: the optimum of the DAG selection over its own
candidate terms with the cycle budget dropped.  These tests keep that
floor honest:

* a differential rig compiles the regression corpus and the benchmark
  programs (ev6 and rv64) in exact mode twice — once as shipped and
  once with the relaxation forced to report "not proved", which leaves
  only the ``dag`` class bound — and asserts byte-identical assembly
  and equal cost, with the floor never above the refined cost;
* pins of the effect: byteswap4 on ev6 is proved by the floor after one
  scheduling solve, while checksum's tail, where the relaxation stops
  one short of the optimum, still proves by an UNSAT answer after its
  dominance pruning is relaxed once;
* the encoder's earliest-completion analysis, which decides the
  relaxation's candidates, never exceeds a real schedule's timing.
"""

import glob
import os

import pytest

import repro.extraction.refine as refine
from repro.axioms import AxiomSet
from repro.core import cache as _cache
from repro.core.pipeline import Denali, DenaliConfig
from repro.encode.constraints import IncrementalEncoder
from repro.extraction import Selection
from repro.isa.targets import get_target
from repro.lang import parse_program, translate_procedure
from repro.matching import SaturationConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.dn")))
WORKLOADS = os.path.join(ROOT, "perfsuite", "workloads")
# The benchmark programs each target compiles (rv64 byteswap4 is left
# out: its canonical decode at the optimum takes minutes).
PROGRAMS = {
    "ev6": ("fig2", "byteswap3", "byteswap4", "checksum", "mulchain"),
    "rv64": ("fig2", "byteswap3", "checksum", "mulchain"),
}


def _read(path):
    with open(path) as handle:
        return handle.read()


def _program(name):
    return _read(os.path.join(WORKLOADS, name + ".dn"))


def _denali(program, target, extraction):
    axioms = _cache.global_axiom_cache().default_corpus(
        program.registry, target
    ) + AxiomSet(program.axioms, "program")
    config = DenaliConfig(
        target=target,
        min_cycles=1,
        max_cycles=16,
        verify=False,
        extraction=extraction,
        saturation=SaturationConfig(max_rounds=12, max_enodes=4000),
    )
    return Denali(
        get_target(target).spec(), axioms=axioms, registry=program.registry,
        config=config,
    )


def _compile_exact(source, target="ev6"):
    """``{label: (assembly, extraction record)}`` for every GMA."""
    program = parse_program(source)
    den = _denali(program, target, "exact")
    out = {}
    for proc in program.procedures:
        for label, gma in translate_procedure(proc, program.registry):
            result = den.compile_gma(gma, label=label)
            asm = result.schedule.render(label=label) if result.schedule else None
            out[label] = (asm, result.stats.extraction)
    return out


def _assert_relaxation_changes_nothing(source, target, monkeypatch):
    relaxed = _compile_exact(source, target)
    # Force the dag-floor ladder: the relaxation never proves its optimum.
    monkeypatch.setattr(
        refine, "exact_select", lambda *a, **k: Selection(cost=None)
    )
    forced = _compile_exact(source, target)
    assert relaxed.keys() == forced.keys()
    for label, (asm, record) in relaxed.items():
        forced_asm, forced_record = forced[label]
        assert asm == forced_asm, label
        if record is None or record.get("cost") is None:
            continue
        assert record["cost"] == forced_record["cost"], label
        assert forced_record["floor_by"] == "dag", label
        assert record["floor"] <= record["exact_cost"], label
        assert forced_record["floor"] <= record["floor"], label
        # The relaxation only ever removes scheduling solves.
        assert record["solves"] <= forced_record["solves"], label


@pytest.mark.parametrize("path", CORPUS, ids=os.path.basename)
def test_relaxation_changes_nothing_on_corpus(path, monkeypatch):
    _assert_relaxation_changes_nothing(_read(path), "ev6", monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize(
    "target,program",
    [(t, p) for t, programs in PROGRAMS.items() for p in programs],
)
def test_relaxation_changes_nothing_on_benchmark_programs(
    target, program, monkeypatch
):
    _assert_relaxation_changes_nothing(_program(program), target, monkeypatch)


def test_byteswap4_is_proved_by_the_floor():
    (asm, record), = _compile_exact(_program("byteswap4")).values()
    assert "extbl" in asm
    assert record["greedy_cost"] == 11 and record["exact_cost"] == 10
    assert record["floor_by"] == "selection"
    assert record["floor"] == 10
    # One SAT answer at the floor, no UNSAT solve, no relaxation.
    assert record["solves"] == 1
    assert record["relaxations"] == 0
    assert record["optimal_by"] == "floor"
    assert record["proved"]


def test_checksum_tail_still_proves_by_unsat():
    records = {
        label: record
        for label, (_asm, record) in _compile_exact(
            _program("checksum")
        ).items()
    }
    tail = records["checksum.tail"]
    assert tail["floor_by"] == "selection"
    assert tail["floor"] < tail["exact_cost"]
    assert tail["optimal_by"] == "unsat"
    # The refinement's dominance pruning is the one pruning path: here
    # it gates candidates off, and the UNSAT answer under it is relaxed
    # once before the optimum is claimed.
    assert tail["pruned"] > 0
    assert tail["relaxations"] == 1
    loop = records["checksum.loop0"]
    # The loop body's greedy schedule already sits on the floor: no
    # scheduling solve at all.
    assert loop["optimal_by"] == "floor"
    assert loop["solves"] == 0


def test_immediate_constant_floor_is_admissible():
    """A wide-constant goal is one ldiq.  Its constant sits in the ldiq's
    own class; read as an operand that self-loop would push the floor
    above the one-instruction answer."""
    source = r"""
(\procdecl wide ((a long)) long
  (:= (\res (+ (- (^ 8 63)) 15))))
"""
    (asm, record), = _compile_exact(source).values()
    assert "ldiq" in asm
    assert record["exact_cost"] == 1
    assert record["floor"] == 1
    assert record["optimal_by"] == "floor"


@pytest.mark.parametrize(
    "source",
    [_read(p) for p in CORPUS] + [_program(p) for p in PROGRAMS["ev6"]],
    ids=[os.path.basename(p) for p in CORPUS] + list(PROGRAMS["ev6"]),
)
def test_earliest_finish_bounds_every_scheduled_instruction(source):
    program = parse_program(source)
    den = _denali(program, "ev6", "greedy")
    for proc in program.procedures:
        for label, gma in translate_procedure(proc, program.registry):
            result = den.compile_gma(gma, label=label)
            if result.schedule is None:
                continue
            eg, goals = result.egraph, result.goal_classes
            encoder = IncrementalEncoder(
                eg, den.spec, goals,
                unsafe_terms=den._unsafe_terms(eg, gma, goals),
                latency_overrides=den._latency_overrides(eg, gma),
            )
            for instr in result.schedule.instructions:
                done = instr.cycle + encoder.latency(instr.node) - 1
                assert encoder.earliest_finish[instr.node] <= done, label
                assert done <= result.cycles - 1, label
