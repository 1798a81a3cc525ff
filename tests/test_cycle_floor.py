"""The encoder's proved cycle floor and the floor-anchored probe ladder.

The floor (:func:`repro.encode.constraints.cycle_floor`) claims that no
budget below it has a schedule.  These tests hold it to that claim on
every GMA of the regression corpus, the benchmark programs on both real
targets and a fixed slice of generated programs: the floor never exceeds
the proved optimum, and a from-scratch encode-and-solve one cycle below
it is UNSAT.  They also pin the gallop order and probe-count bound of
:class:`~repro.core.probes.BinaryScheduler`.
"""

import glob
import math
import os

import pytest

from repro.axioms import AxiomSet
from repro.core import cache as _cache
from repro.core.pipeline import Denali, DenaliConfig
from repro.core.probes import BinaryScheduler, Probe, SearchStrategy
from repro.encode.constraints import (
    EncodeError,
    cycle_floor,
    encode_schedule,
)
from repro.fuzz.generator import generate_case
from repro.isa.targets import get_target
from repro.lang import parse_program, translate_procedure
from repro.matching import SaturationConfig
from repro.sat.solver import CdclSolver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "tests", "corpus", "*.dn")))
WORKLOADS = os.path.join(ROOT, "perfsuite", "workloads")
# The benchmark programs each target compiles (rv64 byteswap4 is left
# out: its canonical decode at the optimum takes minutes).
PROGRAMS = {
    "ev6": ("fig2", "byteswap3", "byteswap4", "checksum", "mulchain"),
    "rv64": ("fig2", "byteswap3", "checksum", "mulchain"),
}
GENERATED = range(40, 100)


def _read(path):
    with open(path) as handle:
        return handle.read()


def _compile_all(source, target="ev6", **overrides):
    """(gma, result, denali) for every GMA of ``source``."""
    program = parse_program(source)
    axioms = _cache.global_axiom_cache().default_corpus(
        program.registry, target
    ) + AxiomSet(program.axioms, "program")
    config = DenaliConfig(
        target=target,
        min_cycles=1,
        max_cycles=16,
        verify=False,
        saturation=SaturationConfig(max_rounds=12, max_enodes=4000),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    den = Denali(
        get_target(target).spec(), axioms=axioms, registry=program.registry,
        config=config,
    )
    out = []
    for proc in program.procedures:
        for label, gma in translate_procedure(proc, program.registry):
            out.append((gma, den.compile_gma(gma, label=label), den))
    return out


def _assert_floor_is_proved(gma, result, den):
    floor = result.stats.cycle_floor
    assert floor is not None
    assert result.schedule is not None
    assert floor <= result.cycles
    # The ladder starts at the floor: no probe below it.
    assert min(p.cycles for p in result.search.probes) >= floor
    assert result.optimal
    expected_by = "floor" if result.cycles == floor else "unsat"
    assert result.stats.optimal_by == expected_by
    if floor == 1:
        return  # a zero-cycle budget is vacuous
    eg = result.egraph
    encoding = encode_schedule(
        eg, den.spec, result.goal_classes, floor - 1,
        unsafe_terms=den._unsafe_terms(eg, gma, result.goal_classes),
        latency_overrides=den._latency_overrides(eg, gma),
    )
    assert CdclSolver().solve(encoding.cnf).satisfiable is False


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_floor_sound_on_corpus(path):
    for gma, result, den in _compile_all(_read(path)):
        _assert_floor_is_proved(gma, result, den)


@pytest.mark.parametrize(
    "target,program",
    [(t, p) for t, programs in sorted(PROGRAMS.items()) for p in programs],
)
def test_floor_sound_on_benchmark_programs(target, program):
    source = _read(os.path.join(WORKLOADS, program + ".dn"))
    for gma, result, den in _compile_all(source, target):
        _assert_floor_is_proved(gma, result, den)


def test_floor_sound_on_generated_programs():
    gmas = at_floor = 0
    for index in GENERATED:
        for gma, result, den in _compile_all(generate_case(index).source):
            _assert_floor_is_proved(gma, result, den)
            gmas += 1
            at_floor += result.cycles == result.stats.cycle_floor
    # The floor is the optimum on most generated GMAs: that is the gain.
    assert at_floor >= 0.8 * gmas


def test_ldiq_self_argument_does_not_raise_the_floor():
    # Fuzz case 81's tail: the ldiq materialising -(8^63) hangs off the
    # constant's own class.  A critical path that followed ldiq's
    # argument would claim 2 cycles; the floor must not, since the one
    # instruction schedule exists.
    source = r"""
    (\procdecl f ((a long)) long (:= (\res (+ (- (^ 8 63)) 15))))
    """
    [(gma, result, den)] = _compile_all(source)
    assert result.cycles == 1
    assert result.stats.cycle_floor == 1
    assert result.stats.optimal_by == "floor"
    assert [p.cycles for p in result.search.probes] == [1]


GUARDED = r"""
(\procdecl g ((p (\ref long)) (n long)) long
  (\semi
    (\do (-> (< 0 n) (:= (n (- n (\deref p))))))
    (:= (\res n))))
"""

MISS = r"""
(\procdecl f ((p (\ref long))) long
  (:= (\res (+ (\miss (\deref p)) 1))))
"""


def _floors(source, **kwargs):
    """cycle_floor per GMA with and without the GMA's extra constraints."""
    out = []
    for gma, result, den in _compile_all(source, **kwargs):
        eg, goals = result.egraph, result.goal_classes
        unsafe = den._unsafe_terms(eg, gma, goals)
        overrides = den._latency_overrides(eg, gma)
        out.append(
            (
                cycle_floor(eg, den.spec, goals),
                cycle_floor(
                    eg, den.spec, goals, unsafe_terms=unsafe,
                    latency_overrides=overrides,
                ),
                unsafe,
                overrides,
                result,
            )
        )
    return out


def test_guard_dependencies_only_raise_the_floor():
    floors = _floors(GUARDED)
    assert any(unsafe for _b, _c, unsafe, _o, _r in floors)
    for bare, constrained, _u, _o, result in floors:
        assert bare <= constrained <= result.cycles
        assert result.stats.cycle_floor == constrained


def test_latency_overrides_only_raise_the_floor():
    [(bare, constrained, _u, overrides, result)] = _floors(
        MISS, miss_latency=9
    )
    assert overrides
    assert bare < constrained
    # ldq at the annotated miss latency, then the add.
    assert constrained == result.cycles == 10


def test_floor_above_window_answers_without_probing():
    # The default miss latency (12) puts the floor at 13, above the
    # window: "no schedule", proved without a single probe.
    [(_gma, result, _den)] = _compile_all(MISS, max_cycles=12)
    assert result.schedule is None
    assert result.search.probes == []
    assert result.stats.cycle_floor == 13
    assert result.search.proved_floor == 12


def test_unproved_min_cycles_never_claims_optimality():
    # fig2's optimum is 1 cycle: starting the window at 3 finds a
    # schedule, but nothing proves 2 cycles impossible.
    source = _read(os.path.join(WORKLOADS, "fig2.dn"))
    [(_gma, result, _den)] = _compile_all(source, min_cycles=3)
    assert result.cycles == 3
    assert not result.optimal
    assert result.stats.optimal_by is None
    assert "(optimal)" not in result.summary()


@pytest.mark.parametrize("strategy", list(SearchStrategy))
def test_every_strategy_starts_at_the_floor(strategy):
    source = _read(os.path.join(WORKLOADS, "fig2.dn"))
    [(_gma, result, _den)] = _compile_all(source, strategy=strategy)
    assert result.cycles == result.stats.cycle_floor == 1
    assert result.optimal
    assert all(p.cycles >= 1 for p in result.search.probes)


def test_uncomputable_goal_still_raises():
    from repro.egraph.egraph import EGraph
    from repro.terms.term import inp, mk

    # Unsaturated, ``pow`` has no machine realisation: no finite floor.
    eg = EGraph()
    goal = eg.add_term(mk("pow", inp("a"), inp("b")))
    with pytest.raises(EncodeError):
        cycle_floor(eg, get_target("ev6").spec(), [goal])


# -- the gallop ------------------------------------------------------------------


def _oracle(threshold, record, unknown_at=()):
    def probe(k):
        record.append(k)
        if k in unknown_at:
            return None, None, Probe(cycles=k, satisfiable=None)
        sat = k >= threshold
        return sat, ("model", k) if sat else None, Probe(cycles=k, satisfiable=sat)

    return probe


class TestGallop:
    def test_probes_the_floor_first(self):
        calls = []
        out = BinaryScheduler().search(_oracle(4, calls), 1, 16, floor=4)
        assert calls == [4]
        assert out.best_cycles == 4
        assert out.optimal and out.optimal_by == "floor"
        assert out.proved_floor == 3

    def test_gallop_order_then_bisect(self):
        calls = []
        out = BinaryScheduler().search(_oracle(12, calls), 1, 32, floor=3)
        # 3, 4, 5, 7, 11 refuted, 19 SAT; bisect (11, 19).
        assert calls[:6] == [3, 4, 5, 7, 11, 19]
        assert calls[6:] == [15, 13, 12]
        assert out.best_cycles == 12
        assert out.optimal and out.optimal_by == "unsat"

    def test_gallop_caps_at_hi(self):
        calls = []
        out = BinaryScheduler().search(_oracle(100, calls), 1, 10, floor=2)
        assert calls == [2, 3, 4, 6, 10]
        assert out.best_cycles is None
        assert out.proved_floor == 10

    def test_floor_above_hi_probes_nothing(self):
        calls = []
        out = BinaryScheduler().search(_oracle(1, calls), 1, 8, floor=9)
        assert calls == []
        assert out.best_cycles is None
        assert out.proved_floor == 8

    def test_min_cycles_above_floor_is_not_a_proof(self):
        calls = []
        out = BinaryScheduler().search(_oracle(1, calls), 3, 8, floor=1)
        assert calls == [3]
        assert out.best_cycles == 3
        assert out.proved_floor == 0
        assert not out.optimal and out.optimal_by is None

    def test_never_probes_a_budget_twice(self):
        for threshold in range(1, 40):
            for unknown in ({threshold - 1}, {threshold + 1}, set()):
                calls = []
                BinaryScheduler().search(
                    _oracle(threshold, calls, unknown), 1, 40, floor=1
                )
                assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("floor", [1, 2, 5])
    def test_probe_count_bound(self, floor):
        # Logarithmic in the optimum's distance d from the floor: at most
        # 2 + log2(d) gallop probes past the floor plus a bisection of
        # the last gap (under d / 2 budgets wide).
        for threshold in range(floor, 65):
            calls = []
            out = BinaryScheduler().search(
                _oracle(threshold, calls), 1, 64, floor=floor
            )
            assert out.best_cycles == threshold and out.optimal
            d = threshold - floor
            bound = 1 if d == 0 else 2 + 2 * math.ceil(math.log2(d + 1))
            assert len(calls) <= bound, (threshold, calls)
