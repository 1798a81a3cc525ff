"""Integration tests: the full Denali pipeline on small problems.

These are the paper's flow (Figure 1) end to end, checked three ways every
time: the SAT search's claimed cycle count, the timing simulator, and the
differential checker against the GMA's reference semantics.
"""

import pytest

from repro import (
    Denali,
    DenaliConfig,
    GMA,
    SearchStrategy,
    const,
    ev6,
    inp,
    mk,
)
from repro.matching import SaturationConfig
from repro.sim import simulate_timing
from repro.terms import Sort
from tests.machines import simple_risc


def _config(**kwargs):
    defaults = dict(
        min_cycles=1,
        max_cycles=8,
        strategy=SearchStrategy.BINARY,
        saturation=SaturationConfig(max_rounds=10, max_enodes=2000),
    )
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


class TestFigure2:
    """reg6*4+1: the paper's matching walkthrough, compiled."""

    def test_single_instruction_on_simple_risc(self):
        den = Denali(simple_risc(), config=_config())
        res = den.compile_term(
            mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        )
        assert res.cycles == 1
        assert res.optimal
        assert res.verified
        assert res.schedule.instructions[0].mnemonic == "s4addq"

    def test_single_instruction_on_ev6(self):
        den = Denali(ev6(), config=_config())
        res = den.compile_term(
            mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        )
        assert res.cycles == 1
        assert res.schedule.instruction_count() == 1

    def test_without_axioms_needs_multiply(self):
        from repro.axioms import AxiomSet

        den = Denali(simple_risc(), axioms=AxiomSet(), config=_config(max_cycles=10))
        res = den.compile_term(
            mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        )
        # mulq latency 7 + add: 8 cycles; the axioms are worth 7 cycles.
        assert res.cycles == 8
        assert res.verified


class TestDoubling:
    def test_times_two_is_add(self):
        den = Denali(simple_risc(), config=_config())
        res = den.compile_term(mk("mul64", inp("a"), const(2)))
        assert res.cycles == 1
        assert res.verified
        assert res.schedule.instructions[0].mnemonic in ("addq", "sll", "s4addq")

    def test_times_sixteen_is_shift(self):
        den = Denali(simple_risc(), config=_config())
        res = den.compile_term(mk("mul64", inp("a"), const(16)))
        assert res.cycles == 1
        assert res.schedule.instructions[0].mnemonic == "sll"


class TestMultiGoal:
    def test_two_targets(self):
        den = Denali(ev6(), config=_config())
        gma = GMA(
            ("x", "y"),
            (
                mk("add64", inp("a"), inp("b")),
                mk("sub64", inp("a"), inp("b")),
            ),
        )
        res = den.compile_gma(gma)
        assert res.cycles == 1  # quad issue: both in one cycle
        assert res.verified

    def test_register_swap_is_free(self):
        """(a, b) := (b, a): the values already exist; no instructions."""
        den = Denali(ev6(), config=_config())
        res = den.compile_gma(GMA(("a", "b"), (inp("b"), inp("a"))))
        assert res.cycles == 1
        assert res.schedule.instruction_count() == 0
        assert [op.register for op in res.schedule.goal_operands] == [
            "$17",
            "$16",
        ]

    def test_shared_subexpression_computed_once(self):
        den = Denali(simple_risc(), config=_config())
        shared = mk("add64", inp("a"), inp("b"))
        gma = GMA(
            ("x", "y"),
            (mk("sll", shared, const(1)), mk("srl", shared, const(1))),
        )
        res = den.compile_gma(gma)
        assert res.verified
        adds = [
            i for i in res.schedule.instructions if i.mnemonic == "addq"
        ]
        assert len(adds) == 1  # optimal CSE (section 1.1's promise)


class TestGuarded:
    def test_guard_is_computed(self):
        den = Denali(ev6(), config=_config())
        gma = GMA(
            ("s",),
            (mk("add64", inp("s"), inp("v")),),
            guard=mk("cmpult", inp("p"), inp("r")),
        )
        res = den.compile_gma(gma)
        assert res.verified
        assert any(
            i.mnemonic == "cmpult" for i in res.schedule.instructions
        )

    def test_guarded_memory_read_waits(self):
        den = Denali(ev6(), config=_config(max_cycles=10))
        gma = GMA(
            ("s",),
            (mk("select", inp("M", Sort.MEM), inp("p")),),
            guard=mk("cmpult", inp("p"), inp("r")),
        )
        res = den.compile_gma(gma)
        assert res.verified
        guard_instr = next(
            i for i in res.schedule.instructions if i.mnemonic == "cmpult"
        )
        load = next(i for i in res.schedule.instructions if i.mnemonic == "ldq")
        assert guard_instr.cycle < load.cycle


class TestMemory:
    def test_store_roundtrip(self):
        den = Denali(ev6(), config=_config())
        m = inp("M", Sort.MEM)
        gma = GMA(
            ("M",),
            (mk("store", m, inp("p"), mk("add64", inp("x"), const(1))),),
        )
        res = den.compile_gma(gma)
        assert res.verified

    def test_copy_element(self):
        """M[p] := M[q] — the heart of the section 3 copy loop."""
        den = Denali(ev6(), config=_config(max_cycles=10))
        m = inp("M", Sort.MEM)
        gma = GMA(
            ("M",),
            (mk("store", m, inp("p"), mk("select", m, inp("q"))),),
        )
        res = den.compile_gma(gma)
        assert res.verified
        assert res.cycles == 4  # ldq (3) then stq (1)


class TestResultPlumbing:
    def test_timing_validates_every_result(self):
        den = Denali(ev6(), config=_config())
        res = den.compile_term(
            mk("bis", mk("sll", inp("a"), const(2)), inp("b"))
        )
        report = simulate_timing(res.schedule, ev6())
        assert report.ok, report.violations

    def test_probe_statistics_recorded(self):
        den = Denali(simple_risc(), config=_config())
        res = den.compile_term(mk("add64", inp("a"), inp("b")))
        assert res.search.probes
        assert all(p.vars > 0 for p in res.search.probes)

    def test_no_schedule_within_budget(self):
        den = Denali(simple_risc(), config=_config(min_cycles=1, max_cycles=3))
        res = den.compile_term(mk("mul64", inp("a"), inp("b")))  # needs 7
        assert res.schedule is None
        assert res.cycles is None
        assert "no schedule" in res.summary()
        with pytest.raises(ValueError):
            _ = res.assembly

    def test_assembly_render_mentions_register_map(self):
        den = Denali(ev6(), config=_config())
        res = den.compile_term(mk("add64", inp("a"), inp("b")))
        assert "Register Map" in res.assembly

    def test_input_register_override(self):
        den = Denali(ev6(), config=_config())
        res = den.compile_gma(
            GMA(("x",), (mk("add64", inp("a"), const(1)),)),
            input_registers={"a": "$9"},
        )
        assert res.schedule.register_map["a"] == "$9"
        assert res.verified

    def test_elapsed_time_recorded(self):
        den = Denali(simple_risc(), config=_config())
        res = den.compile_term(mk("add64", inp("a"), inp("b")))
        assert res.elapsed_seconds > 0


class TestSearchStrategies:
    @pytest.mark.parametrize(
        "strategy", [SearchStrategy.BINARY, SearchStrategy.LINEAR]
    )
    def test_same_minimum_found(self, strategy):
        den = Denali(
            simple_risc(), config=_config(strategy=strategy, max_cycles=6)
        )
        res = den.compile_term(
            mk("bis", mk("add64", inp("a"), inp("b")), inp("c"))
        )
        assert res.cycles == 2
        assert res.optimal
