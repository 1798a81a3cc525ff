"""Tests for the functional executor and the timing validator."""

import pytest

from repro.core.emit import Operand, Schedule, ScheduledInstruction
from repro.egraph.egraph import ENode
from repro.isa import ev6
from repro.sim import (
    ExecutionError,
    execute_schedule,
    simulate_timing,
)
from repro.terms import Memory
from tests.machines import simple_risc


def _instr(op, cycle, unit, operands, dest, mnemonic=None, class_id=0):
    return ScheduledInstruction(
        cycle=cycle,
        unit=unit,
        node=ENode(op, (), None, None),
        class_id=class_id,
        mnemonic=mnemonic or op,
        operands=operands,
        dest=dest,
    )


def _schedule(instrs, cycles, reg_map=None, goals=None):
    return Schedule(
        instructions=instrs,
        cycles=cycles,
        register_map=reg_map or {"a": "$16", "b": "$17"},
        goal_operands=goals or [],
    )


class TestExecute:
    def test_single_add(self):
        instr = _instr(
            "add64",
            0,
            "P0",
            [Operand(0, register="$16"), Operand(0, register="$17")],
            "$1",
        )
        sched = _schedule([instr], 1)
        state = execute_schedule(sched, {"a": 2, "b": 3})
        assert state.read("$1") == 5

    def test_immediate_operand(self):
        instr = _instr(
            "sll", 0, "P0", [Operand(0, register="$16"), Operand(0, literal=4)], "$1"
        )
        state = execute_schedule(_schedule([instr], 1), {"a": 3})
        assert state.read("$1") == 48

    def test_zero_register_reads_zero(self):
        instr = _instr(
            "add64",
            0,
            "P0",
            [Operand(0, register="$31"), Operand(0, literal=9)],
            "$1",
        )
        state = execute_schedule(_schedule([instr], 1), {})
        assert state.read("$1") == 9

    def test_zero_register_write_discarded(self):
        instr = _instr(
            "add64",
            0,
            "P0",
            [Operand(0, literal=1), Operand(0, literal=1)],
            "$31",
        )
        state = execute_schedule(_schedule([instr], 1), {})
        assert state.read("$31") == 0

    def test_chain_in_cycle_order(self):
        i1 = _instr(
            "add64",
            0,
            "P0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        i2 = _instr(
            "sll", 1, "P0", [Operand(0, register="$1"), Operand(0, literal=1)], "$2"
        )
        state = execute_schedule(_schedule([i2, i1], 2), {"a": 5})
        assert state.read("$2") == 12

    def test_ldiq(self):
        instr = _instr("ldiq", 0, "P0", [Operand(0, literal=0xDEAD)], "$1")
        state = execute_schedule(_schedule([instr], 1), {})
        assert state.read("$1") == 0xDEAD

    def test_load_store_roundtrip(self):
        store = _instr(
            "store",
            0,
            "L0",
            [
                Operand(-1, memory=True),
                Operand(0, register="$16"),
                Operand(0, literal=42),
            ],
            None,
            mnemonic="stq",
            class_id=7,
        )
        load = _instr(
            "select",
            1,
            "L0",
            [Operand(7, memory=True), Operand(0, register="$16")],
            "$1",
            mnemonic="ldq",
        )
        sched = _schedule([store, load], 4, reg_map={"p": "$16"})
        state = execute_schedule(sched, {"p": 128, "M": Memory()})
        assert state.read("$1") == 42
        assert state.memory.select(128) == 42

    def test_unwritten_register_read_raises(self):
        instr = _instr(
            "add64",
            0,
            "P0",
            [Operand(0, register="$5"), Operand(0, literal=1)],
            "$1",
        )
        with pytest.raises(ExecutionError):
            execute_schedule(_schedule([instr], 1), {})

    def test_unbound_input_raises(self):
        with pytest.raises(ExecutionError):
            execute_schedule(_schedule([], 1, reg_map={}), {"zzz": 1})


class TestTiming:
    def _ok_schedule(self):
        i1 = _instr(
            "add64",
            0,
            "L0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        i2 = _instr(
            "sll", 1, "U0", [Operand(0, register="$1"), Operand(0, literal=1)], "$2"
        )
        return _schedule([i1, i2], 2)

    def test_valid_schedule_passes(self):
        report = simulate_timing(self._ok_schedule(), ev6())
        assert report.ok
        assert report.makespan == 2

    def test_wrong_unit_flagged(self):
        bad = _instr(
            "sll", 0, "L0", [Operand(0, register="$16"), Operand(0, literal=1)], "$1"
        )
        report = simulate_timing(_schedule([bad], 1), ev6())
        assert not report.ok
        assert any("unit" in v for v in report.violations)

    def test_double_booked_unit_flagged(self):
        a = _instr(
            "add64",
            0,
            "L0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        b = _instr(
            "sub64",
            0,
            "L0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$2",
        )
        report = simulate_timing(_schedule([a, b], 1), ev6())
        assert not report.ok
        assert any("double-booked" in v for v in report.violations)

    def test_operand_before_ready_flagged(self):
        producer = _instr(
            "mul64",
            0,
            "U1",
            [Operand(0, register="$16"), Operand(0, register="$17")],
            "$1",
        )  # latency 7: ready end of cycle 6
        consumer = _instr(
            "add64",
            1,
            "L1",
            [Operand(0, register="$1"), Operand(0, literal=1)],
            "$2",
        )
        report = simulate_timing(_schedule([producer, consumer], 8), ev6())
        assert not report.ok
        assert any("before it is ready" in v for v in report.violations)

    def test_cross_cluster_consumption_flagged(self):
        producer = _instr(
            "add64",
            0,
            "U0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )  # cluster 0, ready end of 0; cluster 1 sees it end of 1
        consumer = _instr(
            "sub64",
            1,
            "U1",
            [Operand(0, register="$1"), Operand(0, literal=1)],
            "$2",
        )
        report = simulate_timing(_schedule([producer, consumer], 3), ev6())
        assert not report.ok
        ok_consumer = _instr(
            "sub64",
            2,
            "U1",
            [Operand(0, register="$1"), Operand(0, literal=1)],
            "$2",
        )
        report2 = simulate_timing(_schedule([producer, ok_consumer], 3), ev6())
        assert report2.ok

    def test_makespan_overrun_flagged(self):
        i = _instr(
            "mul64",
            0,
            "U1",
            [Operand(0, register="$16"), Operand(0, register="$17")],
            "$1",
        )
        report = simulate_timing(_schedule([i], 3), ev6())
        assert not report.ok
        assert any("makespan" in v for v in report.violations)

    def test_register_reuse_accepted(self):
        # $1 is dead after the sll reads it; redefining it is legal.
        a = _instr(
            "add64",
            0,
            "L0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        use = _instr(
            "sll", 1, "U0", [Operand(0, register="$1"), Operand(0, literal=1)], "$2"
        )
        b = _instr(
            "sub64",
            2,
            "L0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        report = simulate_timing(_schedule([a, use, b], 3), ev6())
        assert report.ok, report.violations

    def test_read_of_redefined_register_too_early_flagged(self):
        # The reader binds to the most recent writer; reading in the same
        # cycle the new value is produced is too early.
        a = _instr(
            "add64",
            0,
            "L0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        b = _instr(
            "sub64",
            1,
            "U1",
            [Operand(0, register="$16"), Operand(0, literal=2)],
            "$1",
        )
        reader = _instr(
            "bis", 1, "L1", [Operand(0, register="$1"), Operand(0, literal=1)], "$2"
        )
        report = simulate_timing(_schedule([a, b, reader], 2), ev6())
        assert not report.ok

    def test_memory_dependence_checked(self):
        store = _instr(
            "store",
            0,
            "L0",
            [
                Operand(-1, memory=True),
                Operand(0, register="$16"),
                Operand(0, literal=1),
            ],
            None,
            mnemonic="stq",
            class_id=5,
        )
        early_load = _instr(
            "select",
            0,
            "L1",
            [Operand(5, memory=True), Operand(0, register="$16")],
            "$1",
            mnemonic="ldq",
        )
        sched = _schedule([store, early_load], 4, reg_map={"p": "$16"})
        report = simulate_timing(sched, ev6())
        assert not report.ok

    def test_issue_width_enforced_on_simple_risc(self):
        a = _instr(
            "add64",
            0,
            "P0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$1",
        )
        b = _instr(
            "sub64",
            0,
            "P0",
            [Operand(0, register="$16"), Operand(0, literal=1)],
            "$2",
        )
        report = simulate_timing(_schedule([a, b], 1), simple_risc())
        assert not report.ok
