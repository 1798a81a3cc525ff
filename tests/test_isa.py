"""Tests for the architecture descriptions."""

import pytest

from repro.isa import ArchSpec, InstructionInfo, RegisterFile, ev6
from tests.machines import simple_risc, toy_tuple_machine
from repro.isa.registers import ARG_REGISTERS, ZERO_REGISTER


class TestEv6:
    def test_quad_issue(self):
        assert ev6().issue_width == 4

    def test_two_clusters(self):
        spec = ev6()
        assert spec.cluster_ids() == (0, 1)
        assert spec.clusters["U0"] == spec.clusters["L0"]
        assert spec.clusters["U1"] == spec.clusters["L1"]
        assert spec.clusters["U0"] != spec.clusters["U1"]

    def test_cross_cluster_delay(self):
        spec = ev6()
        assert spec.result_delay("U0", spec.clusters["U0"]) == 0
        assert spec.result_delay("U0", spec.clusters["U1"]) == 1

    def test_shifter_only_on_upper_units(self):
        spec = ev6()
        for op in ("sll", "srl", "sra", "extbl", "insbl", "mskbl", "zapnot"):
            assert set(spec.info(op).units) == {"U0", "U1"}, op

    def test_multiplier_only_on_u1(self):
        spec = ev6()
        assert spec.info("mul64").units == ("U1",)
        assert spec.info("mul64").latency == 7

    def test_loads_on_lower_units(self):
        spec = ev6()
        assert set(spec.info("select").units) == {"L0", "L1"}
        assert spec.info("select").latency == 3
        assert spec.info("select").kind == "load"

    def test_plain_alu_everywhere(self):
        spec = ev6()
        for op in ("add64", "bis", "cmpult"):
            assert set(spec.info(op).units) == {"U0", "U1", "L0", "L1"}, op
            assert spec.latency(op) == 1

    def test_load_latency_override(self):
        spec = ev6(load_latency=12)
        assert spec.latency("select") == 12
        assert spec.latency("add64") == 1  # others untouched

    def test_immediate_range(self):
        spec = ev6()
        assert spec.fits_immediate(0)
        assert spec.fits_immediate(255)
        assert not spec.fits_immediate(256)
        assert not spec.fits_immediate(-1)

    def test_non_machine_ops_absent(self):
        spec = ev6()
        for op in ("pow", "selectb", "storeb", "selectw"):
            assert not spec.is_machine_op(op), op

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            ev6().info("pow")

    def test_units_in_cluster(self):
        spec = ev6()
        assert set(spec.units_in_cluster(0)) == {"U0", "L0"}


class TestSimpleRisc:
    def test_single_issue(self):
        spec = simple_risc()
        assert spec.issue_width == 1
        assert spec.units == ("P0",)

    def test_single_cluster_no_delay(self):
        spec = simple_risc()
        assert spec.cross_cluster_delay == 0
        assert spec.cluster_ids() == (0,)

    def test_same_op_vocabulary_as_ev6(self):
        assert set(simple_risc().machine_ops()) == set(ev6().machine_ops())


class TestToyTupleMachine:
    def test_tuple_op_is_machine(self):
        spec = toy_tuple_machine()
        assert spec.is_machine_op("tuple2")
        assert spec.is_machine_op("proj0")
        assert spec.is_machine_op("proj1")


class TestSpecValidation:
    def test_unit_without_cluster_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec(
                name="bad",
                units=("A",),
                clusters={},
                cross_cluster_delay=0,
                issue_width=1,
                instructions={},
            )

    def test_instruction_on_unknown_unit_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec(
                name="bad",
                units=("A",),
                clusters={"A": 0},
                cross_cluster_delay=0,
                issue_width=1,
                instructions={
                    "add64": InstructionInfo("add64", "addq", 1, ("B",))
                },
            )

    def test_zero_issue_width_rejected(self):
        with pytest.raises(ValueError):
            ArchSpec(
                name="bad",
                units=("A",),
                clusters={"A": 0},
                cross_cluster_delay=0,
                issue_width=0,
                instructions={},
            )


class TestRegisterFile:
    def test_inputs_get_argument_registers(self):
        regs = RegisterFile()
        assert regs.bind_input("a") == ARG_REGISTERS[0]
        assert regs.bind_input("b") == ARG_REGISTERS[1]

    def test_rebinding_is_stable(self):
        regs = RegisterFile()
        first = regs.bind_input("a")
        assert regs.bind_input("a") == first

    def test_explicit_binding(self):
        regs = RegisterFile()
        assert regs.bind_input("x", "$9") == "$9"

    def test_fresh_temps_distinct(self):
        regs = RegisterFile()
        temps = [regs.fresh_temp() for _ in range(5)]
        assert len(set(temps)) == 5

    def test_register_map_includes_zero(self):
        regs = RegisterFile()
        regs.bind_input("a")
        assert regs.register_map()["0"] == ZERO_REGISTER

    def test_unbound_input_read_raises(self):
        with pytest.raises(KeyError):
            RegisterFile().input_register("nope")

    def test_temp_exhaustion_raises(self):
        regs = RegisterFile()
        with pytest.raises(ValueError):
            for _ in range(100):
                regs.fresh_temp()
