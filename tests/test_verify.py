"""Tests for the differential checker.

The key property: the checker passes real pipeline output and *fails*
deliberately corrupted schedules — it must actually be able to catch bugs.
"""


from repro import (
    Denali,
    DenaliConfig,
    GMA,
    check_schedule,
    const,
    ev6,
    inp,
    mk,
)
from repro.core.emit import Operand
from repro.matching import SaturationConfig
from repro.terms import Sort
from tests.machines import simple_risc


def _compile(term_or_gma, spec=None):
    den = Denali(
        spec or simple_risc(),
        config=DenaliConfig(
            max_cycles=8,
            verify=False,
            saturation=SaturationConfig(max_rounds=8, max_enodes=1500),
        ),
    )
    if isinstance(term_or_gma, GMA):
        return den.compile_gma(term_or_gma)
    return den.compile_term(term_or_gma)


class TestCheckerPasses:
    def test_correct_schedule_passes(self):
        res = _compile(mk("add64", mk("sll", inp("a"), const(2)), inp("b")))
        report = check_schedule(res.gma, res.schedule)
        assert report.passed
        assert report.failures == []

    def test_memory_schedule_passes(self):
        m = inp("M", Sort.MEM)
        gma = GMA(("M",), (mk("store", m, inp("p"), inp("x")),))
        res = _compile(gma, ev6())
        report = check_schedule(res.gma, res.schedule)
        assert report.passed

    def test_constant_goal_passes(self):
        res = _compile(mk("and64", inp("a"), const(0)))
        report = check_schedule(res.gma, res.schedule)
        assert report.passed


class TestCheckerCatchesBugs:
    def test_wrong_literal_caught(self):
        res = _compile(mk("add64", inp("a"), const(5)))
        sched = res.schedule
        # Corrupt: change the immediate 5 to 6.
        for instr in sched.instructions:
            for op in instr.operands:
                if op.literal == 5:
                    op.literal = 6
        report = check_schedule(res.gma, sched)
        assert not report.passed

    def test_wrong_opcode_caught(self):
        res = _compile(mk("add64", inp("a"), inp("b")))
        sched = res.schedule
        instr = sched.instructions[0]
        instr.node = instr.node._replace(op="sub64")
        report = check_schedule(res.gma, sched)
        assert not report.passed

    def test_swapped_goal_register_caught(self):
        gma = GMA(
            ("x", "y"),
            (mk("add64", inp("a"), inp("b")), mk("xor64", inp("a"), inp("b"))),
        )
        res = _compile(gma, ev6())
        sched = res.schedule
        sched.goal_operands[0], sched.goal_operands[1] = (
            sched.goal_operands[1],
            sched.goal_operands[0],
        )
        report = check_schedule(res.gma, sched)
        assert not report.passed

    def test_wrong_store_address_caught(self):
        m = inp("M", Sort.MEM)
        gma = GMA(("M",), (mk("store", m, inp("p"), const(9)),))
        res = _compile(gma, ev6())
        sched = res.schedule
        stq = next(i for i in sched.instructions if i.mnemonic == "stq")
        # Divert the store's address to a register holding something else.
        stq.operands[1] = Operand(stq.operands[1].class_id, literal=0)
        report = check_schedule(res.gma, sched)
        assert not report.passed

    def test_failures_carry_detail(self):
        res = _compile(mk("add64", inp("a"), const(5)))
        sched = res.schedule
        for instr in sched.instructions:
            for op in instr.operands:
                if op.literal == 5:
                    op.literal = 7
        report = check_schedule(res.gma, sched)
        assert report.failures
        assert "expected" in report.failures[0]


class TestAdversarialInputs:
    def test_signedness_bug_caught(self):
        """cmplt vs cmpult differ only on 'negative' inputs; the checker's
        adversarial values must include some."""
        res = _compile(mk("cmpult", inp("a"), inp("b")), ev6())
        sched = res.schedule
        instr = next(i for i in sched.instructions if i.mnemonic == "cmpult")
        instr.node = instr.node._replace(op="cmplt")
        report = check_schedule(res.gma, sched, trials=16)
        assert not report.passed

    def test_byte_boundary_bug_caught(self):
        res = _compile(mk("extbl", inp("a"), const(1)), ev6())
        sched = res.schedule
        instr = next(i for i in sched.instructions if i.mnemonic == "extbl")
        instr.node = instr.node._replace(op="extwl")
        instr.mnemonic = "extwl"
        report = check_schedule(res.gma, sched, trials=16)
        assert not report.passed
