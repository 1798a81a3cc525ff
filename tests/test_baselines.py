"""Tests for the brute-force superoptimizer and the conventional compiler."""

import pytest

from repro import GMA, Memory, Sort, const, ev6, inp, mk
from repro.baselines import (
    brute_force_search,
    compile_conventional,
    default_repertoire,
)
from repro.baselines.bruteforce import goal_from_term
from repro.baselines.compiler import CompileError
from repro.sim import execute_schedule, simulate_timing
from repro.terms import default_registry
from repro.verify import check_schedule
from tests.machines import simple_risc


class TestBruteForce:
    def test_identity_like_goal_found_quickly(self):
        goal = goal_from_term(mk("add64", inp("a"), const(1)), ["a"])
        res = brute_force_search(goal, 1, max_length=1, immediates=(0, 1))
        assert res.found
        assert res.length == 1

    def test_negation_needs_two_instructions(self):
        goal = goal_from_term(mk("sub64", const(0), inp("a")), ["a"])
        res = brute_force_search(
            goal,
            1,
            max_length=2,
            repertoire=["add64", "not64", "and64"],
            immediates=(0, 1),
        )
        assert res.found
        assert res.length == 2

    def test_found_program_is_correct(self):
        term = mk("bis", inp("a"), inp("b"))
        goal = goal_from_term(term, ["a", "b"])
        res = brute_force_search(
            goal, 2, max_length=1, repertoire=["bis", "and64", "xor64"]
        )
        assert res.found
        # Re-execute against fresh values.
        from repro.baselines.bruteforce import _execute

        reg = default_registry()
        fns = {op: reg.get(op).eval_fn for op in default_repertoire()}
        for a, b in [(1, 2), (0xFF00, 0x00FF), (2**63, 1)]:
            assert _execute(res.program, (a, b), fns) == a | b

    def test_not_found_within_length(self):
        # A 3-instruction goal cannot be found at max_length=1.
        term = mk("bis", mk("sll", inp("a"), const(1)),
                  mk("srl", inp("a"), const(1)))
        goal = goal_from_term(term, ["a"])
        res = brute_force_search(
            goal, 1, max_length=1, repertoire=["sll", "srl", "bis"],
            immediates=(1,),
        )
        assert not res.found
        assert res.sequences_tested > 0

    def test_sequence_budget_stops_search(self):
        goal = goal_from_term(mk("mul64", inp("a"), inp("a")), ["a"])
        res = brute_force_search(
            goal, 1, max_length=3, max_sequences=500,
            repertoire=["add64", "sll", "bis"],
        )
        assert not res.found
        assert res.sequences_tested <= 520

    def test_cost_grows_with_length(self):
        # Count enumerated sequences at increasing lengths for an
        # unsatisfiable goal: the growth is the paper's "glacially slow".
        goal = goal_from_term(mk("umulh", inp("a"), inp("a")), ["a"])
        counts = []
        for length in (1, 2):
            res = brute_force_search(
                goal, 1, max_length=length,
                repertoire=["add64", "xor64", "sll"], immediates=(1,),
            )
            counts.append(res.sequences_tested)
        assert counts[1] > counts[0] * 5

    def test_uninterpreted_repertoire_rejected(self):
        reg = default_registry()
        reg.declare("mystery", (Sort.INT,), Sort.INT)
        goal = goal_from_term(inp("a"), ["a"])
        with pytest.raises(ValueError):
            brute_force_search(
                goal, 1, repertoire=["mystery"], registry=reg
            )

    def test_render(self):
        goal = goal_from_term(mk("add64", inp("a"), const(1)), ["a"])
        res = brute_force_search(goal, 1, max_length=1, immediates=(0, 1))
        assert "a" in res.render(["a"])


class TestConventionalCompiler:
    def _roundtrip(self, term, spec=None, env=None):
        spec = spec or ev6()
        sched = compile_conventional(term, spec)
        report = simulate_timing(sched, spec)
        assert report.ok, report.violations
        state = execute_schedule(sched, env or {})
        goal = sched.goal_operands[0]
        if goal.literal is not None:
            return sched, goal.literal
        return sched, state.read(goal.register)

    def test_simple_expression(self):
        term = mk("add64", mk("sll", inp("a"), const(2)), inp("b"))
        sched, value = self._roundtrip(term, env={"a": 3, "b": 5})
        assert value == 17

    def test_strength_reduction(self):
        sched = compile_conventional(mk("mul64", inp("a"), const(8)), ev6())
        assert [i.mnemonic for i in sched.instructions] == ["sll"]

    def test_mul_by_one_elided(self):
        sched = compile_conventional(mk("mul64", inp("a"), const(1)), ev6())
        assert sched.instruction_count() == 0

    def test_mul_by_zero_folds(self):
        sched = compile_conventional(mk("mul64", inp("a"), const(0)), ev6())
        assert sched.instruction_count() == 0
        assert sched.goal_operands[0].register == "$31"

    def test_constant_folding(self):
        sched = compile_conventional(
            mk("add64", const(2), const(3)), ev6()
        )
        assert sched.instruction_count() == 0
        assert sched.goal_operands[0].literal == 5

    def test_large_constant_materialised(self):
        sched = compile_conventional(
            mk("add64", inp("a"), const(1 << 40)), ev6()
        )
        assert any(i.mnemonic == "ldiq" for i in sched.instructions)

    def test_cse_by_memoisation(self):
        shared = mk("add64", inp("a"), inp("b"))
        term = mk("and64", shared, mk("xor64", shared, inp("c")))
        sched = compile_conventional(term, ev6())
        adds = [i for i in sched.instructions if i.mnemonic == "addq"]
        assert len(adds) == 1

    def test_no_greedy_s4addq(self):
        """The rewriting engine misses s4addq — the paper's point."""
        term = mk("add64", mk("mul64", inp("a"), const(4)), const(1))
        sched = compile_conventional(term, ev6())
        mnemonics = [i.mnemonic for i in sched.instructions]
        assert "s4addq" not in mnemonics
        assert "sll" in mnemonics  # strength-reduced, but two instructions
        assert sched.cycles == 2

    def test_macro_expansion_of_definitions(self):
        from repro.axioms import checksum_axioms

        reg = default_registry()
        reg, axioms = checksum_axioms(reg)
        term = mk("add", inp("a"), inp("b"), registry=reg)
        sched = compile_conventional(
            term, ev6(), registry=reg, definitions=axioms.definitions()
        )
        report = simulate_timing(sched, ev6())
        assert report.ok
        state = execute_schedule(sched, {"a": (1 << 64) - 1, "b": 5})
        # ones-complement add with wraparound carry
        assert state.read(sched.goal_operands[0].register) == 5

    def test_non_machine_without_definition_rejected(self):
        reg = default_registry()
        reg.declare("mystery", (Sort.INT,), Sort.INT)
        term = mk("mystery", inp("a"), registry=reg)
        with pytest.raises(CompileError):
            compile_conventional(term, ev6(), registry=reg)

    def test_memory_gma(self):
        m = inp("M", Sort.MEM)
        gma = GMA(
            ("M",),
            (mk("store", m, inp("p"), mk("select", m, inp("q"))),),
        )
        sched = compile_conventional(gma, ev6())
        report = simulate_timing(sched, ev6())
        assert report.ok, report.violations
        mem = Memory().store(64, 77)
        state = execute_schedule(sched, {"p": 8, "q": 64, "M": mem})
        assert state.memory.select(8) == 77

    def test_checker_validates_conventional_output(self):
        term = mk("storeb", const(0), const(0), mk("selectb", inp("a"), const(3)))
        gma = GMA(("\\res",), (term,))
        sched = compile_conventional(gma, ev6())
        report = check_schedule(gma, sched)
        assert report.passed, report.failures

    def test_single_issue_schedules_longer(self):
        term = mk(
            "bis",
            mk("add64", inp("a"), inp("b")),
            mk("xor64", inp("c"), inp("d")),
        )
        wide = compile_conventional(term, ev6())
        narrow = compile_conventional(term, simple_risc())
        assert narrow.cycles >= wide.cycles
