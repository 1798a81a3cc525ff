"""Whole-procedure assembly and execution tests.

The strongest end-to-end checks in the suite: complete procedures (loops,
guards, exits) are compiled to full assembly programs and *run* on the
program-level simulator against the reference semantics — including the
paper's checksum.
"""

import pytest

from repro import (
    Denali,
    DenaliConfig,
    Memory,
    SearchStrategy,
    ev6,
    parse_program,
)
from repro.core.program import (
    BranchIfZero,
    Jump,
    Label,
    ProgramError,
    Ret,
    execute_program,
)
from repro.matching import SaturationConfig
from repro.terms.values import M64
from tests.machines import itanium_like


def _denali(prog, spec=None, max_cycles=12):
    cfg = DenaliConfig(
        min_cycles=1,
        max_cycles=max_cycles,
        strategy=SearchStrategy.BINARY,
        saturation=SaturationConfig(max_rounds=8, max_enodes=2000),
    )
    return Denali(spec or ev6(), registry=prog.registry, config=cfg)


SUM_SRC = r"""
(\procdecl sumloop ((ptr (\ref long)) (end (\ref long))) long
  (\var (s long 0)
  (\semi
    (\do (-> (< ptr end)
      (\semi (:= (s (+ s (\deref ptr)))) (:= (ptr (+ ptr 8))))))
    (:= (\res s)))))
"""

COUNT_SRC = r"""
(\procdecl count ((i long) (n long)) long
  (\semi
    (\do (-> (< i n) (:= (i (+ i 1)))))
    (:= (\res (* i 2)))))
"""

STRAIGHT_SRC = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""


def _mem(values, base=1000):
    mem = Memory()
    for i, v in enumerate(values):
        mem = mem.store(base + 8 * i, v)
    return mem


class TestAssembly:
    def test_loop_block_structure(self):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("sumloop"))
        kinds = [type(e).__name__ for e in pr.program.entries]
        assert kinds[0] == "Label"
        assert "BranchIfZero" in kinds
        assert "Jump" in kinds
        assert kinds[-1] == "Ret"

    def test_branch_follows_guard(self):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("sumloop"))
        entries = pr.program.entries
        branch_idx = next(
            i for i, e in enumerate(entries) if isinstance(e, BranchIfZero)
        )
        # Everything before the branch must be guard computation, never a
        # memory access (section 7's unsafe-expression ordering).
        for e in entries[:branch_idx]:
            if hasattr(e, "mnemonic"):
                assert e.mnemonic not in ("ldq", "stq")

    def test_moves_commit_before_backedge(self):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("sumloop"))
        entries = pr.program.entries
        jump_idx = next(
            i for i, e in enumerate(entries) if isinstance(e, Jump)
        )
        movs = [
            i
            for i, e in enumerate(entries)
            if hasattr(e, "mnemonic") and e.mnemonic == "mov"
        ]
        assert movs and all(i < jump_idx for i in movs)

    def test_render_contains_structure(self):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("sumloop"))
        text = pr.assembly
        assert "sumloop_loop0:" in text
        assert "beq" in text
        assert "br sumloop_loop0" in text
        assert text.rstrip().endswith(".end sumloop")

    def test_straight_line_has_no_branches(self):
        prog = parse_program(STRAIGHT_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("scale"))
        assert not any(
            isinstance(e, (BranchIfZero, Jump)) for e in pr.program.entries
        )


class TestExecution:
    @pytest.mark.parametrize(
        "values", [[], [42], [1, 2, 3], [10, 20, 30, 40, 50, 60]]
    )
    def test_sum_loop_all_trip_counts(self, values):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("sumloop"))
        assert pr.all_verified()
        state = execute_program(
            pr.program,
            {
                "M": _mem(values),
                "ptr": 1000,
                "end": 1000 + 8 * len(values),
                "s": 0,
            },
        )
        assert state.read(pr.program.result_register) == sum(values) % (1 << 64)

    @pytest.mark.parametrize("i,n", [(0, 0), (0, 5), (3, 10), (7, 7)])
    def test_counting_loop(self, i, n):
        prog = parse_program(COUNT_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("count"))
        state = execute_program(pr.program, {"i": i, "n": n})
        assert state.read(pr.program.result_register) == 2 * max(i, n)

    def test_straight_line_result(self):
        prog = parse_program(STRAIGHT_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("scale"))
        state = execute_program(pr.program, {"a": 10})
        assert state.read(pr.program.result_register) == 41

    def test_retargeted_procedure_executes(self):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog, spec=itanium_like()).compile_procedure(
            prog.procedure("sumloop")
        )
        state = execute_program(
            pr.program,
            {"M": _mem([9, 9]), "ptr": 1000, "end": 1016, "s": 0},
        )
        assert state.read(pr.program.result_register) == 18

    def test_nonterminating_guard_hits_step_limit(self):
        prog = parse_program(SUM_SRC)
        pr = _denali(prog).compile_procedure(prog.procedure("sumloop"))
        with pytest.raises(ProgramError):
            execute_program(
                pr.program,
                {"M": Memory(), "ptr": 0, "end": M64, "s": 0},
                max_steps=200,
            )


class TestChecksumProcedure:
    def test_full_checksum_executes_correctly(self):
        """The paper's flagship program, end to end: parsed from the
        Figure 6 syntax, translated, optimised per GMA, stitched with
        branches, run on the machine simulator, and compared with a
        direct Python ones-complement checksum."""
        import examples.checksum as cs

        src = cs.SOURCE_TEMPLATE.replace("UNROLL", "2")
        prog = parse_program(src)
        from repro import AxiomSet
        from repro.axioms import (
            alpha_axioms,
            constant_synthesis_axioms,
            math_axioms,
        )

        axioms = (
            math_axioms(prog.registry)
            + constant_synthesis_axioms(prog.registry)
            + alpha_axioms(prog.registry)
            + AxiomSet(prog.axioms, "local")
        )
        cfg = DenaliConfig(
            min_cycles=4,
            max_cycles=14,
            strategy=SearchStrategy.BINARY,
            saturation=SaturationConfig(max_rounds=8, max_enodes=2500),
        )
        den = Denali(ev6(), axioms=axioms, registry=prog.registry, config=cfg)
        pr = den.compile_procedure(prog.procedure("checksum"))
        assert pr.all_verified()

        def reference_checksum(words):
            s = 0
            for w in words:
                s = (s + w) % (1 << 64) + (1 if s + w >= (1 << 64) else 0)
            total = sum((s >> (16 * k)) & 0xFFFF for k in range(4))
            total = (total & 0xFFFF) + (total >> 16)
            return ((total & 0xFFFF) + (total >> 16)) & 0xFFFF

        # 4 quadwords = 2 unrolled trips of 2.
        words = [0x0123456789ABCDEF, 0xFFFF0000FFFF0000,
                 0x1111222233334444, 0xDEADBEEFCAFEF00D]
        state = execute_program(
            pr.program,
            {
                "M": _mem(words),
                "ptr": 1000,
                "ptrend": 1000 + 8 * len(words),
                "sum": 0,
                "v1": _mem(words).select(1000),
            },
        )
        got = state.read(pr.program.result_register)
        want = reference_checksum(words)
        assert got == want, (hex(got), hex(want))
