"""Tests for output binding and parallel-move sequentialisation (section 7)."""

import pytest

from repro import (
    Denali,
    DenaliConfig,
    GMA,
    const,
    ev6,
    inp,
    mk,
)
from repro.core.moves import MoveError, bind_outputs, sequentialize_parallel_moves
from repro.matching import SaturationConfig
from repro.sim import execute_schedule, simulate_timing


class TestSequentialize:
    def test_identity_moves_dropped(self):
        assert sequentialize_parallel_moves({"$1": "$1"}) == []

    def test_independent_moves_any_order(self):
        out = sequentialize_parallel_moves({"$1": "$3", "$2": "$4"})
        assert sorted(out) == [("$1", "$3"), ("$2", "$4")]

    def test_chain_ordered_correctly(self):
        # $1 <- $2 and $2 <- $3: must copy $1 <- $2 first.
        out = sequentialize_parallel_moves({"$1": "$2", "$2": "$3"})
        assert out == [("$1", "$2"), ("$2", "$3")]

    def test_swap_uses_temp(self):
        out = sequentialize_parallel_moves({"$1": "$2", "$2": "$1"}, temp="$9")
        assert len(out) == 3
        # Simulate to confirm the swap.
        regs = {"$1": 10, "$2": 20, "$9": 0}
        for dst, src in out:
            regs[dst] = regs[src]
        assert regs["$1"] == 20 and regs["$2"] == 10

    def test_three_cycle_rotation(self):
        out = sequentialize_parallel_moves(
            {"$1": "$2", "$2": "$3", "$3": "$1"}, temp="$9"
        )
        regs = {"$1": 1, "$2": 2, "$3": 3, "$9": 0}
        for dst, src in out:
            regs[dst] = regs[src]
        assert (regs["$1"], regs["$2"], regs["$3"]) == (2, 3, 1)

    def test_cycle_without_temp_raises(self):
        with pytest.raises(MoveError):
            sequentialize_parallel_moves({"$1": "$2", "$2": "$1"})

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_random_permutations_correct(self, n):
        import itertools

        regs_names = ["$%d" % i for i in range(1, n + 1)]
        for perm in itertools.permutations(range(n)):
            moves = {regs_names[i]: regs_names[perm[i]] for i in range(n)}
            out = sequentialize_parallel_moves(moves, temp="$9")
            regs = {r: idx for idx, r in enumerate(regs_names)}
            regs["$9"] = -1
            want = {
                regs_names[i]: regs[regs_names[perm[i]]] for i in range(n)
            }
            for dst, src in out:
                regs[dst] = regs[src]
            for r, v in want.items():
                assert regs[r] == v, (perm, out)


def _compile(gma):
    den = Denali(
        ev6(),
        config=DenaliConfig(
            max_cycles=8,
            saturation=SaturationConfig(max_rounds=8, max_enodes=1000),
        ),
    )
    return den.compile_gma(gma)


class TestBindOutputs:
    def test_section7_example(self):
        """(reg6, reg7) := (reg6 + reg7, reg6) — the paper's example."""
        gma = GMA(
            ("reg6", "reg7"),
            (mk("add64", inp("reg6"), inp("reg7")), inp("reg6")),
        )
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        # Execute: inputs reg6=5, reg7=7 -> reg6'=12, reg7'=5.
        state = execute_schedule(bound, {"reg6": 5, "reg7": 7})
        reg6 = bound.register_map["reg6"]
        reg7 = bound.register_map["reg7"]
        assert state.read(reg6) == 12
        assert state.read(reg7) == 5
        assert simulate_timing(bound, ev6()).ok

    def test_pure_swap_binds_through_temp(self):
        gma = GMA(("a", "b"), (inp("b"), inp("a")))
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        movs = [i for i in bound.instructions if i.mnemonic == "mov"]
        assert len(movs) == 3  # swap via temporary
        state = execute_schedule(bound, {"a": 1, "b": 2})
        assert state.read(bound.register_map["a"]) == 2
        assert state.read(bound.register_map["b"]) == 1

    def test_identity_needs_no_moves(self):
        gma = GMA(("a",), (inp("a"),))
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        # The value already lives in a's register: identity move dropped.
        assert bound.instruction_count() == result.schedule.instruction_count()

    def test_fresh_target_gets_one_move(self):
        gma = GMA(("x",), (mk("add64", inp("a"), inp("b")),))
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        movs = [i for i in bound.instructions if i.mnemonic == "mov"]
        assert len(movs) == 1
        state = execute_schedule(bound, {"a": 2, "b": 3})
        assert state.read(bound.register_map["x"]) == 5

    def test_constant_target_materialised_by_move(self):
        gma = GMA(("a",), (const(7),))
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        state = execute_schedule(bound, {"a": 99})
        assert state.read(bound.register_map["a"]) == 7

    def test_goal_operands_updated(self):
        gma = GMA(("a", "b"), (inp("b"), inp("a")))
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        assert bound.goal_operands[0].register == bound.register_map["a"]
        assert bound.goal_operands[1].register == bound.register_map["b"]

    def test_timing_valid_after_binding(self):
        gma = GMA(
            ("p", "q"),
            (mk("add64", inp("q"), const(8)), mk("add64", inp("p"), const(8))),
        )
        result = _compile(gma)
        bound = bind_outputs(result.schedule, gma, ev6())
        report = simulate_timing(bound, ev6())
        assert report.ok, report.violations


class TestPipelineIntegration:
    def test_config_flag_binds_outputs(self):
        from repro.matching import SaturationConfig

        den = Denali(
            ev6(),
            config=DenaliConfig(
                max_cycles=8,
                saturation=SaturationConfig(max_rounds=8, max_enodes=1000),
            ),
        )
        gma = GMA(
            ("reg6", "reg7"),
            (mk("add64", inp("reg6"), inp("reg7")), inp("reg6")),
        )
        result = den.compile_gma(gma, bind_outputs=True)
        assert result.verified
        movs = [i for i in result.schedule.instructions if i.mnemonic == "mov"]
        assert movs  # the destination conflict forced late moves

    def test_swap_verifies_with_binding(self):
        from repro.matching import SaturationConfig

        den = Denali(
            ev6(),
            config=DenaliConfig(
                max_cycles=4,
                saturation=SaturationConfig(max_rounds=4, max_enodes=500),
            ),
        )
        result = den.compile_gma(
            GMA(("a", "b"), (inp("b"), inp("a"))), bind_outputs=True
        )
        assert result.verified
        assert result.schedule.instruction_count() == 3  # swap via temp
