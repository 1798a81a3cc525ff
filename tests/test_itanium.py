"""Tests for the Itanium-like retarget (paper section 1.1's porting claim).

"It appears that this shift will not require any radical changes (and the
changes will mostly be to the axioms)."  The same goal terms and the same
axiom files compile for the new target; only the architectural tables
changed.
"""


from repro import (
    Denali,
    DenaliConfig,
    GMA,
    SearchStrategy,
    Sort,
    const,
    ev6,
    inp,
    mk,
)
from repro.matching import SaturationConfig
from repro.sim import simulate_timing
from tests.machines import itanium_like


def _config(max_cycles=9, **kwargs):
    defaults = dict(
        min_cycles=1,
        max_cycles=max_cycles,
        strategy=SearchStrategy.LINEAR,
        saturation=SaturationConfig(max_rounds=14, max_enodes=4000),
    )
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


def byteswap_goal(n):
    a = inp("a")
    r = const(0)
    for i in range(n):
        r = mk("storeb", r, const(i), mk("selectb", a, const(n - 1 - i)))
    return r


class TestSpec:
    def test_no_byte_manipulation_instructions(self):
        spec = itanium_like()
        for op in ("extbl", "insbl", "mskbl", "zapnot", "zap"):
            assert not spec.is_machine_op(op), op

    def test_scaled_adds_exist(self):
        spec = itanium_like()
        assert spec.info("s4addq").mnemonic == "shladd4"

    def test_flat_cluster(self):
        spec = itanium_like()
        assert spec.cross_cluster_delay == 0
        assert spec.cluster_ids() == (0,)

    def test_loads_on_memory_units(self):
        spec = itanium_like()
        assert set(spec.info("select").units) == {"M0", "M1"}
        assert spec.latency("select") == 2


class TestRetargetedCompilation:
    def test_fig2_uses_shladd(self):
        goal = mk("add64", mk("mul64", inp("x"), const(4)), const(1))
        result = Denali(itanium_like(), config=_config()).compile_term(goal)
        assert result.cycles == 1
        assert result.schedule.instructions[0].mnemonic == "shladd4"
        assert result.verified

    def test_byteswap2_compiles_to_shift_and_mask(self):
        result = Denali(itanium_like(), config=_config(min_cycles=2)).compile_term(
            byteswap_goal(2)
        )
        assert result.verified
        assert result.optimal
        mnemonics = {i.mnemonic for i in result.schedule.instructions}
        # No byte-manipulation hardware: only shifts/ands/ors appear.
        assert mnemonics <= {"shl", "shr.u", "and", "or", "movl"}

    def test_byteswap2_costs_more_than_on_ev6(self):
        """Without extbl/insbl, the same goal needs more cycles than the
        EV6's 3 — no: the EV6 also needs 3; what differs is the mix.  The
        honest cross-target claim: both compile, both verify, the
        schedules are within a cycle of each other."""
        it = Denali(itanium_like(), config=_config(min_cycles=2)).compile_term(
            byteswap_goal(2)
        )
        alpha = Denali(ev6(), config=_config(min_cycles=2)).compile_term(
            byteswap_goal(2)
        )
        assert it.verified and alpha.verified
        assert abs(it.cycles - alpha.cycles) <= 1

    def test_timing_model_validates(self):
        spec = itanium_like()
        result = Denali(spec, config=_config(min_cycles=2)).compile_term(
            byteswap_goal(2)
        )
        assert simulate_timing(result.schedule, spec).ok

    def test_memory_round_trip(self):
        spec = itanium_like()
        m = inp("M", Sort.MEM)
        gma = GMA(
            ("M",),
            (mk("store", m, inp("p"), mk("select", m, inp("q"))),),
        )
        result = Denali(spec, config=_config(max_cycles=8)).compile_gma(gma)
        assert result.verified
        assert result.cycles == 3  # ld8 (2) + st8 (1): faster than EV6's 4

    def test_multiply_is_expensive(self):
        goal = mk("mul64", inp("a"), inp("b"))
        result = Denali(itanium_like(), config=_config(max_cycles=16)).compile_term(
            goal
        )
        assert result.cycles == 15

    def test_same_axioms_same_graph_different_winners(self):
        """One saturated E-graph serves both targets; the encoder picks
        different members per ISA."""
        goal = mk("mul64", inp("a"), const(16))
        alpha = Denali(ev6(), config=_config()).compile_term(goal)
        it = Denali(itanium_like(), config=_config()).compile_term(goal)
        assert alpha.schedule.instructions[0].mnemonic == "sll"
        assert it.schedule.instructions[0].mnemonic == "shl"
        assert alpha.cycles == it.cycles == 1
