"""Tests for multi-result instruction modelling (paper section 7).

"Some instructions of some architectures compute multiple results into
multiple registers.  In this situation we model the instruction's
operation as a machine operation that computes a tuple of the various
results.  We also introduce into the axiom files non-machine projection
operations that extract the individual components of the tuple."

The toy architecture's ``tuple2`` computes (a+b, a-b) ... actually it
computes the pair of its operands' combination; what matters for the
modelling is the dataflow: the tuple value lives in one (modelled)
destination, and projection pseudo-ops extract components.
"""

import pytest

from repro import Denali, DenaliConfig, GMA, const, inp, mk
from repro.matching import SaturationConfig
from repro.sim import execute_schedule, simulate_timing
from tests.machines import toy_tuple_machine


def _config(**kwargs):
    defaults = dict(
        min_cycles=1,
        max_cycles=8,
        saturation=SaturationConfig(max_rounds=6, max_enodes=800),
    )
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


class TestTupleMachine:
    def test_projection_of_tuple_compiles(self):
        spec = toy_tuple_machine()
        term = mk("proj0", mk("tuple2", inp("a"), inp("b")))
        den = Denali(spec, config=_config())
        result = den.compile_gma(GMA(("\\res",), (term,)))
        assert result.schedule is not None
        mnemonics = [i.mnemonic for i in result.schedule.instructions]
        assert "pair" in mnemonics
        assert "lo" in mnemonics
        # tuple2 has latency 2, the projection 1: at least 3 cycles.
        assert result.cycles == 3
        assert result.optimal
        assert result.verified

    def test_both_projections_share_one_tuple(self):
        """Extracting both components launches the pair instruction once."""
        spec = toy_tuple_machine()
        pair = mk("tuple2", inp("a"), inp("b"))
        gma = GMA(
            ("x", "y"),
            (mk("proj0", pair), mk("proj1", pair)),
        )
        result = Denali(spec, config=_config()).compile_gma(gma)
        assert result.verified
        mnemonics = [i.mnemonic for i in result.schedule.instructions]
        assert mnemonics.count("pair") == 1
        assert "lo" in mnemonics and "hi" in mnemonics

    def test_tuple_values_flow_through_executor(self):
        spec = toy_tuple_machine()
        term = mk("proj1", mk("tuple2", inp("a"), inp("b")))
        result = Denali(spec, config=_config()).compile_gma(
            GMA(("\\res",), (term,))
        )
        state = execute_schedule(result.schedule, {"a": 11, "b": 22})
        goal = result.schedule.goal_operands[0]
        assert state.read(goal.register) == 22

    def test_timing_validates(self):
        spec = toy_tuple_machine()
        term = mk("proj0", mk("tuple2", inp("a"), const(5)))
        result = Denali(spec, config=_config()).compile_gma(
            GMA(("\\res",), (term,))
        )
        assert simulate_timing(result.schedule, spec).ok

    def test_tuple_not_machine_on_ev6(self):
        """On the EV6 (no tuple instruction) the goal is uncomputable."""
        from repro import ev6
        from repro.encode import EncodeError

        term = mk("proj0", mk("tuple2", inp("a"), inp("b")))
        den = Denali(ev6(), config=_config())
        with pytest.raises(EncodeError):
            den.compile_gma(GMA(("\\res",), (term,)))
