"""Property-based end-to-end tests: random expressions through the pipeline.

For any expression the pipeline accepts, the emitted schedule must
(1) execute to the same values as the reference semantics on random
inputs, (2) validate on the timing model, and (3) never beat the
dataflow-depth lower bound.  This is the whole-system invariant the
paper's "correct by design" claim rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Denali, DenaliConfig, ev6, const, inp, mk
from repro.egraph.analysis import min_depth

pytestmark = pytest.mark.slow
from repro.matching import SaturationConfig
from repro.sim import simulate_timing
from tests.machines import simple_risc

_BINOPS = ["add64", "sub64", "and64", "bis", "xor64", "cmpult"]
_UNOPS = ["not64", "neg64", "sextl"]
_SHIFTS = ["sll", "srl", "sra"]
_INPUTS = ["a", "b", "c"]


def _terms(depth):
    if depth == 0:
        return st.one_of(
            st.sampled_from(_INPUTS).map(inp),
            st.integers(0, 255).map(const),
        )
    sub = _terms(depth - 1)
    return st.one_of(
        st.sampled_from(_INPUTS).map(inp),
        st.integers(0, 255).map(const),
        st.tuples(st.sampled_from(_BINOPS), sub, sub).map(
            lambda t: mk(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(_UNOPS), sub).map(lambda t: mk(t[0], t[1])),
        st.tuples(st.sampled_from(_SHIFTS), sub, st.integers(0, 63)).map(
            lambda t: mk(t[0], t[1], const(t[2]))
        ),
    )


def _compile(term, spec):
    config = DenaliConfig(
        min_cycles=1,
        max_cycles=8,
        verify=False,  # we verify explicitly below, with more trials
        saturation=SaturationConfig(max_rounds=6, max_enodes=800),
    )
    return Denali(spec, config=config).compile_term(term)


class TestRandomExpressions:
    @settings(max_examples=40, deadline=None)
    @given(_terms(2))
    def test_compiled_code_is_correct_on_simple_risc(self, term):
        result = _compile(term, simple_risc())
        if result.schedule is None:
            return  # needs more than 8 cycles; nothing to check
        from repro.verify import check_schedule

        report = check_schedule(result.gma, result.schedule, trials=8)
        assert report.passed, (term.pretty(), report.failures[:2])

    @settings(max_examples=25, deadline=None)
    @given(_terms(2))
    def test_compiled_code_is_correct_on_ev6(self, term):
        result = _compile(term, ev6())
        if result.schedule is None:
            return
        from repro.verify import check_schedule

        report = check_schedule(result.gma, result.schedule, trials=8)
        assert report.passed, (term.pretty(), report.failures[:2])

    @settings(max_examples=25, deadline=None)
    @given(_terms(2))
    def test_schedules_validate_on_timing_model(self, term):
        spec = ev6()
        result = _compile(term, spec)
        if result.schedule is None:
            return
        report = simulate_timing(result.schedule, spec)
        assert report.ok, (term.pretty(), report.violations[:2])

    @settings(max_examples=25, deadline=None)
    @given(_terms(2))
    def test_optimum_respects_depth_lower_bound(self, term):
        spec = simple_risc()
        result = _compile(term, spec)
        if result.schedule is None or not result.optimal:
            return
        eg = result.egraph
        free = set()
        for name in _INPUTS:
            t = inp(name)
            try:
                free.add(eg.find(eg.add_term(t)))
            except KeyError:  # pragma: no cover
                pass
        lower = min_depth(
            eg,
            result.goal_classes[0],
            lambda op: spec.latency(op) if spec.is_machine_op(op) else None,
            free=free,
        )
        if lower is not None:
            assert result.cycles >= lower

    @settings(max_examples=20, deadline=None)
    @given(_terms(1))
    def test_ev6_never_slower_than_single_issue(self, term):
        """Quad issue can only help: EV6 optimum <= single-issue optimum
        (same latencies; EV6 restricts units but has four of them and a
        superset of per-cycle capacity... except the cross-cluster delay,
        so allow +1)."""
        r_narrow = _compile(term, simple_risc())
        r_wide = _compile(term, ev6())
        if r_narrow.schedule is None or r_wide.schedule is None:
            return
        if r_narrow.optimal and r_wide.optimal:
            assert r_wide.cycles <= r_narrow.cycles + 1
