"""Tests for E-graph analyses (ways-of-computing, dataflow depth)."""


from repro import EGraph, const, default_registry, ev6, inp, mk
from repro.axioms import math_axioms
from repro.egraph.analysis import count_ways, min_depth
from repro.matching import SaturationConfig, saturate


class TestCountWays:
    def test_leaf_is_one_way(self):
        eg = EGraph()
        c = eg.add_term(inp("a"))
        assert count_ways(eg, c) == 1

    def test_single_application(self):
        eg = EGraph()
        c = eg.add_term(mk("add64", inp("a"), inp("b")))
        assert count_ways(eg, c) == 1

    def test_two_alternatives(self):
        eg = EGraph()
        c1 = eg.add_term(mk("mul64", inp("a"), const(2)))
        c2 = eg.add_term(mk("sll", inp("a"), const(1)))
        eg.merge(c1, c2)
        assert count_ways(eg, c1) == 2

    def test_ways_multiply_through_arguments(self):
        eg = EGraph()
        inner1 = eg.add_term(mk("mul64", inp("a"), const(2)))
        inner2 = eg.add_term(mk("sll", inp("a"), const(1)))
        eg.merge(inner1, inner2)
        outer = eg.add_term(mk("not64", mk("mul64", inp("a"), const(2))))
        assert count_ways(eg, outer) == 2

    def test_machine_op_filter(self):
        spec = ev6()
        eg = EGraph()
        c1 = eg.add_term(mk("mul64", inp("a"), const(4)))
        c2 = eg.add_term(mk("pow", inp("a"), const(9)))  # pow: not machine
        eg.merge(c1, c2)
        assert count_ways(eg, c1) == 2
        assert count_ways(eg, c1, is_computable_op=spec.is_machine_op) == 1

    def test_cyclic_class_not_counted(self):
        # x = x + 0 puts an add64 node whose argument is its own class.
        eg = EGraph()
        x = eg.add_term(inp("x"))
        plus0 = eg.add_term(mk("add64", inp("x"), const(0)))
        eg.merge(x, plus0)
        # Only the input derivation counts: a derivation of x may not
        # contain x itself, so add64(x, 0) is excluded.
        assert count_ways(eg, x) == 1

    def test_cap_saturates(self):
        reg = default_registry()
        eg = EGraph()
        t = inp("v0")
        for i in range(1, 6):
            t = mk("add64", t, inp("v%d" % i))
        goal = eg.add_term(t)
        saturate(eg, math_axioms(reg).relevant_to({"add64"}), reg,
                 SaturationConfig(max_rounds=20, max_enodes=8000))
        assert count_ways(eg, goal, cap=100) == 100

    def test_paper_claim_over_100_ways(self):
        reg = default_registry()
        eg = EGraph()
        t = inp("a")
        for n in "bcde":
            t = mk("add64", t, inp(n))
        goal = eg.add_term(t)
        stats = saturate(
            eg,
            math_axioms(reg).relevant_to({"add64"}),
            reg,
            SaturationConfig(max_rounds=20, max_enodes=8000),
        )
        assert stats.quiescent
        assert count_ways(eg, goal) > 100


class TestMinDepth:
    def _latency(self, spec):
        return lambda op: spec.latency(op) if spec.is_machine_op(op) else None

    def test_leaf_depth_zero(self):
        eg = EGraph()
        c = eg.add_term(inp("a"))
        assert min_depth(eg, c, self._latency(ev6())) == 0

    def test_chain_depth(self):
        eg = EGraph()
        c = eg.add_term(
            mk("add64", mk("add64", inp("a"), inp("b")), inp("c"))
        )
        assert min_depth(eg, c, self._latency(ev6())) == 2

    def test_latency_counts(self):
        eg = EGraph()
        c = eg.add_term(mk("mul64", inp("a"), inp("b")))
        assert min_depth(eg, c, self._latency(ev6())) == 7

    def test_alternative_lowers_depth(self):
        eg = EGraph()
        mul = eg.add_term(mk("mul64", inp("a"), const(2)))
        assert min_depth(eg, mul, self._latency(ev6())) == 7
        shift = eg.add_term(mk("sll", inp("a"), const(1)))
        eg.merge(mul, shift)
        assert min_depth(eg, mul, self._latency(ev6())) == 1

    def test_uncomputable_is_none(self):
        eg = EGraph()
        c = eg.add_term(mk("pow", inp("a"), inp("b")))
        assert min_depth(eg, c, self._latency(ev6())) is None

    def test_free_classes_cost_zero(self):
        eg = EGraph()
        t = eg.add_term(mk("not64", inp("a")))
        a_class = eg.add_term(inp("a"))
        assert (
            min_depth(eg, t, self._latency(ev6()), free={eg.find(a_class)})
            == 1
        )

    def test_depth_is_schedule_lower_bound(self):
        """min_depth never exceeds what the SAT search finds."""
        from repro import Denali, DenaliConfig
        from tests.machines import simple_risc

        term = mk(
            "bis",
            mk("add64", mk("sll", inp("a"), const(2)), inp("b")),
            inp("c"),
        )
        den = Denali(simple_risc(), config=DenaliConfig(max_cycles=8))
        result = den.compile_term(term)
        eg = result.egraph
        spec = simple_risc()
        lower = min_depth(
            eg,
            result.goal_classes[0],
            self._latency(spec),
            free={
                eg.find(eg.add_term(inp(v))) for v in ("a", "b", "c")
            },
        )
        assert lower is not None
        assert lower <= result.cycles


class TestExtractBest:
    def _spec_cost(self):
        spec = ev6()
        return lambda op: spec.latency(op) if spec.is_machine_op(op) else None

    def test_extracts_single_node(self):
        from repro.egraph.analysis import extract_best

        eg = EGraph()
        c = eg.add_term(mk("add64", inp("a"), inp("b")))
        term, cost = extract_best(eg, c, self._spec_cost())
        assert term is mk("add64", inp("a"), inp("b"))
        assert cost == 1.0

    def test_prefers_cheaper_alternative(self):
        from repro.egraph.analysis import extract_best

        eg = EGraph()
        mul = eg.add_term(mk("mul64", inp("a"), const(2)))  # latency 7
        shift = eg.add_term(mk("sll", inp("a"), const(1)))  # latency 1
        eg.merge(mul, shift)
        term, cost = extract_best(eg, mul, self._spec_cost())
        assert term.op == "sll"
        assert cost == 1.0

    def test_fig2_extracts_s4addq(self):
        from repro.egraph.analysis import extract_best
        from repro.axioms import (alpha_axioms, constant_synthesis_axioms,
                                  math_axioms)

        reg = default_registry()
        eg = EGraph()
        goal = eg.add_term(
            mk("add64", mk("mul64", inp("a"), const(4)), const(1))
        )
        saturate(
            eg,
            math_axioms(reg) + constant_synthesis_axioms(reg) + alpha_axioms(reg),
            reg,
        )
        term, cost = extract_best(eg, goal, self._spec_cost())
        assert term.op == "s4addq"
        assert cost == 1.0

    def test_uncomputable_returns_none(self):
        from repro.egraph.analysis import extract_best

        eg = EGraph()
        c = eg.add_term(mk("pow", inp("a"), inp("b")))
        assert extract_best(eg, c, self._spec_cost()) is None

    def test_extracted_term_is_equivalent(self):
        """Extraction preserves semantics: the cheapest term evaluates to
        the same values as the original."""
        from repro.egraph.analysis import extract_best
        from repro.axioms import (alpha_axioms, constant_synthesis_axioms,
                                  math_axioms)
        from repro.terms import evaluate

        reg = default_registry()
        original = mk("add64", mk("mul64", inp("a"), const(8)), inp("b"))
        eg = EGraph()
        goal = eg.add_term(original)
        saturate(
            eg,
            math_axioms(reg) + constant_synthesis_axioms(reg) + alpha_axioms(reg),
            reg,
        )
        term, _cost = extract_best(eg, goal, self._spec_cost())
        for a, b in [(0, 0), (3, 5), (2**63, 1), ((1 << 64) - 1, 7)]:
            env = {"a": a, "b": b}
            assert evaluate(term, env) == evaluate(original, env)

    def test_cost_counts_tree_occurrences(self):
        from repro.egraph.analysis import extract_best

        eg = EGraph()
        shared = mk("add64", inp("a"), inp("b"))
        c = eg.add_term(mk("and64", shared, shared))
        _term, cost = extract_best(eg, c, self._spec_cost())
        assert cost == 3.0  # and64 + two charged occurrences of the add
