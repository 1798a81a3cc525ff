"""Tests for E-graph analyses (ways-of-computing, dataflow depth) and the
classic cheapest-term extraction."""


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
    """The classic cheapest-term extraction, ``greedy_select``, under the
    ev6 latency model: machine ops cost their latency, anything the
    machine cannot compute is not viable."""

    def _extract(self, eg, cid):
        from repro.extraction import LEAF_OPS, greedy_select, latency_cost

        spec = ev6()
        sel = greedy_select(
            eg,
            [cid],
            latency_cost(spec),
            viable=lambda n: n.op in LEAF_OPS or spec.is_machine_op(n.op),
        )
        return sel, sel.rendered.get(eg.find(cid))

    def test_extracts_single_node(self):
        eg = EGraph()
        c = eg.add_term(mk("add64", inp("a"), inp("b")))
        sel, term = self._extract(eg, c)
        assert term == "add64($a,$b)"
        assert sel.cost == 1

    def test_prefers_cheaper_alternative(self):
        eg = EGraph()
        mul = eg.add_term(mk("mul64", inp("a"), const(2)))  # latency 7
        shift = eg.add_term(mk("sll", inp("a"), const(1)))  # latency 1
        eg.merge(mul, shift)
        sel, term = self._extract(eg, mul)
        assert term.startswith("sll(")
        assert sel.cost == 1

    def test_fig2_extracts_s4addq(self):
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
        sel, term = self._extract(eg, goal)
        assert term.startswith("s4addq(")
        assert sel.cost == 1

    def test_uncomputable_returns_none(self):
        eg = EGraph()
        c = eg.add_term(mk("pow", inp("a"), inp("b")))
        sel, term = self._extract(eg, c)
        assert sel.cost is None and term is None

    def test_extracted_term_is_equivalent(self):
        """Extraction preserves semantics: the cheapest term evaluates to
        the same values as the original."""
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
        sel, _term = self._extract(eg, goal)

        def build(cid):
            node = sel.choice[eg.find(cid)]
            if node.op == "const":
                return const(node.value)
            if node.op == "input":
                return inp(node.name, eg.class_sort(cid))
            return mk(node.op, *map(build, node.args), registry=reg)

        term = build(goal)
        for a, b in [(0, 0), (3, 5), (2**63, 1), ((1 << 64) - 1, 7)]:
            env = {"a": a, "b": b}
            assert evaluate(term, env) == evaluate(original, env)

    def test_cost_counts_tree_occurrences(self):
        """The choice minimises the tree bound, which charges a shared
        subterm per occurrence; the reported cost is the chosen DAG's,
        which pays it once."""
        from repro.extraction import class_lower_bounds, latency_cost

        eg = EGraph()
        shared = mk("add64", inp("a"), inp("b"))
        c = eg.add_term(mk("and64", shared, shared))
        tree = class_lower_bounds(eg, latency_cost(ev6()), "tree")
        assert tree[eg.find(c)] == 3  # and64 + two charged adds
        sel, _term = self._extract(eg, c)
        assert sel.cost == 2
