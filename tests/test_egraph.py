"""Tests for the union-find and the congruence-closed E-graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph import EGraph, InconsistentError, UnionFind
from repro.terms import Sort, const, inp, mk


class TestUnionFind:
    def test_fresh_sets_are_distinct(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        assert not uf.same(a, b)

    def test_union_merges(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        uf.union(a, b)
        assert uf.same(a, b)

    def test_find_returns_root(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(5)]
        for x in ids[1:]:
            uf.union(ids[0], x)
        roots = {uf.find(x) for x in ids}
        assert len(roots) == 1

    def test_union_is_idempotent(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        r1 = uf.union(a, b)
        r2 = uf.union(a, b)
        assert r1 == r2

    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=50))
    def test_equivalence_matches_naive_model(self, pairs):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(20)]
        groups = [{i} for i in range(20)]

        def group_of(i):
            for g in groups:
                if i in g:
                    return g
            raise AssertionError

        for a, b in pairs:
            uf.union(ids[a], ids[b])
            ga, gb = group_of(a), group_of(b)
            if ga is not gb:
                groups.remove(gb)
                ga |= gb
        for i in range(20):
            for j in range(20):
                assert uf.same(ids[i], ids[j]) == (group_of(i) is group_of(j))


class TestEGraphBasics:
    def test_add_term_interns(self):
        eg = EGraph()
        t = mk("add64", inp("a"), const(1))
        assert eg.add_term(t) == eg.add_term(t)

    def test_structurally_equal_terms_share_class(self):
        eg = EGraph()
        c1 = eg.add_term(mk("add64", inp("a"), const(1)))
        c2 = eg.add_term(mk("add64", inp("a"), const(1)))
        assert eg.are_equal(c1, c2)

    def test_different_terms_different_classes(self):
        eg = EGraph()
        c1 = eg.add_term(inp("a"))
        c2 = eg.add_term(inp("b"))
        assert not eg.are_equal(c1, c2)

    def test_num_enodes_counts_dag_nodes(self):
        eg = EGraph()
        eg.add_term(mk("add64", mk("mul64", inp("a"), const(4)), const(1)))
        # add64, mul64, a, 4, 1
        assert eg.num_enodes() == 5

    def test_const_of(self):
        eg = EGraph()
        c = eg.add_term(const(42))
        assert eg.const_of(c) == 42

    def test_const_of_none_for_inputs(self):
        eg = EGraph()
        c = eg.add_term(inp("a"))
        assert eg.const_of(c) is None

    def test_class_sort_memory(self):
        eg = EGraph()
        c = eg.add_term(inp("M", Sort.MEM))
        assert eg.class_sort(c) == Sort.MEM

    def test_witness_recovers_term(self):
        eg = EGraph()
        t = mk("add64", inp("a"), const(1))
        cid = eg.add_term(t)
        nodes = eg.enodes(cid)
        assert any(eg.witness(n) is t for n in nodes)

    def test_nodes_with_op(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), const(1)))
        eg.add_term(mk("add64", inp("b"), const(2)))
        assert len(eg.nodes_with_op("add64")) == 2


class TestMergeAndCongruence:
    def test_merge_makes_equal(self):
        eg = EGraph()
        a, b = eg.add_term(inp("a")), eg.add_term(inp("b"))
        eg.merge(a, b)
        assert eg.are_equal(a, b)

    def test_congruence_propagates_up(self):
        # a = b  =>  f(a) = f(b)
        eg = EGraph()
        fa = eg.add_term(mk("not64", inp("a")))
        fb = eg.add_term(mk("not64", inp("b")))
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("b")))
        assert eg.are_equal(fa, fb)

    def test_congruence_propagates_two_levels(self):
        eg = EGraph()
        ffa = eg.add_term(mk("not64", mk("not64", inp("a"))))
        ffb = eg.add_term(mk("not64", mk("not64", inp("b"))))
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("b")))
        assert eg.are_equal(ffa, ffb)

    def test_congruence_multi_argument(self):
        eg = EGraph()
        t1 = eg.add_term(mk("add64", inp("a"), inp("x")))
        t2 = eg.add_term(mk("add64", inp("b"), inp("y")))
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("b")))
        assert not eg.are_equal(t1, t2)
        eg.merge(eg.add_term(inp("x")), eg.add_term(inp("y")))
        assert eg.are_equal(t1, t2)

    def test_merge_classes_share_enodes(self):
        eg = EGraph()
        c1 = eg.add_term(mk("mul64", inp("a"), const(2)))
        c2 = eg.add_term(mk("sll", inp("a"), const(1)))
        eg.merge(c1, c2)
        ops = {n.op for n in eg.enodes(c1)}
        assert ops == {"mul64", "sll"}

    def test_new_enode_with_merged_args_reuses_class(self):
        eg = EGraph()
        a, b = eg.add_term(inp("a")), eg.add_term(inp("b"))
        eg.merge(a, b)
        fa = eg.add_term(mk("not64", inp("a")))
        fb = eg.add_term(mk("not64", inp("b")))
        assert eg.are_equal(fa, fb)

    def test_class_count_after_merge(self):
        eg = EGraph()
        c1 = eg.add_term(inp("a"))
        c2 = eg.add_term(inp("b"))
        n_before = eg.num_classes()
        eg.merge(c1, c2)
        assert eg.num_classes() == n_before - 1

    def test_merge_cascade(self):
        # A chain of merges at the leaves collapses a whole tower.
        eg = EGraph()
        ta, tb = inp("a"), inp("b")
        for _ in range(10):
            ta = mk("not64", ta)
            tb = mk("not64", tb)
        ca, cb = eg.add_term(ta), eg.add_term(tb)
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("b")))
        assert eg.are_equal(ca, cb)


class TestDistinctions:
    def test_assert_distinct_blocks_merge(self):
        eg = EGraph()
        a, b = eg.add_term(inp("a")), eg.add_term(inp("b"))
        eg.assert_distinct(a, b)
        with pytest.raises(InconsistentError):
            eg.merge(a, b)

    def test_distinct_constants_implicit(self):
        eg = EGraph()
        c1, c2 = eg.add_term(const(1)), eg.add_term(const(2))
        assert eg.are_distinct(c1, c2)
        with pytest.raises(InconsistentError):
            eg.merge(c1, c2)

    def test_distinction_on_already_equal_raises(self):
        eg = EGraph()
        a, b = eg.add_term(inp("a")), eg.add_term(inp("b"))
        eg.merge(a, b)
        with pytest.raises(InconsistentError):
            eg.assert_distinct(a, b)

    def test_distinction_survives_other_merges(self):
        eg = EGraph()
        a, b, c = (eg.add_term(inp(n)) for n in "abc")
        eg.assert_distinct(a, b)
        eg.merge(b, c)  # now a != {b,c}
        with pytest.raises(InconsistentError):
            eg.merge(a, c)

    def test_sort_mismatch_merge_rejected(self):
        eg = EGraph()
        a = eg.add_term(inp("a"))
        m = eg.add_term(inp("M", Sort.MEM))
        with pytest.raises(InconsistentError):
            eg.merge(a, m)

    def test_are_distinct_false_by_default(self):
        eg = EGraph()
        a, b = eg.add_term(inp("a")), eg.add_term(inp("b"))
        assert not eg.are_distinct(a, b)


class TestEGraphProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=8
        )
    )
    def test_congruence_matches_naive_closure(self, merges):
        """Compare against a naive O(n^3) congruence closure over a fixed universe."""
        leaves = [inp("v%d" % i) for i in range(6)]
        univ = list(leaves)
        univ += [mk("not64", x) for x in leaves]
        univ += [mk("add64", leaves[0], x) for x in leaves]

        eg = EGraph()
        ids = {t: eg.add_term(t) for t in univ}
        for i, j in merges:
            eg.merge(ids[leaves[i]], ids[leaves[j]])

        # Naive closure: iterate merging rules to fixpoint.
        parent = {t: t for t in univ}

        def find(t):
            while parent[t] is not t:
                t = parent[t]
            return t

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx is not ry:
                parent[rx] = ry
                return True
            return False

        for i, j in merges:
            union(leaves[i], leaves[j])
        changed = True
        while changed:
            changed = False
            for t1 in univ:
                for t2 in univ:
                    if t1.op == t2.op and len(t1.args) == len(t2.args) and t1.args:
                        if all(find(a) is find(b) for a, b in zip(t1.args, t2.args)):
                            if union(t1, t2):
                                changed = True

        for t1 in univ:
            for t2 in univ:
                assert eg.are_equal(ids[t1], ids[t2]) == (find(t1) is find(t2)), (
                    t1,
                    t2,
                )


class TestMinDepthOnCyclicClasses:
    """``min_depth`` on e-graphs whose classes reach themselves."""

    @pytest.mark.parametrize(
        "term",
        [
            mk("sub64", mk("and64", inp("a"), inp("a")), inp("a")),
            mk("sextl", mk("sub64", inp("b"), inp("b"))),
        ],
        ids=["sub-and", "sextl-sub"],
    )
    def test_zero_class_answers_in_time(self, term):
        # Saturation folds both terms into the zero class, whose enodes
        # loop back on it; a path-walking min_depth ran past 20 s here.
        import signal
        import time

        from repro import Denali, DenaliConfig, simple_risc
        from repro.egraph.analysis import min_depth
        from repro.matching import SaturationConfig

        spec = simple_risc()
        config = DenaliConfig(
            min_cycles=1,
            max_cycles=8,
            verify=False,
            saturation=SaturationConfig(max_rounds=6, max_enodes=800),
        )
        result = Denali(spec, config=config).compile_term(term)
        assert result.optimal and result.cycles == 1
        eg = result.egraph
        free = {eg.find(eg.add_term(inp(name))) for name in ("a", "b")}

        def expired(*_args):
            raise TimeoutError("min_depth ran past its time bound")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, 5.0)
        try:
            start = time.perf_counter()
            lower = min_depth(
                eg,
                result.goal_classes[0],
                lambda op: spec.latency(op) if spec.is_machine_op(op) else None,
                free=free,
            )
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1.0
        assert lower == 0
        assert result.cycles >= lower
