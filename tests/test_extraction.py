"""Unit and differential tests for the exact extraction stage.

Three layers:

* hand-built e-graphs with known optima — the canonical shared-subterm
  diamond where greedy's per-class choice is strictly suboptimal, a
  merge-created cycle through a class, and tie-break determinism;
* greedy vs exact end-to-end over the pinned fuzz corpus — the exact
  mode must never cost more, never change the proved cycle count, and
  both schedules must verify;
* the ``--stats-json`` surface: both modes report their extraction
  record per GMA and in the aggregate totals.
"""

import json
from collections import namedtuple

import pytest

from repro.egraph.egraph import EGraph
from repro.extraction import (
    WeightedCounter,
    class_lower_bounds,
    enode_tree_bound,
    exact_select,
    greedy_select,
    prune_dominated,
    schedule_cost,
    unit_cost,
)

# -- fixtures ------------------------------------------------------------------


def _diamond_vs_chain():
    """Greedy picks the 6-op chain; the diamond shares P and costs 5.

    The merged root class holds two implementations: a multiply whose
    operands share the 2-op subterm P (tree cost 7, DAG cost 5) and a
    chain of 6 distinct ops (tree cost 6, DAG cost 6).  Greedy minimises
    the *tree* bound per class, so it takes the chain; the exact
    selector pays P once and proves 5.
    """
    eg = EGraph()
    a = eg.add_enode("input", (), name="a")
    b = eg.add_enode("input", (), name="b")
    p1 = eg.add_enode("sll", (a, b))
    p = eg.add_enode("add64", (p1, b))
    s = eg.add_enode("add64", (p, a))
    t = eg.add_enode("sub64", (p, b))
    n1 = eg.add_enode("mul64", (s, t))
    c = eg.add_enode("srl", (a, b))
    c = eg.add_enode("sra", (c, b))
    c = eg.add_enode("sextb", (c,))
    c = eg.add_enode("sextw", (c,))
    c = eg.add_enode("zap", (c, b))
    n2 = eg.add_enode("ornot", (c, b))
    eg.merge(n1, n2)
    eg.rebuild()
    return eg, eg.find(n1)


def _cyclic_class():
    """A merge-created cycle: class(a) also contains srl(class(x), b)."""
    eg = EGraph()
    a = eg.add_enode("input", (), name="a")
    b = eg.add_enode("input", (), name="b")
    x = eg.add_enode("sll", (a, b))
    y = eg.add_enode("srl", (x, b))
    eg.merge(y, a)
    eg.rebuild()
    return eg, eg.find(x)


# -- hand-built optima ---------------------------------------------------------


class TestSelectors:
    def test_greedy_realizes_the_chain(self):
        eg, root = _diamond_vs_chain()
        g = greedy_select(eg, [root])
        assert g.cost == 6
        assert g.mode == "greedy"
        assert "ornot(" in g.rendered[root]

    def test_exact_beats_greedy_on_the_diamond(self):
        eg, root = _diamond_vs_chain()
        g = greedy_select(eg, [root])
        x = exact_select(eg, [root])
        assert x.cost == 5 < g.cost
        assert x.optimal, "UNSAT at bound 4 proves no cheaper selection"
        assert x.mode == "exact"
        assert "mul64(" in x.rendered[root]

    def test_exact_is_deterministic(self):
        eg, root = _diamond_vs_chain()
        x1 = exact_select(eg, [root])
        x2 = exact_select(eg, [root])
        assert (x1.cost, x1.rendered) == (x2.cost, x2.rendered)

    def test_cycle_through_a_class_terminates(self):
        eg, root = _cyclic_class()
        g = greedy_select(eg, [root])
        x = exact_select(eg, [root])
        assert g.cost == 1  # sll($a, $b); never loops through srl
        assert x.cost == 1 and x.optimal
        assert g.rendered[root] == x.rendered[root]

    def test_tie_break_is_insertion_order_independent(self):
        """Two same-cost alternatives: the pick is structural, not
        historical."""

        def build(flip):
            eg = EGraph()
            a = eg.add_enode("input", (), name="a")
            b = eg.add_enode("input", (), name="b")
            ops = ("add64", "sub64")
            first, second = (ops[1], ops[0]) if flip else ops
            n1 = eg.add_enode(first, (a, b))
            n2 = eg.add_enode(second, (a, b))
            eg.merge(n1, n2)
            eg.rebuild()
            return eg, eg.find(n1)

        picks = []
        for flip in (False, True):
            eg, root = build(flip)
            g = greedy_select(eg, [root])
            x = exact_select(eg, [root])
            assert g.cost == x.cost == 1
            picks.append((g.rendered[root], x.rendered[root]))
        assert picks[0] == picks[1]

    def test_operands_hook_turns_a_self_loop_into_an_immediate(self):
        """ldiq sits in its own constant's class: read as an argument the
        constant is a self-loop no selection can close; read as an
        immediate (the scheduling encoder's view) it is no dependency."""
        eg = EGraph()
        a = eg.add_enode("input", (), name="a")
        k = eg.add_enode("const", (), value=1000)
        eg.merge(eg.add_enode("ldiq", (k,)), k)
        root = eg.add_enode("add64", (a, k))
        eg.rebuild()
        leaves = {eg.find(a)}
        machine = lambda n: n.op not in ("input", "const")  # noqa: E731
        immediate = lambda n: () if n.op == "ldiq" else n.args  # noqa: E731
        assert exact_select(
            eg, [root], leaf_classes=leaves, viable=machine
        ).cost is None
        for sel in (
            greedy_select(eg, [root], unit_cost, leaves, machine, immediate),
            exact_select(
                eg, [root], leaf_classes=leaves, viable=machine,
                operands=immediate,
            ),
        ):
            assert sel.cost == 2
            assert sel.rendered[eg.find(root)] == "add64($a,ldiq())"

    def test_upper_below_greedy_starts_the_ladder_there(self):
        eg, root = _diamond_vs_chain()
        x = exact_select(eg, [root], upper=5)
        assert x.cost == 5 and x.optimal
        # No selection beats the caller's bound: its witness is the
        # caller's, so the Selection carries none.
        assert x.choice == {} and x.rendered == {}

    def test_leaf_root_costs_zero(self):
        eg = EGraph()
        a = eg.add_enode("input", (), name="a")
        for sel in (greedy_select(eg, [a]), exact_select(eg, [a])):
            assert sel.cost == 0
            assert sel.rendered[eg.find(a)] == "$a"


# -- bounds, pruner, counter ---------------------------------------------------


class TestBounds:
    def test_tree_and_dag_bounds_on_the_diamond(self):
        eg, root = _diamond_vs_chain()
        tree = class_lower_bounds(eg, unit_cost, "tree")
        dag = class_lower_bounds(eg, unit_cost, "dag")
        assert tree[root] == 6  # the chain, every subterm paid once each
        # dag: 1 (mul64) + max over args; a lower bound, below the
        # realized optimum of 5 — the exact proof must close that gap.
        assert dag[root] == 4
        assert all(dag[c] <= tree[c] for c in tree)

    def test_bad_mode_rejected(self):
        eg, _root = _diamond_vs_chain()
        with pytest.raises(ValueError):
            class_lower_bounds(eg, unit_cost, "best")

    def test_viable_filter_can_make_a_class_unrealizable(self):
        eg, root = _diamond_vs_chain()
        bounds = class_lower_bounds(
            eg, unit_cost, "tree", viable=lambda n: n.op == "input"
        )
        assert root not in bounds

    def test_killed_congruent_twins_do_not_count(self):
        """A rebuild kills one of two congruent nodes but leaves its
        stale key in the flat columns; a viability filter over the
        canonical nodes must not be fooled by it."""
        eg = EGraph()
        a = eg.add_enode("input", (), name="a")
        b = eg.add_enode("input", (), name="b")
        x = eg.add_enode("sextb", (a,))
        eg.add_enode("sextb", (b,))
        eg.merge(a, b)
        eg.rebuild()
        (live,) = [n for n in eg.enodes(eg.find(x)) if n.op == "sextb"]
        bounds = class_lower_bounds(
            eg, unit_cost, "tree", viable=lambda n: n != live
        )
        assert eg.find(x) not in bounds
        sel = greedy_select(eg, [x], unit_cost, viable=lambda n: n != live)
        assert sel.cost is None

    def test_schedule_cost_counts_distinct_terms_once(self):
        Instr = namedtuple("Instr", "node")
        eg = EGraph()
        a = eg.add_enode("input", (), name="a")
        node = next(iter(eg.enodes(eg.find(a))))
        sll = EGraph()
        b = sll.add_enode("input", (), name="b")
        op = sll.add_enode("sll", (b, b))
        op_node = next(
            n for n in sll.enodes(sll.find(op)) if n.op == "sll"
        )
        instrs = [Instr(op_node), Instr(op_node), Instr(node)]
        # the repeated sll counts once; the input leaf still pays the
        # max(1, .) floor because a scheduled launch occupies a slot
        assert schedule_cost(instrs, unit_cost) == 1 + 1


class TestPruner:
    def test_survivors_keep_each_class_minimum(self):
        eg, root = _diamond_vs_chain()
        bounds = class_lower_bounds(eg, unit_cost, "tree")
        candidates = {
            cid: list(eg.enodes(cid))
            for cid in bounds
        }
        survivors = prune_dominated(eg, unit_cost, bounds, candidates, slack=0)
        assert survivors.keys() == candidates.keys()
        for cid, nodes in candidates.items():
            if not nodes:
                continue
            kept = survivors[cid]
            assert kept, "pruning stranded class %d" % cid
            assert set(kept) <= set(nodes)
            assert min(
                enode_tree_bound(eg, n, unit_cost, bounds) for n in kept
            ) == bounds[cid]

    def test_slack_zero_prunes_the_diamond_root_chain(self):
        eg, root = _diamond_vs_chain()
        bounds = class_lower_bounds(eg, unit_cost, "tree")
        candidates = {root: list(eg.enodes(root))}
        survivors = prune_dominated(eg, unit_cost, bounds, candidates, slack=0)
        ops = {n.op for n in survivors[root]}
        assert ops == {"ornot"}  # tree bound 6 == class bound; mul64 is 7
        wider = prune_dominated(eg, unit_cost, bounds, candidates, slack=1)
        assert {n.op for n in wider[root]} == {"ornot", "mul64"}

    def test_unrealizable_class_is_emptied(self):
        eg, root = _diamond_vs_chain()
        candidates = {root: list(eg.enodes(root))}
        survivors = prune_dominated(eg, unit_cost, {}, candidates, slack=2)
        assert survivors == {root: []}

    def test_wide_constant_ldiq_survives_refine_pruning(self, monkeypatch):
        # ldiq's constant is an immediate, not an operand: under the
        # refinement's tree bounds a wide-constant class (checksum's
        # 0xFFFF mask) costs one ldiq, and that ldiq is not pruned.
        import os

        from repro.extraction import refine
        from repro.service import JobSpec, compile_job

        seen = []

        def recording_prune(eg, cost, bounds, candidates, **kwargs):
            survivors = prune_dominated(eg, cost, bounds, candidates, **kwargs)
            for root, nodes in candidates.items():
                for node in nodes:
                    if node.op == "ldiq":
                        seen.append((
                            eg.const_of(root),
                            bounds.get(root),
                            node in survivors[root],
                        ))
            return survivors

        monkeypatch.setattr(refine, "prune_dominated", recording_prune)
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "benchmarks", "workloads", "checksum.dn",
        )
        with open(path) as handle:
            source = handle.read()
        compile_job(JobSpec(source=source, extraction="exact", max_cycles=16))
        assert (0xFFFF, 1, True) in seen


class TestWeightedCounter:
    def test_row_semantics_and_truncation(self):
        clauses = []
        counter_vars = [0]

        def new_var():
            counter_vars[0] += 1
            return counter_vars[0]

        counter = WeightedCounter(new_var, clauses.append, cap=4)
        counter.geq(1)  # empty counter: trivially None
        counter.add(101, 2)
        counter.add(102, 3)
        assert counter.weight_total == 5
        assert counter.geq(5) is not None  # reachable: both items true
        with pytest.raises(ValueError):
            counter.geq(6)  # beyond cap + 1: truncated away
        with pytest.raises(ValueError):
            counter.geq(0)
        assert all(
            all(lit != 0 for lit in clause) for clause in clauses
        )

    def test_zero_weight_items_are_free(self):
        counter = WeightedCounter(lambda: 1, lambda c: None, cap=3)
        counter.add(7, 0)
        assert counter.weight_total == 0
        assert counter.geq(1) is None


# -- greedy vs exact over the pinned corpus ------------------------------------


def _compile(gma, registry, axioms, extraction, label):
    from repro.core.pipeline import Denali, DenaliConfig
    from repro.isa import ev6
    from repro.matching import SaturationConfig

    config = DenaliConfig(
        max_cycles=12,
        extraction=extraction,
        saturation=SaturationConfig(max_rounds=10, max_enodes=3000),
    )
    den = Denali(ev6(), axioms=axioms, registry=registry, config=config)
    return den.compile_gma(gma, label=label)


def test_corpus_greedy_vs_exact():
    """Differential rig: every pinned corpus GMA, both extraction modes."""
    from repro.axioms import AxiomSet
    from repro.core import cache as _cache
    from repro.fuzz import load_corpus
    from repro.lang import parse_program, translate_procedure

    entries = load_corpus()
    assert len(entries) >= 10
    compared = 0
    for entry in entries:
        program = parse_program(entry.source)
        registry = program.registry
        axioms = _cache.global_axiom_cache().default_corpus(registry)
        if program.axioms:
            axioms = axioms + AxiomSet(program.axioms, "program")
        for proc in program.procedures:
            for label, gma in translate_procedure(proc, registry):
                rg = _compile(gma, registry, axioms, "greedy", label)
                rx = _compile(gma, registry, axioms, "exact", label)
                assert (rg.schedule is None) == (rx.schedule is None), (
                    entry.name, label
                )
                if rg.schedule is None:
                    continue
                compared += 1
                assert rx.cycles == rg.cycles, (entry.name, label)
                assert rg.verified and rx.verified, (entry.name, label)
                g_rec, x_rec = rg.stats.extraction, rx.stats.extraction
                assert g_rec["mode"] == "greedy"
                assert x_rec["mode"] == "exact"
                assert x_rec["cost"] <= g_rec["cost"], (entry.name, label)
                assert x_rec["exact_cost"] <= x_rec["greedy_cost"]
                assert x_rec["improved"] == (
                    x_rec["exact_cost"] < x_rec["greedy_cost"]
                )
    assert compared >= 10, "corpus lost its compilable entries"


# -- the stats surface ---------------------------------------------------------


SIMPLE = r"""
(\procdecl scale ((a long)) long
  (:= (\res (+ (* a 4) 1))))
"""


class TestStatsSurface:
    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "prog.dn"
        path.write_text(SIMPLE)
        return str(path)

    def test_stats_json_reports_greedy_record(self, source_file, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "stats.json")
        status = main([source_file, "--quiet", "--stats-json", path])
        assert status == 0
        report = json.load(open(path))
        rec = report["gmas"][0]["extraction"]
        assert rec["mode"] == "greedy"
        assert rec["cost"] >= 1
        totals = report["totals"]["extraction"]
        assert totals["sessions"] == len(report["gmas"])
        assert totals["exact_sessions"] == 0

    def test_stats_json_reports_exact_record(self, source_file, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "stats.json")
        status = main([source_file, "--quiet", "--extraction", "exact",
                       "--stats-json", path])
        assert status == 0
        report = json.load(open(path))
        rec = report["gmas"][0]["extraction"]
        assert rec["mode"] == "exact"
        assert {"cost", "greedy_cost", "exact_cost", "improved", "proved",
                "candidates", "pruned", "slack", "solves", "relaxations",
                "floor", "floor_by", "optimal_by", "seconds"} <= set(rec)
        assert rec["exact_cost"] <= rec["greedy_cost"]
        assert rec["floor"] <= rec["exact_cost"]
        assert rec["floor_by"] in ("dag", "selection")
        assert rec["optimal_by"] in ("floor", "unsat", None)
        assert rec["proved"] == (rec["optimal_by"] is not None)
        totals = report["totals"]["extraction"]
        assert totals["exact_sessions"] == len(report["gmas"])
        assert totals["exact_cost"] <= totals["greedy_cost"]
        assert sum(totals["floor_by"].values()) == totals["exact_sessions"]
        assert set(totals["optimal_by"]) == {"floor", "unsat"}
        assert sum(totals["optimal_by"].values()) == totals["proved"]

    def test_unknown_extraction_mode_is_rejected(self):
        from repro.core.pipeline import Denali, DenaliConfig
        from repro.isa import ev6

        den = Denali(ev6(), config=DenaliConfig(extraction="best"))
        with pytest.raises(ValueError, match="extraction"):
            den.compile_gma(None)
