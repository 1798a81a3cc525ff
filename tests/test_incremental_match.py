"""Tests for the incremental E-matching core.

Covers the E-graph's mod-time journal (``changed_since`` / ``dirty_cone``
/ ``extend_cone``), snapshot/restore, the stamp-filtered ``ematch_since``
scan, dedupe-key recanonicalization after merges, budget-hit telemetry,
partition signatures, and the dirty-cone-vs-full-scan saturation fixpoint
parity the ``matching`` fuzz oracle enforces.
"""

import random

import pytest

from repro.axioms import (
    alpha_axioms,
    constant_synthesis_axioms,
    math_axioms,
    parse_axiom_file,
)
from repro.axioms.axiom import Pattern
from repro.egraph import EGraph, EGraphSnapshot, partition_signature
from repro.matching import (
    SaturationConfig,
    SaturationEngine,
    ematch_all,
    ematch_since,
    saturate,
)
from repro.terms import const, default_registry, inp, mk

COMM = r"(\axiom (forall (x y) (pats (\add64 x y)) (eq (\add64 x y) (\add64 y x))))"
IDENT = r"(\axiom (forall (x) (pats (\mul64 x 1)) (eq (\mul64 x 1) x)))"


def _axioms(text):
    return parse_axiom_file(text)


def _full_corpus(reg):
    return (
        math_axioms(reg) + constant_synthesis_axioms(reg) + alpha_axioms(reg)
    )


class TestModTimes:
    def test_version_advances_on_structural_change(self):
        eg = EGraph()
        v0 = eg.version
        eg.add_term(mk("add64", inp("a"), inp("b")))
        assert eg.version > v0

    def test_changed_since_reports_new_roots(self):
        eg = EGraph()
        eg.add_term(inp("a"))
        stamp = eg.version
        c = eg.add_term(mk("add64", inp("a"), inp("b")))
        changed = eg.changed_since(stamp)
        assert eg.find(c) in changed
        assert eg.changed_since(eg.version) == set()

    def test_merge_touches_surviving_root(self):
        eg = EGraph()
        a = eg.add_term(inp("a"))
        b = eg.add_term(inp("b"))
        stamp = eg.version
        eg.merge(a, b)
        eg.rebuild()
        assert eg.find(a) in eg.changed_since(stamp)

    def test_dirty_cone_includes_ancestors(self):
        eg = EGraph()
        f = eg.add_term(mk("add64", inp("a"), inp("b")))
        eg.rebuild()
        stamp = eg.version
        assert eg.dirty_cone(stamp) == set()
        # Touch a leaf: the cone must pull in the enclosing application.
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("c")))
        eg.rebuild()
        cone = eg.dirty_cone(stamp)
        assert eg.find(f) in cone


class TestExtendCone:
    @pytest.mark.parametrize("seed", range(5))
    def test_extension_matches_full_recompute(self, seed):
        """Incrementally extended cones equal a from-scratch dirty_cone.

        Random graph mutations (term additions and merges) are applied in
        chunks; after every chunk the cone is extended from the previous
        refresh point and compared against a full recompute for the same
        base stamp (dead ids left behind by merges are ignored — only
        live roots matter to the matcher).
        """
        rng = random.Random(seed)
        eg = EGraph()
        pool = [eg.add_term(inp("x%d" % i)) for i in range(4)]
        eg.rebuild()
        base = eg.version
        cone = eg.dirty_cone(base)
        last_refresh = eg.version
        for _chunk in range(6):
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.6 or len(pool) < 2:
                    a, b = rng.choice(pool), rng.choice(pool)
                    pool.append(
                        eg.add_enode("add64", (eg.find(a), eg.find(b)))
                    )
                else:
                    eg.merge(rng.choice(pool), rng.choice(pool))
            eg.rebuild()
            eg.extend_cone(cone, last_refresh)
            last_refresh = eg.version
            full = eg.dirty_cone(base)
            live = {c for c in cone if eg.find(c) == c}
            assert live == full


class TestSnapshot:
    def _saturated(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        saturate(eg, _axioms(COMM))
        return eg

    def test_restore_is_independent(self):
        eg = self._saturated()
        snap = eg.snapshot()
        assert isinstance(snap, EGraphSnapshot)
        first = snap.restore()
        before = first.num_enodes()
        first.add_term(mk("mul64", inp("z"), const(7)))
        second = snap.restore()
        assert second.num_enodes() == before

    def test_restore_preserves_partition(self):
        eg = self._saturated()
        snap = eg.snapshot()
        restored = snap.restore()
        assert partition_signature(restored) == partition_signature(eg)
        assert restored.num_enodes() == eg.num_enodes()

    def test_master_isolated_from_source_mutation(self):
        eg = self._saturated()
        snap = eg.snapshot()
        frozen = eg.num_enodes()
        eg.add_term(mk("mul64", inp("q"), const(3)))
        assert snap.restore().num_enodes() == frozen


class TestEnodesAtLeast:
    def test_agrees_with_exact_count_on_dirty_graph(self):
        """The fast path answers only when the stale upper bound settles it."""
        eg = EGraph()
        a = eg.add_term(mk("add64", inp("a"), inp("b")))
        b = eg.add_term(mk("add64", inp("c"), inp("b")))
        # Merging the two adds leaves duplicate hashcons entries until the
        # next closure run; the raw size over-counts the canonical graph.
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("c")))
        eg.merge(a, b)
        for bound in range(1, 12):
            fresh = eg.copy()
            assert fresh.enodes_at_least(bound) == (
                fresh.num_enodes() >= bound
            )

    def test_below_bound_answer_skips_the_rebuild(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("b")))
        assert eg._repair
        assert not eg.enodes_at_least(1000)
        assert eg._repair  # settled from the upper bound alone
        assert eg.enodes_at_least(1)
        assert not eg._repair  # crossing the bound forced the exact count


class TestEmatchSince:
    PAT = Pattern.apply("add64", Pattern.variable("x"), Pattern.variable("y"))

    def test_stamp_zero_equals_full_scan(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        eg.add_term(mk("add64", inp("c"), inp("d")))
        eg.rebuild()
        scan = ematch_since(eg, self.PAT, 0)
        assert scan.substs == ematch_all(eg, self.PAT)
        assert scan.pruned == 0

    def test_only_dirty_heads_scanned(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        eg.rebuild()
        stamp = eg.version
        fresh = eg.add_term(mk("add64", inp("c"), inp("d")))
        eg.rebuild()
        scan = ematch_since(eg, self.PAT, stamp)
        assert scan.scanned == 1
        assert scan.pruned == 1
        assert scan.substs == [
            {"x": eg.find(eg.add_term(inp("c"))),
             "y": eg.find(eg.add_term(inp("d")))}
        ]
        assert eg.find(fresh) in eg.dirty_cone(stamp)

    def test_quiescent_graph_scans_nothing(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        eg.rebuild()
        scan = ematch_since(eg, self.PAT, eg.version)
        assert scan.substs == []
        assert scan.scanned == 0
        assert scan.pruned == 1


class TestDedupeRecanonicalization:
    def test_dedupe_survives_merges(self):
        """Satellite: instance keys are re-keyed after merges.

        After ``a`` and ``c`` merge, the commuted instances of
        ``add64(a,b)`` and ``add64(c,b)`` collapse onto one key; a rerun
        must recognise every instance as already asserted instead of
        re-asserting under the stale pre-merge key.
        """
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        eg.add_term(mk("add64", inp("c"), inp("b")))
        engine = SaturationEngine(eg, _axioms(COMM))
        engine.run()
        first = engine.stats.instances_asserted
        assert first == 4  # both terms and both flips
        eg.merge(eg.add_term(inp("a")), eg.add_term(inp("c")))
        eg.rebuild()
        engine.run()
        assert engine.stats.instances_asserted == first

    def test_merge_during_saturation_does_not_reassert(self):
        """x*1=x merges mid-run; commutativity keys stay deduplicated."""
        eg = EGraph()
        eg.add_term(mk("add64", mk("mul64", inp("a"), const(1)), inp("b")))
        eg.add_term(mk("add64", inp("a"), inp("b")))
        engine = SaturationEngine(
            eg,
            _axioms(COMM + "\n" + IDENT),
            config=SaturationConfig(synthesize_constants=False),
        )
        engine.run()
        first = engine.stats.instances_asserted
        engine.run()
        assert engine.stats.instances_asserted == first
        assert engine.stats.quiescent


class TestBudgetHits:
    def _chain(self, eg, n=8):
        t = inp("x0")
        for i in range(1, n):
            t = mk("add64", t, inp("x%d" % i))
        eg.add_term(t)

    def test_max_rounds_recorded(self):
        reg = default_registry()
        eg = EGraph()
        self._chain(eg)
        axioms = math_axioms(reg).relevant_to({"add64"})
        stats = saturate(eg, axioms, reg, SaturationConfig(max_rounds=1))
        assert stats.budget_hits.get("max_rounds") == 1

    def test_max_enodes_recorded(self):
        reg = default_registry()
        eg = EGraph()
        self._chain(eg)
        axioms = math_axioms(reg).relevant_to({"add64"})
        stats = saturate(
            eg, axioms, reg, SaturationConfig(max_rounds=50, max_enodes=60)
        )
        assert "max_enodes_round" in stats.budget_hits

    def test_max_matches_recorded_per_trigger(self, monkeypatch):
        from repro.matching import saturation

        monkeypatch.setattr(saturation, "MAX_MATCHES_PER_TRIGGER", 1)
        eg = EGraph()
        self._chain(eg, n=4)
        stats = saturate(eg, _axioms(COMM))
        hits = stats.budget_hits.get("max_matches")
        assert hits and sum(hits.values()) >= 1

    def test_quiescent_run_records_nothing(self):
        eg = EGraph()
        eg.add_term(mk("add64", inp("a"), inp("b")))
        stats = saturate(eg, _axioms(COMM))
        assert stats.quiescent
        assert stats.budget_hits == {}


class TestPartitionSignature:
    def test_insertion_order_irrelevant(self):
        a = EGraph()
        a.add_term(mk("add64", inp("p"), inp("q")))
        a.add_term(mk("mul64", inp("p"), const(3)))
        b = EGraph()
        b.add_term(mk("mul64", inp("p"), const(3)))
        b.add_term(mk("add64", inp("p"), inp("q")))
        assert partition_signature(a) == partition_signature(b)

    def test_merge_changes_signature(self):
        a = EGraph()
        a.add_term(mk("add64", inp("p"), inp("q")))
        b = EGraph()
        pq = b.add_term(mk("add64", inp("p"), inp("q")))
        before = partition_signature(b)
        assert before == partition_signature(a)
        b.merge(pq, b.add_term(inp("p")))
        b.rebuild()
        assert partition_signature(b) != before

    def test_distinguishes_sibling_classes(self):
        """Refinement separates classes an initial uniform label cannot."""
        eg = EGraph()
        eg.add_term(mk("add64", mk("add64", inp("a"), inp("b")), inp("c")))
        sig = partition_signature(eg)
        labels = [label for label, _size in sig]
        assert len(set(labels)) == len(labels)  # all classes distinguished


class TestFixpointParity:
    def _run(self, build, axioms, reg=None):
        """Saturate with the dirty-cone engine, then the full-scan one."""
        from repro.fuzz.oracles import FullScanEngine

        results = []
        for engine in (SaturationEngine, FullScanEngine):
            eg = EGraph()
            build(eg)
            stats = engine(eg, axioms, reg, SaturationConfig()).run()
            results.append((eg, stats))
        return results

    def test_figure2_goal_reaches_identical_fixpoint(self):
        reg = default_registry()
        axioms = _full_corpus(reg)

        def build(eg):
            eg.add_term(
                mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
            )

        (inc_eg, inc_stats), (nai_eg, nai_stats) = self._run(
            build, axioms, reg
        )
        assert inc_stats.quiescent and nai_stats.quiescent
        assert inc_eg.num_enodes() == nai_eg.num_enodes()
        assert partition_signature(inc_eg) == partition_signature(nai_eg)
        assert inc_stats.instances_asserted == nai_stats.instances_asserted

    def test_incremental_prunes_but_finds_the_same_matches(self):
        reg = default_registry()
        axioms = math_axioms(reg).relevant_to({"add64", "mul64"})

        def build(eg):
            t = inp("x0")
            for i in range(1, 5):
                t = mk("add64", t, inp("x%d" % i))
            eg.add_term(t)

        (inc_eg, inc_stats), (nai_eg, nai_stats) = self._run(
            build, axioms, reg
        )
        assert inc_eg.num_enodes() == nai_eg.num_enodes()
        assert partition_signature(inc_eg) == partition_signature(nai_eg)
        # The incremental path must actually skip quiescent head nodes.
        assert inc_stats.matches_pruned > 0
        assert nai_stats.matches_pruned == 0


class TestMatchingOracle:
    def test_oracle_passes_and_counts_on_clean_program(self):
        from repro.fuzz import OracleOptions, check_case
        from repro.fuzz.oracles import ORACLE_MATCHING

        source = (
            r"(\procdecl scale ((a long)) long"
            r"  (:= (\res (+ (* a 4) 1))))"
        )
        options = OracleOptions().narrowed_to(ORACLE_MATCHING)
        report = check_case(source, options)
        assert report.passed
        assert report.checks.get(ORACLE_MATCHING, 0) >= 1

    def test_narrowed_options_preserve_oracle(self):
        from repro.fuzz import OracleOptions
        from repro.fuzz.oracles import ORACLE_MATCHING

        options = OracleOptions().narrowed_to(ORACLE_MATCHING)
        assert options.oracles == (ORACLE_MATCHING,)


class TestStatsPlumbing:
    def test_stage_stats_serializes_matcher_counters(self):
        from repro.core.session import StageStats
        from repro.matching import SaturationStats

        stats = StageStats(label="t")
        stats.saturation = SaturationStats(
            rounds=3,
            instances_asserted=7,
            matches_attempted=40,
            matches_found=9,
            matches_pruned=31,
            quiescent=True,
            budget_hits={"max_matches": {"comm#0": 2}},
            per_axiom={"comm": {"seconds": 0.25, "matches": 9, "instances": 7}},
        )
        sat = stats.to_dict()["saturation"]
        assert "incremental" not in sat
        assert sat["matches_attempted"] == 40
        assert sat["matches_pruned"] == 31
        assert sat["budget_hits"] == {"max_matches": {"comm#0": 2}}
        assert sat["per_axiom"]["comm"]["matches"] == 9
        assert set(sat["phase_seconds"]) == {
            "fold", "synthesize", "match", "propagate",
        }

    def test_aggregate_stats_sums_saturation_counters(self):
        from repro.core.session import StageStats, aggregate_stats
        from repro.matching import SaturationStats

        a = StageStats()
        a.saturation = SaturationStats(
            rounds=2, instances_asserted=5, matches_attempted=10,
            matches_pruned=4, quiescent=True,
        )
        b = StageStats()
        b.saturation = SaturationStats(
            rounds=4, instances_asserted=1, matches_attempted=6,
            matches_pruned=0, quiescent=False,
            budget_hits={"max_rounds": 4, "max_matches": {"x#0": 3}},
        )
        agg = aggregate_stats([a, b])["saturation"]
        assert agg["sessions"] == 2
        assert "incremental_sessions" not in agg
        assert agg["rounds"] == 6
        assert agg["quiescent"] == 1
        assert agg["matches_attempted"] == 16
        assert agg["budget_hits"] == {"max_rounds": 1, "max_matches": 3}

    def test_aggregate_stats_takes_arena_peak_and_sums_solver_work(self):
        from repro.core.probes import Probe
        from repro.core.session import StageStats, aggregate_stats

        a = StageStats()
        a.cache.update(solver_arena_bytes=900, solver_watch_compactions=2)
        a.probes = [
            Probe(cycles=1, satisfiable=False, propagations=50,
                  conflicts=4, learned=3, learned_reused=0),
            Probe(cycles=2, satisfiable=True, propagations=70,
                  conflicts=1, learned=1, learned_reused=3),
        ]
        b = StageStats()
        b.cache.update(solver_arena_bytes=700, solver_watch_compactions=1)
        b.probes = [
            Probe(cycles=3, satisfiable=True, propagations=30,
                  conflicts=0, learned=0, learned_reused=0),
        ]
        agg = aggregate_stats([a, b])
        # Each session's arena bytes is already a peak: the run's peak
        # is the largest, not the sum; work counters still add up.
        assert agg["cache"]["solver_arena_bytes"] == 900
        assert agg["cache"]["solver_watch_compactions"] == 3
        assert agg["solver"] == {
            "propagations": 150,
            "conflicts": 5,
            "learned": 4,
            "learned_reused": 3,
        }


class TestSaturationHandle:
    """``CompilationSession.saturate`` and the saturation LRU behind it."""

    @pytest.fixture(autouse=True)
    def fresh_global_cache(self):
        from repro.core.cache import global_saturation_cache

        global_saturation_cache().clear()
        yield
        global_saturation_cache().clear()

    def _session(self, **config_kwargs):
        from repro.core.pipeline import Denali, DenaliConfig
        from repro.core.session import CompilationSession
        from repro.isa import ev6
        from repro.lang.gma import GMA

        config = DenaliConfig(min_cycles=1, max_cycles=4, **config_kwargs)
        den = Denali(ev6(), config=config)
        goal = mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        return CompilationSession(den, GMA(("\\res",), (goal,)))

    def test_miss_freezes_snapshot_and_hit_restores_it(self):
        from repro.core.cache import global_saturation_cache

        cache = global_saturation_cache()
        first, _goals = self._session().saturate()
        assert cache.stats.misses == 1
        assert len(cache) == 1  # the frozen snapshot
        second, _goals = self._session().saturate()
        assert cache.stats.hits == 1
        assert len(cache) == 1  # restored from the shared LRU entry
        assert second is not first
        assert partition_signature(second) == partition_signature(first)

    def test_cleared_cache_saturates_afresh(self):
        from repro.core.cache import global_saturation_cache

        first, _goals = self._session().saturate()
        global_saturation_cache().clear()
        session = self._session()
        second, _goals = session.saturate()
        assert session.stats.cache["saturation_misses"] == 1
        assert len(global_saturation_cache()) == 1  # frozen afresh
        assert second is not first
        assert partition_signature(second) == partition_signature(first)
