"""Tests for the cross-probe / cross-compilation cache layer."""

import pytest

from repro import (
    Denali,
    DenaliConfig,
    EGraph,
    SearchStrategy,
    const,
    default_registry,
    ev6,
    global_saturation_cache,
    inp,
    mk,
    saturate,
)
from repro.axioms import math_axioms, parse_axiom_file
from repro.core.cache import (
    SaturationCache,
    axioms_fingerprint,
    global_axiom_cache,
    registry_fingerprint,
    saturation_key,
)
from repro.matching import SaturationConfig


def _goal():
    return mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))


def _config(**kwargs):
    defaults = dict(min_cycles=1, max_cycles=6, strategy=SearchStrategy.BINARY)
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


@pytest.fixture(autouse=True)
def fresh_global_cache():
    global_saturation_cache().clear()
    yield
    global_saturation_cache().clear()


class TestFingerprints:
    def test_same_registry_signatures_share_fingerprint(self):
        assert registry_fingerprint(default_registry()) == registry_fingerprint(
            default_registry()
        )

    def test_axiom_fingerprint_tracks_contents(self):
        reg = default_registry()
        base = math_axioms(reg)
        assert axioms_fingerprint(base) == axioms_fingerprint(math_axioms(reg))
        extra = base + parse_axiom_file(
            r"(\axiom (forall (x) (pats (\add64 x 0)) (eq (\add64 x 0) x)))",
            reg,
        )
        assert axioms_fingerprint(base) != axioms_fingerprint(extra)

    def test_axiom_fingerprint_is_memoised_and_follows_add(self):
        reg = default_registry()
        base = math_axioms(reg)
        first = axioms_fingerprint(base)
        assert first == tuple(a.pretty() for a in base)
        assert axioms_fingerprint(base) is first  # memoised
        extra = parse_axiom_file(
            r"(\axiom (forall (x) (pats (\add64 x 0)) (eq (\add64 x 0) x)))",
            reg,
        )
        combined = base + extra  # inherits the memo as its prefix
        assert axioms_fingerprint(combined) == tuple(
            a.pretty() for a in combined
        )
        for axiom in extra:
            base.add(axiom)
        assert axioms_fingerprint(base) != first
        assert axioms_fingerprint(base) == tuple(a.pretty() for a in base)

    def test_saturation_key_sensitive_to_config(self):
        reg = default_registry()
        axioms = math_axioms(reg)
        goals = (_goal(),)
        k1 = saturation_key(goals, axioms, reg, SaturationConfig())
        k2 = saturation_key(goals, axioms, reg, SaturationConfig())
        k3 = saturation_key(goals, axioms, reg, SaturationConfig(max_rounds=2))
        assert k1 == k2
        assert k1 != k3


class TestSaturationCache:
    def _saturated(self, goals):
        reg = default_registry()
        axioms = math_axioms(reg)
        eg = EGraph()
        ids = [eg.add_term(t) for t in goals]
        stats = saturate(eg, axioms, reg, SaturationConfig())
        return eg, [eg.find(i) for i in ids], stats

    def test_hit_on_identical_goal_terms(self):
        cache = SaturationCache()
        reg = default_registry()
        axioms = math_axioms(reg)
        goals = (_goal(),)
        key = saturation_key(goals, axioms, reg, SaturationConfig())
        assert cache.lookup_snapshot(key) is None
        eg, _ids, stats = self._saturated(goals)
        cache.store_snapshot(key, eg.snapshot(), stats)
        # Goal terms are interned: rebuilding the "same" term yields the
        # identical key and hits.
        key2 = saturation_key((_goal(),), axioms, reg, SaturationConfig())
        hit = cache.lookup_snapshot(key2)
        assert hit is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_miss_on_differing_axiom_sets(self):
        cache = SaturationCache()
        reg = default_registry()
        goals = (_goal(),)
        base = math_axioms(reg)
        eg, _ids, stats = self._saturated(goals)
        cache.store_snapshot(
            saturation_key(goals, base, reg, SaturationConfig()),
            eg.snapshot(),
            stats,
        )
        trimmed = base + parse_axiom_file(
            r"(\axiom (forall (x) (pats (\mul64 x 1)) (eq (\mul64 x 1) x)))",
            reg,
        )
        assert cache.lookup_snapshot(
            saturation_key(goals, trimmed, reg, SaturationConfig())
        ) is None

    def test_hit_returns_independent_copy(self):
        cache = SaturationCache()
        reg = default_registry()
        axioms = math_axioms(reg)
        goals = (_goal(),)
        key = saturation_key(goals, axioms, reg, SaturationConfig())
        eg, _ids, stats = self._saturated(goals)
        cache.store_snapshot(key, eg.snapshot(), stats)
        first = cache.lookup_snapshot(key)[0].restore()
        nodes_before = len(list(first.all_nodes()))
        # Mutating the handed-out copy must not contaminate the master.
        first.add_term(mk("sub64", inp("reg9"), const(7)))
        second = cache.lookup_snapshot(key)[0].restore()
        assert len(list(second.all_nodes())) == nodes_before

    def test_copy_preserves_classes_and_nodes(self):
        eg, ids, _stats = self._saturated((_goal(),))
        clone = eg.copy()
        assert len(list(clone.all_nodes())) == len(list(eg.all_nodes()))
        for i in ids:
            assert clone.find(i) == eg.find(i)
            assert {n.op for n in clone.enodes(i)} == {
                n.op for n in eg.enodes(i)
            }

    def test_lru_eviction(self):
        cache = SaturationCache(max_entries=2)
        eg, _ids, stats = self._saturated((_goal(),))
        cache.store_snapshot("a", eg.snapshot(), stats)
        cache.store_snapshot("b", eg.snapshot(), stats)
        cache.store_snapshot("c", eg.snapshot(), stats)  # evicts "a"
        assert len(cache) == 2
        assert cache.lookup_snapshot("a") is None
        assert cache.lookup_snapshot("b") is not None


class TestAxiomCorpusCache:
    def test_shared_across_denali_instances(self):
        cache = global_axiom_cache()
        den1 = Denali(ev6())
        den2 = Denali(ev6())
        assert den1.axioms is den2.axioms
        assert cache.stats.hits >= 1


class TestCachedCompilationEquivalence:
    """Cached and uncached compilations produce byte-identical assembly."""

    GOALS = [
        mk("add64", mk("mul64", inp("reg6"), const(4)), const(1)),
        mk("and64", mk("add64", inp("a"), inp("b")), const(255)),
        mk("mul64", inp("a"), const(8)),
    ]

    @pytest.mark.parametrize("idx", range(len(GOALS)))
    def test_byte_identical_assembly(self, idx):
        goal = self.GOALS[idx]
        cold = Denali(ev6(), config=_config()).compile_term(goal)
        assert cold.stats.cache["saturation_misses"] == 1
        warm = Denali(ev6(), config=_config()).compile_term(goal)
        assert warm.stats.cache["saturation_hits"] == 1
        global_saturation_cache().clear()
        uncached = Denali(ev6(), config=_config()).compile_term(goal)
        assert uncached.stats.cache["saturation_hits"] == 0
        assert cold.cycles == warm.cycles == uncached.cycles
        assert cold.optimal == warm.optimal == uncached.optimal
        assert cold.assembly == warm.assembly == uncached.assembly
        assert cold.verified and warm.verified and uncached.verified

    def test_cache_survives_across_strategies(self):
        goal = self.GOALS[0]
        linear = Denali(
            ev6(), config=_config(strategy=SearchStrategy.LINEAR)
        ).compile_term(goal)
        binary = Denali(ev6(), config=_config()).compile_term(goal)
        assert binary.stats.cache["saturation_hits"] == 1
        assert linear.assembly == binary.assembly
