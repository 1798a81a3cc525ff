"""Cross-probe and cross-compilation caches.

Three costs dominate repeated Denali invocations and are independent of
the cycle budget being probed:

* **axiom compilation** — parsing the built-in axiom corpus into trigger
  patterns (done per :class:`~repro.core.pipeline.Denali` construction);
* **saturation** — growing the E-graph to (bounded) quiescence (done per
  GMA, identical across probes and across repeated compilations of the
  same goals);
* **the CNF prefix** — the per-cycle constraint blocks, which
  :class:`~repro.encode.constraints.IncrementalEncoder` shares across
  probes (that cache lives with the encoder; this module only reports it).

This module provides the first two as process-wide caches with hit/miss
counters, plus the fingerprint helpers that key them.  Fingerprints are
process-local: goal terms are hash-consed (identity-stable), so the terms
themselves key the saturation cache; axiom sets are keyed by their
pretty-printed bodies; operator registries by their signature tables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

from repro.axioms.axiom import AxiomSet
from repro.egraph.egraph import EGraph, EGraphSnapshot
from repro.matching.saturation import SaturationConfig, SaturationStats
from repro.terms.ops import OperatorRegistry
from repro.terms.term import Term


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    hits: int = 0
    misses: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}


# -- fingerprints ------------------------------------------------------------


def registry_fingerprint(registry: OperatorRegistry) -> Hashable:
    """A key identifying a registry's signature table.

    Two registries with the same operator names, sorts and commutativity
    flags compile axiom files to identical pattern sets, so they may share
    a cache entry even though the instances differ.
    """
    return tuple(
        sorted(
            (name, sig.params, sig.result, sig.commutative)
            for name, sig in ((n, registry.get(n)) for n in registry.names())
        )
    )


def axioms_fingerprint(axioms: AxiomSet) -> Hashable:
    """A key identifying an axiom set by its (ordered) bodies."""
    return tuple(a.pretty() for a in axioms)


def saturation_key(
    goals: Tuple[Term, ...],
    axioms: AxiomSet,
    registry: OperatorRegistry,
    config: SaturationConfig,
) -> Hashable:
    """The full cache key of one saturation run.

    Goal terms are interned (structural equality is identity), so the
    tuple of terms itself is a precise key; the axiom and registry
    fingerprints capture what the matcher may assert; the config captures
    the budgets, which change where a non-quiescent run stops.
    """
    return (
        goals,
        axioms_fingerprint(axioms),
        registry_fingerprint(registry),
        (
            config.max_rounds,
            config.max_enodes,
            config.fold_constants,
            config.synthesize_constants,
            config.synthesize_byte_masks,
            config.synthesize_mask_alternatives,
        ),
    )


# -- saturated E-graph cache -------------------------------------------------


class SaturationCache:
    """LRU cache of saturated E-graph snapshots.

    Entries are :class:`~repro.egraph.egraph.EGraphSnapshot` handles —
    rebuilt, index-warm masters frozen at quiescence.  Lookups hand out
    independent restorations (the pipeline mutates its working graph —
    ldiq injection, latency-override terms), so a hit never contaminates
    the cache, and one snapshot can seed any number of probe sessions.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Tuple[EGraphSnapshot, SaturationStats]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def lookup_snapshot(
        self, key: Hashable
    ) -> Optional[Tuple[EGraphSnapshot, SaturationStats]]:
        """The cached snapshot handle itself (shared, immutable)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            snapshot, stats = entry
            return snapshot, stats.copy()

    def store_snapshot(
        self,
        key: Hashable,
        snapshot: EGraphSnapshot,
        stats: SaturationStats,
    ) -> None:
        with self._lock:
            self._entries[key] = (snapshot, stats.copy())
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def lookup(
        self, key: Hashable
    ) -> Optional[Tuple[EGraph, SaturationStats]]:
        """EGraph-facing wrapper: restore a fresh working graph on hit."""
        entry = self.lookup_snapshot(key)
        if entry is None:
            return None
        snapshot, stats = entry
        return snapshot.restore(), stats

    def store(self, key: Hashable, eg: EGraph, stats: SaturationStats) -> None:
        """EGraph-facing wrapper: freeze ``eg`` into a snapshot and store it."""
        self.store_snapshot(key, eg.snapshot(), stats)


_GLOBAL_SATURATION_CACHE = SaturationCache()


def global_saturation_cache() -> SaturationCache:
    """The process-wide saturation cache shared by all Denali instances."""
    return _GLOBAL_SATURATION_CACHE


# -- compiled axiom corpus cache ---------------------------------------------


class AxiomCorpusCache:
    """Memoizes the built-in axiom corpus per (registry signature, target).

    Parsing the mathematical + constant-synthesis + architectural files
    compiles a few hundred trigger patterns; every ``Denali(spec)``
    construction used to redo it from scratch.  Entries are keyed by the
    registry fingerprint *and* the target name — corpora differ per
    target (the rv64 sublayer must never warm an ev6 compile, and vice
    versa).  Cached sets are shared, so callers must treat them as
    immutable (combine with ``+``, never ``add``).
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._entries: Dict[Hashable, AxiomSet] = {}
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()

    def preload(
        self,
        registry: OperatorRegistry,
        corpus: AxiomSet,
        target: str = "ev6",
    ) -> None:
        """Seed the cache with an externally compiled corpus.

        The compilation service persists the compiled corpus to its result
        store and preloads it here on startup, so a restarted process (and
        every worker forked from it) skips re-parsing the built-in axiom
        files.  Counted as neither hit nor miss.
        """
        key = (registry_fingerprint(registry), target)
        with self._lock:
            self._entries.setdefault(key, corpus)

    def default_corpus(
        self, registry: OperatorRegistry, target: str = "ev6"
    ) -> AxiomSet:
        from repro.axioms.builtin import default_axiom_corpus

        key = (registry_fingerprint(registry), target)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached
            self.stats.misses += 1
        corpus = default_axiom_corpus(registry, target)
        with self._lock:
            self._entries.setdefault(key, corpus)
        return corpus


_GLOBAL_AXIOM_CACHE = AxiomCorpusCache()


def global_axiom_cache() -> AxiomCorpusCache:
    """The process-wide compiled-axiom cache shared by all Denali instances."""
    return _GLOBAL_AXIOM_CACHE
