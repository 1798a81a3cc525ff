"""The saturation engine: run the matcher to (bounded) quiescence.

Each round performs, in order:

1. **constant folding** — any application whose arguments are all constant
   classes and whose operator has reference semantics is merged with its
   value's constant class;
2. **constant synthesis** — for each power-of-two constant ``c`` the fact
   ``c = 2**log2(c)`` is recorded (the paper's Figure 2(b) step), enabling
   the shift axioms to fire;
3. **axiom instantiation** — every trigger of every axiom is E-matched and
   the instances asserted (equalities merge, distinctions mark classes
   uncombinable, clauses are recorded);
4. **clause propagation** — untenable literals are deleted from recorded
   clauses; a clause reduced to one literal asserts it (section 5's
   select/store example).

The engine runs as a **worklist fixpoint**: the first round scans the
whole graph; every later round matches (and folds) only against the dirty
cone of classes touched since the previous round began — Simplify's
mod-time optimisation, which the E-graph supports through its touch
journal (:meth:`EGraph.dirty_cone`).  The cone is refreshed whenever an
assertion changes the graph mid-round, so the incremental scan discovers
exactly the matches a full re-scan would, in the same bucket order (the
fuzzer's ``matching`` oracle checks this against an engine that rescans
every round).

The engine stops when a round changes nothing (true quiescence) or when a
budget is exhausted, in which case the result is marked non-quiescent —
one of the two reasons the paper calls Denali's output "near-optimal"
rather than "optimal".  Budget exhaustion is never silent: every budget
that fired is recorded in :attr:`SaturationStats.budget_hits`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.axioms.axiom import (
    Axiom,
    AxiomClause,
    AxiomDistinction,
    AxiomEquality,
    AxiomSet,
)
from repro.egraph.egraph import EGraph, InconsistentError
from repro.matching.compile import compile_trigger
from repro.matching.matcher import Subst, ematch_all, ematch_since, instantiate
from repro.terms.ops import OperatorRegistry, Sort, default_registry


@dataclass
class SaturationConfig:
    """Budgets and feature switches for one saturation run."""

    max_rounds: int = 10
    max_enodes: int = 4000
    fold_constants: bool = True
    synthesize_constants: bool = True
    synthesize_byte_masks: bool = True
    # Also give mskbl/zapnot nodes an explicit and64(w, mask) alternative.
    # Needed by targets without byte-manipulation hardware (Itanium-like);
    # on the Alpha it only floods the graph with worse computations, so it
    # is off unless the pipeline detects such a target.
    synthesize_mask_alternatives: bool = False


# Substitutions one trigger may yield per round; reaching it records a
# ``max_matches`` budget hit.
MAX_MATCHES_PER_TRIGGER = 2000
# Largest n for which a 2**n multiplier gets a pow(2, n) alternative.
MAX_POW2_EXPONENT = 63


def _zero_phases() -> Dict[str, float]:
    return {"fold": 0.0, "synthesize": 0.0, "match": 0.0, "propagate": 0.0}


@dataclass
class SaturationStats:
    """What one saturation run did."""

    rounds: int = 0
    instances_asserted: int = 0
    clauses_recorded: int = 0
    clause_assertions: int = 0
    constants_folded: int = 0
    constants_synthesized: int = 0
    quiescent: bool = False
    enodes: int = 0
    classes: int = 0
    matches_attempted: int = 0  # head candidates handed to the matcher
    matches_found: int = 0  # substitutions produced
    matches_pruned: int = 0  # head candidates skipped by the stamp filter
    # Which budgets fired: "max_matches" -> {"axiom#trigger": hit count},
    # "max_enodes_round" -> round that tripped it, "max_rounds" -> last round.
    budget_hits: Dict[str, object] = field(default_factory=dict)
    # axiom name -> {"seconds", "matches", "instances"}
    per_axiom: Dict[str, Dict[str, float]] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=_zero_phases)

    def copy(self) -> "SaturationStats":
        out = replace(self)
        out.budget_hits = {
            key: dict(val) if isinstance(val, dict) else val
            for key, val in self.budget_hits.items()
        }
        out.per_axiom = {name: dict(v) for name, v in self.per_axiom.items()}
        out.phase_seconds = dict(self.phase_seconds)
        return out


_M64 = (1 << 64) - 1


def V_zapnot_mask(pattern: int) -> int:
    """The 64-bit AND mask equivalent to ``zapnot``'s byte pattern."""
    out = 0
    for j in range(8):
        if (pattern >> j) & 1:
            out |= 0xFF << (8 * j)
    return out


def _byte_regular_pattern(value: int) -> Optional[int]:
    """The zapnot byte pattern for ``value``, or None if not byte-regular."""
    pattern = 0
    for j in range(8):
        byte = (value >> (8 * j)) & 0xFF
        if byte == 0xFF:
            pattern |= 1 << j
        elif byte != 0x00:
            return None
    return pattern


@dataclass
class _ActiveClause:
    """A recorded ground clause: literals over class ids."""

    literals: List[Tuple[str, int, int]]  # (kind, lhs class, rhs class)


class SaturationEngine:
    """Drives matching over one E-graph.

    The engine is reusable across rounds but bound to one graph; the
    pipeline creates one engine per GMA.
    """

    def __init__(
        self,
        eg: EGraph,
        axioms: AxiomSet,
        registry: Optional[OperatorRegistry] = None,
        config: Optional[SaturationConfig] = None,
    ) -> None:
        self.eg = eg
        self.axioms = axioms
        self.registry = registry if registry is not None else default_registry()
        self.config = config if config is not None else SaturationConfig()
        self.stats = SaturationStats()
        self._seen_instances: Set[Tuple] = set()
        self._clauses: List[_ActiveClause] = []
        self._seen_clauses: Set[Tuple] = set()
        # Dedupe keys are re-canonicalised when the union-find has moved.
        self._keys_merges = eg.merges
        # Cached dirty cone for the current (graph version, stamp) pair.
        self._cone: Set[int] = set()
        self._cone_ops: Optional[Set[str]] = None
        self._cone_epoch: Optional[Tuple[int, int]] = None

    # -- public ---------------------------------------------------------------

    def run(self) -> SaturationStats:
        """Saturate until quiescence or budget exhaustion."""
        cfg = self.config
        eg = self.eg
        stats = self.stats
        timer = time.perf_counter
        # None = full scan (round one); otherwise the version stamp the
        # round's dirty cone is relative to.
        since: Optional[int] = None
        for round_index in range(cfg.max_rounds):
            stats.rounds = round_index + 1
            before = eg.version
            t0 = timer()
            if cfg.fold_constants:
                self._fold_constants(since)
            t1 = timer()
            if cfg.synthesize_constants:
                self._synthesize_constants()
            if cfg.synthesize_byte_masks:
                self._synthesize_byte_masks()
            t2 = timer()
            self._recanonicalize_keys()
            budget_hit = self._instantiate_axioms(since)
            t3 = timer()
            self._propagate_clauses()
            t4 = timer()
            phases = stats.phase_seconds
            phases["fold"] += t1 - t0
            phases["synthesize"] += t2 - t1
            phases["match"] += t3 - t2
            phases["propagate"] += t4 - t3
            if eg.version == before and not budget_hit:
                stats.quiescent = True
                break
            if eg.enodes_at_least(cfg.max_enodes):
                stats.budget_hits.setdefault("max_enodes_round", stats.rounds)
                break
            since = before
        if not stats.quiescent and "max_enodes_round" not in stats.budget_hits:
            stats.budget_hits["max_rounds"] = stats.rounds
        stats.enodes = self.eg.num_enodes()
        stats.classes = self.eg.num_classes()
        return stats

    # -- dirty-cone bookkeeping ------------------------------------------------

    _CONE_OPS_LIMIT = 256

    def _refresh_cone(self, since: int) -> None:
        """Bring the cached dirty cone up to the graph's current version.

        Refreshes happen per trigger (assertions move the graph mid-round),
        so they must be cheap: when the cached cone is for the same stamp,
        it is *extended* from the touch-journal suffix instead of being
        recomputed — O(changes since the last refresh), not O(cone).

        ``_cone_ops`` is the per-op dirty set — the head operators present
        in cone classes — used to skip whole trigger buckets in O(1); it
        is only maintained while the cone is small enough for the upkeep
        to be cheaper than the bucket scans it saves.
        """
        eg = self.eg
        eg.rebuild()
        epoch = (eg.version, since)
        if self._cone_epoch == epoch:
            return
        if self._cone_epoch is not None and self._cone_epoch[1] == since:
            fresh = eg.extend_cone(self._cone, self._cone_epoch[0])
            if self._cone_ops is not None:
                if len(self._cone) > self._CONE_OPS_LIMIT:
                    self._cone_ops = None
                else:
                    add_op = self._cone_ops.add
                    for root in fresh:
                        for node in eg.enodes(root):
                            add_op(node.op)
        else:
            cone = eg.dirty_cone(since)
            ops: Optional[Set[str]] = None
            if len(cone) <= self._CONE_OPS_LIMIT:
                ops = set()
                add_op = ops.add
                for root in cone:
                    for node in eg.enodes(root):
                        add_op(node.op)
            self._cone = cone
            self._cone_ops = ops
        self._cone_epoch = epoch

    def _recanonicalize_keys(self) -> None:
        """Re-key the dedupe sets after merges (stale keys re-assert work)."""
        if self.eg.merges == self._keys_merges:
            return
        self.eg.rebuild()
        find = self.eg.find
        self._seen_instances = {
            (name, tuple(sorted((var, find(cid)) for var, cid in bindings)))
            for name, bindings in self._seen_instances
        }
        self._seen_clauses = {
            tuple(
                (kind, min(find(lo), find(hi)), max(find(lo), find(hi)))
                for kind, lo, hi in key
            )
            for key in self._seen_clauses
        }
        self._keys_merges = self.eg.merges

    # -- constant reasoning -----------------------------------------------------

    def _fold_constants(self, since: Optional[int]) -> None:
        eg = self.eg
        if since is not None:
            self._refresh_cone(since)
            cone = self._cone
            if not cone:
                return
            # Filter through all_nodes to keep hashcons order: fold merges
            # must happen in the same order as a full scan would do them.
            nodes = [(n, r) for n, r in eg.all_nodes() if r in cone]
        else:
            nodes = list(eg.all_nodes())
        for node, root in nodes:
            if node.op in ("const", "input"):
                continue
            if eg.const_of(root) is not None:
                continue  # already known constant
            sig = self.registry.get(node.op) if node.op in self.registry else None
            if sig is None or sig.eval_fn is None or sig.result != Sort.INT:
                continue
            values = []
            ok = True
            for arg in node.args:
                v = eg.const_of(arg)
                if v is None or eg.class_sort(arg) != Sort.INT:
                    ok = False
                    break
                values.append(v)
            if not ok:
                continue
            result = sig.eval_fn(*values) & ((1 << 64) - 1)
            const_cid = eg.add_enode("const", (), value=result, sort=Sort.INT)
            eg.merge(root, const_cid)
            self.stats.constants_folded += 1

    def _synthesize_constants(self) -> None:
        """Record ``c = 2**n`` for power-of-two constants (Figure 2(b)).

        Only constants that occur as an argument of a multiplication get
        the ``pow`` form: synthesising it for every constant floods the
        graph with shift forms nothing downstream wants.
        """
        eg = self.eg
        candidates: Set[int] = set()
        for node, _root in eg.nodes_with_op("mul64"):
            for arg in node.args:
                candidates.add(eg.find(arg))
        for cid in candidates:
            c = eg.const_of(cid)
            if c is None or c < 2:
                continue
            if c & (c - 1):
                continue  # not a power of two
            n = c.bit_length() - 1
            if n > MAX_POW2_EXPONENT:
                continue
            two = eg.add_enode("const", (), value=2, sort=Sort.INT)
            exp = eg.add_enode("const", (), value=n, sort=Sort.INT)
            pow_node = eg.add_enode("pow", (two, exp), sort=Sort.INT)
            if not eg.are_equal(pow_node, cid):
                eg.merge(pow_node, cid)
                self.stats.constants_synthesized += 1

    def _synthesize_byte_masks(self) -> None:
        """Record ``and64(w, c) = zapnot(w, pattern)`` for byte-regular ``c``.

        A constant is byte-regular when every byte is 0x00 or 0xFF; such an
        AND is a single ``zapnot`` on the Alpha (and subsumes ``mskbl``).
        Like power-of-two synthesis, this family is indexed by a constant's
        *value*, so it cannot be a finite pattern axiom.
        """
        eg = self.eg
        for node, root in list(eg.nodes_with_op("and64")):
            for c_pos in (0, 1):
                c = eg.const_of(node.args[c_pos])
                if c is None:
                    continue
                pattern = _byte_regular_pattern(c)
                if pattern is None:
                    continue
                w = node.args[1 - c_pos]
                mask = eg.add_enode("const", (), value=pattern, sort=Sort.INT)
                zn = eg.add_enode("zapnot", (w, mask), sort=Sort.INT)
                if not eg.are_equal(zn, root):
                    eg.merge(zn, root)
                    self.stats.constants_synthesized += 1
        # The reverse direction: byte-wise mask instructions also equal an
        # AND with the expanded constant — the derivation targets without
        # byte-manipulation hardware (e.g. the Itanium-like spec) need.
        if not self.config.synthesize_mask_alternatives:
            return
        for op, expand in (
            ("zapnot", lambda w_, m: V_zapnot_mask(m)),
            ("mskbl", lambda w_, i: ~(0xFF << (8 * (i & 7))) & _M64),
            ("mskwl", lambda w_, i: ~(0xFFFF << (8 * (i & 7))) & _M64),
        ):
            for node, root in list(eg.nodes_with_op(op)):
                c = eg.const_of(node.args[1])
                if c is None:
                    continue
                mask_value = expand(None, c)
                w = node.args[0]
                mask = eg.add_enode(
                    "const", (), value=mask_value, sort=Sort.INT
                )
                anded = eg.add_enode("and64", (w, mask), sort=Sort.INT)
                if not eg.are_equal(anded, root):
                    eg.merge(anded, root)
                    self.stats.constants_synthesized += 1

    # -- axiom instantiation ------------------------------------------------

    def _instantiate_axioms(self, since: Optional[int]) -> bool:
        """One pass over every axiom; returns True if a budget stopped it.

        With ``since`` set (incremental mode past round one), each trigger
        scans only head candidates inside the dirty cone — refreshed per
        trigger, so matches enabled by assertions earlier in the same
        round are found in the same round, exactly as a full scan would.
        """
        cfg = self.config
        eg = self.eg
        stats = self.stats
        incremental = since is not None
        timer = time.perf_counter
        budget_hit = False
        stop = False
        for axiom in self.axioms:
            t0 = timer()
            found_before = stats.matches_found
            asserted_before = stats.instances_asserted + stats.clauses_recorded
            for t_index, trigger in enumerate(axiom.triggers):
                compiled = compile_trigger(trigger)
                if incremental:
                    self._refresh_cone(since)
                    if (
                        self._cone_ops is not None
                        and compiled.op not in self._cone_ops
                    ):
                        stats.matches_pruned += eg.op_count(compiled.op)
                        continue
                    scan = ematch_since(
                        eg,
                        trigger,
                        since,
                        cone=self._cone,
                        limit=MAX_MATCHES_PER_TRIGGER,
                    )
                    substs = scan.substs
                    stats.matches_attempted += scan.scanned
                    stats.matches_pruned += scan.pruned
                else:
                    substs = ematch_all(
                        eg, trigger, limit=MAX_MATCHES_PER_TRIGGER
                    )
                    stats.matches_attempted += eg.op_count(compiled.op)
                stats.matches_found += len(substs)
                if len(substs) >= MAX_MATCHES_PER_TRIGGER:
                    budget_hit = True
                    hits = stats.budget_hits.setdefault("max_matches", {})
                    label = "%s#%d" % (axiom.name, t_index)
                    hits[label] = hits.get(label, 0) + 1
                for subst in substs:
                    if eg.enodes_at_least(cfg.max_enodes):
                        stats.budget_hits.setdefault(
                            "max_enodes_round", stats.rounds
                        )
                        budget_hit = True
                        stop = True
                        break
                    self._assert_instance(axiom, subst)
                if stop:
                    break
            entry = stats.per_axiom.setdefault(
                axiom.name, {"seconds": 0.0, "matches": 0, "instances": 0}
            )
            entry["seconds"] += timer() - t0
            entry["matches"] += stats.matches_found - found_before
            entry["instances"] += (
                stats.instances_asserted
                + stats.clauses_recorded
                - asserted_before
            )
            if stop:
                return True
        return budget_hit

    def _instance_key(self, axiom: Axiom, subst: Subst) -> Tuple:
        eg = self.eg
        return (
            axiom.name,
            tuple(sorted((v, eg.find(c)) for v, c in subst.items())),
        )

    def _assert_instance(self, axiom: Axiom, subst: Subst) -> None:
        key = self._instance_key(axiom, subst)
        if key in self._seen_instances:
            return
        self._seen_instances.add(key)

        # Ground constant facts are constant folding's job; instantiating
        # axioms over all-constant bindings only churns the graph.
        if subst and all(
            self.eg.const_of(c) is not None
            and self.eg.class_sort(c) == Sort.INT
            for c in subst.values()
        ):
            return

        if isinstance(axiom, AxiomEquality):
            lhs = instantiate(self.eg, axiom.lhs, subst, self.registry)
            rhs = instantiate(self.eg, axiom.rhs, subst, self.registry)
            if lhs is None or rhs is None:
                return
            if not self.eg.are_equal(lhs, rhs):
                self.eg.merge(lhs, rhs)
            self.stats.instances_asserted += 1
        elif isinstance(axiom, AxiomDistinction):
            lhs = instantiate(self.eg, axiom.lhs, subst, self.registry)
            rhs = instantiate(self.eg, axiom.rhs, subst, self.registry)
            if lhs is None or rhs is None:
                return
            if not self.eg.are_distinct(lhs, rhs):
                self.eg.assert_distinct(lhs, rhs)
            self.stats.instances_asserted += 1
        else:
            assert isinstance(axiom, AxiomClause)
            literals: List[Tuple[str, int, int]] = []
            for kind, lpat, rpat in axiom.literals:
                lhs = instantiate(self.eg, lpat, subst, self.registry)
                rhs = instantiate(self.eg, rpat, subst, self.registry)
                if lhs is None or rhs is None:
                    return
                literals.append((kind, lhs, rhs))
            clause_key = tuple(
                (k, min(self.eg.find(l), self.eg.find(r)),
                 max(self.eg.find(l), self.eg.find(r)))
                for k, l, r in literals
            )
            if clause_key in self._seen_clauses:
                return
            self._seen_clauses.add(clause_key)
            self._clauses.append(_ActiveClause(literals))
            self.stats.clauses_recorded += 1

    # -- clause propagation -----------------------------------------------------

    def _propagate_clauses(self) -> None:
        """Delete untenable literals; assert the survivor of unit clauses.

        Runs to a local fixpoint: an assertion may make other clauses unit.
        """
        eg = self.eg
        changed = True
        while changed:
            changed = False
            remaining: List[_ActiveClause] = []
            for clause in self._clauses:
                satisfied = False
                tenable: List[Tuple[str, int, int]] = []
                for kind, lhs, rhs in clause.literals:
                    if kind == "eq":
                        if eg.are_equal(lhs, rhs):
                            satisfied = True
                            break
                        if not eg.are_distinct(lhs, rhs):
                            tenable.append((kind, lhs, rhs))
                    else:
                        if eg.are_distinct(lhs, rhs):
                            satisfied = True
                            break
                        if not eg.are_equal(lhs, rhs):
                            tenable.append((kind, lhs, rhs))
                if satisfied:
                    continue
                if not tenable:
                    raise InconsistentError(
                        "all literals of a recorded clause are untenable"
                    )
                if len(tenable) == 1:
                    kind, lhs, rhs = tenable[0]
                    if kind == "eq":
                        eg.merge(lhs, rhs)
                    else:
                        eg.assert_distinct(lhs, rhs)
                    self.stats.clause_assertions += 1
                    changed = True
                    continue
                clause.literals = tenable
                remaining.append(clause)
            self._clauses = remaining


def saturate(
    eg: EGraph,
    axioms: AxiomSet,
    registry: Optional[OperatorRegistry] = None,
    config: Optional[SaturationConfig] = None,
) -> SaturationStats:
    """Convenience wrapper: build an engine, run it, return its stats."""
    return SaturationEngine(eg, axioms, registry, config).run()
