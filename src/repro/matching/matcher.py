"""E-matching: pattern matching modulo the E-graph's equivalence relation.

A pattern variable binds to an *equivalence class*, not to a term.  This is
what lets the paper's Figure 2 walkthrough match ``k * 2**n`` against
``reg6 * 4`` once the fact ``4 = 2**2`` has been recorded: an ordinary
matcher sees the node ``4``, but the E-matcher searches the whole
equivalence class and finds ``2**2`` there.

There is one match VM, :func:`~repro.matching.compile.match_rows`, and
one instance builder, the build programs of
:mod:`repro.matching.compile`; saturation runs both directly on rows
(tuples of classes in a trigger's variable order).  The functions here
are their substitution-dict views, for callers that start from a
:class:`Pattern`: :func:`ematch_all` is the full trigger scan;
:func:`ematch_since` is its incremental form, visiting only head nodes
whose class lies in the dirty cone of changes after a version stamp —
Simplify's mod-time optimisation; :func:`ematch` matches at one class.
Substitutions map variable names to class ids.  :func:`instantiate`
builds the instance of a pattern directly as enodes (no intermediate
terms).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from repro.axioms.axiom import Pattern
from repro.egraph.egraph import EGraph
from repro.matching.compile import compile_trigger, instantiate, run_compiled

Subst = Dict[str, int]


class MatchScan(NamedTuple):
    """One incremental trigger scan: its matches and scan telemetry."""

    substs: List[Subst]
    scanned: int  # head candidates visited
    pruned: int  # head candidates skipped by the stamp filter


def ematch(
    eg: EGraph,
    pattern: Pattern,
    cid: int,
    subst: Optional[Subst] = None,
) -> Iterator[Subst]:
    """All substitutions under which ``pattern`` matches class ``cid``.

    Substitutions extend ``subst`` (which is not mutated).  The number of
    matches can be exponential in the pattern size; callers should bound
    consumption.
    """
    base = subst if subst is not None else {}
    root = eg.find(cid)
    if pattern.is_var:
        bound = base.get(pattern.var)
        if bound is not None:
            if eg.find(bound) == root:
                yield base
            return
        new = dict(base)
        new[pattern.var] = root
        yield new
        return
    if pattern.is_const:
        if eg.const_of(root) == pattern.value:
            yield base
        return
    trigger = compile_trigger(pattern)
    node_key = eg.flat_view().node_key
    seeds = [
        nid for nid in eg.class_nids(root) if node_key[nid].op == trigger.op
    ]
    for result in run_compiled(eg, trigger, seeds):
        if any(eg.find(base[v]) != result[v] for v in base if v in result):
            continue
        merged = dict(base)
        for var, klass in result.items():
            if var not in base:
                merged[var] = klass
        yield merged


def ematch_all(
    eg: EGraph, pattern: Pattern, limit: Optional[int] = None
) -> List[Subst]:
    """Match ``pattern`` against every enode with the pattern's head operator.

    This is the top-level trigger search: rather than trying every class,
    only classes containing an application of the pattern's head operator
    can match, and the E-graph indexes those directly.
    """
    trigger = compile_trigger(pattern)
    return run_compiled(eg, trigger, eg.op_nids(trigger.op), limit=limit)


def cone_seeds(eg: EGraph, op: str, cone: Set[int]) -> List[int]:
    """The nodes of ``op``'s bucket whose class lies in ``cone``, in order."""
    node_class = eg.flat_view().node_class
    find = eg.find
    return [nid for nid in eg.op_nids(op) if find(node_class[nid]) in cone]


def ematch_since(
    eg: EGraph,
    pattern: Pattern,
    stamp: int,
    cone: Optional[Set[int]] = None,
    limit: Optional[int] = None,
) -> MatchScan:
    """Match ``pattern`` against head nodes touched after ``version == stamp``.

    A match rooted at class C is new only if C or a class reachable from
    it through argument edges changed, i.e. C is in the dirty cone of the
    changes — so only head candidates whose class is in the cone are
    visited, in the same bucket order as the full scan.  Callers that
    already computed the cone for this stamp can pass it in.
    """
    trigger = compile_trigger(pattern)
    if cone is None:
        cone = eg.dirty_cone(stamp)
    seeds = cone_seeds(eg, trigger.op, cone)
    substs = run_compiled(eg, trigger, seeds, limit=limit)
    return MatchScan(
        substs=substs,
        scanned=len(seeds),
        pruned=eg.op_count(trigger.op) - len(seeds),
    )
