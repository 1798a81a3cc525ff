"""Adaptive dominance pruning of the class DAG.

Before the exact refinement (:mod:`repro.extraction.refine`) pays for
its cost ladder on the scheduling formula, the candidate machine terms
are thinned e-boost-style: within each class, an e-node whose
*through-node* tree bound exceeds the class's own lower bound by more
than ``slack`` is dominated — some sibling realizes the class at least
``slack + 1`` cheaper even if every shared subterm were paid repeatedly
— and is dropped from the candidate set.  The class's minimum-bound
node is kept by construction (its through-bound *is* the class bound),
so pruning never leaves a reachable class without a viable candidate.

The slack is chosen adaptively from the shape the saturation stage
reported (Caviar's lesson: pruning decisions want per-run stats, not
constants).  Dense graphs — many e-nodes per class, or an axiom corpus
that asserted instances explosively — carry many near-duplicate
alternatives and are pruned tightly; sparse graphs keep a wider band so
the exact stage still sees genuinely different implementations.  The
pruned candidates are only *gated off*, not deleted: the refinement
ladder relaxes the pruning tier before concluding anything from an
UNSAT answer, so aggressive slack can cost a solver call but never
optimality.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.costs import CostFn, OperandsFn, enode_tree_bound


def adaptive_slack(eg: EGraph, saturation=None) -> int:
    """Pick the dominance slack from the graph and saturation telemetry.

    Start from the e-node density (nodes per class) — below 2
    alternatives per class there is little to dominate, so keep a band
    of 2; up to 4 keep 1; denser graphs prune exactly.  When the
    per-axiom stats show the corpus asserted instances explosively (more
    instances than classes), the graph is saturated with near-variants
    and the band tightens one more notch.
    """
    classes = max(1, eg.num_classes())
    density = eg.num_enodes() / classes
    slack = 2 if density < 2.0 else (1 if density < 4.0 else 0)
    if saturation is not None:
        per_axiom = getattr(saturation, "per_axiom", None) or {}
        instances = sum(
            entry.get("instances", 0) for entry in per_axiom.values()
        )
        if instances > classes:
            slack = max(0, slack - 1)
    return slack


def prune_dominated(
    eg: EGraph,
    cost: CostFn,
    bounds: Dict[int, int],
    candidates: Dict[int, List[ENode]],
    slack: int = 1,
    operands: Optional[OperandsFn] = None,
) -> Dict[int, List[ENode]]:
    """Drop dominated candidates; always keep each class's cheapest.

    ``bounds`` are the ``tree``-mode class lower bounds; ``candidates``
    maps class roots to their viable e-nodes.  Returns the survivors,
    per class root of ``candidates``.  Nodes whose through-node bound is
    infinite (an argument class is unrealizable) are pruned
    unconditionally — no selection can ever use them.  ``operands`` is
    the bounds' operand function (see :func:`class_lower_bounds`).
    """
    survivors: Dict[int, List[ENode]] = {}
    for root, nodes in candidates.items():
        class_bound = bounds.get(root)
        if class_bound is None:
            # Unrealizable class: every candidate is dead weight.
            survivors[root] = []
            continue
        kept: List[ENode] = []
        for node in nodes:
            through = enode_tree_bound(eg, node, cost, bounds, operands)
            if through is not None and through <= class_bound + slack:
                kept.append(node)
        if not kept:
            # Numerically impossible (the argmin node's through-bound
            # equals the class bound), but never let a rounding or
            # override change strand a reachable class.
            kept = [
                node
                for node in nodes
                if enode_tree_bound(eg, node, cost, bounds, operands)
                is not None
            ]
        survivors[root] = kept
    return survivors
