"""Bottom-up cost analysis over the E-graph's alive e-nodes.

Extraction quality is judged by *selected-term cost*: the sum, over the
distinct terms a selection realizes, of each term's cost (for machine
terms, the active target's cycle-model latency — ``spec.latency``, so
an rv64 extraction weighs rv64 latencies automatically).  This module
computes per-class **lower bounds** on that cost over the graph's
alive e-nodes (:meth:`repro.egraph.egraph.EGraph.all_nodes`), with two
admissible flavours:

* ``tree`` — ``cost(N) + sum(bound(arg) for arg in N.args)``, minimised
  over the class's e-nodes.  This bounds the cost of any *tree*
  realization (every occurrence of a subterm paid separately), so it is
  admissible for the duplicate-counting tree cost and an upper-biased
  heuristic for DAG cost; it is what the dominance pruner compares.
* ``dag`` — ``cost(N) + max(bound(arg) for arg in N.args)``: since a DAG
  selection pays each distinct class once, the realization of the most
  expensive argument alone already costs ``max``, and the node itself is
  distinct from everything below it.  Admissible for the shared
  (distinct-term) DAG cost.

Classes with no finite realization (nothing viable bottoms out in
leaves) get no entry — they cannot be selected at all.

Every analysis takes an optional ``operands`` function: the classes a
node needs realized before it.  It defaults to the node's arguments; the
refinement drops ldiq's, as the schedule decoder does (ldiq sits in its
own constant's class, and the constant is an instruction immediate, so
its argument is a self-loop, not an operand).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.egraph.egraph import EGraph, ENode

# Terms the selector never has to compute: graph leaves.
LEAF_OPS = ("const", "input")

CostFn = Callable[[ENode], int]
OperandsFn = Callable[[ENode], Sequence[int]]


def unit_cost(node: ENode) -> int:
    """1 per operator node, 0 for leaves — plain term size."""
    return 0 if node.op in LEAF_OPS else 1


def latency_cost(
    spec, overrides: Optional[Dict[ENode, int]] = None
) -> CostFn:
    """Cost = the cycle model's issue latency (>= 1 per machine op).

    ``overrides`` are per-node latency overrides (the section 6 memory
    annotations) — an annotated slow load really does cost more.
    Non-machine operators fall back to 1: they only appear in bounds,
    never in a realizable selection, and a free unit weight keeps the
    bound admissible.
    """
    overrides = overrides or {}

    def cost(node: ENode) -> int:
        if node.op in LEAF_OPS:
            return 0
        lat = overrides.get(node)
        if lat is None:
            lat = spec.latency(node.op) if spec.is_machine_op(node.op) else 1
        return max(1, lat)

    return cost


def class_lower_bounds(
    eg: EGraph,
    cost: CostFn,
    mode: str = "tree",
    leaf_classes: Optional[Set[int]] = None,
    viable: Optional[Callable[[ENode], bool]] = None,
    operands: Optional[OperandsFn] = None,
) -> Dict[int, int]:
    """Per-class admissible lower bound on realizing the class.

    Runs a chaotic fixpoint over the alive e-nodes: one pass relaxes
    every e-node against the current bounds of its argument classes,
    repeated until nothing improves (at most #classes rounds — each
    round finalises at least the next Bellman-Ford frontier).  Nodes a
    rebuild killed as congruent twins are skipped: their keys are stale,
    so a ``viable`` filter over canonical nodes would misjudge them.

    ``leaf_classes`` are treated as cost 0 regardless of their nodes
    (the encoder's *free* classes: constants and register inputs).
    ``viable`` filters which e-nodes may realize a class (e.g. machine
    terms only); non-viable nodes contribute no bound.  ``operands``
    (called on viable nodes only) replaces a node's argument classes.
    """
    if mode not in ("tree", "dag"):
        raise ValueError("mode must be 'tree' or 'dag' (got %r)" % mode)
    find = eg.find
    leaves = leaf_classes if leaf_classes is not None else set()

    bounds: Dict[int, int] = {find(c): 0 for c in leaves}
    # (root, cost, arg roots) rows for every relaxable node, resolved once.
    rows: List[tuple] = []
    for node, root in eg.all_nodes():
        if root in bounds:
            continue
        if viable is not None and not viable(node):
            continue
        if node.op in LEAF_OPS:
            bounds[root] = 0
            continue
        args = node.args if operands is None else operands(node)
        rows.append((root, cost(node), tuple(find(a) for a in args)))

    use_sum = mode == "tree"
    changed = True
    while changed:
        changed = False
        for root, c, args in rows:
            total = c
            ok = True
            for a in args:
                b = bounds.get(a)
                if b is None:
                    ok = False
                    break
                if use_sum:
                    total += b
                elif b > total - c:
                    total = c + b
            if ok and (root not in bounds or total < bounds[root]):
                bounds[root] = total
                changed = True
    return bounds


def enode_tree_bound(
    eg: EGraph,
    node: ENode,
    cost: CostFn,
    bounds: Dict[int, int],
    operands: Optional[OperandsFn] = None,
) -> Optional[int]:
    """Tree-cost lower bound of realizing the class *through this node*."""
    total = cost(node)
    if node.op in LEAF_OPS:
        return total
    for a in node.args if operands is None else operands(node):
        b = bounds.get(eg.find(a))
        if b is None:
            return None
        total += b
    return total


def schedule_cost(instructions: Iterable, cost: CostFn) -> int:
    """Selected-term cost of a schedule: distinct terms, each paid once.

    ``instructions`` is a :class:`~repro.core.emit.Schedule`'s
    instruction list; a term launched several times (e.g. once per EV6
    cluster) still counts once — recomputation burns issue slots, not
    selection cost, and the cycle budget already polices slots.
    """
    seen = set()
    total = 0
    for instr in instructions:
        node = instr.node
        if node in seen:
            continue
        seen.add(node)
        total += max(1, cost(node))
    return total
