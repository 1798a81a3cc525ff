"""E-graph analyses.

:func:`count_ways` counts the distinct ways of computing a class — the
quantity behind the paper's observation that "an E-graph of size O(n) can
represent Θ(2^n) distinct ways of computing a term" and that AC matching
finds "more than a hundred different ways of computing a+b+c+d+e"
(section 5).  :func:`min_depth` gives the dataflow-critical-path lower
bound used by tests as a sanity floor for schedules.  The classic
(non-Denali) cheapest-term extraction lives in :mod:`repro.extraction`
(:func:`~repro.extraction.greedy_select`).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.egraph.egraph import EGraph, ENode


def count_ways(
    eg: EGraph,
    cid: int,
    is_computable_op: Optional[Callable[[str], bool]] = None,
    cap: int = 10**9,
) -> int:
    """Number of distinct derivations of class ``cid``.

    A derivation picks one enode of the class and, recursively, a
    derivation of each argument class.  Leaves (constants, inputs) count
    as one way.  ``is_computable_op`` filters which operators may be used
    (e.g. only machine operations); cyclic derivations are not counted
    (a class being derived may not appear in its own derivation), matching
    the intuition of "a way of computing".  Counts saturate at ``cap``.
    """

    def allowed(node: ENode) -> bool:
        if node.op in ("const", "input"):
            return True
        if is_computable_op is None:
            return True
        return is_computable_op(node.op)

    def ways(root: int, active: Set[int]) -> int:
        root = eg.find(root)
        if root in active:
            return 0  # cyclic support does not constitute a computation
        total = 0
        active = active | {root}
        for node in eg.enodes(root):
            if not allowed(node):
                continue
            if not node.args:
                total += 1
                continue
            product = 1
            for arg in node.args:
                product *= ways(arg, active)
                if product == 0 or product >= cap:
                    break
            total += product
            if total >= cap:
                return cap
        return min(total, cap)

    return ways(cid, set())


def min_depth(
    eg: EGraph,
    cid: int,
    latency: Callable[[str], Optional[int]],
    free: Optional[Set[int]] = None,
) -> Optional[int]:
    """The least dataflow depth (in cycles) at which ``cid`` can be ready.

    ``latency(op)`` returns the operator's latency or ``None`` if the
    machine cannot execute it.  ``free`` classes cost zero.  Returns
    ``None`` for uncomputable classes.  This ignores resource conflicts, so
    it is a true lower bound on any schedule — tests compare it against
    what the SAT search finds.

    The answer is the least fixpoint of "a class is ready once its
    fastest computable enode's arguments are", found Bellman-Ford style:
    every sweep re-derives each class from the current values, which only
    ever decrease, until a sweep changes nothing.  Cyclic classes cost
    one sweep per improvement, not one walk per path.
    """
    free = {eg.find(c) for c in free or ()}
    index = eg.class_index()
    depth: Dict[int, int] = dict.fromkeys(free, 0)
    changed = True
    while changed:
        changed = False
        for root, nodes in index.items():
            if root in free:
                continue
            best = depth.get(root)
            for node in nodes:
                if node.op in ("const", "input"):
                    cand = 0
                else:
                    lat = latency(node.op)
                    args = [depth.get(eg.find(arg)) for arg in node.args]
                    if lat is None or None in args:
                        continue
                    cand = max(args, default=0) + lat
                if best is None or cand < best:
                    best = cand
                    depth[root] = cand
                    changed = True
    return depth.get(eg.find(cid))


def partition_signature(eg: EGraph) -> Tuple:
    """A canonical fingerprint of the E-graph's class partition.

    Two E-graphs built from the same terms have equal signatures exactly
    when their equivalence partitions agree, regardless of the order in
    which classes were created or merged.  The signature is computed by
    Weisfeiler-Lehman-style refinement: every class starts with the same
    label, then rounds of relabelling distinguish classes by the multiset
    of their enodes' shapes and argument labels, until the number of
    distinct labels stops growing.  Labels are assigned by sorted rank —
    no use of Python ``hash()`` — so the result is deterministic across
    processes and suitable for cross-mode differential checks (the
    ``matching`` fuzz oracle compares incremental vs naive saturation
    with it).

    Returns a sorted tuple of ``(label, class_size)`` pairs, where
    ``class_size`` is the class's enode count.
    """
    # Materialise root -> canonical nodes once from the flat class
    # chains; after the rebuild this performs, every node's argument ids
    # are roots, so labels can be read without re-canonicalising.
    index: Dict[int, list] = {
        root: eg.enodes(root) for root in eg.classes()
    }
    labels: Dict[int, int] = {root: 0 for root in index}

    def shape(node: ENode) -> Tuple:
        value = -1 if node.value is None else node.value
        return (node.op, value, node.name or "", len(node.args))

    distinct = 1
    while True:
        sigs: Dict[int, Tuple] = {}
        for root, nodes in index.items():
            rows = sorted(
                (
                    shape(node),
                    tuple(labels[arg] for arg in node.args),
                )
                for node in nodes
            )
            sigs[root] = (labels[root], tuple(rows))
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(sigs.values())))}
        labels = {root: ranking[sig] for root, sig in sigs.items()}
        if len(ranking) <= distinct:
            break
        distinct = len(ranking)

    return tuple(
        sorted((label, len(index[root])) for root, label in labels.items())
    )

