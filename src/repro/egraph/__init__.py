"""The E-graph: a term DAG with an equivalence relation on nodes.

This is the paper's central data structure (section 5): an E-graph of size
O(n) can represent exponentially many distinct ways of computing a term.
The implementation follows the classic congruence-closure design
(Nelson-Oppen / Downey-Sethi-Tarjan) with the addition of *distinctions* —
pairs of classes constrained to be uncombinable — which the matcher uses to
delete untenable literals from clauses.
"""

from repro.egraph.unionfind import UnionFind
from repro.egraph.egraph import EGraph, EGraphSnapshot, ENode, InconsistentError
from repro.egraph.analysis import (
    count_ways,
    min_depth,
    partition_signature,
)

__all__ = [
    "UnionFind",
    "EGraph",
    "EGraphSnapshot",
    "ENode",
    "InconsistentError",
    "count_ways",
    "min_depth",
    "partition_signature",
]
