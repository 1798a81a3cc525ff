"""Cost-aware e-graph extraction (exact selection + adaptive pruning).

The SAT ladder optimises cycles; this package optimises *which terms*
get computed once the cycle count is settled.  ``costs`` holds the
bottom-up class lower bounds over the flat columns, ``pruner`` the
adaptive dominance pruning, ``select`` the greedy/exact DAG selectors
(which also solve the refinement's cycle-free floor), and ``refine`` the
session-integrated refinement that re-uses the incremental scheduling
solver.
"""

from repro.extraction.costs import (
    LEAF_OPS,
    CostFn,
    OperandsFn,
    class_lower_bounds,
    enode_tree_bound,
    latency_cost,
    schedule_cost,
    unit_cost,
)
from repro.extraction.pb import WeightedCounter
from repro.extraction.pruner import PruneReport, adaptive_slack, prune_dominated
from repro.extraction.refine import greedy_stats, refine_exact
from repro.extraction.select import Selection, exact_select, greedy_select

__all__ = [
    "LEAF_OPS",
    "CostFn",
    "OperandsFn",
    "class_lower_bounds",
    "enode_tree_bound",
    "latency_cost",
    "schedule_cost",
    "unit_cost",
    "WeightedCounter",
    "PruneReport",
    "adaptive_slack",
    "prune_dominated",
    "greedy_stats",
    "refine_exact",
    "Selection",
    "exact_select",
    "greedy_select",
]
