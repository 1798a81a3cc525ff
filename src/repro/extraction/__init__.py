"""Cost-aware e-graph extraction (exact selection + adaptive pruning).

The SAT ladder optimises cycles; this package optimises *which terms*
get computed once the cycle count is settled.  ``costs`` holds the
bottom-up class lower bounds over the flat columns, ``select`` the
greedy/exact DAG selectors (``greedy_select`` is also the library's
classic cheapest-term extractor; ``exact_select`` solves the
refinement's cycle-free floor, unpruned), ``refine`` the
session-integrated refinement that re-uses the incremental scheduling
solver, and ``pruner`` the adaptive dominance pruning that refinement
alone applies.
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
from repro.extraction.pruner import adaptive_slack, prune_dominated
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
    "adaptive_slack",
    "prune_dominated",
    "greedy_stats",
    "refine_exact",
    "Selection",
    "exact_select",
    "greedy_select",
]
