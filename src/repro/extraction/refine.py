"""Exact cost refinement of the SAT ladder's winning schedule.

The budget ladder proves the minimum cycle count K, but the model it
hands to demand-driven decoding is just *one* K-cycle schedule — the
canonical lex-least one — and its selected-term cost (which e-nodes got
computed, weighted by the EV6 cycle model) is whatever that model
happened to pick.  This stage re-asks the solver: *of all K-cycle
schedules, which selects the cheapest terms?*

It runs on the session's own :class:`~repro.sat.incremental
.IncrementalSolver`, which still holds the whole scheduling formula:

1. budget K's goal clauses are **re-gated** on a fresh selector (the
   ladder retired the original one, permanently asserting it false);
2. a used-term indicator is defined per completable machine term
   (``launch => used``), and the :class:`~repro.extraction.pb
   .WeightedCounter` counts latency over the indicators;
3. dominated terms (the :mod:`~repro.extraction.pruner` over the
   flat-column cost bounds, slack adapted from the saturation stats)
   are gated off behind a relaxable pruning selector;
4. the cost bound ladders *downward* from the greedy schedule's cost
   via assumptions, with canonical lex-least models at every step, so
   the refined schedule is deterministic; an UNSAT answer under pruning
   is retried without it before the optimum is claimed.

The ladder stops at a **floor**, an admissible lower bound on every
K-cycle schedule's cost.  The ``dag`` class bound is cheap but weak;
the stronger one is the optimum of the same selection with the cycle
budget dropped (:func:`~repro.extraction.select.exact_select`): only
the terms whose earliest completion (the encoder's availability
analysis) is at most cycle K - 1, free classes as cost-0 leaves, each
term's operands as the decoder obtains them.  A decoded K-cycle
schedule computes only such terms, each after its operands; keeping
each class's earliest launch gives a well-founded selection that
realizes the goals, so that optimum is at most the schedule's cost.
When the floor is tight, the ladder ends at its first SAT answer, with
no UNSAT solve on the scheduling formula.

The greedy schedule is itself a feasible point of this formula, so the
refined answer is never worse; every decoded model is a genuine
K-cycle schedule, so cycle-optimality and verification are untouched.
Inconclusive solves (conflict budget, cancellation) keep the best
schedule found so far.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.emit import Schedule, extract_schedule
from repro.egraph.egraph import EGraph
from repro.extraction.costs import (
    class_lower_bounds,
    latency_cost,
    schedule_cost,
)
from repro.extraction.pb import WeightedCounter
from repro.extraction.pruner import adaptive_slack, prune_dominated
from repro.extraction.select import exact_select

# Effort caps of the refinement: conflicts per solve (the relaxation and
# each cost-ladder step) and the number of cost-ladder solves.
CONFLICT_BUDGET = 50_000
MAX_SOLVES = 12


def greedy_stats(schedule: Optional[Schedule], cost) -> dict:
    """The extraction record for the default (greedy-decode) mode."""
    if schedule is None:
        return {"mode": "greedy", "cost": None}
    return {
        "mode": "greedy",
        "cost": schedule_cost(schedule.instructions, cost),
    }


def refine_exact(
    eg: EGraph,
    encoder,
    solver,
    cycles: int,
    schedule: Schedule,
    input_registers: Optional[Dict[str, str]],
    live_budgets,
    saturation=None,
) -> "tuple[Schedule, dict]":
    """Minimise selected-term cost among the K-cycle schedules.

    ``encoder``/``solver`` are the session's live
    :class:`~repro.encode.constraints.IncrementalEncoder` and
    :class:`~repro.sat.incremental.IncrementalSolver`; ``live_budgets``
    names the cycle budgets whose selectors are still un-retired (their
    goal clauses must be assumed away).  Returns the refined schedule
    (possibly the input one) and the stats record.
    """
    start = time.perf_counter()
    cost = latency_cost(encoder.spec, encoder.latency_overrides)
    greedy_cost = schedule_cost(schedule.instructions, cost)
    stats: dict = {
        "mode": "exact",
        "cost": greedy_cost,
        "greedy_cost": greedy_cost,
        "exact_cost": greedy_cost,
        "improved": False,
        "proved": False,
        "candidates": 0,
        "pruned": 0,
        "slack": 0,
        "solves": 0,
        "relaxations": 0,
        "floor": 0,
        # Which bound set the floor ("dag" or "selection"), and what
        # proves the optimum: "floor" (the cost reached it), "unsat" (a
        # solve refuted the next bound down) or None (not proved).
        "floor_by": "dag",
        "optimal_by": None,
        "seconds": 0.0,
    }

    def seal(by: Optional[str]) -> "tuple[Schedule, dict]":
        stats["proved"] = by is not None
        stats["optimal_by"] = by
        stats["seconds"] = round(time.perf_counter() - start, 6)
        return best, stats

    best = schedule

    # Completable machine terms: only launches that can finish inside
    # the budget are countable (later launches serve no consumer, and
    # demand-driven decoding never picks them).
    terms = [
        (node, cid)
        for node, cid in encoder.machine_terms
        if encoder.latency(node) <= cycles
    ]
    stats["candidates"] = len(terms)
    if not terms:
        return seal("floor")

    # Admissible floors on any K-cycle schedule's cost: realizing the
    # goal classes from the terms that can complete by cycle K - 1, free
    # classes as leaves, each term's operands as the decoder obtains
    # them (ldiq's constant is an immediate, not an operand).
    free = set(encoder.free)
    machine_nodes = {node for node, _cid in encoder.machine_terms}
    finish = encoder.earliest_finish
    timely = {
        node for node, _cid in terms if finish.get(node, cycles) < cycles
    }
    restriction = dict(
        leaf_classes=free,
        viable=lambda n: n in timely,
        operands=lambda n: () if n.op == "ldiq" else n.args,
    )
    dag_bounds = class_lower_bounds(eg, cost, "dag", **restriction)
    floor = max(
        (
            dag_bounds.get(eg.find(g), 0)
            for g in encoder.goal_roots
            if eg.find(g) not in free
        ),
        default=0,
    )
    if greedy_cost > floor:
        relaxed = exact_select(
            eg,
            encoder.goal_roots,
            cost,
            conflict_budget=CONFLICT_BUDGET,
            upper=greedy_cost,
            **restriction,
        )
        if relaxed.optimal and relaxed.cost is not None:
            floor = max(floor, relaxed.cost)
            stats["floor_by"] = "selection"
    stats["floor"] = floor
    if greedy_cost <= floor:
        return seal("floor")

    master = encoder.master

    # 1. Re-gate budget K's goal suffix on a fresh selector (the ladder
    # retired the original one, permanently asserting it false).
    old_sel = encoder.selector(cycles)
    s_goal = master.new_var(("XSEL", cycles))
    regated = [
        [-s_goal] + [lit for lit in clause if lit != -old_sel]
        for clause in encoder.budget_clauses(cycles)
    ]

    # 2. Used-term indicators and the latency-weighted counter.
    defs: List[List[int]] = []
    used_of: Dict[int, int] = {}  # term index -> indicator var
    for t, (node, _cid) in enumerate(terms):
        u = master.new_var(("XU", t))
        used_of[t] = u
        lat = encoder.latency(node)
        for u_name in encoder.spec.info(node.op).units:
            for i in range(cycles - lat + 1):
                var = encoder._launch_vars.get((i, node, u_name))
                if var is not None:
                    defs.append([-var, u])
    counter = WeightedCounter(
        lambda: master.new_var(), defs.append, greedy_cost - 1
    )
    for t, (node, _cid) in enumerate(terms):
        counter.add(used_of[t], max(1, cost(node)))

    # 3. Dominance pruning over the class DAG, gated and relaxable.
    operands = restriction["operands"]
    tree_bounds = class_lower_bounds(
        eg,
        cost,
        "tree",
        leaf_classes=free,
        viable=lambda n: n in machine_nodes,
        operands=operands,
    )
    candidates: Dict[int, List] = {}
    for t, (node, cid) in enumerate(terms):
        candidates.setdefault(eg.find(cid), []).append(node)
    slack = adaptive_slack(eg, saturation)
    survivors = {
        root: set(nodes)
        for root, nodes in prune_dominated(
            eg, cost, tree_bounds, candidates, slack=slack, operands=operands
        ).items()
    }
    stats["slack"] = slack
    s_prune = master.new_var(("XPRUNE", cycles))
    pruned = 0
    for t, (node, cid) in enumerate(terms):
        if node not in survivors.get(eg.find(cid), ()):
            defs.append([-s_prune, -used_of[t]])
            pruned += 1
    stats["pruned"] = pruned

    solver.ensure_vars(master.num_vars)
    solver.add_clauses(regated, trusted=True)
    solver.add_clauses(defs, trusted=True)

    # Assume away every still-live budget's goal clauses.
    negatives = []
    for other in live_budgets:
        sel = solver.budget_selector(other)
        if sel is not None:
            negatives.append(-sel)

    # 4. The downward cost ladder.
    best_cost = greedy_cost
    bound = greedy_cost - 1
    prune_on = pruned > 0
    proved_by: Optional[str] = None
    while bound >= floor and stats["solves"] < MAX_SOLVES:
        assumptions = [s_goal]
        assumptions.extend(negatives)
        assumptions.append(s_prune if prune_on else -s_prune)
        geq = counter.geq(bound + 1)
        if geq is not None:
            assumptions.append(-geq)
        res = solver.solve(assumptions, conflict_budget=CONFLICT_BUDGET)
        stats["solves"] += 1
        if res.satisfiable is None:
            break
        if not res.satisfiable:
            if prune_on:
                prune_on = False
                stats["relaxations"] += 1
                continue
            proved_by = "unsat"
            break
        decoded = extract_schedule(
            eg, encoder.decode_view(cycles), res.model, input_registers
        )
        decoded_cost = schedule_cost(decoded.instructions, cost)
        if decoded_cost >= best_cost:
            # The counter guarantees decoded_cost <= bound < best_cost;
            # never loop if that invariant is somehow violated.
            break
        best, best_cost = decoded, decoded_cost
        bound = decoded_cost - 1

    stats["exact_cost"] = best_cost
    stats["cost"] = best_cost
    stats["improved"] = best_cost < greedy_cost
    if best_cost == floor:
        proved_by = "floor"
    return seal(proved_by)
