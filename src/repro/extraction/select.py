"""Greedy and exact DAG selection over an E-graph.

These selectors answer the classic extraction question — pick one
e-node per needed class so the roots are realized at minimum
selected-term (DAG) cost — for an arbitrary E-graph, with no cycle
budget.  :func:`greedy_select` is the library's classic cheapest-term
extractor; :func:`exact_select` serves the exact refinement
(:mod:`repro.extraction.refine`), which solves the cycle-free relaxation
of its scheduling problem here for a cost floor — the scheduling
encoder's free classes as cost-0 leaves, only the machine terms that can
complete within the cycle budget viable, ldiq's immediate dropped from
the operands.  The search is unpruned: dominance pruning pays only on
the scheduling formula (:mod:`repro.extraction.pruner`).  The SAT
formulation of :func:`exact_select`:

* one selection variable per candidate e-node, **at-most-one** per
  class, class-selected variables tying operands to selections;
* well-foundedness through cyclic classes by a **depth ladder** local
  to each strongly-connected component of the class graph (a selected
  node must be supported at a strictly smaller in-component depth, so a
  selection can never loop through a class);
* cost bounded by the :class:`~repro.extraction.pb.WeightedCounter`,
  budget-laddered downward from the greedy cost (or a caller's cheaper
  ``upper``) via assumptions on one
  :class:`~repro.sat.incremental.IncrementalSolver`;
* **canonical lex-least decode**: selection variables are allocated in
  a structural order (insertion-order independent), so the chosen model
  — and therefore the extracted term — is a pure function of the
  graph's shape, the roots and the cost function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.extraction.costs import (
    CostFn,
    LEAF_OPS,
    OperandsFn,
    class_lower_bounds,
    enode_tree_bound,
    unit_cost,
)

# Cost-ladder solves one exact selection may spend.
MAX_SOLVES = 32


@dataclass
class Selection:
    """One extraction: a per-class choice realizing the roots."""

    cost: Optional[int]  # realized DAG cost; None = no selection exists
    choice: Dict[int, ENode] = field(default_factory=dict)
    rendered: Dict[int, str] = field(default_factory=dict)  # root -> term
    optimal: bool = False  # cost proved minimal (or infeasibility proved)
    mode: str = "greedy"
    solves: int = 0
    conflicts: int = 0


def _render(node: ENode, arg_strs: Sequence[str]) -> str:
    if node.op == "const":
        return "#%d" % node.value
    if node.op == "input":
        return "$%s" % node.name
    return "%s(%s)" % (node.op, ",".join(arg_strs))


def _operands_of(operands: Optional[OperandsFn]) -> OperandsFn:
    return (lambda node: node.args) if operands is None else operands


def _support_classes(
    eg: EGraph,
    roots: Sequence[int],
    leaves: Set[int],
    viable: Optional[Callable[[ENode], bool]],
    operands: OperandsFn,
) -> List[int]:
    """Every class reachable from the roots through viable e-nodes'
    operands (leaves are not entered), in BFS order from the roots
    (deterministic given the root order)."""
    seen: List[int] = []
    seen_set: Set[int] = set()
    queue = deque(eg.find(r) for r in roots)
    while queue:
        cid = queue.popleft()
        if cid in seen_set:
            continue
        seen_set.add(cid)
        seen.append(cid)
        if cid in leaves:
            continue
        for node in eg.enodes(cid):
            if viable is not None and not viable(node):
                continue
            for a in operands(node):
                queue.append(eg.find(a))
    return seen


def _leaf_witnesses(
    eg: EGraph, leaves: Iterable[int]
) -> Dict[int, Tuple[int, str]]:
    """Per leaf class, its least rendered graph leaf (a constant or an
    input) as a size-0 witness."""
    wit: Dict[int, Tuple[int, str]] = {}
    for cid in leaves:
        texts = [
            _render(node, ()) for node in eg.enodes(cid) if node.op in LEAF_OPS
        ]
        wit[cid] = (0, min(texts) if texts else "c%d" % cid)
    return wit


def _witnesses(
    eg: EGraph,
    candidates: Dict[int, List[ENode]],
    operands: OperandsFn,
    seed: Dict[int, Tuple[int, str]],
) -> Dict[int, Tuple[int, str]]:
    """Per class, the (size, string)-least tree term realizing it.

    The witness is a purely *structural* canonical form — size counts 1
    per operator regardless of the cost function — used to order
    classes and break ties deterministically across insertion orders.
    The chaotic fixpoint terminates: minimal sizes stabilise within
    #classes rounds, and only finitely many trees share the minimal
    size.  ``seed`` holds the leaf classes' fixed witnesses.
    """
    wit: Dict[int, Tuple[int, str]] = dict(seed)
    changed = True
    while changed:
        changed = False
        for root, nodes in candidates.items():
            for node in nodes:
                if node.op in LEAF_OPS:
                    entry: Optional[Tuple[int, str]] = (0, _render(node, ()))
                else:
                    size, strs, ok = 1, [], True
                    for a in operands(node):
                        sub = wit.get(eg.find(a))
                        if sub is None:
                            ok = False
                            break
                        size += sub[0]
                        strs.append(sub[1])
                    entry = (size, _render(node, strs)) if ok else None
                if entry is not None and (
                    root not in wit or entry < wit[root]
                ):
                    wit[root] = entry
                    changed = True
    return wit


def _node_key(
    eg: EGraph, node: ENode, wit: Dict[int, Tuple[int, str]]
) -> Tuple:
    return (
        node.op,
        tuple(wit.get(eg.find(a), (1 << 30, ""))[1] for a in node.args),
        node.value if node.value is not None else 0,
        node.name or "",
    )


def _realized(
    eg: EGraph,
    roots: Sequence[int],
    choice: Dict[int, ENode],
    cost: CostFn,
    operands: OperandsFn,
    leaf_text: Dict[int, Tuple[int, str]],
) -> Tuple[int, Dict[int, str]]:
    """Walk the chosen DAG from the roots: its cost and rendered terms.

    Leaf classes cost nothing and render as their ``leaf_text`` witness.
    """
    total = 0
    rendered: Dict[int, str] = {}

    def walk(cid: int) -> str:
        cid = eg.find(cid)
        if cid in rendered:
            return rendered[cid]
        if cid in leaf_text:
            rendered[cid] = leaf_text[cid][1]
            return rendered[cid]
        node = choice[cid]
        rendered[cid] = ""  # cycle guard; selections are well-founded
        text = _render(node, [walk(a) for a in operands(node)])
        rendered[cid] = text
        return text

    for r in roots:
        walk(r)
    seen: Set[int] = set()
    stack = [eg.find(r) for r in roots]
    while stack:
        cid = stack.pop()
        if cid in seen or cid in leaf_text:
            continue
        seen.add(cid)
        node = choice[cid]
        total += cost(node) if node.op not in LEAF_OPS else 0
        stack.extend(eg.find(a) for a in operands(node))
    return total, {eg.find(r): rendered[eg.find(r)] for r in roots}


def greedy_select(
    eg: EGraph,
    roots: Sequence[int],
    cost: CostFn = unit_cost,
    leaf_classes: Optional[Set[int]] = None,
    viable: Optional[Callable[[ENode], bool]] = None,
    operands: Optional[OperandsFn] = None,
) -> Selection:
    """Bottom-up per-class cheapest-tree choice (the heuristic baseline).

    Each class independently picks the e-node minimising the tree-cost
    bound through it (ties broken by the structural witness), which
    ignores sharing: on a diamond where two expensive implementations
    share a subterm the greedy answer can be strictly worse than the
    exact one.  Deterministic and insertion-order independent.

    ``leaf_classes``, ``viable`` and ``operands`` restrict the problem
    as in :func:`~repro.extraction.costs.class_lower_bounds`: leaf
    classes cost 0 and are never chosen into, only viable e-nodes are
    candidates, and ``operands`` names what each one needs realized.
    """
    roots = [eg.find(r) for r in roots]
    leaves = {eg.find(c) for c in leaf_classes or ()}
    args_of = _operands_of(operands)
    support = _support_classes(eg, roots, leaves, viable, args_of)
    candidates = {
        cid: [n for n in eg.enodes(cid) if viable is None or viable(n)]
        for cid in support
        if cid not in leaves
    }
    bounds = class_lower_bounds(eg, cost, "tree", leaves, viable, operands)
    leaf_text = _leaf_witnesses(eg, (c for c in support if c in leaves))
    wit = _witnesses(eg, candidates, args_of, leaf_text)
    choice: Dict[int, ENode] = {}
    for cid in candidates:
        best = None
        for node in candidates[cid]:
            through = enode_tree_bound(eg, node, cost, bounds, operands)
            if through is None:
                continue
            key = (through, _node_key(eg, node, wit))
            if best is None or key < best[0]:
                best = (key, node)
        if best is not None:
            choice[cid] = best[1]
    if any(r not in choice and r not in leaves for r in roots):
        return Selection(cost=None, optimal=True, mode="greedy")
    total, rendered = _realized(eg, roots, choice, cost, args_of, leaf_text)
    stack = list(roots)
    reachable: Set[int] = set()
    while stack:
        cid = stack.pop()
        if cid in reachable or cid in leaves:
            continue
        reachable.add(cid)
        stack.extend(eg.find(a) for a in args_of(choice[cid]))
    return Selection(
        cost=total,
        choice={c: choice[c] for c in reachable},
        rendered=rendered,
        optimal=False,
        mode="greedy",
    )


def _sccs(graph: Dict[int, Set[int]]) -> List[List[int]]:
    """Tarjan's SCCs, iterative, deterministic given the dict order."""
    index: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    out: List[List[int]] = []
    counter = [0]

    for start in graph:
        if start in index:
            continue
        work = [(start, iter(sorted(graph[start])))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def exact_select(
    eg: EGraph,
    roots: Sequence[int],
    cost: CostFn = unit_cost,
    conflict_budget: Optional[int] = 200_000,
    leaf_classes: Optional[Set[int]] = None,
    viable: Optional[Callable[[ENode], bool]] = None,
    operands: Optional[OperandsFn] = None,
    upper: Optional[int] = None,
) -> Selection:
    """Minimum selected-term-cost extraction, SAT-exact.

    Runs the greedy baseline for an upper bound, then budget-ladders the
    cost downward on an incremental solver until the optimum is proved
    or the conflict budget gives out.  The answer is never worse than greedy, and
    ``optimal=True`` certifies no cheaper selection exists.

    ``leaf_classes``, ``viable`` and ``operands`` restrict the problem
    as in :func:`greedy_select`.  ``upper`` is a cost the caller knows
    some selection achieves (a schedule it already holds): the ladder
    starts below it when it beats greedy.  If no cheaper selection
    exists, the result reports ``cost=upper`` with an empty ``choice``
    — the witness is the caller's.
    """
    from repro.sat.incremental import IncrementalSolver

    greedy = greedy_select(eg, roots, cost, leaf_classes, viable, operands)
    roots = [eg.find(r) for r in roots]
    leaves = {eg.find(c) for c in leaf_classes or ()}
    args_of = _operands_of(operands)
    best = Selection(
        cost=greedy.cost,
        choice=dict(greedy.choice),
        rendered=dict(greedy.rendered),
        optimal=greedy.cost is None,
        mode="exact",
    )
    if upper is not None and greedy.cost is not None and upper < greedy.cost:
        best = Selection(cost=upper, mode="exact")
    if best.cost is None or best.cost == 0:
        return best

    support = _support_classes(eg, roots, leaves, viable, args_of)
    bounds = class_lower_bounds(eg, cost, "tree", leaves, viable, operands)
    dag_bounds = class_lower_bounds(eg, cost, "dag", leaves, viable, operands)
    floor = max(dag_bounds.get(r, 0) for r in roots)
    if best.cost <= floor:
        best.optimal = True
        return best

    # Candidate universe: realizable non-leaf classes; per class, the
    # viable e-nodes whose operands are all realizable.
    selectable = [cid for cid in support if cid in bounds and cid not in leaves]
    candidates: Dict[int, List[ENode]] = {}
    for cid in selectable:
        candidates[cid] = [
            node
            for node in eg.enodes(cid)
            if (viable is None or viable(node))
            and all(eg.find(a) in bounds for a in args_of(node))
        ]
    leaf_text = _leaf_witnesses(eg, (c for c in support if c in leaves))
    wit = _witnesses(eg, candidates, args_of, leaf_text)
    order = sorted(selectable, key=lambda c: (wit[c], c))

    num_vars = [0]
    clauses: List[List[int]] = []

    def new_var() -> int:
        num_vars[0] += 1
        return num_vars[0]

    emit = clauses.append

    def amo(lits: List[int]) -> None:
        if len(lits) <= 8:
            for i in range(len(lits)):
                for j in range(i + 1, len(lits)):
                    emit([-lits[i], -lits[j]])
            return
        run = lits[0]
        for lit in lits[1:]:
            s = new_var()
            emit([-run, s])
            emit([-lit, -s])
            run_next = new_var()
            emit([-s, run_next])
            emit([-lit, run_next])
            run = run_next

    # Selection variables, structurally ordered.  Within a class the
    # nodes are allocated in *reverse* structural order: the canonical
    # lex-least model prefers early variables false, so among equal-cost
    # alternatives the structurally least node is the one chosen.
    x_of: Dict[Tuple[int, int], int] = {}  # (class, node index) -> var
    nodes_of: Dict[int, List[ENode]] = {}
    y_of: Dict[int, int] = {}
    for cid in order:
        nodes = sorted(candidates[cid], key=lambda n: _node_key(eg, n, wit))
        nodes_of[cid] = nodes
        for idx in range(len(nodes) - 1, -1, -1):
            x_of[(cid, idx)] = new_var()
    for cid in order:
        y_of[cid] = new_var()

    for cid in order:
        xs = [x_of[(cid, i)] for i in range(len(nodes_of[cid]))]
        y = y_of[cid]
        emit([-y] + xs)
        for x in xs:
            emit([-x, y])
        if len(xs) > 1:
            amo(xs)
        for idx, node in enumerate(nodes_of[cid]):
            x = x_of[(cid, idx)]
            for a in sorted({eg.find(a) for a in args_of(node)}):
                if a not in leaves:
                    emit([-x, y_of[a]])
    for r in roots:
        if r not in leaves:
            emit([y_of[r]])

    # Well-foundedness: a depth ladder per non-trivial SCC of the class
    # graph.  A selected node's in-component arguments must be supported
    # at a strictly smaller depth, so no selection can cycle.
    graph: Dict[int, Set[int]] = {
        cid: {
            eg.find(a)
            for node in nodes_of[cid]
            for a in args_of(node)
            if eg.find(a) in y_of
        }
        for cid in order
    }
    for comp in _sccs(graph):
        cyclic = len(comp) > 1 or (
            comp[0] in graph.get(comp[0], ())
        )
        if not cyclic:
            continue
        comp = sorted(comp, key=lambda c: (wit[c], c))
        members = set(comp)
        depth = len(comp)
        d_of = {
            (cid, t): new_var() for cid in comp for t in range(depth)
        }
        for cid in comp:
            emit([-y_of[cid], d_of[(cid, depth - 1)]])
            for t in range(1, depth):
                emit([-d_of[(cid, t - 1)], d_of[(cid, t)]])
            for t in range(depth):
                supports = [-d_of[(cid, t)]]
                for idx, node in enumerate(nodes_of[cid]):
                    in_comp = sorted(
                        {
                            eg.find(a)
                            for a in args_of(node)
                            if eg.find(a) in members
                        }
                    )
                    if in_comp and t == 0:
                        continue
                    z = new_var()
                    emit([-z, x_of[(cid, idx)]])
                    for a in in_comp:
                        emit([-z, d_of[(a, t - 1)]])
                    supports.append(z)
                emit(supports)

    # The cost counter, over every candidate's weight.
    from repro.extraction.pb import WeightedCounter

    counter = WeightedCounter(new_var, emit, best.cost - 1)
    for cid in order:
        for idx, node in enumerate(nodes_of[cid]):
            w = 0 if node.op in LEAF_OPS else cost(node)
            counter.add(x_of[(cid, idx)], w)

    solver = IncrementalSolver()
    solver.ensure_vars(num_vars[0])
    solver.add_clauses(clauses)

    bound = best.cost - 1
    proved = False
    while bound >= floor and best.solves < MAX_SOLVES:
        geq = counter.geq(bound + 1)
        assumptions = [] if geq is None else [-geq]
        res = solver.solve(assumptions, conflict_budget=conflict_budget)
        best.solves += 1
        best.conflicts += res.stats.conflicts
        if res.satisfiable is None:
            break
        if not res.satisfiable:
            proved = True
            break
        choice: Dict[int, ENode] = {}
        for cid in order:
            for idx, node in enumerate(nodes_of[cid]):
                if res.model.get(x_of[(cid, idx)], False):
                    choice[cid] = node
                    break
        realized, rendered = _realized(
            eg, roots, choice, cost, args_of, leaf_text
        )
        if realized >= (best.cost or 0) and best.cost is not None:
            # Defensive: the counter guarantees realized <= bound.
            break
        best.cost = realized
        best.choice = choice
        best.rendered = rendered
        bound = realized - 1
    best.optimal = proved or best.cost == floor
    return best
