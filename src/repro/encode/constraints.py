"""The Denali constraint generator (paper section 6, with section 7 extras).

Given a saturated E-graph, an :class:`~repro.isa.spec.ArchSpec` and a cycle
budget ``K``, build a CNF whose models are exactly the ``K``-cycle machine
programs computing every goal class.  The boolean unknowns follow the paper:

* ``F(i, T, u)`` — machine term ``T`` is launched at cycle ``i`` on unit
  ``u`` (the multiple-issue refinement of the paper's ``L``);
* ``L(i, T)``  — ``T`` is launched at cycle ``i`` (``≡ ∨_u F(i,T,u)``);
* ``A(i, T)``  — a computation of ``T`` completes at the end of cycle ``i``
  (``≡ L(i − λ(T) + 1, T)``);
* ``B(i, Q, c)`` — the value of class ``Q`` is available to cluster ``c``
  by the end of cycle ``i``.

and the constraint families:

1. latency linking (``A`` ≡ shifted ``L``);
2. operand availability: a launch on unit ``u`` needs each argument class
   available to ``u``'s cluster by the previous cycle;
3. availability definition: ``B(i,Q,c)`` holds only if some launch of a
   machine term in ``Q`` completes early enough (including the
   cross-cluster delay) — the paper notes only this direction is needed;
4. issue rules: at most one launch per (cycle, unit);
5. goals: every goal class available somewhere by cycle ``K − 1``;

plus guard-safety ordering (section 7): terms marked unsafe may only launch
after the guard class is available.

Free classes (register/memory inputs, and constants that fit the immediate
field or the zero register) need no computation; constants outside the
immediate range are materialised by the ``ldiq`` pseudo-instruction, whose
cost thereby participates in the optimisation.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.egraph.egraph import EGraph, ENode
from repro.isa.spec import ArchSpec
from repro.sat.cnf import CNF
from repro.terms.ops import Sort


class EncodeError(Exception):
    """Raised when the goals cannot be encoded (e.g. uncomputable class)."""


def sanitize_clauses(
    clauses: Iterable[Sequence[int]], num_vars: int
) -> List[List[int]]:
    """Normalise clauses at emit time: dedupe literals, drop tautologies.

    Every clause mentioning a variable above ``num_vars`` raises
    :class:`EncodeError` — an out-of-range literal means the encoder
    emitted a clause against the wrong variable space (the classic bug in
    prefix-sharing encoders), and a solver would silently misbehave on it.
    """
    out: List[List[int]] = []
    for lits in clauses:
        clause: List[int] = []
        seen = set()
        tautology = False
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var == 0 or var > num_vars:
                raise EncodeError(
                    "clause literal %d outside variable space 1..%d"
                    % (lit, num_vars)
                )
            if -lit in seen:
                tautology = True
                break
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not tautology:
            out.append(clause)
    return out


@dataclass
class EncodingOptions:
    """Feature switches for the encoder."""

    # Also encode the <= direction of the B definition (strict mode used by
    # the encoder's differential tests; the paper's remark that only one
    # direction is needed is validated against this).
    strict_availability: bool = False


@dataclass
class Encoding:
    """The CNF plus the maps needed to decode a model into a schedule."""

    cnf: CNF
    cycles: int
    goal_classes: List[int]
    machine_terms: List[Tuple[ENode, int]]  # (term, class root)
    support_classes: List[int]
    free_classes: Set[int]
    launch_vars: Dict[Tuple[int, ENode, str], int]  # (cycle, term, unit) -> var
    avail_vars: Dict[Tuple[int, int, int], int]  # (cycle, class, cluster) -> var
    spec: ArchSpec = None  # type: ignore[assignment]
    # Per-node latency overrides (profile-style memory annotations, §6).
    latency_overrides: Dict[ENode, int] = field(default_factory=dict)

    def latency(self, node: ENode) -> int:
        """The latency the schedule was encoded with for this node."""
        override = self.latency_overrides.get(node)
        if override is not None:
            return override
        return self.spec.latency(node.op)

    def stats(self) -> Dict[str, int]:
        out = dict(self.cnf.stats())
        out["machine_terms"] = len(self.machine_terms)
        out["support_classes"] = len(self.support_classes)
        return out


def _support(eg: EGraph, goals: Sequence[int]) -> List[int]:
    """All classes reachable from the goal classes through any enode."""
    seen: Set[int] = set()
    stack = [eg.find(g) for g in goals]
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.add(cid)
        for node in eg.enodes(cid):
            for arg in node.args:
                root = eg.find(arg)
                if root not in seen:
                    stack.append(root)
    return sorted(seen)


def _free_classes(
    eg: EGraph, support: Iterable[int], spec: ArchSpec
) -> Set[int]:
    """Classes available without computation: inputs and immediate constants."""
    free: Set[int] = set()
    for cid in support:
        value = eg.const_of(cid)
        if value is not None and spec.fits_immediate(value):
            free.add(cid)
            continue
        if any(node.op == "input" for node in eg.enodes(cid)):
            free.add(cid)
    return free


def _inject_ldiq(eg: EGraph, support: Iterable[int], spec: ArchSpec) -> None:
    """Give out-of-range constant classes an ldiq materialisation node."""
    if not spec.is_machine_op("ldiq"):
        return
    for cid in list(support):
        value = eg.const_of(cid)
        if value is None or spec.fits_immediate(value):
            continue
        if eg.class_sort(cid) != Sort.INT:
            continue
        node = eg.add_enode("ldiq", (eg.find(cid),), sort=Sort.INT)
        if not eg.are_equal(node, cid):
            eg.merge(node, cid)


@dataclass
class _TermRow:
    """One candidate machine term with its operand dependencies resolved.

    ``deps`` are the non-free classes a launch must wait for: the
    argument classes (none for ldiq) plus, for a guard-unsafe term, the
    guard class — exactly the classes family 2 gates the launch on.
    """

    node: ENode
    cid: int
    units: Tuple[str, ...]
    lat: int
    deps: List[int]


def _term_rows(
    eg: EGraph,
    support: Sequence[int],
    free: Set[int],
    spec: ArchSpec,
    unsafe_terms: Dict[ENode, int],
    lat_of,
) -> List[_TermRow]:
    """Every machine-op enode of the support, in support/enode order."""
    rows: List[_TermRow] = []
    for cid in support:
        for node in eg.enodes(cid):
            if node.op in ("const", "input") or not spec.is_machine_op(node.op):
                continue
            if node.op == "ldiq":
                arg_classes: List[int] = []
            else:
                arg_classes = [eg.find(a) for a in node.args]
            deps = [a for a in arg_classes if a not in free]
            if node in unsafe_terms:
                guard = eg.find(unsafe_terms[node])
                if guard not in free and guard not in deps:
                    deps.append(guard)
            rows.append(
                _TermRow(node, cid, spec.info(node.op).units, lat_of(node), deps)
            )
    return rows


def _earliest_availability(
    rows: Sequence[_TermRow], spec: ArchSpec
) -> Tuple[Dict[Tuple[int, int], int], Dict[Tuple[ENode, str], int]]:
    """The earliest cycle ``B(i, Q, c)`` can hold, per (class, cluster),
    and the earliest cycle ``F(i, T, u)`` can hold, per (term, unit).

    ``E(Q,c)`` is the least, over producers ``(T,u)`` of ``Q``, of
    ``start(T,u) + lat(T) - 1 + result_delay(u,c)``, where ``start(T,u)``
    is 0 for a term with no dependencies and otherwise ``1 + max E(d,
    cluster(u))`` over its dependencies ``d``.  Those are exactly the
    bounds families 1-3 impose on any model; dropping the issue slots
    (family 4), the memory anti-dependences (family 6) and
    launch-at-most-once only removes constraints, so no model can make
    ``B(i,Q,c)`` true for ``i < E(Q,c)``, nor ``F(i,T,u)`` for ``i <
    start(T,u)``.  Classes absent from the first map can never be made
    available; (term, unit) pairs absent from the second can never
    launch.

    One worklist pass (Knuth's generalisation of Dijkstra): a launch
    lands strictly after every dependency, so a class's value is final
    when it is popped.
    """
    clusters = spec.cluster_ids()
    best: Dict[Tuple[int, int], int] = {}
    final: Dict[Tuple[int, int], int] = {}
    heap: List[Tuple[int, int, int]] = []
    # Per (class, cluster): the (row index, unit) launches waiting on it,
    # and per launch how many of its distinct dependencies are unresolved.
    waiters: Dict[Tuple[int, int], List[Tuple[int, str]]] = {}
    pending: Dict[Tuple[int, str], int] = {}
    starts: Dict[Tuple[ENode, str], int] = {}

    def launch(row: _TermRow, unit: str, start: int) -> None:
        starts[(row.node, unit)] = start
        for c in clusters:
            t = start + row.lat - 1 + spec.result_delay(unit, c)
            key = (row.cid, c)
            if t < best.get(key, t + 1):
                best[key] = t
                heapq.heappush(heap, (t, row.cid, c))

    for index, row in enumerate(rows):
        for unit in row.units:
            keys = {(d, spec.clusters[unit]) for d in row.deps}
            if not keys:
                launch(row, unit, 0)
                continue
            pending[(index, unit)] = len(keys)
            for key in keys:
                waiters.setdefault(key, []).append((index, unit))
    while heap:
        t, q, c = heapq.heappop(heap)
        if (q, c) in final:
            continue
        final[(q, c)] = t
        for index, unit in waiters.get((q, c), ()):
            pending[(index, unit)] -= 1
            if pending[(index, unit)] == 0:
                row, cluster = rows[index], spec.clusters[unit]
                launch(
                    row,
                    unit,
                    1 + max(final[(d, cluster)] for d in row.deps),
                )
    return final, starts


def _latency_of(spec: ArchSpec, overrides: Dict[ENode, int]):
    """A node's latency: its override if it has one, else the table's."""

    def lat_of(node: ENode) -> int:
        override = overrides.get(node)
        return override if override is not None else spec.latency(node.op)

    return lat_of


def _analyse(
    eg: EGraph,
    spec: ArchSpec,
    goals: Sequence[int],
    unsafe_terms: Dict[ENode, int],
    lat_of,
):
    """The budget-independent analysis both encoders start from.

    Returns ``(goal_roots, support, free, rows, computable, floor,
    available, starts)``: ``rows`` keeps only the machine terms whose
    every dependency can be computed (a class is computable exactly when
    it is free or has a finite earliest availability), and ``available``
    and ``starts`` are :func:`_earliest_availability`'s two maps.  Raises
    :class:`EncodeError` if a goal can never be computed.
    """
    goal_roots = [eg.find(g) for g in goals]
    support = _support(eg, goal_roots)
    version = eg.version
    _inject_ldiq(eg, support, spec)
    if eg.version != version:
        # Injection merges fresh ldiq nodes into constant classes, which
        # may elect a new class representative: re-find the roots, or a
        # bare-constant goal is misjudged uncomputable under its stale id.
        goal_roots = [eg.find(g) for g in goal_roots]
        support = _support(eg, goal_roots)
    free = _free_classes(eg, support, spec)
    rows = _term_rows(eg, support, free, spec, unsafe_terms, lat_of)
    soonest: Dict[int, int] = {}  # per class, min over clusters of E
    available, starts = _earliest_availability(rows, spec)
    for (q, _c), t in available.items():
        soonest[q] = min(t, soonest.get(q, t))
    computable = free | set(soonest)
    for g in goal_roots:
        if g not in computable:
            raise EncodeError(
                "goal class c%d cannot be computed by %s with the available "
                "axioms" % (g, spec.name)
            )
    # Family 5 needs each non-free goal available on some cluster by
    # cycle K - 1, so no budget below min_c E(g,c) + 1 is satisfiable.
    floor = max([1] + [soonest[g] + 1 for g in goal_roots if g not in free])
    rows = [
        row
        for row in rows
        if row.cid in computable and all(d in computable for d in row.deps)
    ]
    return goal_roots, support, free, rows, computable, floor, available, starts


def cycle_floor(
    eg: EGraph,
    spec: ArchSpec,
    goals: Sequence[int],
    unsafe_terms: Optional[Dict[ENode, int]] = None,
    latency_overrides: Optional[Dict[ENode, int]] = None,
) -> int:
    """The least budget the encoding could possibly satisfy.

    Every budget below the returned value is UNSAT (see
    :func:`_earliest_availability` for why the bound is sound).  Raises
    :class:`EncodeError` when some goal cannot be computed at all.
    """
    return _analyse(
        eg, spec, goals, unsafe_terms or {},
        _latency_of(spec, latency_overrides or {}),
    )[5]


def encode_schedule(
    eg: EGraph,
    spec: ArchSpec,
    goals: Sequence[int],
    cycles: int,
    options: Optional[EncodingOptions] = None,
    unsafe_terms: Optional[Dict[ENode, int]] = None,
    latency_overrides: Optional[Dict[ENode, int]] = None,
) -> Encoding:
    """Build the CNF asking "is there a ``cycles``-cycle program?".

    ``unsafe_terms`` maps enodes to a guard class id: such a term may only
    launch once the guard is available to the launching cluster (section 7).

    ``latency_overrides`` maps enodes to latencies that replace the
    architectural table's — how the paper's profile-derived memory
    annotations enter the encoding (section 6: "latency annotations are
    important for performance but not for correctness").

    Raises :class:`EncodeError` if some goal class cannot be computed at all
    with the given architecture (no budget would suffice).
    """
    options = options or EncodingOptions()
    overrides = latency_overrides or {}
    lat_of = _latency_of(spec, overrides)

    if cycles < 1:
        raise EncodeError("cycle budget must be at least 1")

    goal_roots, support, free, rows, computable = _analyse(
        eg, spec, goals, unsafe_terms or {}, lat_of
    )[:5]

    # Machine terms: computable-argument machine-op enodes in the support,
    # minus those that cannot complete within any schedule this short.
    machine_terms: List[Tuple[ENode, int]] = [
        (row.node, row.cid) for row in rows if row.lat <= cycles
    ]

    clusters = spec.cluster_ids()
    cnf = CNF()
    launch_vars: Dict[Tuple[int, ENode, str], int] = {}
    avail_vars: Dict[Tuple[int, int, int], int] = {}

    # -- variable allocation (L, A, B named per the paper, F per unit) -------
    for node, cid in machine_terms:
        info = spec.info(node.op)
        for i in range(cycles):
            for u in info.units:
                launch_vars[(i, node, u)] = cnf.new_var(("F", i, node, u))
            cnf.new_var(("L", i, node))
            cnf.new_var(("A", i, node))
    needs_avail = [
        cid for cid in support if cid in computable and cid not in free
    ]
    for cid in needs_avail:
        for i in range(cycles):
            for c in clusters:
                avail_vars[(i, cid, c)] = cnf.new_var(("B", i, cid, c))

    # -- family 0: L is the disjunction of the per-unit launches ------------
    for node, cid in machine_terms:
        info = spec.info(node.op)
        for i in range(cycles):
            lvar = cnf.var(("L", i, node))
            cnf.iff_or(lvar, [launch_vars[(i, node, u)] for u in info.units])

    # -- family 1: latency linking A(i,T) == L(i - lat + 1, T) ----------------
    for node, cid in machine_terms:
        lat = lat_of(node)
        for i in range(cycles):
            avar = cnf.var(("A", i, node))
            j = i - lat + 1
            if j < 0:
                cnf.add(-avar)
            else:
                lvar = cnf.var(("L", j, node))
                cnf.implies(avar, lvar)
                cnf.implies(lvar, avar)

    # -- family 2: operand availability ------------------------------------
    for node, cid in machine_terms:
        info = spec.info(node.op)
        arg_classes = (
            [] if node.op == "ldiq" else [eg.find(a) for a in node.args]
        )
        deps = [a for a in arg_classes if a not in free]
        if unsafe_terms and node in unsafe_terms:
            guard = eg.find(unsafe_terms[node])
            if guard not in free and guard not in deps:
                deps.append(guard)
        if not deps:
            continue
        for i in range(cycles):
            for u in info.units:
                fvar = launch_vars[(i, node, u)]
                cluster = spec.clusters[u]
                for q in deps:
                    if i == 0:
                        cnf.add(-fvar)  # nothing is available before cycle 0
                        break
                    cnf.implies(fvar, avail_vars[(i - 1, q, cluster)])

    # -- family 3: availability definition -----------------------------------
    # B(i,Q,c) => some launch of a term in Q whose result reaches cluster c
    # by the end of cycle i.
    producers: Dict[int, List[Tuple[ENode, str]]] = {}
    for node, cid in machine_terms:
        info = spec.info(node.op)
        for u in info.units:
            producers.setdefault(cid, []).append((node, u))
    for cid in needs_avail:
        for c in clusters:
            for i in range(cycles):
                bvar = avail_vars[(i, cid, c)]
                supports: List[int] = []
                for node, u in producers.get(cid, ()):
                    lat = lat_of(node)
                    delay = spec.result_delay(u, c)
                    j_max = i - lat + 1 - delay
                    for j in range(0, min(j_max, cycles - 1) + 1):
                        supports.append(launch_vars[(j, node, u)])
                cnf.implies_or(bvar, supports)
                if options.strict_availability:
                    for s in supports:
                        cnf.add(-s, bvar)

    # -- family 4: issue rules (one launch per unit per cycle) ----------------
    per_slot: Dict[Tuple[int, str], List[int]] = {}
    for (i, node, u), var in launch_vars.items():
        per_slot.setdefault((i, u), []).append(var)
    for slot_vars in per_slot.values():
        cnf.at_most_one(slot_vars)

    # -- family 6: memory anti-dependences ------------------------------------
    # A store superseding memory version m must not launch until every
    # scheduled load of version m has completed: on the real machine the
    # store destroys m.  (The paper handles reorderable cases by equality
    # reasoning — the select/store clause axiom — which makes the load read
    # a *different*, provably equal, memory version instead.)
    loads_by_mem: Dict[int, List[ENode]] = {}
    for node, cid in machine_terms:
        if node.op == "select":
            loads_by_mem.setdefault(eg.find(node.args[0]), []).append(node)
    for snode, scid in machine_terms:
        if snode.op != "store":
            continue
        mem_class = eg.find(snode.args[0])
        for lnode in loads_by_mem.get(mem_class, ()):
            llat = lat_of(lnode)
            sinfo = spec.info(snode.op)
            for i in range(cycles):
                for u in sinfo.units:
                    fvar = launch_vars[(i, snode, u)]
                    for j in range(max(0, i - llat + 1), cycles):
                        cnf.add(-fvar, -cnf.var(("L", j, lnode)))

    # -- family 5: goals computed within the budget ---------------------------
    for g in goal_roots:
        if g in free:
            continue
        cnf.add_clause(
            [avail_vars[(cycles - 1, g, c)] for c in clusters]
        )

    return Encoding(
        cnf=cnf,
        cycles=cycles,
        goal_classes=goal_roots,
        machine_terms=machine_terms,
        support_classes=support,
        free_classes=free,
        launch_vars=launch_vars,
        avail_vars=avail_vars,
        spec=spec,
        latency_overrides=dict(overrides),
    )


class _RowLayout:
    """One machine term's window in the incremental encoder.

    Built when the window opens.  ``starts[k]`` is the earliest launch
    cycle on ``units[k]`` (None when that unit can never launch the
    term); the ``F`` variable for unit ``k`` exists from ``starts[k]``
    on, ``L`` from ``l_start`` (the least start) and ``A`` from
    ``l_start + lat - 1``.  ``fvars[k]`` and ``lvars`` hold the allocated
    variables, one per built cycle from the window's start;
    ``dep_cells[k]`` are the availability cells a launch on ``units[k]``
    waits on, and ``slots[k]`` indexes the unit's issue slot.
    """

    __slots__ = (
        "node", "units", "lat", "starts", "l_start", "a_start",
        "dep_cells", "slots", "fvars", "lvars",
    )

    def __init__(self, row, starts, l_start, dep_cells, slots) -> None:
        self.node = row.node
        self.units = row.units
        self.lat = row.lat
        self.starts = starts
        self.l_start = l_start
        self.a_start = l_start + row.lat - 1
        self.dep_cells = dep_cells
        self.slots = slots
        self.fvars: List[List[int]] = [[] for _ in starts]
        self.lvars: List[int] = []


class IncrementalEncoder:
    """Budget-independent CNF prefix shared across cycle-budget probes.

    Every constraint family except the goal clauses (and the optional
    launch-at-most-once cardinality) only relates cycles ``<= i`` to each
    other, so the CNF for budget ``K`` is the concatenation of per-cycle
    *blocks* ``0 .. K-1`` plus a tiny budget-specific suffix.  This
    encoder builds each block once, in cycle order (so variable numbering
    for a smaller budget is a prefix of a larger budget's), and gates each
    budget's suffix on a selector variable, so one solver holds every
    probed budget at once.  Probing budgets 4, 8 and 6 encodes 8 blocks
    total instead of 18.

    Blocks are window-pruned by the floor analysis
    (:func:`_earliest_availability`): block ``i`` allocates ``F(i,T,u)``
    only from the earliest launch ``start(T,u)``, ``L(i,T)`` only from
    ``min_u start(T,u)``, ``A(i,T)`` from that point plus ``lat - 1``, and
    ``B(i,Q,c)`` only from ``E(Q,c)``.  Every variable left out is false
    in every model of the unpruned :func:`encode_schedule` formula, and
    the live ones keep their relative order, so the solver's lex-least
    model decodes to the same schedule.

    Unlike :func:`encode_schedule`, machine terms whose latency exceeds
    the probed budget keep their (inert) launch variables from their
    earliest launch on: their ``A`` linking forces them to never
    complete, no availability counts them as a producer, and
    demand-driven extraction never picks them, so the two encoders accept
    exactly the same schedules.

    The instance is bound to one saturated E-graph; the graph must not be
    mutated after construction (class ids are resolved once).
    """

    def __init__(
        self,
        eg: EGraph,
        spec: ArchSpec,
        goals: Sequence[int],
        unsafe_terms: Optional[Dict[ENode, int]] = None,
        latency_overrides: Optional[Dict[ENode, int]] = None,
    ) -> None:
        self.eg = eg
        self.spec = spec
        self.unsafe_terms = unsafe_terms or {}
        self.latency_overrides = latency_overrides or {}

        (
            self.goal_roots,
            support,
            self.free,
            rows,
            self.computable,
            floor,
            available,
            starts,
        ) = _analyse(eg, spec, goals, self.unsafe_terms, self.latency)
        self.support = support
        # The proved cycle floor (see cycle_floor): every budget below it
        # is UNSAT, so probe schedulers may start their ladder there.
        self.cycle_floor: int = floor
        self.machine_terms: List[Tuple[ENode, int]] = [
            (row.node, row.cid) for row in rows
        ]
        self.needs_avail = [
            cid
            for cid in support
            if cid in self.computable and cid not in self.free
        ]

        # Availability cells, one per (class, cluster) in grid order, each
        # with its earliest cycle E (None: never available there).
        clusters = spec.cluster_ids()
        self._cell_of: Dict[Tuple[int, int], int] = {}
        self._cells: List[Tuple[int, int]] = []
        self._cell_start: List[Optional[int]] = []
        self._cells_opening: Dict[int, List[int]] = {}
        for q in self.needs_avail:
            for c in clusters:
                cell = self._cell_of[(q, c)] = len(self._cells)
                self._cells.append((q, c))
                start = available.get((q, c))
                self._cell_start.append(start)
                if start is not None:
                    self._cells_opening.setdefault(start, []).append(cell)
        self._bvars: List[List[int]] = [[] for _ in self._cells]

        # Term windows, in row order (the order of variables in a block).
        # A row's layout is built when its window opens; rows whose
        # window never opens within a probed budget cost nothing more.
        self._rows = rows
        self._starts = starts
        self._layouts: List[Optional[_RowLayout]] = [None] * len(rows)
        self._rows_opening: Dict[int, List[int]] = {}
        self._slot_index: Dict[str, int] = {}
        # Per class, each launchable (row index, unit index, unit, start):
        # the producers family 3 draws on.
        self._producing: Dict[int, List[Tuple[int, int, str, int]]] = {}
        # Per machine term, the earliest cycle its result can be
        # complete: a term finishing after K - 1 is in no K-cycle
        # schedule (the exact refinement's relaxation drops it).
        self.earliest_finish: Dict[ENode, int] = {}
        for index, row in enumerate(rows):
            first = None
            for k, u in enumerate(row.units):
                self._slot_index.setdefault(u, len(self._slot_index))
                start = starts.get((row.node, u))
                if start is None:
                    continue
                self._producing.setdefault(row.cid, []).append(
                    (index, k, u, start)
                )
                if first is None or start < first:
                    first = start
            if first is not None:
                self._rows_opening.setdefault(first, []).append(index)
                self.earliest_finish[row.node] = first + row.lat - 1
        # family-3: per open cell, its producers as (row index, unit
        # index, start, span), span = latency - 1 + forwarding delay: at
        # cycle i the supporting launches are cycles start .. i - span.
        self._producers: Dict[int, List[Tuple[int, int, int, int]]] = {}
        # family-6: the (store, aliasing load) row pairs, both launchable.
        loads_by_mem: Dict[int, List[int]] = {}
        for index, row in enumerate(rows):
            if row.node.op == "select" and row.node in self.earliest_finish:
                mem = eg.find(row.node.args[0])
                loads_by_mem.setdefault(mem, []).append(index)
        self._mem_rows: List[Tuple[int, int]] = [
            (index, load)
            for index, row in enumerate(rows)
            if row.node.op == "store" and row.node in self.earliest_finish
            for load in loads_by_mem.get(eg.find(row.node.args[0]), ())
        ]
        self._live_rows: List[int] = []
        self._live_cells: List[int] = []

        # Prefix state: the master CNF grows monotonically, one cycle block
        # at a time; per-block end markers let budget views slice it.
        self._master = CNF()
        self._launch_vars: Dict[Tuple[int, ENode, str], int] = {}
        self._avail_vars: Dict[Tuple[int, int, int], int] = {}
        self._built = 0
        self._var_end = [0]
        self._clause_end = [0]
        # Budget-local suffixes: per budget, a selector variable and the
        # goal/cardinality clauses gated on it.  Gated clauses live
        # *outside* the master clause list, which stays a concatenation
        # of budget-independent cycle blocks.
        self._budget_selectors: Dict[int, int] = {}
        self._budget_clauses: Dict[int, List[List[int]]] = {}

    def latency(self, node: ENode) -> int:
        override = self.latency_overrides.get(node)
        return override if override is not None else self.spec.latency(node.op)

    # -- per-cycle blocks ----------------------------------------------------

    def _open_row(self, index: int, l_start: int) -> None:
        row = self._rows[index]
        clusters = self.spec.clusters
        self._layouts[index] = _RowLayout(
            row,
            [self._starts.get((row.node, u)) for u in row.units],
            l_start,
            [
                [self._cell_of[(q, clusters[u])] for q in row.deps]
                for u in row.units
            ],
            [self._slot_index[u] for u in row.units],
        )
        bisect.insort(self._live_rows, index)

    def _open_cell(self, cell: int) -> None:
        q, c = self._cells[cell]
        rows, delay = self._rows, self.spec.result_delay
        self._producers[cell] = [
            (index, k, start, rows[index].lat - 1 + delay(u, c))
            for index, k, u, start in self._producing.get(q, ())
        ]
        bisect.insort(self._live_cells, cell)

    def _build_block(self, i: int) -> None:
        cnf = self._master
        for index in self._rows_opening.get(i, ()):
            self._open_row(index, i)
        for cell in self._cells_opening.get(i, ()):
            self._open_cell(cell)
        layouts, live_cells = self._layouts, self._live_cells

        # Variables of cycle i, in the unpruned layout's order with the
        # refuted ones left out: per live term its live F vars, then L,
        # then A, then the live cells of the B grid.
        launch_vars, avail_vars = self._launch_vars, self._avail_vars
        nv = cnf.num_vars
        block = []  # (row, [(unit index, F var)], L var, A var or 0)
        for index in self._live_rows:
            r = layouts[index]
            fs = []
            for k, s in enumerate(r.starts):
                if s is not None and s <= i:
                    nv += 1
                    r.fvars[k].append(nv)
                    launch_vars[(i, r.node, r.units[k])] = nv
                    fs.append((k, nv))
            nv += 1
            r.lvars.append(nv)
            avar = 0
            if i >= r.a_start:
                nv += 1
                avar = nv
            block.append((r, fs, r.lvars[-1], avar))
        bvars, cells = self._bvars, self._cells
        for cell in live_cells:
            nv += 1
            bvars[cell].append(nv)
            q, c = cells[cell]
            avail_vars[(i, q, c)] = nv
        cnf.num_vars = nv
        # Every clause below is built from just-allocated variables:
        # literals are valid by construction and reference pairwise-distinct
        # variables, so the builder's validation and tautology checks are
        # skipped and clauses append straight to the list.
        app = cnf.clauses.append
        cell_start = self._cell_start

        per_slot: List[List[int]] = [[] for _ in self._slot_index]
        for r, fs, lvar, avar in block:
            # family 0: L is the disjunction of the per-unit launches.
            app([-lvar] + [f for _k, f in fs])
            for k, f in fs:
                app([-f, lvar])
                per_slot[r.slots[k]].append(f)
            # family 1: latency linking A(i,T) == L(i - lat + 1, T).
            if avar:
                prev = r.lvars[i - r.lat + 1 - r.l_start]
                app([-avar, prev])
                app([-prev, avar])
            # family 2: operand availability.  A live launch's operands
            # are live one cycle earlier: start(T,u) = 1 + max E(d, c).
            for k, f in fs:
                for cell in r.dep_cells[k]:
                    app([-f, bvars[cell][i - 1 - cell_start[cell]]])

        # family 3: availability definition B(i,Q,c) => some launch.
        producers = self._producers
        for cell in live_cells:
            supports = [-bvars[cell][-1]]
            for index, k, start, span in producers[cell]:
                count = i - span - start + 1
                if count > 0:
                    supports.extend(layouts[index].fvars[k][:count])
            app(supports)

        # family 4: issue rules (one launch per unit per cycle).
        for slot_vars in per_slot:
            cnf.at_most_one(slot_vars)

        # family 6: memory anti-dependences.  The full set for budget K is
        # all (store cycle s, load cycle j) pairs with j >= s - llat + 1 and
        # s, j < K; the pairs whose max is i belong to this block, and only
        # pairs of live launches need a clause.
        for s_index, l_index in self._mem_rows:
            store, load = layouts[s_index], layouts[l_index]
            if store is None or load is None:
                continue
            pairs = [(i, j) for j in range(max(0, i - load.lat + 1), i + 1)]
            pairs += [(s, i) for s in range(0, i)]
            for s, j in pairs:
                if j < load.l_start:
                    continue
                lvar = load.lvars[j - load.l_start]
                for k, start in enumerate(store.starts):
                    if start is not None and s >= start:
                        app([-store.fvars[k][s - start], -lvar])

        self._built = i + 1
        self._var_end.append(cnf.num_vars)
        self._clause_end.append(len(cnf.clauses))

    # -- budget selectors (the persistent-solver path) ------------------------
    #
    # The incremental solver keeps *one* clause database for the whole probe
    # ladder, so per-budget clauses cannot simply be appended: a budget's
    # goal clause must stop constraining the formula once another budget is
    # probed.  Each budget therefore gets a fresh selector variable s_K and
    # its suffix clauses are emitted gated as (-s_K | ...); probing K solves
    # under the assumption s_K (plus -s_J for every other live budget).

    @property
    def master(self) -> CNF:
        """The shared budget-independent CNF (cycle blocks only)."""
        return self._master

    def built_cycles(self) -> int:
        return self._built

    def ensure_budget(self, cycles: int) -> int:
        """Build blocks ``0..cycles-1`` and the budget's gated suffix.

        Returns how many of the cycle blocks already existed (the
        cross-probe prefix-reuse counter).
        """
        if cycles < 1:
            raise EncodeError("cycle budget must be at least 1")
        reused = min(self._built, cycles)
        while self._built < cycles:
            self._build_block(self._built)
        if cycles not in self._budget_selectors:
            self._emit_budget(cycles)
        return reused

    def _emit_budget(self, cycles: int) -> None:
        m = self._master
        selector = m.new_var(("SEL", cycles))
        clusters = self.spec.cluster_ids()
        # Emit through the master CNF builder (so auxiliary variables of
        # the cardinality ladder are allocated there), then peel the
        # clauses off and gate them: the master clause list must stay a
        # pure concatenation of cycle blocks.
        start = len(m.clauses)
        for g in self.goal_roots:
            if g in self.free:
                continue
            # Only the cells live at K - 1; none is live below the floor.
            m.add_clause(
                [
                    self._avail_vars[(cycles - 1, g, c)]
                    for c in clusters
                    if (cycles - 1, g, c) in self._avail_vars
                ]
            )
        emitted = m.clauses[start:]
        del m.clauses[start:]
        gated = sanitize_clauses(
            [[-selector] + clause for clause in emitted], m.num_vars
        )
        self._budget_selectors[cycles] = selector
        self._budget_clauses[cycles] = gated

    def selector(self, cycles: int) -> int:
        """The selector variable gating budget ``cycles``'s suffix."""
        return self._budget_selectors[cycles]

    def budget_clauses(self, cycles: int) -> List[List[int]]:
        """The gated suffix clauses of budget ``cycles``."""
        return self._budget_clauses[cycles]

    def budget_stats(self, cycles: int) -> Dict[str, int]:
        """CNF size the solver actually sees when probing this budget."""
        return {
            "vars": self._master.num_vars,
            "clauses": self._clause_end[min(cycles, self._built)]
            + len(self._budget_clauses.get(cycles, ())),
        }

    def decode_view(self, cycles: int) -> Encoding:
        """An :class:`Encoding` for model decoding only (no clause copy).

        The persistent-solver path never re-materialises a standalone CNF
        per budget; extraction needs just the variable maps and metadata,
        so the returned encoding carries an empty clause list.
        """
        if cycles > self._built:
            raise EncodeError(
                "budget %d not built yet (have %d blocks)"
                % (cycles, self._built)
            )
        view = CNF()
        view.num_vars = self._var_end[cycles]
        return Encoding(
            cnf=view,
            cycles=cycles,
            goal_classes=list(self.goal_roots),
            machine_terms=list(self.machine_terms),
            support_classes=list(self.support),
            free_classes=self.free,
            launch_vars={
                key: var
                for key, var in self._launch_vars.items()
                if key[0] < cycles
            },
            avail_vars={
                key: var
                for key, var in self._avail_vars.items()
                if key[0] < cycles
            },
            spec=self.spec,
            latency_overrides=dict(self.latency_overrides),
        )
