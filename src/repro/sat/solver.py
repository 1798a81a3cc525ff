"""A CDCL SAT solver.

Implements the conflict-driven clause-learning loop, all of it in one
search loop (:meth:`_SolverCore._run`):

* unit propagation with two-watched literals,
* first-UIP conflict analysis with learned-clause minimisation,
* assumptions, enqueued in order as decisions,
* canonical decisions: the lowest unassigned variable, false first.

``stop_check`` is polled before the first decision after the run's
start or a conflict, then every ``_STOP_CHECK_INTERVAL`` decisions, and
after every ``_STOP_CHECK_INTERVAL``-th conflict.

There are no restarts and no learned-clause database reduction: the
formulas the probe ladder poses are small enough (a few thousand
variables) that every learned clause is kept.  Clauses enter the
database in two places: input clauses, stored whole, through
:meth:`_SolverCore.add_clauses_trusted` (which
:meth:`~_SolverCore.add_clause` feeds), and learned ones through
:meth:`_SolverCore._learn`.  The one path that deletes learned clauses
is :meth:`_SolverCore.purge_learnts`, which budget retirement calls.

The solver plays the role CHAFF plays in the paper.  It is deliberately
independent of the Denali encoder: it consumes any :class:`repro.sat.cnf.CNF`
and returns a :class:`SatResult`.

Canonical order is the only decision policy, and it is what makes the
answer unique: a run that reaches SAT returns the lexicographically
least model (see :meth:`_SolverCore.run`), whatever clauses earlier
runs learned.  The decoded assembly is byte-identical across solver
paths and probe schedules because of that property alone.

The inference engine lives in :class:`_SolverCore`, whose state (watched
literals and learned clauses) survives across ``run`` calls.
:class:`CdclSolver` is the one-shot facade — a fresh core per ``solve``
— while :class:`repro.sat.incremental.IncrementalSolver` keeps one core
alive across a whole cycle-budget probe ladder.

Memory layout (see DESIGN.md §2.6): clauses live in a single flat int
arena rather than per-clause objects.  A clause is referenced by the
arena offset of its header word, which holds the clause size; its
literals occupy the following ``size`` slots.  Watch lists hold arena
refs, literal assignments live in a per-literal ``bytearray`` (one
indexed load answers "value of literal l" with no sign branch on the
stored side), and trail/level/reason are parallel columns indexed by
variable.  A purged learned clause leaves its slots in the arena as
dead space until the core itself is dropped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence

from repro.sat.cnf import CNF

# Per-literal truth values in the ``_vals`` column.  Literal l maps to
# slot ``2*l`` when positive, ``1 - 2*l`` when negative, so a literal's
# value is one indexed byte load.  The complementary literal lives in
# the adjacent slot.
_L_FALSE = 0
_L_TRUE = 1
_L_UNDEF = 2

# Reason column sentinel: no antecedent clause (decision / assumption /
# root unit).  Arena refs are >= 0.
_NO_REASON = -1

# Bytes charged per clause-arena slot: one CPython list pointer (the
# small ints it points at are shared).
_LIST_SLOT_BYTES = 8


@dataclass
class Stats:
    """Counters describing one solver run."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    # Learned clauses already in the database when the run began (always 0
    # for the one-shot CdclSolver; the cross-probe reuse signal for the
    # incremental solver).
    learned_kept: int = 0
    time_seconds: float = 0.0


@dataclass
class SatResult:
    """Outcome of a solve call.

    ``satisfiable`` is ``None`` when the run's conflict budget or stop
    check ended it before it reached an answer.
    """

    satisfiable: Optional[bool]
    model: Optional[Dict[int, bool]] = None
    stats: Stats = field(default_factory=Stats)

    def value(self, var: int) -> bool:
        if self.model is None:
            raise ValueError("no model available")
        return self.model.get(var, False)


class SatSolver(Protocol):
    """The pluggable solver interface the Denali pipeline depends on."""

    def solve(self, cnf: CNF) -> SatResult:  # pragma: no cover - protocol
        ...


class _SolverCore:
    """Persistent CDCL state plus the inference engine.

    The core is reusable: after every :meth:`run` it backtracks to the
    root level, keeping learned clauses, so a subsequent ``run``
    (possibly after :meth:`grow` and more :meth:`add_clause` calls)
    starts from everything earlier runs proved.
    Clauses may only be added at the root level, which :meth:`run`
    guarantees on exit.

    Clause storage is the flat arena described in the module docstring;
    ``_clauses`` and ``_learnts`` are lists of arena refs.
    """

    _STOP_CHECK_INTERVAL = 32  # conflicts/decisions between stop polls

    def __init__(self) -> None:
        self._nvars = 0
        # Per-literal truth values; slots 0/1 are the unused variable 0.
        self._vals = bytearray((_L_UNDEF, _L_UNDEF))
        self._level: List[int] = [0]
        self._reason: List[int] = [_NO_REASON]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        # watches[lit_index(l)] = arena refs of clauses watching literal l
        self._watches: List[List[int]] = [[], []]
        # The clause arena: header word (clause size) then literals.
        self._arena: List[int] = []
        self._clauses: List[int] = []
        self._learnts: List[int] = []
        # Flat-core telemetry (cumulative over the core's lifetime).
        self.watch_compactions = 0  # watcher entries squeezed out in place
        self._stats = Stats()
        # Latched when the formula itself (no assumptions) is refuted.
        self._root_unsat = False
        # Decisions take the lowest unassigned variable, false first;
        # ``_rover`` is the scan frontier, rewound on backtracking.
        self._rover = 1

    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def root_unsat(self) -> bool:
        return self._root_unsat

    def grow(self, num_vars: int) -> None:
        """Extend the variable space to ``num_vars`` (no-op if smaller)."""
        if num_vars <= self._nvars:
            return
        pad = num_vars - self._nvars
        self._vals.extend([_L_UNDEF] * (2 * pad))
        self._level.extend([0] * pad)
        self._reason.extend([_NO_REASON] * pad)
        self._watches.extend([[] for _ in range(2 * pad)])
        self._nvars = num_vars

    def arena_bytes(self) -> int:
        """Approximate bytes held by the clause arena (telemetry)."""
        return _LIST_SLOT_BYTES * len(self._arena)

    def flat_counters(self) -> Dict[str, int]:
        """Cumulative flat-core telemetry for the profiling harness."""
        return {
            "arena_bytes": self.arena_bytes(),
            "watch_compactions": self.watch_compactions,
        }

    # -- public API ---------------------------------------------------------

    def run(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> SatResult:
        """Decide satisfiability under the given assumption literals.

        One pass of the search loop (:meth:`_run`), then a backtrack to
        the root.  The conflict budget and ``stop_check`` apply to this
        run only.  ``stop_check`` is polled before the first decision
        after the run's start and after every conflict, then every
        ``_STOP_CHECK_INTERVAL`` decisions, and after every
        ``_STOP_CHECK_INTERVAL``-th conflict.

        The run decides variables in index order, always trying false
        first.  A CDCL run under that policy returns the
        *lexicographically least* model (false < true, ``v1`` most
        significant): whenever the found model sets ``v_i`` true, the
        literal was propagated from the formula plus lower-index false
        decisions, so every model agreeing on ``v_1..v_{i-1}`` also sets
        ``v_i``.  Learned clauses and prior solver state cannot change
        that model — which is what makes the decoded program
        byte-identical across solver paths and probe schedules.
        """
        start = time.monotonic()
        stats = Stats(learned_kept=len(self._learnts))
        self._stats = stats
        self._rover = 1
        try:
            result = self._run(assumptions, conflict_budget, stop_check)
        finally:
            self._backtrack(0)
            stats.time_seconds = time.monotonic() - start
        return result

    def _run(
        self,
        assumptions: Sequence[int],
        conflict_budget: Optional[int],
        stop_check: Optional[Callable[[], bool]],
    ) -> SatResult:
        """The search loop: propagate, then learn, assume or decide.

        Each turn propagates the pending trail to a fixpoint or a
        conflict.  A conflict is analysed, backtracked over and learned
        from; at a fixpoint the next assumption is enqueued, or, once
        every assumption holds, the lowest unassigned variable is
        decided false.  The loop is the solver's hottest code, so it
        works on the flat columns through locals, writing ``qhead`` and
        the rover back around the conflict handlers that read them.
        """
        stats = self._stats
        if self._root_unsat:
            return SatResult(False, None, stats)
        vals = self._vals
        arena = self._arena
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim
        level = self._level
        reason = self._reason
        nvars = self._nvars
        interval = self._STOP_CHECK_INTERVAL
        decisions = 0
        props = 0
        compacted = 0
        assumed = 0  # assumptions enqueued or found true, in order
        since = 0  # decisions since the run began or the last conflict
        qhead = self._qhead
        v = self._rover
        try:
            while True:
                # Unit propagation with two watched literals: the slots
                # ref+1 and ref+2, the false one moved to ref+2; watcher
                # lists are compacted in place as watches move.
                dl = len(trail_lim)
                conflict = None
                while qhead < len(trail):
                    lit = trail[qhead]
                    qhead += 1
                    props += 1
                    false_lit = -lit
                    watchers = watches[
                        2 * false_lit if false_lit > 0 else 1 - 2 * false_lit
                    ]
                    i = 0
                    j = 0
                    n = len(watchers)
                    while i < n:
                        ref = watchers[i]
                        i += 1
                        l0 = arena[ref + 1]
                        if l0 == false_lit:
                            l0 = arena[ref + 2]
                            arena[ref + 1] = l0
                            arena[ref + 2] = false_lit
                        v0 = vals[2 * l0 if l0 > 0 else 1 - 2 * l0]
                        if v0 == 1:
                            watchers[j] = ref
                            j += 1
                            continue
                        # Look for a new watch among the other literals.
                        end = ref + arena[ref]
                        k = ref + 3
                        found = False
                        while k <= end:
                            lk = arena[k]
                            if vals[2 * lk if lk > 0 else 1 - 2 * lk] != 0:
                                arena[ref + 2] = lk
                                arena[k] = false_lit
                                watches[
                                    2 * lk if lk > 0 else 1 - 2 * lk
                                ].append(ref)
                                found = True
                                break
                            k += 1
                        if found:
                            continue
                        watchers[j] = ref
                        j += 1
                        if v0 == 0:
                            # Conflict: keep the remaining watchers.
                            while i < n:
                                watchers[j] = watchers[i]
                                j += 1
                                i += 1
                            conflict = ref
                            break
                        # Unit: enqueue l0 with reason ref.
                        u = l0 if l0 > 0 else -l0
                        p = 2 * u
                        if l0 > 0:
                            vals[p] = 1
                            vals[p + 1] = 0
                        else:
                            vals[p] = 0
                            vals[p + 1] = 1
                        level[u] = dl
                        reason[u] = ref
                        trail.append(l0)
                    del watchers[j:]
                    compacted += n - j
                    if conflict is not None:
                        break

                if conflict is not None:
                    # The run's opening propagation is not search: its
                    # refutation, the only one before the first counted
                    # conflict, goes uncounted.
                    if dl or stats.conflicts:
                        stats.conflicts += 1
                    if not dl:
                        self._root_unsat = True
                        return SatResult(False, None, stats)
                    self._qhead = qhead
                    self._rover = v
                    learnt, back_level = self._analyze(conflict)
                    self._backtrack(back_level)
                    self._learn(learnt)
                    qhead = self._qhead
                    v = self._rover
                    assumed = min(assumed, back_level)
                    since = 0
                    if (
                        conflict_budget is not None
                        and stats.conflicts >= conflict_budget
                    ):
                        return SatResult(None, None, stats)
                    if (
                        stop_check is not None
                        and stats.conflicts % interval == 0
                        and stop_check()
                    ):
                        return SatResult(None, None, stats)
                    continue

                if assumed < len(assumptions):
                    lit = assumptions[assumed]
                    assumed += 1
                    val = vals[2 * lit if lit > 0 else 1 - 2 * lit]
                    if val == _L_FALSE:  # conflicting assumptions
                        return SatResult(False, None, stats)
                    if val == _L_UNDEF:
                        decisions += 1
                        trail_lim.append(len(trail))
                        self._enqueue(lit, _NO_REASON)
                    continue

                while v <= nvars and vals[2 * v] != _L_UNDEF:
                    v += 1
                if v > nvars:
                    model = {
                        u: vals[2 * u] == _L_TRUE for u in range(1, nvars + 1)
                    }
                    return SatResult(True, model, stats)
                if (
                    stop_check is not None
                    and since % interval == 0
                    and stop_check()
                ):
                    return SatResult(None, None, stats)
                since += 1
                decisions += 1
                trail_lim.append(len(trail))
                p = 2 * v
                vals[p] = _L_FALSE
                vals[p + 1] = _L_TRUE
                level[v] = len(trail_lim)
                reason[v] = _NO_REASON
                trail.append(-v)
        finally:
            self._rover = v
            self._qhead = qhead
            stats.decisions += decisions
            stats.propagations += props
            self.watch_compactions += compacted

    # -- clause management ---------------------------------------------------

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Attach one clause; returns False on a root contradiction.

        Duplicate literals merge, a tautology is dropped, and the rest,
        sorted by variable, attaches as :meth:`add_clauses_trusted`
        attaches a clause.  Must be called at the root level.  A False
        return latches :attr:`root_unsat`.
        """
        unique = set(lits)
        if any(-l in unique for l in unique):
            return True  # tautology
        return self.add_clauses_trusted((sorted(unique, key=abs),))

    def add_clauses_trusted(self, clauses: Iterable[List[int]]) -> bool:
        """Attach permanent clauses free of duplicate literals and tautologies.

        The core's one attach path for input clauses.  Feeding the
        encoder's master formula is the incremental path's hot loop.
        Rather than rebuilding each clause with root-false literals
        filtered out (a full scan per clause), a clause is stored whole
        and only its *watches* are chosen among non-false literals — the
        two-watched-literal invariant is all that soundness at the root
        level needs, and finding two watchable literals stops the scan
        after (usually) two slots.  Root-false literals stay in the
        arena, never watched; root-satisfied clauses with two watchable
        literals stay in the database inertly; a clause with one
        watchable literal is unit under the root assignment, with none
        it refutes the formula.
        """
        vals = self._vals
        watches = self._watches
        arena = self._arena
        perm = self._clauses
        ok = True
        for lits in clauses:
            # Fast path: the first two literals are both watchable (the
            # overwhelmingly common case for freshly allocated encoder
            # blocks) — attach verbatim, no swaps.
            if len(lits) > 1:
                l0 = lits[0]
                if vals[2 * l0 if l0 > 0 else 1 - 2 * l0] != _L_FALSE:
                    l1 = lits[1]
                    if vals[2 * l1 if l1 > 0 else 1 - 2 * l1] != _L_FALSE:
                        ref = len(arena)
                        arena.append(len(lits))
                        arena.extend(lits)
                        perm.append(ref)
                        watches[2 * l0 if l0 > 0 else 1 - 2 * l0].append(ref)
                        watches[2 * l1 if l1 > 0 else 1 - 2 * l1].append(ref)
                        continue
            w0 = w1 = -1
            for k, l in enumerate(lits):
                if vals[2 * l if l > 0 else 1 - 2 * l] != _L_FALSE:
                    if w0 < 0:
                        w0 = k
                    else:
                        w1 = k
                        break
            if w1 < 0:
                if w0 < 0:
                    self._root_unsat = True
                    ok = False
                    continue
                l0 = lits[w0]
                if vals[2 * l0 if l0 > 0 else 1 - 2 * l0] == _L_UNDEF:
                    self._enqueue(l0, _NO_REASON)
                continue
            ref = len(arena)
            arena.append(len(lits))
            arena.extend(lits)
            # Swap the watchable literals into the two watched slots.
            if w0 != 0:
                p, q = ref + 1, ref + 1 + w0
                arena[p], arena[q] = arena[q], arena[p]
            if w1 != 1:
                p, q = ref + 2, ref + 1 + w1
                arena[p], arena[q] = arena[q], arena[p]
            perm.append(ref)
            l0 = arena[ref + 1]
            l1 = arena[ref + 2]
            watches[2 * l0 if l0 > 0 else 1 - 2 * l0].append(ref)
            watches[2 * l1 if l1 > 0 else 1 - 2 * l1].append(ref)
        return ok

    def _learn(self, lits: List[int]) -> None:
        """Store a clause :meth:`_analyze` derived; enqueue its first literal.

        The core's one learn site, called right after the backtrack: a
        unit is asserted at the root, a longer clause is watched on its
        asserting literal and one of the backtrack level.
        """
        self._stats.learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], _NO_REASON)
            return
        arena = self._arena
        ref = len(arena)
        arena.append(len(lits))
        arena.extend(lits)
        self._learnts.append(ref)
        l0, l1 = lits[0], lits[1]
        self._watches[2 * l0 if l0 > 0 else 1 - 2 * l0].append(ref)
        self._watches[2 * l1 if l1 > 0 else 1 - 2 * l1].append(ref)
        self._enqueue(l0, ref)

    def _detach_learnts(self, drop: List[int]) -> None:
        """Remove the given learned clauses from every watch list."""
        dropset = set(drop)
        for w in self._watches:
            if w:
                w[:] = [r for r in w if r not in dropset]
        # Each clause sits in exactly two watch lists.
        self.watch_compactions += 2 * len(drop)
        # Reasons pointing at a dropped clause can only belong to root-level
        # assignments (clauses are only dropped at level 0); those
        # assignments stay valid without the pointer.
        reason = self._reason
        for lit in self._trail:
            v = lit if lit > 0 else -lit
            if reason[v] in dropset:
                reason[v] = _NO_REASON

    def purge_learnts(self, predicate) -> int:
        """Drop every learned clause whose literal list matches ``predicate``.

        The solver's only learnt-deletion path, used by the incremental
        solver's budget retirement: learnt clauses mentioning a retired
        budget's selector are dead weight for every other budget.  Only
        call at the root level.  Returns the number of clauses dropped;
        their arena slots stay behind as dead space.
        """
        arena = self._arena
        drop = [
            ref
            for ref in self._learnts
            if predicate(arena[ref + 1:ref + 1 + arena[ref]])
        ]
        if not drop:
            return 0
        self._detach_learnts(drop)
        dropset = set(drop)
        self._learnts = [r for r in self._learnts if r not in dropset]
        return len(drop)

    # -- trail ----------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> None:
        v = lit if lit > 0 else -lit
        p = 2 * v
        vals = self._vals
        if lit > 0:
            vals[p] = _L_TRUE
            vals[p + 1] = _L_FALSE
        else:
            vals[p] = _L_FALSE
            vals[p + 1] = _L_TRUE
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        trail = self._trail
        vals = self._vals
        reason = self._reason
        rover = self._rover
        for idx in range(len(trail) - 1, limit - 1, -1):
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            p = 2 * v
            vals[p] = _L_UNDEF
            vals[p + 1] = _L_UNDEF
            reason[v] = _NO_REASON
            if v < rover:
                rover = v
        self._rover = rover
        del trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(trail))

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: int):
        """First-UIP analysis; returns (learnt clause lits, backtrack level)."""
        arena = self._arena
        trail = self._trail
        levels = self._level
        reasons = self._reason
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self._nvars + 1)
        counter = 0
        lit = None
        ref = conflict
        idx = len(trail) - 1
        level = len(self._trail_lim)

        while True:
            for qi in range(ref + 1, ref + 1 + arena[ref]):
                q = arena[qi]
                if lit is not None and q == lit:
                    continue
                v = q if q > 0 else -q
                if not seen[v] and levels[v] > 0:
                    seen[v] = 1
                    if levels[v] >= level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Find the next trail literal to resolve on.
            while True:
                t = trail[idx]
                if seen[t if t > 0 else -t]:
                    break
                idx -= 1
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            seen[v] = 0
            counter -= 1
            idx -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            ref = reasons[v]

        # Clause minimisation: drop literals implied by the rest.
        kept = [learnt[0]]
        for q in learnt[1:]:
            r = reasons[q if q > 0 else -q]
            if r < 0:
                kept.append(q)
                continue
            redundant = True
            vq = q if q > 0 else -q
            for ri in range(r + 1, r + 1 + arena[r]):
                rl = arena[ri]
                av = rl if rl > 0 else -rl
                if av != vq and not seen[av] and levels[av] != 0:
                    redundant = False
                    break
            if redundant:
                continue
            kept.append(q)
        learnt = kept

        if len(learnt) == 1:
            return learnt, 0
        # Backtrack to the second-highest level in the clause.
        back = max(levels[q if q > 0 else -q] for q in learnt[1:])
        # Put a literal of the backtrack level in position 1 (watch invariant).
        for k in range(1, len(learnt)):
            if levels[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

class CdclSolver:
    """Conflict-driven clause learning solver (one-shot facade).

    Every :meth:`solve` builds a fresh :class:`_SolverCore` from the CNF,
    so nothing carries over between calls: the reference the fuzz
    oracles and the differential tests compare the incremental ladder
    against.

    Parameters:
        conflict_budget: stop with ``satisfiable=None`` after this many
            conflicts (``None`` = unbounded).
        stop_check: zero-argument callable polled periodically at
            conflicts and decisions; returning True abandons the run with
            ``satisfiable=None``.  A deadline is a ``stop_check`` that
            reads a clock.
    """

    def __init__(
        self,
        conflict_budget: Optional[int] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.conflict_budget = conflict_budget
        self.stop_check = stop_check

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide satisfiability of ``cnf`` under optional assumption literals.

        One run on a fresh core; a satisfiable answer carries the
        lex-least model (see :meth:`_SolverCore.run`), the one the
        incremental probe ladder decodes.
        """
        core = _SolverCore()
        core.grow(cnf.num_vars)
        for lits in cnf.clauses:
            if not core.add_clause(lits):
                break  # root contradiction is latched; run() reports it
        return core.run(
            assumptions,
            conflict_budget=self.conflict_budget,
            stop_check=self.stop_check,
        )
