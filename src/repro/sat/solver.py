"""A CDCL SAT solver.

Implements the standard conflict-driven clause-learning loop:

* unit propagation with two-watched literals,
* first-UIP conflict analysis with learned-clause minimisation,
* canonical decisions: the lowest unassigned variable, false first,
* Luby-sequence restarts,
* activity- and LBD-ranked learned-clause database reduction.

The solver plays the role CHAFF plays in the paper.  It is deliberately
independent of the Denali encoder: it consumes any :class:`repro.sat.cnf.CNF`
and returns a :class:`SatResult`.

Canonical order is the only decision policy, and it is what makes the
answer unique: a run that reaches SAT returns the lexicographically
least model (see :meth:`_SolverCore.run`), whatever clauses earlier
runs learned.  The decoded assembly is byte-identical across solver
paths and probe schedules because of that property alone.

The inference engine lives in :class:`_SolverCore`, whose state (watched
literals, learned clauses and their activities) survives across ``run``
calls.  :class:`CdclSolver` is the one-shot facade — a fresh core per
``solve`` — while :class:`repro.sat.incremental.IncrementalSolver` keeps
one core alive across a whole cycle-budget probe ladder.

Memory layout (see DESIGN.md §2.6): clauses live in a single flat int
arena rather than per-clause objects.  A clause is referenced by the
arena offset of its header word ``size << 1 | learnt``; its literals
occupy the following ``size`` slots.  Watch lists hold arena refs,
literal assignments live in a per-literal ``bytearray`` (one indexed
load answers "value of literal l" with no sign branch on the stored
side), and trail/level/reason are parallel columns indexed by
variable.  Deleted clauses leave garbage slots behind;
:meth:`_SolverCore._compact_arena` squeezes them out and remaps every
live ref once garbage dominates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence

from repro.sat.cnf import CNF
from repro.util.soa import LIST_SLOT_BYTES, grow

_UNASSIGNED = -1

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


@dataclass
class Stats:
    """Counters describing one solver run."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    # Learned clauses already in the database when the run began (always 0
    # for the one-shot CdclSolver; the cross-probe reuse signal for the
    # incremental solver).
    learned_kept: int = 0
    time_seconds: float = 0.0


@dataclass
class SatResult:
    """Outcome of a solve call.

    ``satisfiable`` is ``None`` when the run's conflict budget, deadline
    or stop check ended it before it reached an answer.
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


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class _SolverCore:
    """Persistent CDCL state plus the inference engine.

    The core is reusable: after every :meth:`run` it backtracks to the
    root level, keeping learned clauses, so a subsequent ``run``
    (possibly after :meth:`grow` and more :meth:`add_clause` calls)
    starts from everything earlier runs proved.
    Clauses may only be added at the root level, which :meth:`run`
    guarantees on exit.

    Clause storage is the flat arena described in the module docstring;
    ``_clauses`` and ``_learnts`` are lists of arena refs, and learnt
    metadata (activity, LBD) lives in ref-keyed side tables.
    """

    _STOP_CHECK_INTERVAL = 32  # conflicts/decisions between stop polls
    # Compact the arena once deleted clauses own more slots than live
    # ones (and enough slots exist for the sweep to matter at all).
    _COMPACT_MIN_GARBAGE = 4096
    _RESTART_BASE = 100  # Luby restart unit, in conflicts
    _CLAUSE_DECAY = 0.999  # learnt-clause activity decay factor
    _MAX_LEARNTS_FACTOR = 3.0  # learnt-clause cap, per original clause

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
        # The clause arena: header word (size<<1 | learnt) then literals.
        self._arena: List[int] = []
        self._clauses: List[int] = []
        self._learnts: List[int] = []
        self._cla_act: Dict[int, float] = {}
        self._cla_lbd: Dict[int, int] = {}
        self._garbage = 0  # arena slots owned by deleted clauses
        # Flat-core telemetry (cumulative over the core's lifetime).
        self.watch_compactions = 0  # watcher entries squeezed out in place
        self.arena_compactions = 0  # full arena sweeps performed
        self._cla_inc = 1.0
        self._stats = Stats()
        self._assumptions: List[int] = []
        self._assumptions_done: List[int] = []
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
        grow(self._vals, 2 * pad, _L_UNDEF)
        grow(self._level, pad, 0)
        grow(self._reason, pad, _NO_REASON)
        self._watches.extend([[] for _ in range(2 * pad)])
        self._nvars = num_vars

    def arena_bytes(self) -> int:
        """Approximate bytes held by the clause arena (telemetry)."""
        return LIST_SLOT_BYTES * len(self._arena)

    def flat_counters(self) -> Dict[str, int]:
        """Cumulative flat-core telemetry for the profiling harness."""
        return {
            "arena_bytes": self.arena_bytes(),
            "arena_garbage_slots": self._garbage,
            "arena_compactions": self.arena_compactions,
            "watch_compactions": self.watch_compactions,
        }

    # -- public API ---------------------------------------------------------

    def run(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> SatResult:
        """Decide satisfiability under the given assumption literals.

        Budgets and deadlines apply to this run only.  Deadlines are
        measured on the monotonic clock, so wall-clock jumps (NTP steps,
        suspend/resume) can neither fire nor starve them.

        The run decides variables in index order, always trying false
        first.  A CDCL run under that policy returns the
        *lexicographically least* model (false < true, ``v1`` most
        significant): whenever the found model sets ``v_i`` true, the
        literal was propagated from the formula plus lower-index false
        decisions, so every model agreeing on ``v_1..v_{i-1}`` also sets
        ``v_i``.  Learned clauses, restarts and prior solver state cannot
        change that model — which is what makes the decoded program
        byte-identical across solver paths and probe schedules.
        """
        start = time.monotonic()
        stats = Stats(learned_kept=len(self._learnts))
        self._stats = stats
        self._assumptions = list(assumptions)
        self._assumptions_done = []
        self._rover = 1
        try:
            result = self._run(conflict_budget, deadline_seconds, stop_check, start)
        finally:
            self._backtrack(0)
            self._assumptions = []
            del self._assumptions_done[:]
            stats.time_seconds = time.monotonic() - start
        return result

    def _should_stop(
        self,
        start: float,
        deadline_seconds: Optional[float],
        stop_check: Optional[Callable[[], bool]],
    ) -> bool:
        if stop_check is not None and stop_check():
            return True
        return (
            deadline_seconds is not None
            and time.monotonic() - start >= deadline_seconds
        )

    def _run(
        self,
        conflict_budget: Optional[int],
        deadline_seconds: Optional[float],
        stop_check: Optional[Callable[[], bool]],
        start: float,
    ) -> SatResult:
        stats = self._stats
        if self._root_unsat:
            return SatResult(False, None, stats)
        if self._propagate() is not None:
            if self._decision_level() == 0:
                self._root_unsat = True
            return SatResult(False, None, stats)

        restarts = 0
        conflicts_until_restart = self._RESTART_BASE * _luby(restarts + 1)
        conflicts_at_restart = 0
        max_learnts = max(
            1000, int(self._MAX_LEARNTS_FACTOR * len(self._clauses))
        )

        # A conflict found inside the fused decision sweep is handed to
        # the generic conflict handler through this slot.
        pending = None
        while True:
            conflict = pending
            pending = None
            if conflict is None:
                conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_at_restart += 1
                if self._decision_level() == 0:
                    self._root_unsat = True
                    return SatResult(False, None, stats)
                learnt, back_level = self._analyze(conflict)
                self._backtrack(back_level)
                self._learn(learnt)
                self._decay_clause_activity()
                if (
                    conflict_budget is not None
                    and stats.conflicts >= conflict_budget
                ):
                    return SatResult(None, None, stats)
                if (
                    stats.conflicts % self._STOP_CHECK_INTERVAL == 0
                    and self._should_stop(start, deadline_seconds, stop_check)
                ):
                    return SatResult(None, None, stats)
                continue

            if len(self._learnts) > max_learnts:
                self._reduce_db()
                max_learnts = int(max_learnts * 1.1)

            if conflicts_at_restart >= conflicts_until_restart:
                restarts += 1
                stats.restarts += 1
                conflicts_at_restart = 0
                conflicts_until_restart = self._RESTART_BASE * _luby(restarts + 1)
                self._backtrack(len(self._assumptions_done))

            lit = self._next_assumption()
            if lit is False:  # conflicting assumptions
                return SatResult(False, None, stats)
            if lit is not None:
                continue
            sweep = self._canonical_sweep(start, deadline_seconds, stop_check)
            if sweep is None:
                vals = self._vals
                model = {
                    v: vals[2 * v] == _L_TRUE
                    for v in range(1, self._nvars + 1)
                }
                return SatResult(True, model, stats)
            if sweep == -1:
                return SatResult(None, None, stats)
            pending = sweep

    def _canonical_sweep(
        self,
        start: float,
        deadline_seconds: Optional[float],
        stop_check: Optional[Callable[[], bool]],
    ) -> Optional[int]:
        """Fused decide/propagate loop: the solver's only decision maker.

        A run decides *every* unassigned variable in index order (false
        first) and is conflict-free in the common case, so a generic
        loop's per-decision overhead — assumption lookup, restart and
        clause-DB bookkeeping, method calls — would dominate its runtime.
        This loop inlines the rover decision and the unit propagation,
        exiting back to the generic loop on the first conflict (returns
        the clause ref), when every variable is assigned (returns None —
        the model is complete), or when a stop/deadline fires (returns
        -1, never a valid ref).  The stop hooks are polled before the
        first decision and every ``_STOP_CHECK_INTERVAL`` decisions after.
        """
        vals = self._vals
        arena = self._arena
        watches = self._watches
        trail = self._trail
        trail_lim = self._trail_lim
        level = self._level
        reason = self._reason
        stats = self._stats
        nvars = self._nvars
        interval = self._STOP_CHECK_INTERVAL
        decisions = 0
        props = 0
        compacted = 0
        qhead = self._qhead
        v = self._rover
        try:
            while True:
                while v <= nvars and vals[2 * v] != _L_UNDEF:
                    v += 1
                if v > nvars:
                    return None
                if decisions % interval == 0 and self._should_stop(
                    start, deadline_seconds, stop_check
                ):
                    return -1
                decisions += 1
                trail_lim.append(len(trail))
                dl = len(trail_lim)
                p = 2 * v
                vals[p] = _L_FALSE
                vals[p + 1] = _L_TRUE
                level[v] = dl
                reason[v] = _NO_REASON
                trail.append(-v)
                # Unit propagation, inlined — a transcript of
                # ``_propagate`` (the reference implementation; keep the
                # two in lockstep).  The call-per-decision overhead is
                # what this loop exists to remove.
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
                        end = ref + (arena[ref] >> 1)
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
                            while i < n:
                                watchers[j] = watchers[i]
                                j += 1
                                i += 1
                            del watchers[j:]
                            compacted += n - j
                            return ref
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
        finally:
            self._rover = v
            self._qhead = qhead
            stats.decisions += decisions
            stats.propagations += props
            self.watch_compactions += compacted

    def _value(self, lit: int) -> int:
        """1 true, 0 false, -1 unassigned — of a literal."""
        val = self._vals[2 * lit if lit > 0 else 1 - 2 * lit]
        return _UNASSIGNED if val == _L_UNDEF else val

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _alloc(self, lits: Sequence[int], learnt: bool) -> int:
        """Append a clause to the arena; returns its ref."""
        arena = self._arena
        ref = len(arena)
        arena.append(len(lits) << 1 | learnt)
        arena.extend(lits)
        return ref

    # -- clause management ---------------------------------------------------

    def add_clause(
        self,
        lits: List[int],
        learnt: bool = False,
        lbd: int = 0,
        trusted: bool = False,
    ) -> bool:
        """Attach a clause; returns False on immediate root contradiction.

        Must be called at the root level: literals already false there are
        simplified away permanently, which is only sound for level-0
        assignments.  A False return latches :attr:`root_unsat`.

        ``trusted`` skips literal dedup and the tautology check — for
        callers (the CNF builder, ``sanitize_clauses``) that already
        guarantee both, it removes the dominant per-clause cost of
        feeding a large formula.
        """
        if not learnt:
            if not trusted:
                unique = set(lits)
                if any(-l in unique for l in unique):
                    return True  # tautology
                lits = sorted(unique, key=abs)
            if any(self._value(l) == 1 for l in lits):
                return True  # already satisfied at the root level
            lits = [l for l in lits if self._value(l) != 0]
        if not lits:
            self._root_unsat = True
            return False
        if len(lits) == 1:
            val = self._value(lits[0])
            if val == 0:
                self._root_unsat = True
                return False
            if val == _UNASSIGNED:
                self._enqueue(lits[0], _NO_REASON)
            return True
        ref = self._alloc(lits, learnt)
        if learnt:
            self._learnts.append(ref)
            self._cla_act[ref] = 0.0
            self._cla_lbd[ref] = lbd
        else:
            self._clauses.append(ref)
        l0, l1 = lits[0], lits[1]
        self._watches[2 * l0 if l0 > 0 else 1 - 2 * l0].append(ref)
        self._watches[2 * l1 if l1 > 0 else 1 - 2 * l1].append(ref)
        return True

    def add_clauses_trusted(self, clauses: Sequence[List[int]]) -> bool:
        """Bulk clause feed for pre-sanitised permanent clauses.

        Feeding the encoder's master formula is the incremental path's
        hot loop.  Rather than rebuilding each clause with root-false
        literals filtered out (a full scan per clause), clauses attach
        verbatim and only the *watches* are chosen among non-false
        literals — the two-watched-literal invariant is all that
        soundness at the root level needs, and finding two watchable
        literals stops the scan after (usually) two slots.  Root-satisfied
        clauses with two watchable literals stay in the database inertly;
        a clause with one watchable literal is unit under the root
        assignment, with none it refutes the formula.
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
                        arena.append(len(lits) << 1)
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
            arena.append(len(lits) << 1)
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
        self._stats.learned += 1
        if len(lits) == 1:
            self._enqueue(lits[0], _NO_REASON)
            return
        level = self._level
        lbd = len({level[l if l > 0 else -l] for l in lits})
        ref = self._alloc(lits, True)
        self._cla_act[ref] = self._cla_inc
        self._cla_lbd[ref] = lbd
        self._learnts.append(ref)
        l0, l1 = lits[0], lits[1]
        self._watches[2 * l0 if l0 > 0 else 1 - 2 * l0].append(ref)
        self._watches[2 * l1 if l1 > 0 else 1 - 2 * l1].append(ref)
        self._enqueue(l0, ref)

    def _reduce_db(self) -> None:
        """Drop the least active half of the learned clauses."""
        act = self._cla_act
        lbd = self._cla_lbd
        self._learnts.sort(key=lambda r: (lbd[r], -act[r]))
        keep_count = len(self._learnts) // 2
        locked = {self._reason[l if l > 0 else -l] for l in self._trail}
        keep, drop = [], []
        for i, ref in enumerate(self._learnts):
            if i < keep_count or ref in locked or lbd[ref] <= 2:
                keep.append(ref)
            else:
                drop.append(ref)
        if not drop:
            return
        self._detach_learnts(drop)
        self._learnts = keep
        self._stats.deleted += len(drop)
        self._maybe_compact()

    def _detach_learnts(self, drop: List[int]) -> None:
        """Remove the given learned clauses from every watch list."""
        dropset = set(drop)
        for w in self._watches:
            if w:
                w[:] = [r for r in w if r not in dropset]
        # Each clause sits in exactly two watch lists.
        self.watch_compactions += 2 * len(drop)
        # Reasons pointing at a dropped clause can only belong to root-level
        # assignments (run() always exits at level 0, and _reduce_db keeps
        # locked clauses); those assignments stay valid without the pointer.
        reason = self._reason
        for lit in self._trail:
            v = lit if lit > 0 else -lit
            if reason[v] in dropset:
                reason[v] = _NO_REASON
        arena = self._arena
        act = self._cla_act
        lbd = self._cla_lbd
        for ref in drop:
            self._garbage += (arena[ref] >> 1) + 1
            del act[ref]
            del lbd[ref]

    def _maybe_compact(self) -> None:
        if (
            self._garbage >= self._COMPACT_MIN_GARBAGE
            and 2 * self._garbage > len(self._arena)
        ):
            self._compact_arena()

    def _compact_arena(self) -> None:
        """Squeeze deleted clauses out of the arena, remapping live refs.

        Every structure holding refs — the clause lists, the watch
        lists, reasons on the (root-level) trail and the learnt side
        tables — is rewritten in place.  Only called between
        propagations, when no transient refs are held.
        """
        old = self._arena
        new: List[int] = []
        remap: Dict[int, int] = {}
        for refs in (self._clauses, self._learnts):
            for i, ref in enumerate(refs):
                nref = len(new)
                remap[ref] = nref
                new.extend(old[ref:ref + 1 + (old[ref] >> 1)])
                refs[i] = nref
        self._arena = new
        for w in self._watches:
            if w:
                w[:] = [remap[r] for r in w]
        reason = self._reason
        for lit in self._trail:
            v = lit if lit > 0 else -lit
            r = reason[v]
            if r >= 0:
                reason[v] = remap[r]
        self._cla_act = {remap[r]: a for r, a in self._cla_act.items()}
        self._cla_lbd = {remap[r]: d for r, d in self._cla_lbd.items()}
        self._garbage = 0
        self.arena_compactions += 1

    def purge_learnts(self, predicate) -> int:
        """Drop every learned clause whose literal list matches ``predicate``.

        Used by the incremental solver's selector-aware retirement: learnt
        clauses mentioning a retired budget's selector are dead weight for
        every other budget.  Only call at the root level.  Returns the
        number of clauses dropped.
        """
        arena = self._arena
        drop = [
            ref
            for ref in self._learnts
            if predicate(arena[ref + 1:ref + 1 + (arena[ref] >> 1)])
        ]
        if not drop:
            return 0
        self._detach_learnts(drop)
        dropset = set(drop)
        self._learnts = [r for r in self._learnts if r not in dropset]
        self._stats.deleted += len(drop)
        self._maybe_compact()
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
        if self._decision_level() <= level:
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
        del self._assumptions_done[level:]

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause ref or None.

        This is the solver's hottest loop, so it works directly on the
        flat columns: literal values are single byte loads, watched
        literals are the two arena slots after the clause header, and
        watcher lists are compacted in place as watches move.
        """
        vals = self._vals
        arena = self._arena
        watches = self._watches
        trail = self._trail
        reason = self._reason
        level = self._level
        stats = self._stats
        qhead = self._qhead
        dl = len(self._trail_lim)
        compacted = 0
        props = 0
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
                # Normalise: the watched literals are the slots ref+1 and
                # ref+2, with the false literal moved to ref+2.
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
                # Look for a new watch among the remaining literals.
                end = ref + (arena[ref] >> 1)
                k = ref + 3
                found = False
                while k <= end:
                    lk = arena[k]
                    if vals[2 * lk if lk > 0 else 1 - 2 * lk] != 0:
                        arena[ref + 2] = lk
                        arena[k] = false_lit
                        watches[2 * lk if lk > 0 else 1 - 2 * lk].append(ref)
                        found = True
                        break
                    k += 1
                if found:
                    continue
                # Clause is unit or conflicting.
                watchers[j] = ref
                j += 1
                if v0 == 0:
                    # Conflict: keep remaining watchers, report.
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    compacted += n - j
                    self._qhead = qhead
                    stats.propagations += props
                    self.watch_compactions += compacted
                    return ref
                # Inline enqueue of the unit literal l0 with reason ref.
                v = l0 if l0 > 0 else -l0
                p = 2 * v
                if l0 > 0:
                    vals[p] = 1
                    vals[p + 1] = 0
                else:
                    vals[p] = 0
                    vals[p + 1] = 1
                level[v] = dl
                reason[v] = ref
                trail.append(l0)
            del watchers[j:]
            compacted += n - j
        self._qhead = qhead
        stats.propagations += props
        self.watch_compactions += compacted
        return None

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, conflict: int):
        """First-UIP analysis; returns (learnt clause lits, backtrack level)."""
        arena = self._arena
        trail = self._trail
        levels = self._level
        reasons = self._reason
        cla_act = self._cla_act
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self._nvars + 1)
        counter = 0
        lit = None
        ref = conflict
        idx = len(trail) - 1
        level = self._decision_level()

        while True:
            header = arena[ref]
            if header & 1:
                cla_act[ref] += self._cla_inc
            for qi in range(ref + 1, ref + 1 + (header >> 1)):
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
            for ri in range(r + 1, r + 1 + (arena[r] >> 1)):
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

    # -- clause activity ---------------------------------------------------

    def _decay_clause_activity(self) -> None:
        self._cla_inc /= self._CLAUSE_DECAY
        if self._cla_inc > 1e100:
            act = self._cla_act
            for ref in act:
                act[ref] *= 1e-100
            self._cla_inc *= 1e-100

    def _next_assumption(self):
        """Enqueue the next pending assumption; False on conflict, None if done."""
        while len(self._assumptions_done) < len(self._assumptions):
            lit = self._assumptions[len(self._assumptions_done)]
            val = self._value(lit)
            if val == 1:
                self._assumptions_done.append(lit)
                continue
            if val == 0:
                return False
            self._trail_lim.append(len(self._trail))
            self._assumptions_done.append(lit)
            self._stats.decisions += 1
            self._enqueue(lit, _NO_REASON)
            return lit
        return None


class CdclSolver:
    """Conflict-driven clause learning solver (one-shot facade).

    Every :meth:`solve` builds a fresh :class:`_SolverCore` from the CNF,
    so nothing carries over between calls: the reference the fuzz
    oracles and the differential tests compare the incremental ladder
    against.

    Parameters:
        conflict_budget: stop with ``satisfiable=None`` after this many
            conflicts (``None`` = unbounded).
        deadline_seconds: stop with ``satisfiable=None`` once this much
            monotonic-clock time has elapsed (``None`` = unbounded).
            Checked at conflicts and decisions, so a run inside a huge
            conflict-free propagation can overshoot slightly.
        stop_check: zero-argument callable polled periodically at
            conflicts and decisions; returning True abandons the run with
            ``satisfiable=None``.  This is how a backend race cancels
            the losing SAT ladder.
    """

    def __init__(
        self,
        conflict_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.conflict_budget = conflict_budget
        self.deadline_seconds = deadline_seconds
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
            if not core.add_clause(list(lits)):
                break  # root contradiction is latched; run() reports it
        return core.run(
            assumptions,
            conflict_budget=self.conflict_budget,
            deadline_seconds=self.deadline_seconds,
            stop_check=self.stop_check,
        )
