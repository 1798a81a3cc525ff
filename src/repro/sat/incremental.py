"""Persistent incremental SAT across the cycle-budget probe ladder.

Denali's outer loop asks "is there a program in <= K cycles?" for a
ladder of budgets K.  The CNF for neighbouring budgets shares almost
every clause (see :class:`repro.encode.constraints.IncrementalEncoder`),
so rebuilding the solver per probe throws away watched-literal lists
and — most importantly — learned clauses that remain valid for every
later probe.

:class:`IncrementalSolver` keeps one :class:`~repro.sat.solver._SolverCore`
alive for a whole ladder, MiniSat-style:

* **clauses are permanent** — budget-independent cycle-block clauses are
  added once and shared by every probe;
* **budget-local clauses are gated** behind a fresh *selector* literal
  ``s_K`` (the clause set ``C`` becomes ``{ s_K -> c : c in C }``), and a
  probe at budget K solves under the assumptions ``[s_K] + [-s_J ...]``
  for every other live budget J;
* **learned clauses carry over**: clauses learned while probing budget K
  are implied by the gated formula alone (assumptions enter analysis as
  decisions), so they soundly prune the K+1 — or, under binary search,
  the K-1 — probe;
* **retiring a budget** (:meth:`retire_budget`) permanently asserts
  ``-s_K``, and the selector-aware clause-DB reduction drops every
  learned clause mentioning ``s_K`` — those are satisfied under every
  other budget's assumptions and would only clog the watch lists.

Because selector variables occur only negatively in the gated formula,
an UNSAT answer under ``s_K`` is exactly "no K-cycle program", never an
artifact of the gating (a positive ``s_K`` can only be forced when the
formula plus the probe's own assumptions is already unsatisfiable).

Every solve is one canonical run (see :meth:`_SolverCore.run
<repro.sat.solver._SolverCore.run>`): a satisfiable answer is the
lex-least model under the assumptions, whatever this solver learned on
earlier probes, so the decoded assembly matches a fresh
:class:`~repro.sat.solver.CdclSolver`'s byte for byte.

The instance is thread-safe: a reentrant lock serialises mutation and
solving, and a solve abandoned through ``stop_check`` leaves the solver
usable.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.sat.solver import SatResult, _SolverCore


class IncrementalSolver:
    """A CDCL solver that persists across ``solve`` calls.

    The public surface mirrors MiniSat's incremental interface:
    :meth:`add_clause` / :meth:`solve` (under assumptions), plus the
    budget-ladder conveniences :meth:`push_budget`,
    :meth:`solve_budget` and :meth:`retire_budget`.
    """

    def __init__(self) -> None:
        self._core = _SolverCore()
        self._lock = threading.RLock()
        self._budgets: Dict[int, int] = {}  # budget K -> selector var
        self._retired: Dict[int, int] = {}
        # Cumulative telemetry for the profiling harness.
        self.solves = 0
        self.clauses_added = 0
        self.learnts_dropped_on_retire = 0

    # -- formula growth ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._core.num_vars

    @property
    def root_unsat(self) -> bool:
        """True once the permanent formula itself has been refuted."""
        return self._core.root_unsat

    @property
    def learnts(self) -> int:
        """Learned clauses currently retained in the database."""
        return len(self._core._learnts)

    def flat_counters(self) -> Dict[str, int]:
        """The core's flat-arena telemetry (see ``_SolverCore.flat_counters``)."""
        with self._lock:
            return self._core.flat_counters()

    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable space to at least ``num_vars``."""
        with self._lock:
            self._core.grow(num_vars)

    def add_clause(self, lits: Sequence[int], trusted: bool = False) -> bool:
        """Add a permanent clause; returns False on root contradiction.

        Variables must have been allocated via :meth:`ensure_vars`.  A
        False return latches :attr:`root_unsat`: every later solve is
        UNSAT regardless of assumptions.  ``trusted`` clauses skip the
        dedup/tautology normalisation (the encoder already guarantees
        both for its emitted clauses).
        """
        with self._lock:
            self.clauses_added += 1
            return self._core.add_clause(list(lits), trusted=trusted)

    def add_clauses(
        self, clauses: Iterable[Sequence[int]], trusted: bool = False
    ) -> bool:
        """Add many permanent clauses; False if any contradicts the root."""
        with self._lock:
            if trusted:
                clauses = clauses if isinstance(clauses, list) else list(clauses)
                self.clauses_added += len(clauses)
                return self._core.add_clauses_trusted(clauses)
            ok = True
            for lits in clauses:
                self.clauses_added += 1
                if not self._core.add_clause(list(lits), trusted=False):
                    ok = False
            return ok

    # -- the budget ladder ---------------------------------------------------

    def push_budget(self, cycles: int, selector: int) -> None:
        """Register ``selector`` as the gate literal for budget ``cycles``.

        The caller is expected to have added that budget's clauses gated
        as ``(-selector | ...)``; :meth:`solve_budget` then assumes the
        selector true (and every other live budget's selector false).
        """
        if selector <= 0:
            raise ValueError("selector must be a positive literal")
        with self._lock:
            if cycles in self._retired:
                raise ValueError("budget %d was already retired" % cycles)
            self._core.grow(selector)
            self._budgets[cycles] = selector

    def budget_selector(self, cycles: int) -> Optional[int]:
        with self._lock:
            return self._budgets.get(cycles)

    def retire_budget(self, cycles: int) -> int:
        """Permanently disable a budget; drop its local learnt clauses.

        Asserts the selector false (satisfying every clause gated on it)
        and purges learned clauses that mention the selector in either
        polarity — they are satisfied under every other budget's
        assumptions, so keeping them would only slow propagation.
        Returns the number of learnt clauses dropped.
        """
        with self._lock:
            selector = self._budgets.pop(cycles, None)
            if selector is None:
                return 0
            self._retired[cycles] = selector
            dropped = self._core.purge_learnts(
                lambda lits, s=selector: any(abs(l) == s for l in lits)
            )
            self.learnts_dropped_on_retire += dropped
            self._core.add_clause([-selector])
            return dropped

    # -- solving -------------------------------------------------------------

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> SatResult:
        """One canonical run under ``assumptions``, retaining everything learned.

        A satisfiable answer carries the unique lex-least model of the
        formula under the assumptions; an exhausted conflict budget,
        deadline or ``stop_check`` ends the run with
        ``satisfiable=None``.  ``result.stats.learned_kept`` reports how
        many learned clauses from earlier runs were live when this run
        began — the ladder's clause-reuse signal.
        """
        with self._lock:
            self.solves += 1
            return self._core.run(
                assumptions,
                conflict_budget=conflict_budget,
                deadline_seconds=deadline_seconds,
                stop_check=stop_check,
            )

    def solve_budget(
        self,
        cycles: int,
        extra_assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> SatResult:
        """Probe one registered budget.

        Assumes the budget's selector true and every other live budget's
        selector false (their gated clauses must not constrain this
        probe, and deciding them would waste solver effort).
        """
        with self._lock:
            try:
                selector = self._budgets[cycles]
            except KeyError:
                raise KeyError("budget %d was never pushed" % cycles)
            assumptions: List[int] = [selector]
            for other, sel in sorted(self._budgets.items()):
                if other != cycles:
                    assumptions.append(-sel)
            assumptions.extend(extra_assumptions)
            return self.solve(
                assumptions,
                conflict_budget=conflict_budget,
                deadline_seconds=deadline_seconds,
                stop_check=stop_check,
            )
