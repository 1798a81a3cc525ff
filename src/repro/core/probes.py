"""Cycle-budget probe scheduling.

The paper searches cycle budgets with binary search ("Since the costs of
the probes are far from constant, binary search might not be the best
strategy, but we have not explored alternatives", section 1.3).  This
module generalises the search into pluggable :class:`ProbeScheduler`
strategies:

* :class:`BinaryScheduler` — the paper's binary search;
* :class:`LinearScheduler` — escalate K = lo, lo+1, ... until SAT.

Both schedulers share the satisfiability-monotonicity assumption: adding a
cycle to the budget never makes a feasible goal infeasible.  Probes that
return ``None`` (solver budget exhausted) are treated conservatively: the
budget is neither raised as a floor nor accepted, so ``optimal`` is never
claimed across an unknown gap.

Every scheduler also takes an optional proved ``floor`` (the encoder's
critical-path bound, :func:`repro.encode.constraints.cycle_floor`): no
budget below it can be SAT, so the ladder starts at ``max(lo, floor)``
and the floor — never the caller's unproved ``lo`` — seeds
``proved_floor``.  A floor above ``hi`` answers "no schedule" without a
single probe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class SearchStrategy(enum.Enum):
    BINARY = "binary"
    LINEAR = "linear"  # try K = lo, lo+1, ... until SAT


@dataclass
class Probe:
    """One satisfiability probe at a specific cycle budget."""

    cycles: int
    satisfiable: Optional[bool]
    vars: int = 0
    clauses: int = 0
    conflicts: int = 0
    propagations: int = 0
    time_seconds: float = 0.0
    # Per-stage breakdown (filled by the session's instrumented probe).
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0
    extract_seconds: float = 0.0
    # Cycles of CNF prefix served from the cross-probe cache.
    prefix_cycles_reused: int = 0
    # Clause learning: produced this probe / carried in from earlier probes
    # of the same session.
    learned: int = 0
    learned_reused: int = 0
    # Which engine answered: the session's "incremental" SAT solver, or
    # the "stochastic" sampler's one summary probe.
    solver: str = "incremental"

    def to_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "satisfiable": self.satisfiable,
            "vars": self.vars,
            "clauses": self.clauses,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "time_seconds": self.time_seconds,
            "encode_seconds": self.encode_seconds,
            "solve_seconds": self.solve_seconds,
            "extract_seconds": self.extract_seconds,
            "prefix_cycles_reused": self.prefix_cycles_reused,
            "learned": self.learned,
            "learned_reused": self.learned_reused,
            "solver": self.solver,
        }


@dataclass
class SearchOutcome:
    """Result of the budget search.

    ``best_cycles`` is the least K whose probe was SAT; ``proved_floor``
    is the largest K proved UNSAT, by a probe or by the cycle floor (so
    ``best_cycles == proved_floor + 1`` certifies optimality relative to
    the E-graph).  ``cycle_floor`` is the floor the ladder started from.
    """

    best_cycles: Optional[int]
    best_payload: object = None
    proved_floor: int = 0
    probes: List[Probe] = field(default_factory=list)
    cycle_floor: Optional[int] = None

    @property
    def optimal(self) -> bool:
        return (
            self.best_cycles is not None
            and self.proved_floor == self.best_cycles - 1
        )

    @property
    def optimal_by(self) -> Optional[str]:
        """What proves optimality: ``"floor"`` when the best budget *is*
        the cycle floor (no UNSAT probe was needed), ``"unsat"`` when a
        probe refuted the budget below it, None when nothing does."""
        if not self.optimal:
            return None
        return "floor" if self.best_cycles == self.cycle_floor else "unsat"


# probe(k) -> (satisfiable, payload, stats).
ProbeFn = Callable[[int], Tuple[Optional[bool], object, Probe]]


class ProbeScheduler:
    """Strategy interface: decide which budgets to probe, in what order."""

    name = "abstract"

    def search(
        self, probe: ProbeFn, lo: int, hi: int, floor: Optional[int] = None
    ) -> SearchOutcome:
        raise NotImplementedError

    @staticmethod
    def _begin(
        lo: int, hi: int, floor: Optional[int]
    ) -> Tuple[SearchOutcome, int]:
        """Validate the window; return the seeded outcome and first budget.

        Without a ``floor`` the caller's ``lo`` is trusted as one (every
        K < lo infeasible), the historical contract of this API.
        """
        if lo < 1 or hi < lo:
            raise ValueError("need 1 <= lo <= hi")
        if floor is None:
            floor = lo
        outcome = SearchOutcome(
            best_cycles=None, proved_floor=floor - 1, cycle_floor=floor
        )
        return outcome, max(lo, floor)


class _SequentialScheduler(ProbeScheduler):
    """Shared bookkeeping for the one-probe-at-a-time strategies."""

    def _run(self, outcome: SearchOutcome, probe: ProbeFn, k: int):
        sat, payload, stats = probe(k)
        outcome.probes.append(stats)
        if sat:
            if outcome.best_cycles is None or k < outcome.best_cycles:
                outcome.best_cycles = k
                outcome.best_payload = payload
        elif sat is False:
            outcome.proved_floor = max(outcome.proved_floor, k)
        return sat


class LinearScheduler(_SequentialScheduler):
    name = "linear"

    def search(
        self, probe: ProbeFn, lo: int, hi: int, floor: Optional[int] = None
    ) -> SearchOutcome:
        outcome, start = self._begin(lo, hi, floor)
        for k in range(start, hi + 1):
            if self._run(outcome, probe, k):
                break
        return outcome


class BinaryScheduler(_SequentialScheduler):
    """Gallop up from the floor, then bisect the last gap.

    Probes ``start, start+1, start+2, start+4, ...`` (capped at ``hi``)
    until one is SAT, then bisects between the highest refuted budget
    and that SAT budget.  Small budgets are the cheap probes — fewer
    cycle blocks to encode, and a tight canonical decode — so the ladder
    never encodes far past the optimum, and the probe count stays
    logarithmic in the optimum's distance from the floor.  A budget is
    never probed twice; an unknown answer is neither a floor nor a SAT.
    """

    name = "binary"

    def search(
        self, probe: ProbeFn, lo: int, hi: int, floor: Optional[int] = None
    ) -> SearchOutcome:
        outcome, start = self._begin(lo, hi, floor)
        answers: Dict[int, Optional[bool]] = {}

        def ask(k: int) -> Optional[bool]:
            if k not in answers:
                answers[k] = self._run(outcome, probe, k)
            return answers[k]

        # The least budget still worth probing lies in [low, high]: every
        # budget above high is SAT, none below low is left to try.
        low, high = start, hi
        k, step = start, 0
        while k <= hi:
            sat = ask(k)
            if sat:
                high = k - 1
                break
            if sat is False:
                low = k + 1
            if k == hi:
                break
            step = 2 * step if step else 1
            k = min(start + step, hi)
        while low <= high:
            mid = (low + high) // 2
            sat = ask(mid)
            if sat:
                high = mid - 1
            else:  # UNSAT, or unknown (searched past, never a floor)
                low = mid + 1
        return outcome


_SCHEDULERS = {
    SearchStrategy.BINARY: BinaryScheduler,
    SearchStrategy.LINEAR: LinearScheduler,
}


def get_scheduler(strategy: SearchStrategy) -> ProbeScheduler:
    """Instantiate the scheduler for ``strategy``."""
    return _SCHEDULERS[strategy]()


def search_min_cycles(
    probe: ProbeFn,
    lo: int,
    hi: int,
    strategy: SearchStrategy = SearchStrategy.BINARY,
    floor: Optional[int] = None,
) -> SearchOutcome:
    """Find the least K in [lo, hi] for which ``probe(K)`` is satisfiable.

    ``probe`` returns ``(satisfiable, payload, stats)``; payload of the best
    SAT probe (e.g. the decoded model) is kept.  Probes returning ``None``
    (solver budget exhausted) are treated conservatively: the budget is
    neither raised as a floor nor accepted.  ``floor``, when given, is a
    proved lower bound on the answer (see the module docstring).
    """
    return get_scheduler(strategy).search(probe, lo, hi, floor)
