"""Cycle-budget probe scheduling.

The paper searches cycle budgets with binary search ("Since the costs of
the probes are far from constant, binary search might not be the best
strategy, but we have not explored alternatives", section 1.3).  This
module generalises the search into pluggable :class:`ProbeScheduler`
strategies:

* :class:`BinaryScheduler` — the paper's binary search;
* :class:`LinearScheduler` — escalate K = lo, lo+1, ... until SAT;
* :class:`PortfolioScheduler` — launch several budgets concurrently on a
  thread pool and cancel probes made redundant by other probes' answers
  (a SAT answer at K makes every K' > K a loser; an UNSAT answer at K
  makes every K' < K a loser, by the monotonicity the paper's binary
  search already relies on).

All schedulers share the satisfiability-monotonicity assumption: adding a
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
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


class SearchStrategy(enum.Enum):
    BINARY = "binary"
    LINEAR = "linear"  # try K = lo, lo+1, ... until SAT
    PORTFOLIO = "portfolio"  # concurrent probes with loser cancellation


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
    # of the same session ("scratch" probes always report 0 reused).
    learned: int = 0
    learned_reused: int = 0
    solver: str = "scratch"
    cancelled: bool = False

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
            "cancelled": self.cancelled,
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


class CancelToken:
    """Cooperative cancellation handle passed to portfolio probes.

    A probe's solver polls :meth:`is_set` (via the solver's ``stop_check``
    hook) and abandons the run with an unknown answer when another probe
    has made this budget redundant.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()

    __call__ = is_set


# probe(k) -> (satisfiable, payload, stats).  Schedulers that cancel pass a
# CancelToken through the optional second argument; probes that ignore it
# simply run to completion.
ProbeFn = Callable[..., Tuple[Optional[bool], object, Probe]]


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


class PortfolioScheduler(ProbeScheduler):
    """Probe several budgets concurrently; cancel probes other answers
    make redundant.

    Every budget in ``[lo, hi]`` is submitted to a thread pool.  When a
    budget K answers SAT, all pending/running budgets above K are
    cancelled (they can only yield worse schedules); when K answers
    UNSAT, all budgets below K are cancelled (monotonicity makes them
    UNSAT too, exactly the inference binary search performs when it never
    revisits budgets below an UNSAT midpoint).  Budgets between the
    proved floor and the current best are left running so the minimum is
    still resolved exactly — the returned ``best_cycles`` matches the
    sequential strategies'.
    """

    name = "portfolio"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def search(
        self, probe: ProbeFn, lo: int, hi: int, floor: Optional[int] = None
    ) -> SearchOutcome:
        from concurrent.futures import ThreadPoolExecutor, as_completed

        outcome, start = self._begin(lo, hi, floor)
        budgets = list(range(start, hi + 1))
        if len(budgets) <= 1:
            return LinearScheduler().search(probe, lo, hi, floor)

        tokens = {k: CancelToken() for k in budgets}
        lock = threading.Lock()
        # Guarded by ``lock``: the best SAT budget seen and the proved floor.
        state = {"best": None, "floor": outcome.proved_floor}

        def on_answer(k: int, sat: Optional[bool]) -> None:
            with lock:
                if sat and (state["best"] is None or k < state["best"]):
                    state["best"] = k
                    for other in budgets:
                        if other > k:
                            tokens[other].cancel()
                elif sat is False and k > state["floor"]:
                    state["floor"] = k
                    for other in budgets:
                        if other < k:
                            tokens[other].cancel()

        def worker(k: int):
            token = tokens[k]
            if token.is_set():
                return k, None, None, Probe(
                    cycles=k, satisfiable=None, cancelled=True
                )
            sat, payload, stats = probe(k, token)
            if sat is None and token.is_set():
                stats.cancelled = True
            else:
                on_answer(k, sat)
            return k, sat, payload, stats

        workers = self.max_workers or min(4, len(budgets))
        results = {}
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker, k) for k in budgets]
            for future in as_completed(futures):
                k, sat, payload, stats = future.result()
                results[k] = (sat, payload, stats)

        for k in budgets:
            sat, payload, stats = results[k]
            outcome.probes.append(stats)
            if sat:
                if outcome.best_cycles is None or k < outcome.best_cycles:
                    outcome.best_cycles = k
                    outcome.best_payload = payload
            elif sat is False:
                outcome.proved_floor = max(outcome.proved_floor, k)
        # Budgets cancelled below an explicit UNSAT answer are UNSAT by
        # monotonicity; reflect the strongest floor actually proved.
        outcome.proved_floor = max(outcome.proved_floor, state["floor"])
        return outcome


@dataclass
class RaceEntry:
    """One contestant's report to :class:`BackendRace`."""

    name: str
    verified: bool
    cycles: Optional[int]
    payload: object = None
    time_seconds: float = 0.0
    cancelled: bool = False


class BackendRace:
    """Race heterogeneous backends; the first verified winner cancels the rest.

    This generalises :class:`PortfolioScheduler`'s loser-cancellation from
    cycle budgets of one encoding to whole search strategies: each
    contestant is a callable ``fn(token) -> RaceEntry`` that polls the
    shared :class:`CancelToken` and returns what it found.  The moment a
    contestant reports a *verified* schedule the token is set, so the
    losers abandon their runs cooperatively; contestants that merely
    finish (exhausted, UNSAT, cancelled) never cancel anyone.

    The winner is the first contestant to report a verified result (wall
    clock); if several verify before noticing the token, the earlier
    reporter keeps the win — by construction any later verified result
    was produced under a cancelled race and may be partial.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run(
        self,
        contestants: List[Tuple[str, Callable[[CancelToken], RaceEntry]]],
    ) -> Tuple[Optional[str], Dict[str, RaceEntry]]:
        from concurrent.futures import ThreadPoolExecutor

        if not contestants:
            return None, {}
        token = CancelToken()
        lock = threading.Lock()
        state: Dict[str, Optional[str]] = {"winner": None}

        def worker(name: str, fn) -> Tuple[str, RaceEntry]:
            entry = fn(token)
            if entry.verified:
                with lock:
                    if state["winner"] is None:
                        state["winner"] = name
                        token.cancel()
            return name, entry

        entries: Dict[str, RaceEntry] = {}
        workers = self.max_workers or len(contestants)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(worker, name, fn) for name, fn in contestants
            ]
            for future in futures:
                name, entry = future.result()
                entries[name] = entry
        return state["winner"], entries


_SCHEDULERS = {
    SearchStrategy.BINARY: BinaryScheduler,
    SearchStrategy.LINEAR: LinearScheduler,
    SearchStrategy.PORTFOLIO: PortfolioScheduler,
}


def get_scheduler(
    strategy: SearchStrategy, max_workers: Optional[int] = None
) -> ProbeScheduler:
    """Instantiate the scheduler for ``strategy``."""
    if strategy == SearchStrategy.PORTFOLIO:
        return PortfolioScheduler(max_workers=max_workers)
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
