"""The pipeline-facing adapter for the stochastic searcher.

:func:`supports_gma` gates the subsystem to its scope — register-only,
unguarded GMAs (memory and guard goals stay exclusive to the SAT path);
:class:`StochasticProbe` wraps a campaign as a race contestant for
:class:`repro.core.probes.BackendRace` and reports its result in the same
:class:`~repro.core.probes.Probe` shape the SAT ladder uses, so the
per-probe stats pipeline needs no special cases.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.core.probes import Probe
from repro.isa.spec import ArchSpec
from repro.lang.gma import GMA
from repro.stochastic.search import (
    StochasticConfig,
    StochasticOutcome,
    stochastic_search,
)
from repro.terms.ops import OperatorRegistry, Sort
from repro.terms.term import subterms


def supports_gma(gma: GMA) -> Optional[str]:
    """None when the GMA is in scope; otherwise the reason it is not."""
    if gma.guard is not None:
        return "guarded GMAs are SAT-only"
    if "M" in gma.targets:
        return "memory targets are SAT-only"
    for goal in gma.goal_terms():
        for sub in subterms(goal):
            if sub.sort != Sort.INT:
                return "non-integer subterm %r" % sub.op
            if sub.op in ("select", "store"):
                return "memory access %r" % sub.op
    return None


class StochasticProbe:
    """One stochastic campaign, callable as a race contestant.

    Calling the probe runs the campaign (cancellable through ``token``)
    and returns the :class:`StochasticOutcome`; :meth:`probe_record`
    renders the result as a :class:`~repro.core.probes.Probe` for the
    session's stats ladder.
    """

    def __init__(
        self,
        gma: GMA,
        spec: ArchSpec,
        registry: OperatorRegistry,
        definitions: Optional[Dict] = None,
        input_registers: Optional[Dict[str, str]] = None,
        config: Optional[StochasticConfig] = None,
        session_seed: int = 0,
    ) -> None:
        self.gma = gma
        self.spec = spec
        self.registry = registry
        self.definitions = definitions
        self.input_registers = input_registers
        self.config = config if config is not None else StochasticConfig()
        self.session_seed = session_seed
        self.outcome: Optional[StochasticOutcome] = None

    def __call__(
        self,
        token: Optional[Callable[[], bool]] = None,
        throttle: Optional[Callable[[], None]] = None,
    ) -> StochasticOutcome:
        reason = supports_gma(self.gma)
        if reason is not None:
            self.outcome = StochasticOutcome(unsupported=reason)
            return self.outcome
        self.outcome = stochastic_search(
            self.gma,
            self.spec,
            self.registry,
            self.definitions,
            self.input_registers,
            self.config,
            session_seed=self.session_seed,
            stop_check=token,
            throttle=throttle,
        )
        return self.outcome

    def probe_record(self) -> Probe:
        """The campaign summarised in the SAT ladder's Probe shape."""
        outcome = self.outcome
        if outcome is None:
            return Probe(cycles=0, satisfiable=None, solver="stochastic")
        found = outcome.schedule is not None
        return Probe(
            cycles=outcome.cycles if found else 0,
            satisfiable=True if found else None,
            conflicts=outcome.proposals,  # proposals stand in for conflicts
            time_seconds=outcome.time_seconds,
            solve_seconds=outcome.time_seconds,
            solver="stochastic",
        )


# The race's grace window: for this long the sampler sleeps while the
# SAT contestant runs, so a healthy solver keeps the GIL to itself.
RACE_GRACE_SECONDS = 0.25
# How often a sleeping sampler wakes to check its cancellation token.
THROTTLE_POLL_SECONDS = 0.05


def make_throttle(
    sat_done: threading.Event,
    token: Optional[Callable[[], bool]] = None,
) -> Callable[[], None]:
    """A politeness hook for racing under the GIL.

    Two CPU-bound Python threads only split one core, so interleaving the
    sampler with a healthy solver just slows both down.  Instead, the
    sampler *waits*: for the first ``RACE_GRACE_SECONDS`` of the race
    each move slice blocks on ``sat_done`` while the SAT contestant runs.
    A solver that answers inside the grace window — the common case —
    never shares the GIL at all, and the sampler wakes the instant it
    finishes; past the window the sampler runs at full speed, because a
    solver that slow may be on an all-UNSAT ladder the sampler can beat.
    """
    deadline = time.perf_counter() + RACE_GRACE_SECONDS

    def throttle() -> None:
        while not sat_done.is_set():
            if token is not None and token():
                return
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            sat_done.wait(min(THROTTLE_POLL_SECONDS, remaining))

    return throttle
