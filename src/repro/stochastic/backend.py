"""The pipeline-facing adapter for the stochastic searcher.

:func:`supports_gma` gates the subsystem to its scope — register-only,
unguarded GMAs (memory and guard goals stay exclusive to the SAT path);
:class:`StochasticProbe` runs one campaign for ``backend="stochastic"``
and reports its result in the same :class:`~repro.core.probes.Probe`
shape the SAT ladder uses, so the per-probe stats pipeline needs no
special cases.
"""

from __future__ import annotations

from typing import Dict, Optional

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
    """One stochastic campaign.

    Calling the probe runs the campaign and returns the
    :class:`StochasticOutcome`; :meth:`probe_record` renders the result
    as a :class:`~repro.core.probes.Probe` for the session's stats ladder.
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

    def __call__(self) -> StochasticOutcome:
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
        )
        return self.outcome

    def probe_record(self) -> Probe:
        """The campaign summarised in the SAT ladder's Probe shape.

        Its solver counters stay zero: no SAT solve ran.  The campaign's
        proposals are counted in the stochastic totals instead.
        """
        outcome = self.outcome
        if outcome is None:
            return Probe(cycles=0, satisfiable=None, solver="stochastic")
        found = outcome.schedule is not None
        return Probe(
            cycles=outcome.cycles if found else 0,
            satisfiable=True if found else None,
            time_seconds=outcome.time_seconds,
            solve_seconds=outcome.time_seconds,
            solver="stochastic",
        )

