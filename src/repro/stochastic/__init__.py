"""Stochastic superoptimization: an MCMC backend beside the SAT path.

Denali's exact formulation is goal-directed but pays for it: the
per-cycle-budget CNF encoding can blow up on goals whose optimal schedule
sits beyond the budget ladder's ceiling.  Schkufza et al.'s *Stochastic
Superoptimization* shows the complementary trade — Metropolis–Hastings
sampling over candidate programs, guarded by a cheap test-vector cost and
a full equivalence oracle only at zero distance — scales to exactly those
spaces, at the price of giving up optimality certificates.

This package is that second engine:

* :mod:`repro.stochastic.mutations` — the proposal kernel: opcode /
  operand / swap / insert / delete moves over straight-line SSA candidates
  drawn from the active :class:`~repro.isa.spec.ArchSpec`;
* :mod:`repro.stochastic.cost` — the layered objective: Hamming distance
  against reference test vectors plus a critical-path cycle estimate, with
  the full differential checker consulted only on zero-distance
  candidates (failures feed their counterexample back into the vectors);
* :mod:`repro.stochastic.search` — the Metropolis–Hastings loop:
  geometric temperature schedule, seeded restarts, deterministic
  per-chain seeding;
* :mod:`repro.stochastic.backend` — the pipeline-facing adapter: GMA
  gating and :class:`StochasticProbe`, the campaign that
  ``backend="stochastic"`` runs in place of the SAT ladder.
"""

from repro.stochastic.backend import StochasticProbe, supports_gma
from repro.stochastic.cost import CostModel
from repro.stochastic.mutations import Candidate, MutationSpace
from repro.stochastic.search import (
    ChainStats,
    StochasticConfig,
    StochasticOutcome,
    stochastic_search,
)

__all__ = [
    "Candidate",
    "ChainStats",
    "CostModel",
    "MutationSpace",
    "StochasticConfig",
    "StochasticOutcome",
    "StochasticProbe",
    "stochastic_search",
    "supports_gma",
]
