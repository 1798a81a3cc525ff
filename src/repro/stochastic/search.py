"""The Metropolis–Hastings loop over candidate programs.

Each chain starts from the conventional compiler's lowering of the goal
(the "optimization mode" of STOKE: the seed is already correct, so the
sampler explores the neighbourhood of working code rather than synthesis
from nothing), walks the mutation space under a geometric temperature
schedule, and consults the full equivalence oracle only when the cheap
test-vector distance reaches zero and the realized schedule would beat the
best verified one.  Failed oracle calls feed their counterexample back
into the chain's test vectors.

Determinism: chains run sequentially, each with a seed derived by mixing
the session seed and the chain index; no wall-clock value influences a
search decision, so a fixed-seed run reproduces the same best schedule
and the same statistics (modulo timing fields).  Cooperative
cancellation (``stop_check``, polled once per move slice) only truncates
the walk — it is how the backend race cancels the losing backend.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.baselines.compiler import CompileError, lower_goals
from repro.core.emit import Schedule
from repro.isa.spec import ArchSpec
from repro.lang.gma import GMA
from repro.stochastic.cost import CostModel
from repro.stochastic.mutations import Candidate, MutationSpace, gma_literals
from repro.terms.ops import OperatorRegistry
from repro.terms.values import M64
from repro.verify.checker import check_schedule, collect_inputs


# Test vectors each chain's cost model starts with.
TEST_VECTORS = 8
# Trials per full-equivalence oracle call.  The checker's first 13 trials
# are fixed adversarial values, so only ``trials - 13`` are random — 16
# would leave just three random vectors, enough for a subtly wrong
# candidate to slip through.
VERIFY_TRIALS = 48
DISTANCE_WEIGHT = 32  # cost units per wrong output bit
MAX_INSTRS = 24  # candidate length cap (raised to fit long seeds)
RESTART_INTERVAL = 4000  # proposals without improvement
# The geometric temperature schedule, first proposal to last.
T_START = 4.0
T_END = 0.1
SLICE_MOVES = 16  # cancellation/throttle poll granularity


@dataclass
class StochasticConfig:
    """Campaign size; the defaults suit goals of a dozen instructions."""

    chains: int = 4
    moves: int = 20000  # proposals per chain


def chain_seed(session_seed: int, chain: int) -> int:
    """Deterministic per-chain seed (splitmix-style integer mixing)."""
    x = (
        (session_seed & M64) * 0x9E3779B97F4A7C15
        + chain * 0x94D049BB133111EB
        + 0xD6E8FEB86659FD93
    ) & M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & M64
    x ^= x >> 27
    return x


@dataclass
class ChainStats:
    """Per-chain telemetry surfaced in --stats-json / /v1/metrics."""

    chain: int
    seed: int
    proposals: int = 0
    accepted: int = 0
    invalid: int = 0  # proposals rejected as ill-formed
    restarts: int = 0
    oracle_calls: int = 0  # full-equivalence checks
    oracle_passes: int = 0
    counterexamples: int = 0  # oracle failures folded into the vectors
    best_cycles: Optional[int] = None
    # (proposal index, cost) at each improvement of the running best cost.
    trajectory: List[List[int]] = field(default_factory=list)
    moves: Dict[str, int] = field(default_factory=dict)
    cancelled: bool = False
    time_seconds: float = 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0

    def to_dict(self) -> dict:
        return {
            "chain": self.chain,
            "seed": self.seed,
            "proposals": self.proposals,
            "accepted": self.accepted,
            "acceptance_rate": round(self.acceptance_rate, 4),
            "invalid": self.invalid,
            "restarts": self.restarts,
            "oracle_calls": self.oracle_calls,
            "oracle_passes": self.oracle_passes,
            "counterexamples": self.counterexamples,
            "best_cycles": self.best_cycles,
            "trajectory": [list(p) for p in self.trajectory],
            "moves": dict(self.moves),
            "cancelled": self.cancelled,
            "time_seconds": round(self.time_seconds, 6),
        }


@dataclass
class StochasticOutcome:
    """What a multi-chain campaign produced."""

    schedule: Optional[Schedule] = None
    cycles: Optional[int] = None
    verified: bool = False
    winner_chain: Optional[int] = None
    chains: List[ChainStats] = field(default_factory=list)
    time_seconds: float = 0.0
    unsupported: Optional[str] = None  # why the GMA was out of scope
    # True when a chain's winner failed the campaign's final confirmation
    # check (an independent trial set) and was discarded.
    confirm_rejected: bool = False

    @property
    def proposals(self) -> int:
        return sum(c.proposals for c in self.chains)

    def stats_dict(self) -> dict:
        return {
            "chains": [c.to_dict() for c in self.chains],
            "winner_chain": self.winner_chain,
            "verified": self.verified,
            "best_cycles": self.cycles,
            "unsupported": self.unsupported,
            "confirm_rejected": self.confirm_rejected,
            "totals": {
                "chains": len(self.chains),
                "proposals": self.proposals,
                "accepted": sum(c.accepted for c in self.chains),
                "oracle_calls": sum(c.oracle_calls for c in self.chains),
                "oracle_passes": sum(c.oracle_passes for c in self.chains),
                "counterexamples": sum(
                    c.counterexamples for c in self.chains
                ),
                "restarts": sum(c.restarts for c in self.chains),
            },
        }


@dataclass
class _ChainResult:
    schedule: Optional[Schedule]
    cycles: Optional[int]
    stats: ChainStats


def _run_chain(
    model: CostModel,
    space: MutationSpace,
    seed_candidate: Candidate,
    cfg: StochasticConfig,
    chain_index: int,
    rng_seed: int,
    stop_check: Optional[Callable[[], bool]],
    throttle: Optional[Callable[[], None]],
) -> _ChainResult:
    rng = random.Random(rng_seed)
    stats = ChainStats(chain=chain_index, seed=rng_seed)
    start = time.perf_counter()

    cur = seed_candidate
    cur_cost = model.cost(cur)
    best_cost = cur_cost
    stats.trajectory.append([0, best_cost])

    best_schedule: Optional[Schedule] = None
    best_cycles: Optional[int] = None

    # Poll before the chain's expensive warm-up: in a race the SAT side
    # often answers while a chain is still seed-verifying, and the
    # throttle keeps that warm-up off the solver's GIL time.  Without
    # this, every chain pays a full differential check even when the
    # race is already decided.
    if throttle is not None:
        throttle()
    if stop_check is not None and stop_check():
        stats.cancelled = True
        stats.time_seconds = time.perf_counter() - start
        return _ChainResult(None, None, stats)

    # The seed program is correct by construction; realize and verify it
    # up front so the chain always has a fallback answer to beat.
    if model.distance(cur) == 0:
        schedule = model.realize(cur)
        if schedule is not None:
            stats.oracle_calls += 1
            report = model.full_check(schedule)
            if report.passed:
                stats.oracle_passes += 1
                # Cycle counts are clamped to >= 1 so they compare against
                # the SAT ladder's floor (an empty schedule for a constant
                # goal has makespan 0, but no budget below 1 exists).
                best_schedule = schedule
                best_cycles = max(1, schedule.cycles)
            elif report.counterexamples:
                stats.counterexamples += 1
                model.add_vector(report.counterexamples[0].env)
                cur_cost = model.cost(cur)

    span = max(1, cfg.moves - 1)
    ratio = T_END / T_START
    since_improve = 0

    for step in range(cfg.moves):
        if step % SLICE_MOVES == 0:
            if stop_check is not None and stop_check():
                stats.cancelled = True
                break
            if throttle is not None:
                throttle()

        stats.proposals += 1
        proposal = space.propose(cur, rng)
        if proposal is None:
            stats.invalid += 1
            since_improve += 1
            continue
        cand, move = proposal
        stats.moves[move] = stats.moves.get(move, 0) + 1

        dist = model.distance(cand)
        est = model.estimate_cycles(cand)
        cand_cost = (
            dist * model.distance_weight
            + est * model.cycle_weight
            + len(cand.instrs)
        )

        if dist == 0 and (best_cycles is None or est < best_cycles):
            schedule = model.realize(cand)
            if schedule is not None and (
                best_cycles is None
                or max(1, schedule.cycles) < best_cycles
            ):
                stats.oracle_calls += 1
                report = model.full_check(schedule)
                if report.passed:
                    stats.oracle_passes += 1
                    best_schedule = schedule
                    best_cycles = max(1, schedule.cycles)
                elif report.counterexamples:
                    # CEGIS feedback: this wrong answer now costs distance.
                    stats.counterexamples += 1
                    model.add_vector(report.counterexamples[0].env)
                    dist = model.distance(cand)
                    cand_cost = (
                        dist * model.distance_weight
                        + est * model.cycle_weight
                        + len(cand.instrs)
                    )
                    cur_cost = model.cost(cur)

        delta = cand_cost - cur_cost
        temperature = T_START * (ratio ** (step / span))
        if delta <= 0 or rng.random() < math.exp(
            -delta / max(temperature, 1e-9)
        ):
            cur, cur_cost = cand, cand_cost
            stats.accepted += 1

        if cur_cost < best_cost:
            best_cost = cur_cost
            stats.trajectory.append([step + 1, best_cost])
            since_improve = 0
        else:
            since_improve += 1

        if since_improve >= RESTART_INTERVAL:
            cur = seed_candidate
            cur_cost = model.cost(cur)
            stats.restarts += 1
            since_improve = 0

    stats.best_cycles = best_cycles
    stats.time_seconds = time.perf_counter() - start
    return _ChainResult(best_schedule, best_cycles, stats)


def stochastic_search(
    gma: GMA,
    spec: ArchSpec,
    registry: OperatorRegistry,
    definitions: Optional[Dict] = None,
    input_registers: Optional[Dict[str, str]] = None,
    config: Optional[StochasticConfig] = None,
    session_seed: int = 0,
    stop_check: Optional[Callable[[], bool]] = None,
    throttle: Optional[Callable[[], None]] = None,
) -> StochasticOutcome:
    """Run a multi-chain MCMC campaign for one GMA.

    Chains run sequentially (determinism first; the backend's concurrency
    lives at the race level).  The winner is the verified schedule with the
    fewest cycles, ties broken by chain index.
    """
    cfg = config if config is not None else StochasticConfig()
    start = time.perf_counter()
    outcome = StochasticOutcome()

    try:
        instrs, goal_refs = lower_goals(gma, spec, registry, definitions)
    except CompileError as exc:
        outcome.unsupported = "seed lowering failed: %s" % exc
        outcome.time_seconds = time.perf_counter() - start
        return outcome
    seed_candidate = Candidate(list(instrs), list(goal_refs))

    inputs = sorted(collect_inputs(gma))
    if input_registers is None:
        # Bind every GMA input, whether or not a candidate reads it: the
        # checker feeds all inputs, and an unbound name is an execution
        # error even when the winning program eliminated its uses.
        input_registers = {
            name: reg
            for name, reg in zip(inputs, spec.regs.input_registers)
        }

    try:
        base_model = CostModel(
            gma,
            spec,
            registry,
            definitions,
            input_registers,
            vectors=TEST_VECTORS,
            seed=chain_seed(session_seed, -1),
            distance_weight=DISTANCE_WEIGHT,
            verify_trials=VERIFY_TRIALS,
        )
    except ValueError as exc:
        outcome.unsupported = str(exc)
        outcome.time_seconds = time.perf_counter() - start
        return outcome

    pool, hot = gma_literals(gma, spec)
    space = MutationSpace(
        spec,
        registry,
        inputs,
        pool,
        hot_literals=hot,
        max_instrs=max(MAX_INSTRS, len(seed_candidate.instrs) + 4),
    )

    best: Optional[_ChainResult] = None
    for chain in range(cfg.chains):
        if stop_check is not None and stop_check():
            break
        result = _run_chain(
            base_model.fork(),
            space,
            seed_candidate,
            cfg,
            chain,
            chain_seed(session_seed, chain),
            stop_check,
            throttle,
        )
        outcome.chains.append(result.stats)
        if result.schedule is not None and (
            best is None
            or best.cycles is None
            or (result.cycles is not None and result.cycles < best.cycles)
        ):
            best = result
            outcome.winner_chain = result.stats.chain

    if best is not None and best.schedule is not None:
        # Final confirmation at an independent seed.  Each chain's oracle
        # runs against one fixed trial set; a candidate that is wrong only
        # on a thin input slice can survive it by luck.  A second pass
        # with fresh random vectors makes a lucky escape vanishingly
        # unlikely — a winner that fails here is discarded outright.
        confirm = check_schedule(
            gma,
            best.schedule,
            registry,
            trials=VERIFY_TRIALS,
            seed=chain_seed(session_seed, -2),
            definitions=definitions,
        )
        if confirm.passed:
            outcome.schedule = best.schedule
            outcome.cycles = best.cycles
            outcome.verified = True
        else:
            outcome.confirm_rejected = True
    outcome.time_seconds = time.perf_counter() - start
    return outcome
