"""Cross-path differential oracles.

One generated program exercises several independent execution paths of
the system, and every pair must agree:

* **asm-vs-eval** — the compiled schedule, executed on the
  :mod:`repro.sim.machine` Alpha model, must compute the same values as
  :mod:`repro.terms.evaluator` on the GMA's right-hand sides;
* **solver-paths** — a fresh :class:`~repro.sat.solver.CdclSolver` on
  the standalone formula of the optimal budget
  (:meth:`~repro.core.pipeline.Denali.reference_encoding`) must decode
  its canonical model to the ladder's bytes, and when an UNSAT probe
  backs optimality the one-shot :func:`~repro.encode.constraints.encode_schedule`
  formula one cycle below must be UNSAT too;
* **strategies** — binary and linear probe scheduling must agree on the
  optimum and the emitted bytes;
* **matching** — the dirty-cone matcher and :class:`FullScanEngine`
  (every round rescans the whole graph) must reach the same fixpoint:
  identical class partition
  (:func:`~repro.egraph.analysis.partition_signature`), identical enode
  count, and the ladder's bytes decoded from the full-scan graph at the
  optimum.  Cases where either engine tripped a saturation budget are
  skipped — a truncated match scan may legitimately stop at a different
  frontier;
* **bruteforce** — on small register-only goals, a Massalin-style
  exhaustive search (:mod:`repro.baselines.bruteforce`) must find a
  program whose outputs match both the evaluator and the compiled
  assembly;
* **stochastic** — any schedule the MCMC backend
  (:mod:`repro.stochastic`) returns must pass the differential checker,
  its claimed cycle count must match the timing referee, and when it
  undercuts a SAT-proved optimum the claim must survive a second,
  differently-seeded verification.  Beating the proof is *legitimate* —
  Denali's optimality is relative to the E-graph's axiom corpus, while
  the sampler composes raw machine ops — so only a false "better"
  (one that fails re-verification) is a divergence;
* **floor** — the encoder's proved cycle floor must never exceed the
  optimum the ladder found, the ladder must never probe below it, and
  when optimality rests on the floor alone (the best budget *is* the
  floor, so no UNSAT probe backs the claim) a fresh solve of the
  one-shot ``encode_schedule`` formula at ``floor - 1`` must come back
  UNSAT;
* **cross-target** — the same GMA compiled for every other registered
  target in ``cross_targets`` must agree with the shared reference
  evaluator (asm-vs-eval per target, which transitively makes the
  targets agree with each other) and satisfy its own machine's timing
  referee.  Cycle counts may differ — the machines do — and a goal one
  ISA can express but another cannot is skipped, not a divergence.

``check_case`` never raises on a bad program: every failure mode —
including a crash inside the pipeline — becomes a :class:`Divergence`
carrying the oracle name, so the shrinker can ask "does this smaller
program still fail the *same* way?".
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.baselines.bruteforce import _execute as brute_execute
from repro.baselines.bruteforce import brute_force_search, goal_from_term
from repro.core.emit import extract_schedule
from repro.core.pipeline import CompilationResult, Denali
from repro.core.probes import SearchStrategy
from repro.egraph.egraph import EGraph
from repro.encode.constraints import encode_schedule
from repro.isa.spec import ArchSpec
from repro.isa.targets import get_target
from repro.lang import parse_program, translate_procedure
from repro.lang.gma import GMA
from repro.matching.saturation import SaturationEngine
from repro.sat.solver import CdclSolver
from repro.sim.machine import execute_schedule
from repro.terms.ops import OperatorRegistry, Sort
from repro.terms.term import subterms
from repro.terms.values import M64
from repro.verify.checker import check_schedule


class OracleError(Exception):
    """Raised on oracle-layer misuse (not on program divergence)."""


# The oracle names, in the order they run.
ORACLE_ASM = "asm-vs-eval"
ORACLE_SOLVER = "solver-paths"
ORACLE_EXTRACTION = "extraction"
ORACLE_STRATEGY = "strategies"
ORACLE_MATCHING = "matching"
ORACLE_BRUTE = "bruteforce"
ORACLE_STOCHASTIC = "stochastic"
ORACLE_FLOOR = "floor"
ORACLE_CROSS = "cross-target"
ORACLE_CRASH = "crash"

ALL_ORACLES = (
    ORACLE_ASM,
    ORACLE_SOLVER,
    ORACLE_EXTRACTION,
    ORACLE_STRATEGY,
    ORACLE_MATCHING,
    ORACLE_BRUTE,
    ORACLE_STOCHASTIC,
    ORACLE_FLOOR,
    ORACLE_CROSS,
)


@dataclass
class OracleOptions:
    """Which oracles to run and how hard to push them."""

    max_cycles: int = 12
    max_rounds: int = 10
    max_enodes: int = 3000
    verify_trials: int = 12
    oracles: Tuple[str, ...] = ALL_ORACLES
    # The target every single-target oracle compiles for, and the set the
    # cross-target oracle sweeps (entries equal to ``target`` are skipped).
    target: str = "ev6"
    cross_targets: Tuple[str, ...] = ("ev6", "rv64")
    # Brute-force eligibility / effort bounds.
    brute_max_ops: int = 3
    brute_max_inputs: int = 2
    brute_max_sequences: int = 200_000
    brute_trials: int = 8
    # Stochastic-oracle campaign size (small: the oracle only asks the
    # sampler for *a* verified answer, not its best one).
    mcmc_chains: int = 2
    mcmc_moves: int = 400

    def wants(self, oracle: str) -> bool:
        return oracle in self.oracles

    def narrowed_to(self, oracle: str) -> "OracleOptions":
        """A copy that runs only ``oracle`` (the shrinker's predicate)."""
        return dataclasses.replace(self, oracles=(oracle,))


@dataclass
class Divergence:
    """One observed disagreement between two paths through the system."""

    oracle: str
    label: str  # the GMA label ("" for whole-program failures)
    detail: str
    source: str = ""
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "label": self.label,
            "detail": self.detail,
            "source": self.source,
            "seed": self.seed,
        }


@dataclass
class CaseReport:
    """Everything ``check_case`` learned about one program."""

    source: str
    divergences: List[Divergence] = field(default_factory=list)
    # oracle name -> number of comparisons actually performed.
    checks: Dict[str, int] = field(default_factory=dict)
    gmas: int = 0
    compiled: int = 0  # GMAs for which the base path found a schedule
    brute_skipped: int = 0  # ineligible or search gave up
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.divergences

    def failing_oracles(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for d in self.divergences:
            if d.oracle not in seen:
                seen.append(d.oracle)
        return tuple(seen)

    def count(self, oracle: str) -> None:
        self.checks[oracle] = self.checks.get(oracle, 0) + 1


# Conflict budget of a reference solve; an exhausted one is inconclusive.
_REFERENCE_CONFLICTS = 200_000


def _denali(
    registry: OperatorRegistry,
    axioms,
    options: OracleOptions,
    strategy: SearchStrategy = SearchStrategy.BINARY,
    extraction: str = "greedy",
    spec: Optional[ArchSpec] = None,
) -> Denali:
    from repro.service.jobs import JobSpec

    request = JobSpec(
        arch=options.target,
        min_cycles=1,
        max_cycles=options.max_cycles,
        strategy=strategy.value,
        verify=False,  # the oracle layer runs its own checks
        extraction=extraction,
        max_rounds=options.max_rounds,
        max_enodes=options.max_enodes,
    )
    return Denali(
        spec if spec is not None else get_target(options.target).spec(),
        axioms=axioms,
        registry=registry,
        config=request.to_config(),
    )


def _compile_path(
    gma: GMA,
    registry: OperatorRegistry,
    axioms,
    options: OracleOptions,
    strategy: SearchStrategy = SearchStrategy.BINARY,
    extraction: str = "greedy",
    label: str = "",
    spec: Optional[ArchSpec] = None,
) -> CompilationResult:
    den = _denali(registry, axioms, options, strategy, extraction, spec)
    return den.compile_gma(gma, label=label)


def _reference_decode(den: Denali, result: CompilationResult):
    """Solve ``result``'s optimal budget afresh and decode the model.

    Returns the schedule, or the solver's verdict (False or None) when
    there is no model.
    """
    encoding = den.reference_encoding(result, result.cycles)
    answer = CdclSolver(conflict_budget=_REFERENCE_CONFLICTS).solve(
        encoding.cnf
    )
    if not answer.satisfiable:
        return answer.satisfiable
    return extract_schedule(
        result.egraph, encoding, answer.model,
        den._default_input_registers(result.gma),
    )


def _reference_is_sat(den: Denali, result: CompilationResult,
                      cycles: int) -> bool:
    """Whether a fresh solve finds ``result``'s one-shot formula at
    ``cycles`` satisfiable (an exhausted conflict budget counts as not).

    The formula comes from :func:`encode_schedule`, which writes its own
    clauses, not from the ladder's :class:`IncrementalEncoder`: a term
    row or block clause the ladder gets wrong is then on one side of the
    comparison only.  Only a verdict is compared, so the two encoders'
    different variable orders do not matter here.
    """
    eg, goals = result.egraph, result.goal_classes
    encoding = encode_schedule(
        eg, den.spec, goals, cycles,
        unsafe_terms=den._unsafe_terms(eg, result.gma, goals),
        latency_overrides=den._latency_overrides(eg, result.gma),
    )
    answer = CdclSolver(conflict_budget=_REFERENCE_CONFLICTS).solve(
        encoding.cnf
    )
    return answer.satisfiable is True


def _outcome_fingerprint(result: CompilationResult) -> Tuple:
    """What two agreeing paths must share: the optimum and the bytes."""
    if result.schedule is None:
        return (None, None)
    return (result.cycles, result.schedule.render())


def _describe_mismatch(base: CompilationResult, other: CompilationResult,
                       what: str) -> str:
    b, o = _outcome_fingerprint(base), _outcome_fingerprint(other)
    if b[0] != o[0]:
        return "%s: cycles %s vs %s" % (what, b[0], o[0])
    return "%s: same cycles (%s) but assembly differs:\n--- base\n%s\n--- %s\n%s" % (
        what, b[0], b[1], what, o[1]
    )


# -- the solver-paths oracle --------------------------------------------------


def _check_solver_paths(
    report: CaseReport,
    den: Denali,
    base: CompilationResult,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """A fresh solver on the reference formula must agree with the ladder."""
    if base.schedule is None:
        return

    def diverge(detail: str) -> None:
        report.divergences.append(Divergence(
            oracle=ORACLE_SOLVER, label=label, seed=seed, source=source,
            detail=detail,
        ))

    reference = _reference_decode(den, base)
    if reference is None:
        return  # conflict budget exhausted: inconclusive
    report.count(ORACLE_SOLVER)
    if reference is False:
        diverge("the ladder found %d cycles, but the reference formula is "
                "UNSAT\n%s" % (base.cycles, base.schedule.render()))
        return
    if reference.render() != base.schedule.render():
        diverge("ladder vs fresh solver: same cycles (%d) but assembly "
                "differs:\n--- ladder\n%s\n--- reference\n%s"
                % (base.cycles, base.schedule.render(), reference.render()))
        return
    if base.search.optimal_by == "unsat" and _reference_is_sat(
        den, base, base.cycles - 1
    ):
        diverge("an UNSAT probe at %d cycles backs the optimum, but the "
                "one-shot formula there is SAT" % (base.cycles - 1))


# -- the matching oracle -------------------------------------------------------


class FullScanEngine(SaturationEngine):
    """The naive matcher: every round rescans the whole E-graph.

    The production engine matches only the dirty cone after round one;
    the ``matching`` oracle holds it to this engine's fixpoint.
    """

    def _fold_constants(self, since):
        super()._fold_constants(None)

    def _instantiate_axioms(self, since):
        return super()._instantiate_axioms(None)


def _check_matching(
    report: CaseReport,
    den: Denali,
    base: CompilationResult,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """Dirty-cone and full-scan saturation must reach the same fixpoint."""
    from repro.egraph.analysis import partition_signature

    runs = []
    for engine in (SaturationEngine, FullScanEngine):
        eg = EGraph()
        goal_ids = [eg.add_term(t) for t in base.gma.goal_terms()]
        stats = engine(
            eg, den.axioms, den.registry, den.config.saturation
        ).run()
        runs.append((eg, [eg.find(g) for g in goal_ids], stats))
    (inc, _ids, inc_stats), (naive, naive_ids, naive_stats) = runs
    # A tripped budget truncates the match scan at a mode-dependent
    # frontier, so the fixpoints may legitimately differ.
    if inc_stats.budget_hits or naive_stats.budget_hits:
        return
    report.count(ORACLE_MATCHING)

    def diverge(detail: str) -> None:
        report.divergences.append(Divergence(
            oracle=ORACLE_MATCHING, label=label, seed=seed, source=source,
            detail=detail,
        ))

    if inc.num_enodes() != naive.num_enodes():
        diverge("incremental vs full-scan saturation: enode counts differ "
                "(%d vs %d)" % (inc.num_enodes(), naive.num_enodes()))
        return
    if partition_signature(inc) != partition_signature(naive):
        diverge("incremental vs full-scan saturation: class partitions "
                "differ (%d vs %d classes)"
                % (inc.num_classes(), naive.num_classes()))
        return
    if base.schedule is None:
        return
    on_naive = dataclasses.replace(base, egraph=naive, goal_classes=naive_ids)
    reference = _reference_decode(den, on_naive)
    if reference is None:
        return
    if reference is False:
        diverge("the full-scan fixpoint has no %d-cycle schedule"
                % base.cycles)
    elif reference.render() != base.schedule.render():
        diverge("incremental vs full-scan matching: same cycles (%d) but "
                "assembly differs:\n--- base\n%s\n--- full scan\n%s"
                % (base.cycles, base.schedule.render(), reference.render()))


# -- the brute-force oracle ----------------------------------------------------


def _brute_eligible(gma: GMA, registry: OperatorRegistry,
                    options: OracleOptions):
    """A (term, input names, op count) triple when the GMA qualifies.

    Brute force reproduces Massalin's restrictions: register-to-register
    only, so memory-touching goals are out, and the enumeration explodes
    with term size, so only small single-target tails qualify.
    """
    if gma.guard is not None or gma.targets != ("\\res",):
        return None
    term = gma.newvals[0]
    names: List[str] = []
    op_nodes = 0
    for sub in subterms(term):
        if sub.is_input:
            if sub.sort != Sort.INT:
                return None
            if sub.name not in names:
                names.append(sub.name)
        elif not sub.is_const:
            if sub.op in ("select", "store", "storeb"):
                return None
            sig = registry.get(sub.op)
            if sig.eval_fn is None:
                return None
            op_nodes += 1
    if op_nodes == 0 or op_nodes > options.brute_max_ops:
        return None
    if len(names) > options.brute_max_inputs:
        return None
    return term, sorted(names), op_nodes


def _check_bruteforce(
    report: CaseReport,
    gma: GMA,
    base: CompilationResult,
    registry: OperatorRegistry,
    options: OracleOptions,
    label: str,
    seed: int,
) -> None:
    eligible = _brute_eligible(gma, registry, options)
    if eligible is None:
        report.brute_skipped += 1
        return
    term, input_names, op_nodes = eligible
    repertoire = sorted(
        {sub.op for sub in subterms(term)
         if not sub.is_input and not sub.is_const}
    )
    immediates = sorted(
        {sub.value & M64 for sub in subterms(term) if sub.is_const}
        | {0, 1, 8}
    )[:8]
    goal = goal_from_term(term, input_names, registry)
    found = brute_force_search(
        goal,
        len(input_names),
        max_length=min(3, op_nodes),
        repertoire=repertoire,
        immediates=immediates,
        tests=16,
        verify_tests=48,
        seed=seed,
        registry=registry,
        max_sequences=options.brute_max_sequences,
    )
    if not found.found:
        # An exhausted enumeration is inconclusive, not a divergence.
        report.brute_skipped += 1
        return
    report.count(ORACLE_BRUTE)
    eval_fns = {op: registry.get(op).eval_fn for op in repertoire}
    rng = random.Random(seed ^ 0xB407E)
    for _ in range(options.brute_trials):
        values = tuple(rng.randrange(1 << 64) for _ in input_names)
        want = goal(values)
        got = brute_execute(found.program, values, eval_fns)
        if got != want:
            report.divergences.append(Divergence(
                oracle=ORACLE_BRUTE, label=label, seed=seed,
                detail="brute program disagrees with evaluator on %s: "
                       "0x%x vs 0x%x\n%s"
                       % (values, got, want, found.render(input_names)),
            ))
            return
        if base.schedule is not None:
            env = dict(zip(input_names, values))
            state = execute_schedule(base.schedule, env, registry)
            operand = base.schedule.goal_operands[0]
            asm_val = (operand.literal if operand.literal is not None
                       else state.read(operand.register))
            if asm_val != want:
                report.divergences.append(Divergence(
                    oracle=ORACLE_BRUTE, label=label, seed=seed,
                    detail="compiled asm disagrees with brute/evaluator on "
                           "%s: 0x%x vs 0x%x" % (values, asm_val, want),
                ))
                return


# -- the stochastic oracle -----------------------------------------------------


def _check_stochastic(
    report: CaseReport,
    gma: GMA,
    base: CompilationResult,
    registry: OperatorRegistry,
    axioms,
    options: OracleOptions,
    label: str,
    seed: int,
    source: str,
    spec: Optional[ArchSpec] = None,
) -> None:
    """The sampler must never report a wrong answer or a false cycle claim.

    Three properties are asserted about whatever schedule a campaign
    returns: it must pass an independent run of the differential checker;
    its claimed cycle count must match the timing simulator's makespan
    (no under-reporting); and when it undercuts a cycle count the SAT
    path proved optimal — which is legitimate, the proof is only optimal
    *relative to the E-graph*, while the sampler explores raw machine-op
    space — the "better" claim must additionally survive a second,
    differently-seeded verification with doubled trials.  A genuinely
    verified improvement is an axiom-corpus gap, not a divergence; only a
    false "better" (or any unverified answer) is.  Campaigns that find
    nothing are inconclusive, not divergences.
    """
    from repro.sim.timing import simulate_timing
    from repro.stochastic.backend import StochasticProbe, supports_gma
    from repro.stochastic.search import StochasticConfig

    if spec is None:
        spec = get_target(options.target).spec()
    if supports_gma(gma) is not None:
        return  # out of the sampler's scope (guards / memory)
    probe = StochasticProbe(
        gma,
        spec,
        registry,
        axioms.definitions(),
        config=StochasticConfig(
            chains=options.mcmc_chains, moves=options.mcmc_moves
        ),
        session_seed=seed,
    )
    outcome = probe()
    if outcome.unsupported is not None or outcome.schedule is None:
        return
    report.count(ORACLE_STOCHASTIC)
    check = check_schedule(
        gma, outcome.schedule, registry,
        trials=options.verify_trials,
        definitions=axioms.definitions(),
    )
    if not check.passed:
        report.divergences.append(Divergence(
            oracle=ORACLE_STOCHASTIC, label=label, seed=seed, source=source,
            detail="stochastic schedule fails the differential checker: %s"
                   % "; ".join(check.failures[:3]),
        ))
        return
    timing = simulate_timing(outcome.schedule, spec)
    claimed = max(1, outcome.schedule.cycles)
    if not timing.ok or outcome.cycles != claimed:
        report.divergences.append(Divergence(
            oracle=ORACLE_STOCHASTIC, label=label, seed=seed, source=source,
            detail="stochastic cycle claim is wrong: reported %s, "
                   "schedule makespan %d, timing referee %s\n%s"
                   % (outcome.cycles, claimed,
                      "ok" if timing.ok else "; ".join(timing.violations[:3]),
                      outcome.schedule.render()),
        ))
        return
    if (
        base.schedule is not None
        and base.optimal
        and outcome.cycles < base.cycles
    ):
        recheck = check_schedule(
            gma, outcome.schedule, registry,
            trials=2 * options.verify_trials,
            seed=(seed or 0) ^ 0x5707C4571C,
            definitions=axioms.definitions(),
        )
        if not recheck.passed:
            report.divergences.append(Divergence(
                oracle=ORACLE_STOCHASTIC, label=label, seed=seed,
                source=source,
                detail="false \"better\": stochastic claims %d cycles vs "
                       "the SAT-proved optimum of %d, but re-verification "
                       "fails: %s\n%s"
                       % (outcome.cycles, base.cycles,
                          "; ".join(recheck.failures[:3]),
                          outcome.schedule.render()),
            ))


# -- the floor oracle ----------------------------------------------------------


def _check_floor(
    report: CaseReport,
    den: Denali,
    base: CompilationResult,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """The cycle floor must be a proof, not a guess.

    A floor above the found optimum, or a probe below the floor, is a
    divergence.  When the optimum equals the floor no UNSAT probe backs
    the optimality claim, so it is re-proved here: a fresh
    :class:`CdclSolver` on the one-shot :func:`encode_schedule` formula
    at ``floor - 1`` must be UNSAT (an exhausted conflict budget is
    inconclusive).
    """
    floor = base.stats.cycle_floor if base.stats else None
    if base.schedule is None or floor is None:
        return
    report.count(ORACLE_FLOOR)

    def diverge(detail: str) -> None:
        report.divergences.append(Divergence(
            oracle=ORACLE_FLOOR, label=label, seed=seed, source=source,
            detail=detail,
        ))

    if floor > base.cycles:
        diverge("cycle floor %d exceeds the schedule's %d cycles\n%s"
                % (floor, base.cycles, base.schedule.render()))
        return
    below = [p.cycles for p in base.search.probes if p.cycles < floor]
    if below:
        diverge("ladder probed %s below the cycle floor %d" % (below, floor))
        return
    if base.stats.optimal_by != "floor" or floor == 1:
        return  # an UNSAT probe backs the claim, or K=0 is vacuous
    if _reference_is_sat(den, base, floor - 1):
        diverge("optimality claimed by the cycle floor %d, but a one-shot "
                "solve at %d cycles is SAT" % (floor, floor - 1))


# -- the cross-target oracle ---------------------------------------------------


def _check_cross_target(
    report: CaseReport,
    gma: GMA,
    base: CompilationResult,
    registry: OperatorRegistry,
    program_axioms,
    options: OracleOptions,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """Every cross target's compile must agree with the shared evaluator.

    The reference evaluator is target-independent, so asm-vs-eval on
    each target transitively proves the targets agree with each other on
    every tested input.  Cycle counts are *not* compared — the machines
    differ — and a GMA only one target can schedule is skipped (ISA
    expressiveness differs legitimately).
    """
    from repro.core import cache as _cache
    from repro.sim.timing import simulate_timing

    home = get_target(options.target).name
    for name in options.cross_targets:
        target = get_target(name)
        if target.name == home:
            continue
        axioms = _cache.global_axiom_cache().default_corpus(
            registry, target.name
        )
        if program_axioms:
            from repro.axioms import AxiomSet

            axioms = axioms + AxiomSet(program_axioms, "program")
        spec = target.spec()
        try:
            other = _compile_path(
                gma, registry, axioms, options, label=label, spec=spec
            )
        except Exception as exc:
            report.divergences.append(Divergence(
                oracle=ORACLE_CROSS, label=label, seed=seed, source=source,
                detail="%s compile crashed: %s: %s"
                       % (target.name, type(exc).__name__, exc),
            ))
            continue
        if base.schedule is None or other.schedule is None:
            continue  # feasibility may differ across ISAs: inconclusive
        report.count(ORACLE_CROSS)
        check = check_schedule(
            gma, other.schedule, registry,
            trials=options.verify_trials,
            definitions=axioms.definitions(),
        )
        if not check.passed:
            report.divergences.append(Divergence(
                oracle=ORACLE_CROSS, label=label, seed=seed, source=source,
                detail="%s assembly disagrees with the reference evaluator "
                       "(which the %s assembly matches): %s\n%s"
                       % (target.name, home,
                          "; ".join(check.failures[:3]),
                          other.schedule.render()),
            ))
            continue
        timing = simulate_timing(other.schedule, spec)
        if not timing.ok:
            report.divergences.append(Divergence(
                oracle=ORACLE_CROSS, label=label, seed=seed, source=source,
                detail="%s schedule violates its own machine model: %s\n%s"
                       % (target.name, "; ".join(timing.violations[:3]),
                          other.schedule.render()),
            ))


# -- the extraction oracle -----------------------------------------------------


def _check_extraction(
    report: CaseReport,
    gma: GMA,
    base: CompilationResult,
    registry: OperatorRegistry,
    axioms,
    options: OracleOptions,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """Exact extraction must be sound, never worse, and deterministic.

    The base (greedy) compile is one arm; two independent
    ``extraction="exact"`` compiles (fresh :class:`Denali` instances, so
    no memo can mask non-determinism) are the other.  Checks: the exact
    schedule verifies against the reference evaluator, keeps the proved
    cycle count, its selected-term cost is <= greedy's and >= the floor
    the refinement claims, and the two exact runs are byte-identical.
    """
    exact = _compile_path(
        gma, registry, axioms, options, extraction="exact", label=label
    )
    exact2 = _compile_path(
        gma, registry, axioms, options, extraction="exact", label=label
    )
    report.count(ORACLE_EXTRACTION)
    if _outcome_fingerprint(exact) != _outcome_fingerprint(exact2):
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail=_describe_mismatch(
                exact, exact2, "exact extraction run 1 vs run 2"
            ),
        ))
        return
    if (exact.schedule is None) != (base.schedule is None):
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail="exact extraction changed feasibility: greedy %s a "
                   "schedule, exact %s one"
                   % ("found" if base.schedule is not None else "lacks",
                      "found" if exact.schedule is not None else "lacks"),
        ))
        return
    if exact.schedule is None:
        return
    if exact.cycles != base.cycles:
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail="exact extraction changed the cycle count: %s vs "
                   "greedy's %s" % (exact.cycles, base.cycles),
        ))
        return
    g_rec = (base.stats.extraction or {}) if base.stats else {}
    x_rec = (exact.stats.extraction or {}) if exact.stats else {}
    g_cost, x_cost = g_rec.get("cost"), x_rec.get("cost")
    if g_cost is None or x_cost is None:
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail="extraction stats missing a cost: greedy %r, exact %r"
                   % (g_rec, x_rec),
        ))
        return
    if x_cost > g_cost:
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail="exact extraction is worse than greedy: cost %d vs %d\n"
                   "--- greedy\n%s\n--- exact\n%s"
                   % (x_cost, g_cost, base.schedule.render(),
                      exact.schedule.render()),
        ))
        return
    if x_rec.get("floor", 0) > x_cost:
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail="exact extraction's %s floor %d exceeds a cost it "
                   "reached, %d\n%s"
                   % (x_rec.get("floor_by"), x_rec["floor"], x_cost,
                      exact.schedule.render()),
        ))
        return
    check = check_schedule(
        gma, exact.schedule, registry,
        trials=options.verify_trials,
        definitions=axioms.definitions(),
    )
    if not check.passed:
        report.divergences.append(Divergence(
            oracle=ORACLE_EXTRACTION, label=label, seed=seed, source=source,
            detail="exact extraction's schedule disagrees with the "
                   "reference evaluator: %s\n%s"
                   % ("; ".join(check.failures[:3]),
                      exact.schedule.render()),
        ))


# -- the entry point -----------------------------------------------------------


def check_case(
    case: Union[str, "object"],
    options: Optional[OracleOptions] = None,
) -> CaseReport:
    """Run every enabled oracle over one program.

    ``case`` is a :class:`~repro.fuzz.generator.FuzzCase` or raw source
    text.  The returned report's ``divergences`` list is empty exactly
    when every path through the system agreed on every GMA.
    """
    options = options if options is not None else OracleOptions()
    seed = getattr(case, "seed", None)
    source = case if isinstance(case, str) else case.source
    report = CaseReport(source=source)
    start = time.perf_counter()
    try:
        _check_case_inner(report, source, options, seed)
    finally:
        report.elapsed_seconds = time.perf_counter() - start
    return report


def _check_case_inner(
    report: CaseReport,
    source: str,
    options: OracleOptions,
    seed: Optional[int],
) -> None:
    try:
        program = parse_program(source)
        if not program.procedures:
            raise OracleError("program has no procedures")
        gmas = []
        for proc in program.procedures:
            gmas.extend(translate_procedure(proc, program.registry))
    except Exception as exc:
        report.divergences.append(Divergence(
            oracle=ORACLE_CRASH, label="", seed=seed, source=source,
            detail="front end rejected the program: %s: %s"
                   % (type(exc).__name__, exc),
        ))
        return
    registry = program.registry
    # One shared axiom corpus per case; built-ins come from the global
    # compiled-axiom cache, so repeated cases only pay for program axioms.
    from repro.axioms import AxiomSet
    from repro.core import cache as _cache

    target = get_target(options.target)
    spec = target.spec()
    axioms = _cache.global_axiom_cache().default_corpus(
        registry, target.name
    )
    if program.axioms:
        axioms = axioms + AxiomSet(program.axioms, "program")

    report.gmas = len(gmas)
    for label, gma in gmas:
        den = _denali(registry, axioms, options, spec=spec)
        try:
            base = den.compile_gma(gma, label=label)
        except Exception as exc:
            report.divergences.append(Divergence(
                oracle=ORACLE_CRASH, label=label, seed=seed, source=source,
                detail="pipeline crashed: %s: %s" % (type(exc).__name__, exc),
            ))
            continue
        if base.schedule is not None:
            report.compiled += 1

        if options.wants(ORACLE_ASM) and base.schedule is not None:
            report.count(ORACLE_ASM)
            check = check_schedule(
                gma, base.schedule, registry,
                trials=options.verify_trials,
                definitions=axioms.definitions(),
            )
            if not check.passed:
                report.divergences.append(Divergence(
                    oracle=ORACLE_ASM, label=label, seed=seed, source=source,
                    detail="assembly disagrees with the reference "
                           "evaluator: %s" % "; ".join(check.failures[:3]),
                ))

        if options.wants(ORACLE_SOLVER):
            try:
                _check_solver_paths(report, den, base, label, seed, source)
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_SOLVER, label=label, seed=seed,
                    source=source,
                    detail="solver-paths oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))

        if options.wants(ORACLE_EXTRACTION):
            try:
                _check_extraction(
                    report, gma, base, registry, axioms, options, label,
                    seed, source,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_EXTRACTION, label=label, seed=seed,
                    source=source,
                    detail="extraction oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))

        if options.wants(ORACLE_STRATEGY):
            try:
                other = _compile_path(
                    gma, registry, axioms, options,
                    strategy=SearchStrategy.LINEAR, label=label, spec=spec,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_STRATEGY, label=label, seed=seed,
                    source=source,
                    detail="linear strategy crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))
            else:
                report.count(ORACLE_STRATEGY)
                if _outcome_fingerprint(base) != _outcome_fingerprint(other):
                    report.divergences.append(Divergence(
                        oracle=ORACLE_STRATEGY, label=label, seed=seed,
                        source=source,
                        detail=_describe_mismatch(
                            base, other, "binary vs linear"
                        ),
                    ))

        if options.wants(ORACLE_MATCHING):
            try:
                _check_matching(report, den, base, label, seed, source)
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_MATCHING, label=label, seed=seed,
                    source=source,
                    detail="matching oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))

        if options.wants(ORACLE_BRUTE):
            try:
                _check_bruteforce(
                    report, gma, base, registry, options, label,
                    seed if seed is not None else 0,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_BRUTE, label=label, seed=seed,
                    source=source,
                    detail="brute-force oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))

        if options.wants(ORACLE_STOCHASTIC):
            try:
                _check_stochastic(
                    report, gma, base, registry, axioms, options, label,
                    seed if seed is not None else 0, source, spec=spec,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_STOCHASTIC, label=label, seed=seed,
                    source=source,
                    detail="stochastic oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))

        if options.wants(ORACLE_FLOOR):
            try:
                _check_floor(report, den, base, label, seed, source)
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_FLOOR, label=label, seed=seed,
                    source=source,
                    detail="floor oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))

        if options.wants(ORACLE_CROSS):
            try:
                _check_cross_target(
                    report, gma, base, registry, program.axioms, options,
                    label, seed, source,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_CROSS, label=label, seed=seed,
                    source=source,
                    detail="cross-target oracle crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))
