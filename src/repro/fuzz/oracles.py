"""Cross-path differential oracles.

One generated program exercises several independent execution paths of
the system, and every pair must agree:

* **asm-vs-eval** — the compiled schedule, executed on the
  :mod:`repro.sim.machine` Alpha model, must compute the same values as
  :mod:`repro.terms.evaluator` on the GMA's right-hand sides;
* **solver-paths** — the persistent incremental solver and the
  from-scratch per-probe solver must produce byte-identical assembly at
  the same optimal cycle count (PR 3's canonical-model guarantee);
* **strategies** — binary, linear and portfolio probe scheduling must
  agree on the optimum and the emitted bytes;
* **matching** — incremental (dirty-cone) and naive (full-rescan)
  saturation must reach the same fixpoint: identical class partition
  (:func:`~repro.egraph.analysis.partition_signature`), identical enode
  count, and byte-identical assembly.  Cases where either path tripped a
  saturation budget are skipped — a truncated match scan may legitimately
  stop at a different frontier;
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
  floor, so no UNSAT probe backs the claim) an independent from-scratch
  encode-and-solve at ``floor - 1`` must come back UNSAT;
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

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.baselines.bruteforce import _execute as brute_execute
from repro.baselines.bruteforce import brute_force_search, goal_from_term
from repro.core.pipeline import CompilationResult, Denali, DenaliConfig
from repro.core.probes import SearchStrategy
from repro.isa.spec import ArchSpec
from repro.isa.targets import get_target
from repro.lang import parse_program, translate_procedure
from repro.lang.gma import GMA
from repro.matching.saturation import SaturationConfig
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
        return OracleOptions(
            max_cycles=self.max_cycles,
            max_rounds=self.max_rounds,
            max_enodes=self.max_enodes,
            verify_trials=self.verify_trials,
            oracles=(oracle,),
            target=self.target,
            cross_targets=self.cross_targets,
            brute_max_ops=self.brute_max_ops,
            brute_max_inputs=self.brute_max_inputs,
            brute_max_sequences=self.brute_max_sequences,
            brute_trials=self.brute_trials,
            mcmc_chains=self.mcmc_chains,
            mcmc_moves=self.mcmc_moves,
        )


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


def _make_config(
    options: OracleOptions,
    strategy: SearchStrategy,
    incremental: bool,
    incremental_match: bool = True,
    extraction: str = "greedy",
) -> DenaliConfig:
    return DenaliConfig(
        min_cycles=1,
        max_cycles=options.max_cycles,
        strategy=strategy,
        verify=False,  # the oracle layer runs its own checks
        enable_incremental_solver=incremental,
        extraction=extraction,
        saturation=SaturationConfig(
            max_rounds=options.max_rounds,
            max_enodes=options.max_enodes,
            incremental_match=incremental_match,
        ),
    )


def _compile_path(
    gma: GMA,
    registry: OperatorRegistry,
    axioms,
    options: OracleOptions,
    strategy: SearchStrategy = SearchStrategy.BINARY,
    incremental: bool = True,
    incremental_match: bool = True,
    extraction: str = "greedy",
    label: str = "",
    spec: Optional[ArchSpec] = None,
) -> CompilationResult:
    den = Denali(
        spec if spec is not None else get_target(options.target).spec(),
        axioms=axioms,
        registry=registry,
        config=_make_config(
            options, strategy, incremental, incremental_match, extraction
        ),
    )
    return den.compile_gma(gma, label=label)


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


# -- the matching oracle -------------------------------------------------------


def _check_matching(
    report: CaseReport,
    base: CompilationResult,
    naive: CompilationResult,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """Incremental and naive saturation must reach the same fixpoint."""
    from repro.egraph.analysis import partition_signature

    if base.egraph.num_enodes() != naive.egraph.num_enodes():
        report.divergences.append(Divergence(
            oracle=ORACLE_MATCHING, label=label, seed=seed, source=source,
            detail="incremental vs naive saturation: enode counts differ "
                   "(%d vs %d)"
                   % (base.egraph.num_enodes(), naive.egraph.num_enodes()),
        ))
        return
    if partition_signature(base.egraph) != partition_signature(naive.egraph):
        report.divergences.append(Divergence(
            oracle=ORACLE_MATCHING, label=label, seed=seed, source=source,
            detail="incremental vs naive saturation: class partitions "
                   "differ (%d vs %d classes)"
                   % (base.egraph.num_classes(), naive.egraph.num_classes()),
        ))
        return
    if _outcome_fingerprint(base) != _outcome_fingerprint(naive):
        report.divergences.append(Divergence(
            oracle=ORACLE_MATCHING, label=label, seed=seed, source=source,
            detail=_describe_mismatch(
                base, naive, "incremental vs naive matching"
            ),
        ))


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
    gma: GMA,
    base: CompilationResult,
    registry: OperatorRegistry,
    axioms,
    spec: ArchSpec,
    label: str,
    seed: Optional[int],
    source: str,
) -> None:
    """The cycle floor must be a proof, not a guess.

    A floor above the found optimum, or a probe below the floor, is a
    divergence.  When the optimum equals the floor no UNSAT probe backs
    the optimality claim, so it is re-proved here with the reference
    path: a one-shot :func:`encode_schedule` at ``floor - 1`` solved by a
    fresh :class:`CdclSolver` must be UNSAT (an exhausted conflict
    budget is inconclusive).
    """
    from repro.encode.constraints import encode_schedule
    from repro.sat.solver import CdclSolver

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
    den = Denali(spec, axioms=axioms, registry=registry)
    eg = base.egraph
    encoding = encode_schedule(
        eg, spec, base.goal_classes, floor - 1,
        unsafe_terms=den._unsafe_terms(eg, gma, base.goal_classes),
        latency_overrides=den._latency_overrides(eg, gma),
    )
    result = CdclSolver(conflict_budget=200_000).solve(encoding.cnf)
    if result.satisfiable:
        diverge("optimality claimed by the cycle floor %d, but a scratch "
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
        try:
            base = _compile_path(
                gma, registry, axioms, options, label=label, spec=spec
            )
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
                scratch = _compile_path(
                    gma, registry, axioms, options,
                    incremental=False, label=label, spec=spec,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_SOLVER, label=label, seed=seed,
                    source=source,
                    detail="scratch-solver path crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))
            else:
                report.count(ORACLE_SOLVER)
                if _outcome_fingerprint(base) != _outcome_fingerprint(scratch):
                    report.divergences.append(Divergence(
                        oracle=ORACLE_SOLVER, label=label, seed=seed,
                        source=source,
                        detail=_describe_mismatch(
                            base, scratch, "incremental vs scratch"
                        ),
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
            for strategy in (SearchStrategy.LINEAR, SearchStrategy.PORTFOLIO):
                try:
                    other = _compile_path(
                        gma, registry, axioms, options,
                        strategy=strategy, label=label, spec=spec,
                    )
                except Exception as exc:
                    report.divergences.append(Divergence(
                        oracle=ORACLE_STRATEGY, label=label, seed=seed,
                        source=source,
                        detail="%s strategy crashed: %s: %s"
                               % (strategy.value, type(exc).__name__, exc),
                    ))
                    continue
                report.count(ORACLE_STRATEGY)
                if _outcome_fingerprint(base) != _outcome_fingerprint(other):
                    report.divergences.append(Divergence(
                        oracle=ORACLE_STRATEGY, label=label, seed=seed,
                        source=source,
                        detail=_describe_mismatch(
                            base, other, "binary vs %s" % strategy.value
                        ),
                    ))

        if options.wants(ORACLE_MATCHING):
            try:
                naive = _compile_path(
                    gma, registry, axioms, options,
                    incremental_match=False, label=label, spec=spec,
                )
            except Exception as exc:
                report.divergences.append(Divergence(
                    oracle=ORACLE_MATCHING, label=label, seed=seed,
                    source=source,
                    detail="naive-matching path crashed: %s: %s"
                           % (type(exc).__name__, exc),
                ))
            else:
                # A tripped budget truncates the match scan at a
                # mode-dependent frontier, so the fixpoints may
                # legitimately differ; only budget-free runs must agree.
                budget_free = (
                    not base.saturation.budget_hits
                    and not naive.saturation.budget_hits
                )
                if budget_free:
                    report.count(ORACLE_MATCHING)
                    _check_matching(report, base, naive, label, seed, source)

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
                _check_floor(
                    report, gma, base, registry, axioms, spec, label, seed,
                    source,
                )
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
