"""The Denali pipeline (paper Figure 1).

``Denali.compile_gma`` runs: goal terms → E-graph → saturation (matcher +
axioms) → per-budget constraint generation → SAT → extraction, searching
cycle budgets for the least feasible K, and finally differential
verification of the emitted code against the GMA's reference semantics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.axioms.axiom import AxiomSet
from repro.core import cache as _cache
from repro.core.emit import Schedule
from repro.core.probes import SearchOutcome, SearchStrategy
from repro.core.session import CompilationSession, StageStats
from repro.egraph.egraph import EGraph, ENode
from repro.encode.constraints import Encoding, IncrementalEncoder
from repro.isa.spec import ArchSpec
from repro.lang.gma import GMA
from repro.matching.saturation import SaturationConfig, SaturationStats
from repro.stochastic.search import StochasticConfig
from repro.terms.ops import OperatorRegistry, default_registry
from repro.terms.term import Term

# Engines compile_gma can dispatch to: the exact SAT ladder or the MCMC
# sampler.  Each compile runs exactly one of them.
BACKENDS = ("sat", "stochastic")

# How the winning cycle count's schedule is chosen: "greedy" keeps the
# ladder's canonical lex-least decode; "exact" re-enters the incremental
# solver to minimise selected-term cost among the same-cycle schedules.
EXTRACTION_MODES = ("greedy", "exact")


@dataclass
class DenaliConfig:
    """Everything that parameterises one compilation."""

    # Target ISA, resolved through repro.isa.targets when the pipeline is
    # constructed without an explicit ArchSpec; a Denali's own copy is
    # kept in sync with its spec's target, so it can always report it.
    target: str = "ev6"
    min_cycles: int = 1
    max_cycles: int = 12
    strategy: SearchStrategy = SearchStrategy.BINARY
    saturation: SaturationConfig = field(default_factory=SaturationConfig)
    verify: bool = True
    verify_trials: int = 16
    # Latency assumed for loads annotated as likely misses (section 6's
    # profile-derived annotations; the EV6's L2 hit is ~12 cycles).
    miss_latency: int = 12
    # Which engine answers the GMA: "sat" (the exact ladder) or
    # "stochastic" (the MCMC sampler).
    backend: str = "sat"
    # Session-level seed: mixed into the stochastic chains and the
    # verifier's trial generator, so a CLI line reproduces a run exactly.
    seed: int = 0
    stochastic: StochasticConfig = field(default_factory=StochasticConfig)
    # Extraction mode (see EXTRACTION_MODES).
    extraction: str = "greedy"


@dataclass
class CompilationResult:
    """What one ``compile_gma`` call produced."""

    gma: GMA
    schedule: Optional[Schedule]
    cycles: Optional[int]
    optimal: bool
    search: SearchOutcome
    saturation: SaturationStats
    egraph: EGraph
    goal_classes: List[int]
    verified: Optional[bool] = None
    elapsed_seconds: float = 0.0
    # Per-stage telemetry of the session that produced this result.
    stats: Optional[StageStats] = None
    # Which engine ran (see BACKENDS).
    backend: str = "sat"

    @property
    def assembly(self) -> str:
        if self.schedule is None:
            raise ValueError("compilation found no schedule")
        return self.schedule.render()

    def summary(self) -> str:
        if self.schedule is None:
            return "no schedule within budget (floor proved: %d cycles)" % (
                self.search.proved_floor
            )
        return "%d instructions in %d cycles%s" % (
            self.schedule.instruction_count(),
            self.cycles,
            " (optimal)" if self.optimal else "",
        )


@dataclass
class ProcedureResult:
    """A whole compiled procedure: the stitched program plus per-GMA data."""

    name: str
    program: object  # AsmProgram
    results: List[Tuple[str, CompilationResult]]

    @property
    def assembly(self) -> str:
        return self.program.render()

    def all_verified(self) -> bool:
        return all(r.verified for _l, r in self.results)


class Denali:
    """The superoptimizer.

    Args:
        spec: the target architecture description — an :class:`ArchSpec`,
            a target name ("ev6", "rv64", ...), or None to resolve
            ``config.target`` through :mod:`repro.isa.targets`.
        axioms: the axiom set to match with; defaults to the built-in
            corpus filtered for the resolved target (shared mathematical
            core + the target's instruction sublayer).
        registry: the operator registry (programs with ``\\opdecl``
            operators pass their extended registry).
        config: search/saturation/extraction parameters.
    """

    def __init__(
        self,
        spec: Optional[ArchSpec] = None,
        axioms: Optional[AxiomSet] = None,
        registry: Optional[OperatorRegistry] = None,
        config: Optional[DenaliConfig] = None,
    ) -> None:
        from repro.isa.targets import resolve_spec, target_for_spec

        config = config if config is not None else DenaliConfig()
        if config.miss_latency < 1:
            raise ValueError(
                "miss_latency must be >= 1, got %r" % (config.miss_latency,)
            )
        if spec is None:
            spec = resolve_spec(config.target)
        elif isinstance(spec, str):
            spec = resolve_spec(spec)
        self.spec = spec
        self.target = target_for_spec(spec)
        # A private copy (saturation knobs included): the caller's config
        # may be shared with compilers for other targets.
        saturation = replace(config.saturation)
        # Targets without byte-manipulation instructions need the explicit
        # and64 alternatives for mask operations (see SaturationConfig).
        if not spec.is_machine_op("mskbl"):
            saturation.synthesize_mask_alternatives = True
        self.config = replace(
            config, target=self.target, saturation=saturation
        )
        self.registry = registry if registry is not None else default_registry()
        if axioms is None:
            # The built-in corpus compiles to the same patterns for any
            # registry with the same signatures; share it across instances
            # (per target: the rv64 sublayer never warms an ev6 compile).
            axioms = _cache.global_axiom_cache().default_corpus(
                self.registry, self.target
            )
        self.axioms = axioms

    # -- public -------------------------------------------------------------

    def compile_term(self, term: Term, **kwargs) -> CompilationResult:
        """Compile a single expression (an unguarded one-target GMA)."""
        return self.compile_gma(GMA(("\\res",), (term,)), **kwargs)

    def compile_procedure(
        self,
        procedure,
        max_cycles: Optional[int] = None,
    ) -> "ProcedureResult":
        """Translate and superoptimize a whole procedure (section 3).

        Every GMA is compiled against one shared register binding; loop
        bodies are output-bound so their late moves commit the
        loop-carried registers, and the blocks are stitched into a
        complete assembly program with exit branches and the back edge.
        """
        from repro.core.program import assemble_procedure
        from repro.lang.translate import translate_procedure
        from repro.terms.ops import Sort
        from repro.terms.term import subterms

        gmas = translate_procedure(procedure, self.registry)
        input_registers = self.spec.regs.input_registers

        names = set()
        for _label, gma in gmas:
            for goal in gma.goal_terms():
                for sub in subterms(goal):
                    if sub.is_input and sub.sort != Sort.MEM:
                        names.add(sub.name)
            names.update(t for t in gma.targets if t not in ("M", "\\res"))
        if len(names) > len(input_registers):
            raise ValueError("procedure has too many live variables")
        bindings = {n: r for n, r in zip(sorted(names), input_registers)}

        results = []
        compiled = []
        for label, gma in gmas:
            result = self.compile_gma(
                gma,
                input_registers=dict(bindings),
                max_cycles=max_cycles,
                bind_outputs=True,
            )
            if result.schedule is None:
                raise ValueError(
                    "no schedule for %s within the cycle budget" % label
                )
            results.append((label, result))
            compiled.append((label, gma, result.schedule))

        program = assemble_procedure(procedure.name, compiled, self.spec)
        return ProcedureResult(
            name=procedure.name, program=program, results=results
        )

    def compile_gma(
        self,
        gma: GMA,
        input_registers: Optional[Dict[str, str]] = None,
        max_cycles: Optional[int] = None,
        bind_outputs: bool = False,
        label: str = "",
    ) -> CompilationResult:
        """Generate near-optimal code for one GMA (the paper's Figure 1).

        The work runs as a staged :class:`~repro.core.session.CompilationSession`
        (saturation → per-probe encode/sat/extract → verify); its
        per-stage statistics are attached to the result as ``result.stats``.

        ``config.backend`` selects the engine: the exact SAT ladder
        (default) or the stochastic MCMC sampler.
        """
        cfg = self.config
        if cfg.extraction not in EXTRACTION_MODES:
            raise ValueError(
                "unknown extraction mode %r (expected one of %s)"
                % (cfg.extraction, ", ".join(EXTRACTION_MODES))
            )
        if input_registers is None:
            input_registers = self._default_input_registers(gma)
        if cfg.backend == "stochastic":
            return self._compile_stochastic(
                gma, input_registers, bind_outputs, label
            )
        if cfg.backend != "sat":
            raise ValueError(
                "unknown backend %r (expected one of %s)"
                % (cfg.backend, ", ".join(BACKENDS))
            )
        return self._compile_sat(
            gma, input_registers, max_cycles, bind_outputs, label
        )

    # -- the SAT path (the paper's pipeline) ---------------------------------

    def _compile_sat(
        self,
        gma: GMA,
        input_registers: Dict[str, str],
        max_cycles: Optional[int],
        bind_outputs: bool,
        label: str,
    ) -> CompilationResult:
        """Saturate, probe the budget ladder, extract and verify."""
        cfg = self.config
        start = time.perf_counter()
        session = CompilationSession(self, gma, label=label)

        # Phase 1: matching (once per GMA — section 3), restored from a
        # cached snapshot when the identical goals/axioms/config were
        # saturated before.
        eg, goal_ids = session.saturate()

        unsafe = self._unsafe_terms(eg, gma, goal_ids)
        overrides = self._latency_overrides(eg, gma)

        # Phase 2: constraint generation + SAT, per cycle budget, driven by
        # the configured probe scheduler.
        probe = session.make_probe(
            eg, goal_ids, input_registers, unsafe, overrides
        )
        outcome = session.search(
            probe,
            cfg.min_cycles,
            max_cycles if max_cycles is not None else cfg.max_cycles,
        )

        schedule = outcome.best_payload
        # Phase 2b: extraction — record the greedy decode's selected-term
        # cost, or (extraction="exact") re-enter the persistent solver
        # for the cheapest same-cycle schedule.  Runs before output
        # binding so the refined schedule gets its own late moves.
        schedule = session.refine_extraction(
            eg, schedule, outcome.best_cycles, input_registers, overrides
        )
        if schedule is not None and bind_outputs:
            from repro.core import moves

            schedule = moves.bind_outputs(schedule, gma, self.spec)
        result = CompilationResult(
            gma=gma,
            schedule=schedule,
            cycles=outcome.best_cycles,
            optimal=outcome.optimal,
            search=outcome,
            saturation=session.stats.saturation,
            egraph=eg,
            goal_classes=goal_ids,
            elapsed_seconds=time.perf_counter() - start,
            stats=session.stats,
        )

        if schedule is not None and cfg.verify:
            result.verified = session.verify(schedule)

        result.elapsed_seconds = time.perf_counter() - start
        session.finish(result.elapsed_seconds)
        return result

    def reference_encoding(
        self, result: CompilationResult, cycles: int
    ) -> Encoding:
        """Rebuild, standalone, the formula a probe of ``result`` solved.

        A fresh encoder on the result's saturated E-graph and goal
        classes, with this compiler's guard-safety terms and latency
        overrides, builds the cycle blocks of budget ``cycles`` and its
        gated goal suffix; the budget's selector is asserted as a unit
        clause where the ladder assumed it.  The variable order is the
        ladder's, so a fresh solver's canonical model decodes to the
        same bytes.  Only ``--dimacs`` and the
        differential oracles call this; compilation never does.
        """
        eg, goals = result.egraph, result.goal_classes
        encoder = IncrementalEncoder(
            eg,
            self.spec,
            goals,
            self._unsafe_terms(eg, result.gma, goals),
            self._latency_overrides(eg, result.gma),
        )
        encoder.ensure_budget(cycles)
        encoding = encoder.decode_view(cycles)
        encoding.cnf.num_vars = encoder.master.num_vars
        encoding.cnf.clauses = (
            encoder.master.clauses
            + encoder.budget_clauses(cycles)
            + [[encoder.selector(cycles)]]
        )
        return encoding

    # -- the stochastic path --------------------------------------------------

    def _compile_stochastic(
        self,
        gma: GMA,
        input_registers: Dict[str, str],
        bind_outputs: bool,
        label: str,
    ) -> CompilationResult:
        """MCMC only: no E-graph, no CNF — sample, realize, verify."""
        from repro.stochastic.backend import StochasticProbe

        cfg = self.config
        start = time.perf_counter()
        session = CompilationSession(self, gma, label=label)
        stats = session.stats
        stats.strategy = "stochastic"
        stats.backend = "stochastic"

        probe = StochasticProbe(
            gma,
            self.spec,
            self.registry,
            self.axioms.definitions(),
            input_registers,
            cfg.stochastic,
            session_seed=cfg.seed,
        )
        outcome = probe()
        record = probe.probe_record()
        stats.probes = [record]
        stats.stochastic = outcome.stats_dict()
        stats.add_time("stochastic", outcome.time_seconds)
        stats.best_cycles = outcome.cycles
        stats.optimal = False

        schedule = outcome.schedule
        if schedule is not None and bind_outputs:
            from repro.core import moves

            schedule = moves.bind_outputs(schedule, gma, self.spec)
        result = CompilationResult(
            gma=gma,
            schedule=schedule,
            cycles=outcome.cycles,
            optimal=False,
            search=SearchOutcome(
                best_cycles=outcome.cycles,
                best_payload=schedule,
                proved_floor=0,
                probes=[record],
            ),
            saturation=SaturationStats(),
            egraph=EGraph(),
            goal_classes=[],
            stats=stats,
            backend="stochastic",
        )
        if schedule is not None and cfg.verify:
            result.verified = session.verify(schedule)
        result.elapsed_seconds = time.perf_counter() - start
        session.finish(result.elapsed_seconds)
        return result

    # -- helpers -------------------------------------------------------------

    def _default_input_registers(self, gma: GMA) -> Dict[str, str]:
        """Bind register inputs (and register targets) in name order.

        Targets get bindings too even when the right-hand sides never read
        them — output binding (:func:`repro.core.moves.bind_outputs`) needs
        a home register for every target.  Registers follow the target's
        calling convention (``spec.regs``).
        """
        from repro.terms.ops import Sort
        from repro.terms.term import subterms

        names = {
            sub.name
            for goal in gma.goal_terms()
            for sub in subterms(goal)
            if sub.is_input and sub.sort != Sort.MEM
        }
        names.update(
            t for t in gma.targets if t not in ("M", "\\res")
        )
        return {
            name: reg
            for name, reg in zip(sorted(names), self.spec.regs.input_registers)
        }

    def _latency_overrides(
        self, eg: EGraph, gma: GMA
    ) -> Optional[Dict[ENode, int]]:
        """Raise the latency of every load equivalent to an annotated one.

        The override applies to the whole equivalence class: equality
        reasoning may give the scheduler a different-but-equal load node,
        and it would miss in the cache just the same.
        """
        if not gma.slow_loads:
            return None
        overrides: Dict[ENode, int] = {}
        for term in gma.slow_loads:
            cid = eg.add_term(term)
            for node in eg.enodes(cid):
                if node.op == "select":
                    overrides[node] = self.config.miss_latency
        return overrides or None

    def _unsafe_terms(
        self, eg: EGraph, gma: GMA, goal_ids: Sequence[int]
    ) -> Optional[Dict[ENode, int]]:
        """Memory accesses that must wait for the guard (section 7).

        When the GMA is guarded, its memory reads and writes are unsafe to
        perform if the guard is false; they are constrained to launch only
        after the guard's value is available.  Terms the guard itself
        depends on are exempt (the guard must be computable first).
        """
        if gma.guard is None:
            return None
        guard_id = eg.find(eg.add_term(gma.guard))
        guard_support = set()
        stack = [guard_id]
        while stack:
            cid = stack.pop()
            if cid in guard_support:
                continue
            guard_support.add(cid)
            for node in eg.enodes(cid):
                for a in node.args:
                    stack.append(eg.find(a))
        unsafe: Dict[ENode, int] = {}
        for node, cid in eg.all_nodes():
            if node.op in ("select", "store") and cid not in guard_support:
                unsafe[node] = guard_id
        return unsafe or None
