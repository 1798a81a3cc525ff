"""The stochastic (MCMC) backend: mutations, cost model, search, races.

Three layers are covered: the proposal kernel's structural invariants,
the cost model's distance/CEGIS behaviour, and the end-to-end backends
(``stochastic`` alone, and ``race`` against the SAT ladder) including
the loser-cancellation latency of :class:`BackendRace`.
"""

import random
import threading
import time

import pytest

from repro import Denali, DenaliConfig, const, ev6, inp, mk
from repro.core.probes import BackendRace, CancelToken, RaceEntry
from repro.lang import parse_program, translate_procedure
from repro.matching import SaturationConfig
from repro.stochastic.backend import StochasticProbe, supports_gma
from repro.stochastic.cost import CostModel
from repro.stochastic.mutations import Candidate, MutationSpace, gma_literals
from repro.stochastic.search import (
    StochasticConfig,
    chain_seed,
    stochastic_search,
)
from repro.verify.checker import check_schedule

FIG2 = "(\\procdecl fig2 ((reg6 long)) long (:= (res (+ (* reg6 4) 1))))"
# A dependent multiply chain: three serial 7-cycle multiplies put the
# best schedule far beyond any small SAT cycle ceiling.
MULCHAIN = (
    "(\\procdecl mulchain ((a long) (b long) (c long)) long"
    "  (:= (res (* (* a b) c))))"
)


def _gma(source):
    program = parse_program(source)
    label, gma = translate_procedure(
        program.procedures[0], program.registry
    )[0]
    return gma, program.registry


def _denali(**config_kwargs):
    defaults = dict(
        min_cycles=1,
        max_cycles=8,
        saturation=SaturationConfig(max_rounds=10, max_enodes=2000),
    )
    defaults.update(config_kwargs)
    return Denali(ev6(), config=DenaliConfig(**defaults))


def _seeded_space_and_model(source, vectors=8):
    from repro.baselines.compiler import lower_goals

    gma, registry = _gma(source)
    den = _denali()
    definitions = den.axioms.definitions()
    instrs, goals = lower_goals(gma, ev6(), registry, definitions)
    seed_cand = Candidate(list(instrs), list(goals))
    from repro.verify.checker import collect_inputs
    from repro.isa.registers import INPUT_REGISTERS

    names = sorted(collect_inputs(gma))
    regs = {n: r for n, r in zip(names, INPUT_REGISTERS)}
    model = CostModel(
        gma, ev6(), registry, definitions, regs, vectors=vectors, seed=7
    )
    pool, hot = gma_literals(gma, ev6())
    space = MutationSpace(ev6(), registry, names, pool, hot_literals=hot)
    return seed_cand, space, model


class TestMutations:
    def test_random_walk_stays_well_formed(self):
        seed_cand, space, _ = _seeded_space_and_model(FIG2)
        assert seed_cand.well_formed()
        rng = random.Random(11)
        cur = seed_cand
        proposed = 0
        for _ in range(600):
            out = space.propose(cur, rng)
            if out is None:
                continue
            cand, move = out
            assert cand.well_formed(), "move %r broke SSA form" % move
            proposed += 1
            cur = cand
        assert proposed > 300  # the kernel mostly produces usable moves

    def test_proposals_do_not_mutate_the_input(self):
        seed_cand, space, _ = _seeded_space_and_model(FIG2)
        fingerprint = seed_cand.key()
        rng = random.Random(3)
        for _ in range(200):
            space.propose(seed_cand, rng)
        assert seed_cand.key() == fingerprint

    def test_literal_pools_are_sorted_and_nested(self):
        gma, _ = _gma(FIG2)
        pool, hot = gma_literals(gma, ev6())
        assert pool == sorted(pool)
        assert hot == sorted(hot)
        assert set(hot) <= set(pool)
        assert 4 in hot  # fig2's own constant
        assert 1 in hot


class TestCostModel:
    def test_seed_program_has_zero_distance(self):
        seed_cand, _, model = _seeded_space_and_model(FIG2)
        assert model.distance(seed_cand) == 0
        assert model.cost(seed_cand) > 0  # cycles + length never vanish

    def test_wrong_program_has_positive_distance(self):
        seed_cand, _, model = _seeded_space_and_model(FIG2)
        wrong = seed_cand.copy()
        from repro.baselines.compiler import Ref, VInstr

        # Retarget the goal to the raw input: drops the *4+1 computation.
        wrong.goals = [Ref("input", name="reg6")]
        assert model.distance(wrong) > 0

    def test_counterexample_feedback_grows_the_vectors(self):
        seed_cand, _, model = _seeded_space_and_model(FIG2, vectors=4)
        before = len(model.vectors)
        model.add_vector({"reg6": 12345})
        assert len(model.vectors) == before + 1
        # The new vector's expected outputs come from the GMA itself.
        env, expected = model.vectors[-1]
        assert env == {"reg6": 12345}
        assert expected == (12345 * 4 + 1,)

    def test_fork_isolates_learned_vectors(self):
        _, _, model = _seeded_space_and_model(FIG2, vectors=4)
        clone = model.fork()
        clone.add_vector({"reg6": 99})
        assert len(clone.vectors) == len(model.vectors) + 1


class TestSupportsGma:
    def test_register_only_gma_is_in_scope(self):
        gma, _ = _gma(FIG2)
        assert supports_gma(gma) is None

    def test_guarded_gma_is_sat_only(self):
        src = (
            "(\\procdecl g ((a long)) long"
            "  (\\unroll 1 (\\do (-> (< a 4) (:= (a (+ a 1)))))))"
        )
        gma, _ = _gma(src)
        assert "guard" in supports_gma(gma)

    def test_memory_gma_is_sat_only(self):
        src = "(\\procdecl m ((p (\\ref long))) long (:= (res (\\deref p))))"
        gma, _ = _gma(src)
        assert supports_gma(gma) is not None


class TestDeterminism:
    def _campaign(self):
        gma, registry = _gma(FIG2)
        den = _denali()
        return stochastic_search(
            gma,
            ev6(),
            registry,
            den.axioms.definitions(),
            config=StochasticConfig(chains=2, moves=800),
            session_seed=20020617,
        )

    @staticmethod
    def _strip_times(obj):
        if isinstance(obj, dict):
            return {
                k: TestDeterminism._strip_times(v)
                for k, v in obj.items()
                if k != "time_seconds"
            }
        if isinstance(obj, list):
            return [TestDeterminism._strip_times(v) for v in obj]
        return obj

    def test_fixed_seed_is_byte_reproducible(self):
        a, b = self._campaign(), self._campaign()
        assert (a.schedule is None) == (b.schedule is None)
        if a.schedule is not None:
            assert a.schedule.render() == b.schedule.render()
        assert a.cycles == b.cycles
        assert self._strip_times(a.stats_dict()) == self._strip_times(
            b.stats_dict()
        )

    def test_chain_seeds_are_distinct_and_stable(self):
        seeds = {chain_seed(42, c) for c in range(16)}
        assert len(seeds) == 16
        assert chain_seed(42, 3) == chain_seed(42, 3)
        assert chain_seed(42, 3) != chain_seed(43, 3)
        # Pinned: a fixed --seed must keep reproducing the same campaign.
        assert chain_seed(42, 3) == 5305262081780164746

    def test_verified_winner_passes_an_independent_check(self):
        gma, registry = _gma(FIG2)
        den = _denali()
        out = self._campaign()
        assert out.schedule is not None and out.verified
        report = check_schedule(
            gma,
            out.schedule,
            registry,
            trials=64,
            seed=0xC0FFEE,
            definitions=den.axioms.definitions(),
        )
        assert report.passed


class TestPipelineBackends:
    def test_stochastic_backend_compiles_fig2(self):
        den = _denali(
            backend="stochastic",
            stochastic=StochasticConfig(chains=2, moves=1200),
        )
        res = den.compile_term(
            mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        )
        assert res.backend == "stochastic"
        assert res.schedule is not None
        assert res.verified
        assert not res.optimal  # sampling proves nothing about the floor
        assert res.stats.stochastic is not None
        assert res.stats.stochastic["totals"]["proposals"] > 0

    def test_race_backend_returns_a_verified_winner(self):
        den = _denali(
            backend="race",
            stochastic=StochasticConfig(chains=1, moves=400),
        )
        res = den.compile_term(
            mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        )
        assert res.backend == "race"
        assert res.schedule is not None
        assert res.verified
        assert res.winner in ("sat", "stochastic")
        assert res.stats.stochastic is not None

    def test_race_solves_beyond_the_sat_ceiling(self):
        # Three chained multiplies need ~15+ cycles; with max_cycles=2
        # the ladder is all-UNSAT, but the race still returns the
        # stochastic contestant's verified schedule.
        gma, registry = _gma(MULCHAIN)
        den = Denali(
            ev6(),
            registry=registry,
            config=DenaliConfig(
                min_cycles=1,
                max_cycles=2,
                backend="race",
                stochastic=StochasticConfig(chains=1, moves=200),
                saturation=SaturationConfig(max_rounds=6, max_enodes=1500),
            ),
        )
        res = den.compile_gma(gma)
        assert res.schedule is not None
        assert res.winner == "stochastic"
        assert res.verified
        assert res.cycles > 2

    def test_unknown_backend_is_rejected(self):
        den = _denali(backend="annealing")
        with pytest.raises(ValueError):
            den.compile_term(inp("a"))

    def test_race_falls_back_to_sat_on_unsupported_gma(self):
        src = "(\\procdecl m ((p (\\ref long))) long (:= (res (\\deref p))))"
        gma, registry = _gma(src)
        den = Denali(
            ev6(),
            registry=registry,
            config=DenaliConfig(
                min_cycles=1,
                max_cycles=6,
                backend="race",
                saturation=SaturationConfig(max_rounds=8, max_enodes=2000),
            ),
        )
        res = den.compile_gma(gma)
        assert res.schedule is not None
        assert res.winner == "sat"
        assert res.stats.stochastic.get("unsupported")


class TestBackendRace:
    def test_slow_third_contestant_is_cancelled_promptly(self):
        """Loser-cancellation latency: a verified winner must not wait
        for a deliberately slow third contestant's full runtime."""

        def fast(token):
            time.sleep(0.02)
            return RaceEntry("fast", verified=True, cycles=3, payload="F")

        def medium(token):
            for _ in range(200):
                if token.is_set():
                    return RaceEntry(
                        "medium", verified=False, cycles=None, cancelled=True
                    )
                time.sleep(0.005)
            return RaceEntry("medium", verified=True, cycles=5, payload="M")

        slow_full_seconds = 10.0

        def slow(token):
            deadline = time.time() + slow_full_seconds
            while time.time() < deadline:
                if token.is_set():
                    return RaceEntry(
                        "slow", verified=False, cycles=None, cancelled=True
                    )
                time.sleep(0.005)
            return RaceEntry(  # pragma: no cover - cancellation failed
                "slow", verified=True, cycles=9, payload="S"
            )

        start = time.perf_counter()
        winner, entries = BackendRace().run(
            [("fast", fast), ("medium", medium), ("slow", slow)]
        )
        elapsed = time.perf_counter() - start
        assert winner == "fast"
        assert entries["fast"].verified
        assert entries["slow"].cancelled
        assert entries["medium"].cancelled
        # Cancellation latency, not the slow contestant's runtime.
        assert elapsed < slow_full_seconds / 4

    def test_unverified_finishers_cancel_nobody(self):
        def loser(token):
            return RaceEntry("loser", verified=False, cycles=None)

        def worker(token):
            time.sleep(0.05)
            assert not token.is_set()
            return RaceEntry("worker", verified=True, cycles=2)

        winner, entries = BackendRace().run(
            [("loser", loser), ("worker", worker)]
        )
        assert winner == "worker"
        assert not entries["loser"].cancelled

    def test_empty_race_returns_nothing(self):
        winner, entries = BackendRace().run([])
        assert winner is None and entries == {}

    def test_stochastic_probe_is_cancellable(self):
        gma, registry = _gma(FIG2)
        den = _denali()
        probe = StochasticProbe(
            gma,
            ev6(),
            registry,
            den.axioms.definitions(),
            config=StochasticConfig(chains=4, moves=200000),
            session_seed=1,
        )
        token = CancelToken()
        box = {}

        def run():
            box["out"] = probe(token)

        thread = threading.Thread(target=run)
        start = time.perf_counter()
        thread.start()
        time.sleep(0.1)
        token.cancel()
        thread.join(timeout=30)
        elapsed = time.perf_counter() - start
        assert not thread.is_alive()
        assert elapsed < 15  # far below 4 x 200k moves of honest work
        out = box["out"]
        assert any(c.cancelled for c in out.chains) or len(out.chains) < 4


class TestCheckerCounterexamples:
    def _fig2_schedule(self):
        den = _denali()
        res = den.compile_term(
            mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))
        )
        assert res.schedule is not None
        return res, den

    def test_wrong_schedule_yields_concrete_counterexample(self):
        res, den = self._fig2_schedule()
        sabotaged = res.schedule
        instr = sabotaged.instructions[0]
        # Break a literal operand so the schedule computes the wrong value.
        from repro.core.emit import Operand

        for i, op in enumerate(instr.operands):
            if op.literal is not None:
                instr.operands[i] = Operand(op.class_id, literal=op.literal + 1)
                break
        report = check_schedule(
            res.gma, sabotaged, definitions=den.axioms.definitions()
        )
        assert not report.passed
        assert report.counterexamples
        cx = report.counterexamples[0]
        assert "reg6" in cx.env
        assert cx.got != cx.want
        assert "trial" in cx.describe()

    def test_counterexample_env_feeds_the_cost_model(self):
        """The CEGIS loop: a checker counterexample becomes a vector the
        cost model scores against, with GMA-derived expected outputs."""
        _, _, model = _seeded_space_and_model(FIG2, vectors=4)
        res, den = self._fig2_schedule()
        report = check_schedule(
            res.gma, res.schedule, definitions=den.axioms.definitions()
        )
        assert report.passed and not report.counterexamples
        model.add_vector({"reg6": 7})
        env, expected = model.vectors[-1]
        assert expected == (7 * 4 + 1,)
