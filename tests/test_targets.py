"""The multi-target layer: registry, rv64 end-to-end, isolation, tiering.

The retargeting refactor's contract, tested from four sides:

* the :mod:`repro.isa.targets` registry resolves names, aliases and
  specs consistently;
* ``rv64`` compiles the paper's workloads to verified, deterministic
  assembly through the full pipeline (its axiom sublayer included);
* nothing leaks across targets — the axiom corpus, the job fingerprint
  and the persistent result store all key on the target;
* tiered axiom scheduling is a pure scheduling change: the saturated
  partition and the emitted bytes are identical with it on or off.
"""

import pytest

from repro import Denali, DenaliConfig, SearchStrategy, const, inp, mk
from repro.isa import (
    ev6,
    get_target,
    resolve_spec,
    rv64,
    target_for_spec,
    target_names,
)
from repro.matching import SaturationConfig


def _config(**kwargs):
    defaults = dict(
        min_cycles=1,
        max_cycles=8,
        strategy=SearchStrategy.BINARY,
        saturation=SaturationConfig(max_rounds=10, max_enodes=2500),
    )
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


FIG2 = mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))


# -- the registry --------------------------------------------------------------


class TestRegistry:
    def test_canonical_names(self):
        names = target_names()
        assert names[0] == "ev6"  # the default stays first
        assert "rv64" in names

    def test_aliases_resolve(self):
        assert get_target("alpha").name == "ev6"
        assert get_target("riscv").name == "rv64"
        assert get_target("alpha-ev6") is get_target("ev6")

    def test_unknown_target_lists_known(self):
        with pytest.raises(KeyError, match="rv64"):
            get_target("z80")

    def test_resolve_spec_forwards_load_latency(self):
        assert resolve_spec("ev6", load_latency=5).latency("select") == 5
        # Targets without a cache model just ignore the knob.
        assert resolve_spec("simple", load_latency=5) is not None

    def test_target_for_spec_round_trips(self):
        assert target_for_spec(ev6()) == "ev6"
        assert target_for_spec(rv64()) == "rv64"

    def test_target_for_spec_adhoc_falls_back_to_spec_name(self):
        import dataclasses

        spec = dataclasses.replace(ev6(), name="bespoke-test-machine")
        assert target_for_spec(spec) == "bespoke-test-machine"


# -- rv64 end to end -----------------------------------------------------------


class TestRV64Pipeline:
    def test_fig2_single_instruction(self):
        res = Denali(rv64(), config=_config()).compile_term(FIG2)
        assert res.cycles == 1
        assert res.optimal
        assert res.verified
        assert res.schedule.instructions[0].mnemonic == "sh2add"

    def test_byte_extract_without_byte_ops(self):
        # extbl is not an rv64 machine op; the sublayer lowers it.
        res = Denali(rv64(), config=_config()).compile_term(
            mk("extbl", inp("w"), const(1))
        )
        assert res.schedule is not None
        assert res.verified
        ops = {i.node.op for i in res.schedule.instructions}
        assert "extbl" not in ops

    def test_byte_surgery_without_byte_ops(self):
        # inswl/mskbl/mskwl/irregular zapnot have no rv64 machine op;
        # the sublayer's shift-and-mask lowerings must reach machine
        # code (seed-0 campaign regression: EncodeError on inswl).
        goals = (
            mk("inswl", inp("w"), const(4)),
            mk("mskbl", inp("w"), const(3)),
            mk("mskwl", inp("w"), const(5)),
            mk("zapnot", inp("w"), const(85)),
        )
        for goal in goals:
            res = Denali(rv64(), config=_config()).compile_term(goal)
            assert res.schedule is not None, goal
            assert res.verified, goal

    def test_checksum_style_goal(self):
        goal = mk(
            "add64",
            mk("and64", inp("a"), const(255)),
            mk("srl", inp("a"), const(8)),
        )
        res = Denali(rv64(), config=_config()).compile_term(goal)
        assert res.schedule is not None
        assert res.verified

    def test_cmov_lowering(self):
        # rv64 has no conditional moves; the sublayer rewrites them.
        res = Denali(rv64(), config=_config()).compile_term(
            mk("cmoveq", inp("p"), inp("a"), inp("b"))
        )
        assert res.schedule is not None
        assert res.verified
        ops = {i.node.op for i in res.schedule.instructions}
        assert "cmoveq" not in ops

    def test_deterministic_across_strategies(self):
        goal = mk("mul64", mk("add64", inp("a"), const(3)), const(8))
        outputs = []
        for strategy in (SearchStrategy.BINARY, SearchStrategy.LINEAR):
            res = Denali(
                rv64(), config=_config(strategy=strategy)
            ).compile_term(goal)
            assert res.schedule is not None
            outputs.append((res.cycles, res.schedule.render()))
        assert outputs[0] == outputs[1]

    def test_deterministic_across_fresh_pipelines(self):
        first = Denali(rv64(), config=_config()).compile_term(FIG2)
        second = Denali(rv64(), config=_config()).compile_term(FIG2)
        assert first.schedule.render() == second.schedule.render()

    def test_rv64_mnemonics_in_rendering(self):
        res = Denali(rv64(), config=_config()).compile_term(
            mk("add64", inp("a"), const(3000))
        )
        text = res.schedule.render()
        assert "li" in text  # 3000 overflows the 12-bit immediate
        assert "ldiq" not in text

    def test_config_target_string_resolves_spec(self):
        den = Denali(config=_config(target="rv64"))
        assert den.spec.name == rv64().name
        assert den.target == "rv64"

    def test_shared_config_is_not_mutated(self):
        # One config reused across targets: each compiler works on its
        # own copy, so rv64's mask alternatives never leak into ev6.
        config = _config()
        riscv = Denali("rv64", config=config)
        alpha = Denali("ev6", config=config)
        assert config == _config()
        assert riscv.config.target == "rv64"
        assert riscv.config.saturation.synthesize_mask_alternatives is True
        assert alpha.config.target == "ev6"
        assert alpha.config.saturation.synthesize_mask_alternatives is False


# -- cross-target isolation ----------------------------------------------------


class TestCorpusIsolation:
    def test_per_target_corpora_differ(self):
        from repro.core.cache import global_axiom_cache
        from repro.terms.ops import default_registry

        registry = default_registry()
        ev6_corpus = global_axiom_cache().default_corpus(registry, "ev6")
        rv64_corpus = global_axiom_cache().default_corpus(registry, "rv64")
        ev6_names = {ax.name for ax in ev6_corpus}
        rv64_names = {ax.name for ax in rv64_corpus}
        assert ev6_names != rv64_names

        from repro.core.cache import axioms_fingerprint

        assert axioms_fingerprint(ev6_corpus) != (
            axioms_fingerprint(rv64_corpus)
        )

    def test_cached_corpora_keyed_by_target(self):
        from repro.core.cache import global_axiom_cache
        from repro.terms.ops import default_registry

        registry = default_registry()
        cache = global_axiom_cache()
        assert cache.default_corpus(registry, "ev6") is cache.default_corpus(
            registry, "ev6"
        )
        assert cache.default_corpus(registry, "ev6") is not (
            cache.default_corpus(registry, "rv64")
        )

    def test_tagged_axioms_filtered(self):
        from repro.axioms import default_axiom_corpus
        from repro.terms.ops import default_registry

        registry = default_registry()
        for name, corpus in (
            ("ev6", default_axiom_corpus(registry, "ev6")),
            ("rv64", default_axiom_corpus(registry, "rv64")),
        ):
            for axiom in corpus:
                assert not axiom.targets or name in axiom.targets, (
                    "%s corpus contains %s tagged %r"
                    % (name, axiom.name, axiom.targets)
                )


class TestStoreIsolation:
    def test_targets_get_distinct_store_entries(self, tmp_path):
        from repro.service import (
            CompilationEngine,
            JobSpec,
            ResultStore,
            job_fingerprint,
        )

        source = "(\\procdecl scale ((a long)) long" \
                 " (:= (\\res (+ (* a 4) 1))))"

        def spec(arch):
            return JobSpec(
                kind="compile", source=source, name="scale.dn", arch=arch,
                strategy="linear", max_cycles=8, max_rounds=8,
                max_enodes=2500,
            )

        assert job_fingerprint(spec("ev6")) != job_fingerprint(spec("rv64"))

        path = str(tmp_path / "store.sqlite")
        first_pass = {}
        engine = CompilationEngine(workers=1, store=ResultStore(path))
        try:
            for arch in ("ev6", "rv64"):
                payload = engine.result(engine.submit(spec(arch)), timeout=120)
                assert payload["ok"], payload
                assert payload["target"] == arch
                first_pass[arch] = payload["units"][0]["assembly"]
        finally:
            engine.shutdown(drain=False)
        assert first_pass["ev6"] != first_pass["rv64"]

        # A fresh engine over the same sqlite file serves both entries
        # from the store, byte-identical.
        rerun = CompilationEngine(workers=1, store=ResultStore(path))
        try:
            for arch in ("ev6", "rv64"):
                job_id = rerun.submit(spec(arch))
                assert rerun.status(job_id)["from_store"] is True
                payload = rerun.result(job_id, timeout=10)
                assert payload["units"][0]["assembly"] == first_pass[arch]
        finally:
            rerun.shutdown(drain=False)


# -- the cross-target oracle ---------------------------------------------------


class TestCrossTargetOracle:
    def test_clean_on_a_simple_program(self):
        from repro.fuzz import OracleOptions, check_case
        from repro.fuzz.oracles import ORACLE_CROSS

        source = "(\\procdecl scale ((a long)) long" \
                 " (:= (\\res (+ (* a 4) 1))))"
        report = check_case(
            source,
            OracleOptions(oracles=(ORACLE_CROSS,), max_cycles=8),
        )
        assert report.passed, [d.detail for d in report.divergences]
        assert report.checks.get(ORACLE_CROSS, 0) >= 1

    def test_narrowing_preserves_target_fields(self):
        from repro.fuzz import OracleOptions
        from repro.fuzz.oracles import ORACLE_ASM

        options = OracleOptions(target="rv64", cross_targets=("rv64",))
        narrowed = options.narrowed_to(ORACLE_ASM)
        assert narrowed.target == "rv64"
        assert narrowed.cross_targets == ("rv64",)
