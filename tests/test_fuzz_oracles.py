"""Tests for the cross-path oracle layer and the case minimiser."""

import pytest

from repro.fuzz import (
    OracleOptions,
    check_case,
    generate_case,
    shrink_case,
)
from repro.fuzz.oracles import (
    ALL_ORACLES,
    ORACLE_ASM,
    ORACLE_CRASH,
    ORACLE_SOLVER,
    ORACLE_STRATEGY,
)
from repro.terms.evaluator import Evaluator

# Fast seeds with broad feature coverage (straight-line, var, cmov,
# memory, loop); the full sweep lives in the fuzz-smoke CI job.
FAST_SEEDS = (0, 3, 9, 11, 12, 29)


class TestCheckCase:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_generated_cases_pass_every_oracle(self, seed):
        report = check_case(generate_case(seed))
        assert report.passed, report.divergences
        assert report.gmas >= 1
        assert report.compiled == report.gmas
        # Every enabled oracle with an eligible GMA actually compared.
        assert report.checks.get(ORACLE_ASM) == report.compiled
        assert report.checks.get(ORACLE_SOLVER) == report.compiled
        assert report.checks.get(ORACLE_STRATEGY) == 2 * report.compiled

    def test_accepts_raw_source(self):
        report = check_case(
            "(\\procdecl t ((a long)) long (:= (res (+ a 1))))"
        )
        assert report.passed
        assert report.gmas == 1

    def test_front_end_rejection_is_a_crash_divergence(self):
        report = check_case("(\\procdecl broken ((a long)) long")
        assert not report.passed
        assert report.failing_oracles() == (ORACLE_CRASH,)

    def test_narrowed_options_run_one_oracle(self):
        options = OracleOptions().narrowed_to(ORACLE_ASM)
        assert options.oracles == (ORACLE_ASM,)
        report = check_case(generate_case(11), options)
        assert report.passed
        assert set(report.checks) <= {ORACLE_ASM}

    def test_all_oracles_constant(self):
        assert set(ALL_ORACLES) == {
            "asm-vs-eval", "solver-paths", "extraction", "strategies",
            "matching", "bruteforce", "stochastic", "floor", "cross-target",
        }


class TestShrinker:
    def test_shrinks_toward_predicate_core(self):
        """A synthetic predicate: keep any program that still derefs."""
        case = generate_case(179)  # loop + store + var + deref
        assert "\\deref" in case.source

        def still_fails(candidate):
            return "\\deref" in candidate.source

        shrunk = shrink_case(case, still_fails)
        assert "\\deref" in shrunk.source
        assert len(shrunk.source) < len(case.source)

    def test_returns_original_when_nothing_shrinks(self):
        case = generate_case(11)

        def never(candidate):
            return False

        assert shrink_case(case, never).source == case.source

    def test_shrunk_case_still_parses(self):
        from repro.lang import parse_program, translate_procedure

        case = generate_case(223)

        def still_fails(candidate):
            # Any candidate that survives the front end is "failing":
            # drives the shrinker to the smallest translatable program.
            try:
                program = parse_program(candidate.source)
                for proc in program.procedures:
                    translate_procedure(proc, program.registry)
                return True
            except Exception:
                return False

        shrunk = shrink_case(case, still_fails)
        program = parse_program(shrunk.source)
        assert program.procedures
        assert len(shrunk.source_lines()) <= len(case.source_lines())


class TestInjectedBug:
    """The harness's own mutation check, run live.

    An evaluator-only bug (the simulator and the brute-force baseline
    call the registry's ``eval_fn`` directly, so they stay correct) must
    be caught by the asm-vs-eval oracle and auto-minimised to a
    handful of lines.
    """

    def test_evaluator_bug_is_caught_and_minimised(self, monkeypatch):
        real = Evaluator._eval_uncached

        def buggy(self, term):
            value = real(self, term)
            if not term.is_const and not term.is_input and term.op == "xor64":
                value = value ^ 1
            return value

        monkeypatch.setattr(Evaluator, "_eval_uncached", buggy)

        case = generate_case(27)  # tail computes an xor
        assert "(^ " in case.source
        report = check_case(case)
        assert not report.passed
        assert ORACLE_ASM in report.failing_oracles()

        narrowed = OracleOptions().narrowed_to(ORACLE_ASM)

        def still_fails(candidate):
            return ORACLE_ASM in check_case(
                candidate, narrowed
            ).failing_oracles()

        shrunk = shrink_case(case, still_fails)
        assert ORACLE_ASM in check_case(shrunk, narrowed).failing_oracles()
        assert len(shrunk.source_lines()) <= 5
        assert "^" in shrunk.source  # the minimiser kept the culprit

    def test_clean_evaluator_passes_the_same_case(self):
        report = check_case(generate_case(27))
        assert report.passed, report.divergences
