"""Tests for profile-derived memory-latency annotations (paper section 6).

"the first step is to use profiling tools to determine which memory
accesses miss in the cache.  Having found this information, the programmer
can communicate it to Denali using annotations in the Denali source
program. ... latency annotations are important for performance but not for
correctness: the code generated will be correct even if the annotations
are inaccurate."
"""

import pytest

from repro import (
    Denali,
    DenaliConfig,
    GMA,
    SearchStrategy,
    Sort,
    const,
    ev6,
    inp,
    mk,
    parse_program,
    software_pipeline,
    translate_procedure,
)
from repro.isa.riscv import rv64
from repro.matching import SaturationConfig


def _config(max_cycles=18, miss_latency=12):
    return DenaliConfig(
        min_cycles=1,
        max_cycles=max_cycles,
        strategy=SearchStrategy.BINARY,
        miss_latency=miss_latency,
        saturation=SaturationConfig(max_rounds=6, max_enodes=1000),
    )


def _load_gma(annotate: bool) -> GMA:
    load = mk("select", inp("M", Sort.MEM), inp("p"))
    return GMA(
        ("\\res",),
        (mk("add64", load, const(1)),),
        slow_loads=(load,) if annotate else (),
    )


class TestLatencyAnnotations:
    def test_annotation_lengthens_schedule(self):
        den = Denali(ev6(), config=_config())
        fast = den.compile_gma(_load_gma(annotate=False))
        slow = den.compile_gma(_load_gma(annotate=True))
        assert fast.cycles == 4  # ldq(3) + addq(1)
        assert slow.cycles == 13  # ldq(12) + addq(1)
        assert fast.optimal and slow.optimal

    def test_annotation_does_not_affect_correctness(self):
        """The paper's key point: annotations never change the values."""
        den = Denali(ev6(), config=_config())
        slow = den.compile_gma(_load_gma(annotate=True))
        assert slow.verified

    def test_miss_latency_configurable(self):
        den = Denali(ev6(), config=_config(miss_latency=6))
        slow = den.compile_gma(_load_gma(annotate=True))
        assert slow.cycles == 7

    def test_independent_work_overlaps_the_miss(self):
        """With a long-latency load, independent ALU work hides under it
        instead of extending the schedule."""
        load = mk("select", inp("M", Sort.MEM), inp("p"))
        busy = inp("x")
        for _ in range(4):
            busy = mk("add64", busy, const(1))
        gma = GMA(
            ("r", "s"),
            (mk("add64", load, const(1)), busy),
            slow_loads=(load,),
        )
        den = Denali(ev6(), config=_config())
        result = den.compile_gma(gma)
        assert result.cycles == 13  # the chain hides entirely under the miss
        assert result.verified

    def test_miss_syntax_in_source(self):
        program = parse_program(
            r"""(\procdecl f ((p (\ref long))) long
                 (:= (\res (+ (\miss (\deref p)) 1))))"""
        )
        gmas = dict(translate_procedure(program.procedure("f"), program.registry))
        tail = gmas["f.tail"]
        assert len(tail.slow_loads) == 1
        assert tail.slow_loads[0].op == "select"

    def test_miss_must_wrap_a_load(self):
        from repro.lang.translate import TranslationError

        with pytest.raises(TranslationError):
            parse_program_and_translate(
                r"""(\procdecl f ((a long)) long
                     (:= (\res (\miss (+ a 1)))))"""
            )

    def test_unannotated_loads_unaffected(self):
        """Annotating one load must not slow a different one."""
        m = inp("M", Sort.MEM)
        slow_load = mk("select", m, inp("p"))
        fast_load = mk("select", m, inp("q"))
        gma = GMA(
            ("r", "s"),
            (mk("add64", slow_load, const(1)), mk("add64", fast_load, const(1))),
            slow_loads=(slow_load,),
        )
        den = Denali(ev6(), config=_config())
        result = den.compile_gma(gma)
        assert result.verified
        # Makespan is set by the slow load; the fast chain fits beneath it.
        assert result.cycles == 13

    def test_annotations_survive_software_pipelining(self):
        m = inp("M", Sort.MEM)
        load = mk("select", m, inp("ptr"))
        gma = GMA(
            ("sum", "ptr"),
            (mk("add64", inp("sum"), load), mk("add64", inp("ptr"), const(8))),
            guard=mk("cmpult", inp("ptr"), inp("end")),
            slow_loads=(load,),
        )
        pipelined = software_pipeline(gma)
        assert len(pipelined.gma.slow_loads) == 1
        # The annotation moved to the advanced (next-iteration) load.
        annotated = pipelined.gma.slow_loads[0]
        assert annotated.op == "select"
        assert annotated in set(
            s for v in pipelined.gma.newvals for s in _subs(v)
        )


def _subs(t):
    from repro.terms import subterms

    return set(subterms(t))


def parse_program_and_translate(src):
    program = parse_program(src)
    return translate_procedure(program.procedures[0], program.registry)


class TestLatencyRange:
    """A latency below one cycle is refused by name, not by an encoder
    crash."""

    @pytest.mark.parametrize("miss_latency", [0, -1])
    def test_miss_latency_below_one_is_refused(self, miss_latency):
        with pytest.raises(ValueError, match="miss_latency"):
            Denali(ev6(), config=_config(miss_latency=miss_latency))

    @pytest.mark.parametrize("load_latency", [0, -2])
    @pytest.mark.parametrize("factory", [ev6, rv64])
    def test_load_latency_below_one_is_refused(self, factory, load_latency):
        with pytest.raises(ValueError, match="load_latency"):
            factory(load_latency=load_latency)

    def test_one_cycle_latencies_compile(self):
        den = Denali(ev6(load_latency=1), config=_config(miss_latency=1))
        assert den.compile_gma(_load_gma(annotate=True)).cycles == 2
        assert den.compile_gma(_load_gma(annotate=False)).cycles == 2
