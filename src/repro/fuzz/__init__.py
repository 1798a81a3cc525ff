"""Differential fuzzing for the whole compilation pipeline.

The fuzzer closes the loop the paper leaves to inspection: it generates
random well-typed Denali programs (:mod:`repro.fuzz.generator`), runs
each one down several independent paths through the system, and demands
the answers agree (:mod:`repro.fuzz.oracles`):

* emitted assembly, executed on the EV6 simulator, vs the reference
  term evaluator;
* the incremental SAT ladder vs a fresh solver on the same formula,
  byte-for-byte;
* both probe strategies (binary / linear);
* dirty-cone vs full-scan saturation fixpoints;
* brute-force baseline output on small goals.

Failures are delta-debugged to minimal reproducers
(:mod:`repro.fuzz.shrinker`) and persisted to a regression corpus
(:mod:`repro.fuzz.corpus`) that the fast test tier replays forever.
:mod:`repro.fuzz.axiom_check` spot-checks every built-in axiom on random
concrete values, and :mod:`repro.fuzz.driver` ties it all into the
``repro fuzz`` CLI verb.
"""

from repro.fuzz.axiom_check import (
    AxiomCheckReport,
    check_axiom,
    check_axiom_set,
)
from repro.fuzz.corpus import (
    CorpusEntry,
    ReplayReport,
    corpus_dir,
    load_corpus,
    replay_corpus,
    save_case,
)
from repro.fuzz.driver import FuzzConfig, FuzzFailure, FuzzReport, run_fuzz
from repro.fuzz.generator import (
    FuzzCase,
    GeneratorConfig,
    generate_case,
    render_lines,
)
from repro.fuzz.oracles import (
    ALL_ORACLES,
    CaseReport,
    Divergence,
    OracleError,
    OracleOptions,
    check_case,
)
from repro.fuzz.shrinker import shrink_case

__all__ = [
    "ALL_ORACLES",
    "AxiomCheckReport",
    "CaseReport",
    "CorpusEntry",
    "Divergence",
    "FuzzCase",
    "FuzzConfig",
    "FuzzFailure",
    "FuzzReport",
    "GeneratorConfig",
    "OracleError",
    "OracleOptions",
    "ReplayReport",
    "check_axiom",
    "check_axiom_set",
    "check_case",
    "corpus_dir",
    "generate_case",
    "load_corpus",
    "render_lines",
    "replay_corpus",
    "run_fuzz",
    "save_case",
    "shrink_case",
]
