"""Every tuning knob, pinned.

The configuration surface is the field names of the compile configs,
the compile verb's options and the extraction API's keyword parameters.
A new knob has to edit this file, so it is a visible decision in review
rather than a quiet addition; a setting nothing varies belongs in a
named module constant instead.
"""

import inspect
from dataclasses import fields

import repro.sat.solver as solver_module
from repro.cli import build_parser
from repro.core.pipeline import DenaliConfig
from repro.encode import EncodingOptions
from repro.extraction import (
    exact_select,
    greedy_select,
    prune_dominated,
    refine_exact,
)
from repro.matching import SaturationConfig
from repro.sat import CdclSolver
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import _SolverCore
from repro.service import JobSpec
from repro.stochastic import StochasticConfig


def names(cls):
    return tuple(f.name for f in fields(cls))


def keywords(function):
    """The parameters of ``function`` that carry a default."""
    return tuple(
        name
        for name, param in inspect.signature(function).parameters.items()
        if param.default is not inspect.Parameter.empty
    )


def test_denali_config_fields():
    assert names(DenaliConfig) == (
        "target",
        "min_cycles",
        "max_cycles",
        "strategy",
        "saturation",
        "verify",
        "verify_trials",
        "miss_latency",
        "backend",
        "seed",
        "stochastic",
        "extraction",
    )


def test_saturation_config_fields():
    assert names(SaturationConfig) == (
        "max_rounds",
        "max_enodes",
        "fold_constants",
        "synthesize_constants",
        "synthesize_byte_masks",
        "synthesize_mask_alternatives",
    )


def test_stochastic_config_fields():
    assert names(StochasticConfig) == ("chains", "moves")


def test_encoding_options_fields():
    assert names(EncodingOptions) == ("strict_availability",)


def test_job_spec_fields():
    assert names(JobSpec) == (
        "kind",
        "source",
        "name",
        "proc",
        "arch",
        "min_cycles",
        "max_cycles",
        "strategy",
        "max_rounds",
        "max_enodes",
        "verify",
        "load_latency",
        "miss_latency",
        "backend",
        "extraction",
        "seed",
        "mcmc_chains",
        "mcmc_moves",
        "timeout_seconds",
        "seconds",
    )


def test_compile_verb_options():
    options = sorted(
        option
        for action in build_parser()._actions
        for option in action.option_strings
    )
    assert options == [
        "--backend",
        "--dimacs",
        "--extraction",
        "--help",
        "--list-axioms",
        "--load-latency",
        "--max-cycles",
        "--max-enodes",
        "--max-rounds",
        "--mcmc-chains",
        "--mcmc-moves",
        "--min-cycles",
        "--miss-latency",
        "--no-verify",
        "--proc",
        "--quiet",
        "--seed",
        "--stats-json",
        "--strategy",
        "--target",
        "--version",
        "--whole",
        "-h",
    ]


def test_solver_constructor_parameters():
    params = tuple(inspect.signature(CdclSolver.__init__).parameters)
    assert params == ("self", "conflict_budget", "stop_check")


def test_solver_core_tuning_surface():
    # The core keeps every learned clause until budget retirement purges
    # it and never restarts: no reduction, compaction, clause activity or
    # restart schedule, and so no constants to tune them.
    constants = [
        name
        for name in vars(_SolverCore)
        if name.lstrip("_").isupper()
    ]
    assert constants == ["_STOP_CHECK_INTERVAL"]
    for name in ("_reduce_db", "_compact_arena", "_decay_clause_activity"):
        assert not hasattr(_SolverCore, name), name
    assert not hasattr(solver_module, "_luby")


def test_solver_core_has_one_loop_and_one_attach_path():
    # Propagation, assumptions and decisions all live in ``_run``; input
    # clauses attach one way, with no ``trusted`` switch on the
    # single-clause entry points.
    for name in ("_propagate", "_canonical_sweep", "_next_assumption"):
        assert not hasattr(_SolverCore, name), name
    for cls in (_SolverCore, IncrementalSolver):
        params = tuple(inspect.signature(cls.add_clause).parameters)
        assert params == ("self", "lits"), cls


def test_extraction_keyword_parameters():
    # Dominance pruning lives only in the refinement; the exact selector
    # takes no pruning or slack knob.
    assert keywords(exact_select) == (
        "cost",
        "conflict_budget",
        "leaf_classes",
        "viable",
        "operands",
        "upper",
    )
    assert keywords(greedy_select) == (
        "cost",
        "leaf_classes",
        "viable",
        "operands",
    )
    assert keywords(refine_exact) == ("saturation",)
    assert keywords(prune_dominated) == ("slack", "operands")
