"""Every tuning knob, pinned.

The configuration surface is the field names of the compile configs and
the compile verb's options.  A new knob has to edit this file, so it is
a visible decision in review rather than a quiet addition; a setting
nothing varies belongs in a named module constant instead.
"""

from dataclasses import fields

from repro.cli import build_parser
from repro.core.pipeline import DenaliConfig
from repro.encode import EncodingOptions
from repro.matching import SaturationConfig
from repro.service import JobSpec
from repro.stochastic import StochasticConfig


def names(cls):
    return tuple(f.name for f in fields(cls))


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
