"""The stochastic MCMC backend racing the exact SAT ladder.

ISSUE 7 adds a second search engine: a STOKE-style Metropolis–Hastings
sampler over straight-line schedules (``repro.stochastic``), and a
``race`` backend that runs it against the SAT ladder — first *verified*
schedule wins and cancels the loser.  The race must be close to free
when SAT is healthy, and must win outright where the ladder cannot
answer at all.

Measured here:

* **race overhead** — median ms/compile for ``backend="sat"`` vs
  ``backend="race"`` on the fig2 + byteswap4 + checksum suite
  (verification ON in both arms; a race only counts a contestant as a
  winner when its schedule verified).  Acceptance: the suite-level
  ratio ``sat / race`` is >= 0.95, i.e. racing costs at most ~5%.
  fig2's per-workload ratio is dominated by a fixed ~1 ms
  thread-spawn cost on a ~2 ms compile, so the gate is the suite
  total, with all per-workload medians reported.
* **beyond-ceiling win** — ``mulchain`` (two dependent ``mulq``) under
  a 6-cycle budget ceiling: every SAT probe is UNSAT, and the race is
  won by a *verified* stochastic schedule whose cycle count the exact
  path could never reach.

The two timing modes are interleaved (one sat sweep then one race sweep
per iteration) so machine-load drift lands on both streams.

Results land in ``benchmarks/out/bench_stochastic.json``; the repo-root
``BENCH_stochastic.json`` summary tracks the trajectory across PRs.
``BENCH_STOCHASTIC_WORKLOADS=fig2.dn`` restricts the run (the CI smoke
job does this); the >= 0.95 suite assertion applies only when the full
suite is measured, and the beyond-ceiling section runs only when
``mulchain.dn`` is selected (it always is by default).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from benchmarks.conftest import output_dir

WORKLOAD_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "workloads"
)
# The race-overhead suite: register-only (fig2, byteswap4 — the sampler
# actually races) plus checksum (memory targets, sampler declares
# itself unsupported and SAT runs unopposed — the gate still covers
# that dispatch overhead).
SUITE = ("fig2.dn", "byteswap4.dn", "checksum.dn")
BEYOND = "mulchain.dn"
WORKLOADS = list(SUITE) + [BEYOND]
REPEATS = {"fig2.dn": 25, "byteswap4.dn": 15, "checksum.dn": 5}

MIN_CYCLES, MAX_CYCLES = 1, 10
MAX_ROUNDS, MAX_ENODES = 8, 2500
BEYOND_MAX_CYCLES = 6  # two dependent mulqs need 14 — every probe UNSAT
SEED = 20020617
SUITE_RATIO_FLOOR = 0.95


def _selected_workloads():
    env = os.environ.get("BENCH_STOCHASTIC_WORKLOADS")
    if not env:
        return list(WORKLOADS)
    return [name.strip() for name in env.split(",") if name.strip()]


def _build(path, backend, max_cycles=MAX_CYCLES, stochastic=None):
    from repro.axioms import (
        AxiomSet,
        alpha_axioms,
        constant_synthesis_axioms,
        math_axioms,
    )
    from repro.core.pipeline import Denali, DenaliConfig
    from repro.core.probes import SearchStrategy
    from repro.isa import ev6
    from repro.lang import parse_program, translate_procedure
    from repro.matching import SaturationConfig
    from repro.stochastic.search import StochasticConfig

    with open(path) as handle:
        prog = parse_program(handle.read())
    axioms = (
        math_axioms(prog.registry)
        + constant_synthesis_axioms(prog.registry)
        + alpha_axioms(prog.registry)
        + AxiomSet(prog.axioms, "program")
    )
    config = DenaliConfig(
        min_cycles=MIN_CYCLES,
        max_cycles=max_cycles,
        strategy=SearchStrategy.LINEAR,
        backend=backend,
        seed=SEED,
        stochastic=(
            stochastic if stochastic is not None else StochasticConfig()
        ),
        saturation=SaturationConfig(
            max_rounds=MAX_ROUNDS, max_enodes=MAX_ENODES
        ),
    )
    den = Denali(
        ev6(), axioms=axioms, registry=prog.registry, config=config
    )
    gmas = []
    for proc in prog.procedures:
        gmas.extend(translate_procedure(proc, prog.registry))
    return den, gmas


def _measure(path, repeats):
    """Median seconds per GMA compile, sat-only vs race, interleaved."""
    den_sat, gmas = _build(path, "sat")
    den_race, _ = _build(path, "race")
    winners = []
    for label, gma in gmas:  # warm: saturation cache, axiom corpus
        r_sat = den_sat.compile_gma(gma, label=label)
        r_race = den_race.compile_gma(gma, label=label)
        assert r_sat.schedule is not None, "%s found no schedule" % label
        assert r_race.schedule is not None, "%s found no schedule" % label
        assert r_sat.verified and r_race.verified, label
        assert r_race.cycles <= r_sat.cycles, (
            "%s: race lost cycles (%s > %s)"
            % (label, r_race.cycles, r_sat.cycles)
        )
        winners.append(r_race.winner)
    t_sat, t_race = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for label, gma in gmas:
            den_sat.compile_gma(gma, label=label)
        t_sat.append((time.perf_counter() - start) / len(gmas))
        start = time.perf_counter()
        for label, gma in gmas:
            den_race.compile_gma(gma, label=label)
        t_race.append((time.perf_counter() - start) / len(gmas))
    return statistics.median(t_sat), statistics.median(t_race), winners


def _measure_beyond():
    """mulchain under a ceiling SAT cannot meet: the sampler must win."""
    from repro.stochastic.search import StochasticConfig

    path = os.path.join(WORKLOAD_DIR, BEYOND)
    den, gmas = _build(
        path,
        "race",
        max_cycles=BEYOND_MAX_CYCLES,
        stochastic=StochasticConfig(chains=2, moves=4000),
    )
    assert len(gmas) == 1
    label, gma = gmas[0]
    start = time.perf_counter()
    result = den.compile_gma(gma, label=label)
    elapsed = time.perf_counter() - start
    stochastic = result.stats.stochastic or {}
    return {
        "workload": BEYOND,
        "max_cycles": BEYOND_MAX_CYCLES,
        "winner": result.winner,
        "cycles": result.cycles,
        "verified": bool(result.verified),
        "sat_found_schedule": result.winner == "sat",
        "proposals": sum(
            c.get("proposals", 0) for c in stochastic.get("chains", [])
        ),
        "time_ms": round(1000 * elapsed, 1),
    }, result


def test_stochastic_race(report):
    selected = _selected_workloads()
    entries = []
    for name in selected:
        if name == BEYOND:
            continue
        path = os.path.join(WORKLOAD_DIR, name)
        repeats = REPEATS.get(name, 5)
        t_sat, t_race, winners = _measure(path, repeats)
        entries.append(
            {
                "workload": name,
                "repeats": repeats,
                "gmas": len(winners),
                "sat_ms_per_compile": round(1000 * t_sat, 3),
                "race_ms_per_compile": round(1000 * t_race, 3),
                "ratio_sat_over_race": round(t_sat / t_race, 3),
                "race_winners": sorted(set(winners)),
            }
        )

    suite = [e for e in entries if e["workload"] in SUITE]
    suite_complete = {e["workload"] for e in suite} == set(SUITE)
    suite_ratio = None
    if suite:
        sat_total = sum(e["sat_ms_per_compile"] for e in suite)
        race_total = sum(e["race_ms_per_compile"] for e in suite)
        suite_ratio = round(sat_total / race_total, 3)

    beyond = None
    if BEYOND in selected:
        beyond, beyond_result = _measure_beyond()

    result = {
        "workloads": selected,
        "strategy": "linear",
        "seed": SEED,
        "min_cycles": MIN_CYCLES,
        "max_cycles": MAX_CYCLES,
        "per_workload": entries,
        "suite": {
            "workloads": list(SUITE),
            "complete": suite_complete,
            "ratio_sat_over_race": suite_ratio,
        },
        "beyond_ceiling": beyond,
    }
    with open(
        os.path.join(output_dir(), "bench_stochastic.json"), "w"
    ) as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")

    # The repo-root summary CI commits so the trajectory is tracked
    # across PRs.  Partial runs (the CI fig2 smoke) merge into the
    # existing file: they refresh the workloads they measured and touch
    # the suite ratio / beyond-ceiling record only when they ran.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    summary_path = os.path.join(root, "BENCH_stochastic.json")
    summary = {
        "bench": "stochastic MCMC backend racing the SAT ladder",
        "suite": {
            "workloads": list(SUITE),
            "complete": False,
            "ratio_sat_over_race": None,
        },
        "median_ms_per_compile": {},
        "beyond_ceiling": None,
    }
    if os.path.exists(summary_path):
        try:
            with open(summary_path) as handle:
                summary.update(json.load(handle))
        except (OSError, ValueError):
            pass
    for e in entries:
        summary["median_ms_per_compile"][e["workload"]] = {
            "sat": e["sat_ms_per_compile"],
            "race": e["race_ms_per_compile"],
            "ratio_sat_over_race": e["ratio_sat_over_race"],
        }
    if suite_complete:
        summary["suite"] = {
            "workloads": list(SUITE),
            "complete": True,
            "ratio_sat_over_race": suite_ratio,
        }
    if beyond is not None:
        summary["beyond_ceiling"] = beyond
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")

    lines = [
        "workload      gmas  sat ms   race ms  ratio   race winners",
    ]
    for e in entries:
        lines.append(
            "%-12s  %4d  %6.1f   %6.1f   %5.3f   %s"
            % (
                e["workload"],
                e["gmas"],
                e["sat_ms_per_compile"],
                e["race_ms_per_compile"],
                e["ratio_sat_over_race"],
                "+".join(e["race_winners"]),
            )
        )
    if suite_ratio is not None:
        lines.append(
            "suite (%s): sat/race ratio %.3f (floor %.2f)"
            % (" + ".join(sorted(e["workload"] for e in suite)),
               suite_ratio, SUITE_RATIO_FLOOR)
        )
    if beyond is not None:
        lines.append(
            "beyond ceiling: %s @ <= %d cycles -> %s wins, %s cycles, "
            "verified=%s, %.0f ms"
            % (
                beyond["workload"],
                beyond["max_cycles"],
                beyond["winner"],
                beyond["cycles"],
                beyond["verified"],
                beyond["time_ms"],
            )
        )
    report("stochastic backend: race overhead + beyond-ceiling win",
           "\n".join(lines))

    if beyond is not None:
        assert beyond["winner"] == "stochastic", beyond
        assert beyond["verified"], beyond
        assert not beyond["sat_found_schedule"], beyond
        assert beyond["cycles"] > BEYOND_MAX_CYCLES, beyond
        assert beyond_result.schedule is not None
    if suite_complete:
        assert suite_ratio >= SUITE_RATIO_FLOOR, (
            "race overhead too high: sat/race ratio %.3f < %.2f"
            % (suite_ratio, SUITE_RATIO_FLOOR)
        )
