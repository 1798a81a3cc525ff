"""E9 — cycle-budget search strategies (paper sections 1.3 and 3).

Paper: "Continuing with binary search, we eventually find, for some K, a
K-cycle program ... together with a proof that K-1 cycles are insufficient.
(Since the costs of the probes are far from constant, binary search might
not be the best strategy, but we have not explored alternatives.)"

We explore the alternatives the authors didn't.  Both strategies start
at the encoder's proved cycle floor (the critical-path bound): binary
gallops up from it and bisects only the last gap, linear escalates one
budget at a time.  Reproduced/established claims: both strategies find
the same optimum with the same optimality proof, and probe costs indeed
vary widely with K — measured per budget on pinned one-budget windows,
since a floor-anchored ladder may need only one or two probes.
"""

from repro import Denali, SearchStrategy, ev6
from repro.util import format_table

from benchmarks.conftest import byteswap_goal, default_config


def _run(strategy, lo=2, hi=9):
    cfg = default_config(min_cycles=lo, max_cycles=hi, strategy=strategy)
    den = Denali(ev6(), config=cfg)
    return den.compile_term(byteswap_goal(4))


def test_search_strategies(report, benchmark):
    binary = _run(SearchStrategy.BINARY)
    linear = _run(SearchStrategy.LINEAR)

    assert binary.cycles == linear.cycles == 5
    assert binary.optimal and linear.optimal

    def total_time(result):
        return sum(p.time_seconds for p in result.search.probes)

    def describe(result):
        return ", ".join(
            "K=%d:%s(%.2fs)"
            % (p.cycles, "S" if p.satisfiable else "U", p.time_seconds)
            for p in result.search.probes
        )

    # Probe costs are "far from constant": solve each budget of the
    # window on its own and compare the solver times.
    pinned = [
        _run(SearchStrategy.LINEAR, lo=k, hi=k).search.probes
        for k in range(binary.stats.cycle_floor, 10)
    ]
    times = [p[0].time_seconds for p in pinned if p and p[0].time_seconds > 0]
    assert len(times) >= 3
    assert max(times) > 2 * min(times)

    benchmark(lambda: _run(SearchStrategy.BINARY).cycles)

    rows = [
        [
            "binary (paper's strategy)",
            str(len(binary.search.probes)),
            "%.2f s" % total_time(binary),
            describe(binary),
        ],
        [
            "linear escalation",
            str(len(linear.search.probes)),
            "%.2f s" % total_time(linear),
            describe(linear),
        ],
    ]
    report(
        "E9 budget-search strategies on byteswap4 (both find 5 cycles, proved)",
        format_table(["strategy", "probes", "total SAT time", "probe detail"], rows),
    )

