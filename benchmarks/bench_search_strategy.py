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

from repro import Denali, SearchStrategy, ev6, global_saturation_cache
from repro.util import format_table

from benchmarks.conftest import byteswap_goal, default_config


def _run(strategy, lo=2, hi=9, **kwargs):
    cfg = default_config(min_cycles=lo, max_cycles=hi, strategy=strategy, **kwargs)
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


def test_portfolio_and_caches(report):
    """E9b — the staged-session machinery vs the paper's plain binary search.

    Compares sequential binary search with every cache disabled (the
    pre-session behaviour) against binary/portfolio with the CNF-prefix
    and saturation caches on.  All configurations must agree on the
    optimum and its proof; the caches and the portfolio's loser
    cancellation only change where the time goes.
    """
    global_saturation_cache().clear()

    baseline = _run(
        SearchStrategy.BINARY,
        enable_saturation_cache=False,
        enable_cnf_prefix_cache=False,
    )
    cached_binary = _run(SearchStrategy.BINARY)
    portfolio = _run(SearchStrategy.PORTFOLIO)
    portfolio_warm = _run(SearchStrategy.PORTFOLIO)

    runs = [
        ("binary, caches off (baseline)", baseline),
        ("binary, caches on", cached_binary),
        ("portfolio, caches on", portfolio),
        ("portfolio, warm saturation cache", portfolio_warm),
    ]
    for _name, result in runs:
        assert result.cycles == baseline.cycles
        assert result.optimal
        assert result.verified
    # The cache-enabled runs share one deterministic encoding, so they
    # agree to the byte.  (The baseline's plain encoder numbers variables
    # differently and may extract a different equally-optimal model.)
    assert portfolio.assembly == cached_binary.assembly
    assert portfolio_warm.assembly == portfolio.assembly

    # The warm run served saturation from the cross-compilation cache.
    assert portfolio_warm.stats.cache["saturation_hits"] == 1
    # The cached binary search rebuilt strictly fewer CNF cycle blocks
    # than it encoded (the shared prefix was reused between probes).
    assert cached_binary.stats.cache["cnf_prefix_cycles_reused"] > 0

    rows = [
        [
            name,
            "%.2f s" % r.elapsed_seconds,
            "%.2f s" % r.stats.timings.get("saturation", 0.0),
            "%.2f s" % r.stats.timings.get("encode", 0.0),
            "%.2f s" % r.stats.timings.get("sat", 0.0),
            "%d/%d" % (
                r.stats.cache["cnf_prefix_cycles_reused"],
                r.stats.cache["cnf_prefix_cycles_built"],
            ),
        ]
        for name, r in runs
    ]
    report(
        "E9b staged sessions on byteswap4 (identical code, %d cycles, proved)"
        % baseline.cycles,
        format_table(
            [
                "configuration",
                "wall clock",
                "saturation",
                "encode",
                "sat",
                "prefix reused/built",
            ],
            rows,
        ),
    )
