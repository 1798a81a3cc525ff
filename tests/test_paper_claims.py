"""The paper's checkable claims, E1–E12 (see EXPERIMENTS.md).

One test per experiment.  Each asserts what the paper claims, or the
shape of it where our substrate differs (pure Python, a from-scratch
CDCL solver, an EV6 timing model).  The paper-vs-measured tables print
under ``-s``:

    PYTHONPATH=src python -m pytest -m slow tests/test_paper_claims.py -s

E11's byte-op-free mnemonic claim is held by
``tests/test_itanium.py::TestRetargetedCompilation::test_byteswap2_compiles_to_shift_and_mask``.
"""

from __future__ import annotations

import pytest

from repro import (
    GMA,
    AxiomSet,
    Denali,
    DenaliConfig,
    EGraph,
    SearchStrategy,
    Sort,
    const,
    default_registry,
    ev6,
    inp,
    mk,
    parse_axiom_file,
    parse_program,
    software_pipeline,
    translate_procedure,
)
from repro.axioms import alpha_axioms, constant_synthesis_axioms, math_axioms
from repro.axioms.axiom import AxiomClause
from repro.baselines import brute_force_search, compile_conventional
from repro.baselines.bruteforce import goal_from_term
from repro.egraph.analysis import count_ways
from repro.encode import EncodeError, EncodingOptions, encode_schedule
from repro.matching import SaturationConfig, saturate
from repro.sat import CdclSolver
from repro.sim import execute_schedule, simulate_timing
from repro.util import format_table
from tests.machines import itanium_like, simple_risc

pytestmark = pytest.mark.slow


def byteswap_goal(n: int):
    """r<i> := a<n-1-i>, the Figure 3 byte swap as a term."""
    a = inp("a")
    r = const(0)
    for i in range(n):
        r = mk("storeb", r, const(i), mk("selectb", a, const(n - 1 - i)))
    return r


def default_config(max_cycles: int = 8, **kwargs) -> DenaliConfig:
    defaults = dict(
        min_cycles=2,
        max_cycles=max_cycles,
        strategy=SearchStrategy.LINEAR,
        saturation=SaturationConfig(max_rounds=16, max_enodes=6000),
    )
    defaults.update(kwargs)
    return DenaliConfig(**defaults)


def report(title: str, body: str) -> None:
    print()
    print("### %s" % title)
    print(body)


# -- E1 ------------------------------------------------------------------------


def test_e1_byteswap4_five_cycles():
    """E1 — byteswap4 (section 8, Figures 3 and 4).

    Paper: "The 5-cycle EV6 code generated is shown in Figure 4. ... To
    the best of our knowledge, this five cycle program is optimal", with
    "less than 0.3 seconds" of a minute's compile spent in the SAT solver.
    Claim: 5 cycles, K=4 refuted, verified, and the 5-cycle formula is
    satisfiable for a fresh one-shot solver.
    """
    den = Denali(ev6(), config=default_config(max_cycles=7, min_cycles=4))
    result = den.compile_term(byteswap_goal(4))
    assert result.cycles == 5
    assert result.optimal  # K=4 refuted
    assert result.verified
    assert simulate_timing(result.schedule, ev6()).ok

    sat_time = sum(p.time_seconds for p in result.search.probes)

    enc = encode_schedule(result.egraph, ev6(), result.goal_classes, 5)
    assert CdclSolver().solve(enc.cnf).satisfiable is True

    rows = [
        ["cycles of generated code", "5", str(result.cycles)],
        ["4-cycle budget refuted (optimal)", "yes", "yes" if result.optimal else "no"],
        ["instructions emitted", "8 (+1 unused)", str(result.schedule.instruction_count())],
        ["independently verified", "correct by design", "yes" if result.verified else "NO"],
        ["total compile time", "~60 s (667MHz Alpha, C/Java)", "%.1f s (Python)" % result.elapsed_seconds],
        ["SAT share of compile time", "< 0.3 s / ~60 s", "%.2f s / %.1f s" % (sat_time, result.elapsed_seconds)],
    ]
    report(
        "E1 byteswap4 (paper Fig. 3/4)",
        format_table(["quantity", "paper", "measured"], rows)
        + "\n\n"
        + result.schedule.render_quad(ev6(), label="byteswap4"),
    )


# -- E2 ------------------------------------------------------------------------


def test_e2_sat_problem_sizes():
    """E2 — SAT problem size over the cycle budget (section 8).

    Paper: "The sizes of the four SAT problems solved for this example
    range from 1639 variables and 4613 clauses for the 4-cycle refutation
    to 9203 variables and 26415 clauses for the 8-cycle solution."
    Claim: variables and clauses grow monotonically and roughly linearly
    in K over the byteswap4 E-graph (absolute sizes differ: our encoding
    details are not the prototype's).
    """
    reg = default_registry()
    axioms = math_axioms(reg) + constant_synthesis_axioms(reg) + alpha_axioms(reg)
    eg = EGraph()
    goal = eg.add_term(byteswap_goal(4))
    saturate(eg, axioms, reg, default_config().saturation)

    sizes = {}
    for k in range(4, 9):
        enc = encode_schedule(eg, ev6(), [goal], k)
        sizes[k] = enc.cnf.stats()

    for k in range(4, 8):
        assert sizes[k]["vars"] < sizes[k + 1]["vars"]
        assert sizes[k]["clauses"] < sizes[k + 1]["clauses"]
    ratio = sizes[8]["vars"] / sizes[4]["vars"]
    assert 1.5 < ratio < 4.0  # paper's ratio: 9203/1639 = 5.6x over 4..8;
    # ours is closer to 2x because our availability variables are
    # per-cluster and the per-unit launch variables dominate earlier.

    paper = {4: (1639, 4613), 8: (9203, 26415)}
    rows = []
    for k in range(4, 9):
        pv, pc = paper.get(k, ("-", "-"))
        rows.append(
            [
                "K=%d" % k,
                "%s vars / %s clauses" % (pv, pc),
                "%d vars / %d clauses" % (sizes[k]["vars"], sizes[k]["clauses"]),
            ]
        )
    report(
        "E2 SAT problem sizes over cycle budgets (byteswap4)",
        format_table(["budget", "paper", "measured"], rows),
    )


# -- E3 ------------------------------------------------------------------------


def helpful_source(n: int):
    """The shift-and-or idiom the paper fed the C compiler."""
    a = inp("a")
    parts = []
    for i in range(n):
        byte = mk("and64", mk("srl", a, const(8 * i)), const(0xFF))
        parts.append(mk("sll", byte, const(8 * (n - 1 - i))))
    out = parts[0]
    for p in parts[1:]:
        out = mk("bis", out, p)
    return out


def _e3_denali(n: int):
    den = Denali(ev6(), config=default_config(max_cycles=6 + n // 4, min_cycles=3))
    return den.compile_term(byteswap_goal(n))


def _e3_conventional(n: int):
    sched = compile_conventional(GMA(("\\res",), (helpful_source(n),)), ev6())
    assert simulate_timing(sched, ev6()).ok
    return sched


def test_e3_byteswap_vs_compiler():
    """E3 — Denali vs. the production compiler (section 8).

    Paper: the C compiler, given "-fast -arch ev6" and helpful input,
    ties Denali's 5 cycles on byteswap4; "For the 5-byte swap problem,
    Denali does one cycle better than the C compiler."  Claim (shape):
    the conventional compiler fed the helpful shift-and-mask source never
    beats Denali, both codes compute the same function, and Denali is
    strictly faster on byteswap5.
    """
    rows = []
    paper_rows = {4: "tie at 5 cycles", 5: "Denali wins by 1 cycle"}
    outputs_agree = True
    margins = {}
    for n in (4, 5):
        denali = _e3_denali(n)
        conventional = _e3_conventional(n)
        assert denali.verified
        assert denali.cycles <= conventional.cycles
        margins[n] = conventional.cycles - denali.cycles

        # Both codes compute the same function (spot-check on the simulator).
        for a in (0x0102030405060708, 0xDEADBEEFCAFEF00D, 0, (1 << 64) - 1):
            s1 = execute_schedule(denali.schedule, {"a": a})
            s2 = execute_schedule(conventional, {"a": a})
            v1 = s1.read(denali.schedule.goal_operands[0].register)
            v2 = s2.read(conventional.goal_operands[0].register)
            outputs_agree = outputs_agree and (v1 == v2)

        rows.append(
            [
                "byteswap%d" % n,
                paper_rows[n],
                "Denali %d cyc vs conventional %d cyc"
                % (denali.cycles, conventional.cycles),
            ]
        )
    assert outputs_agree
    assert margins[5] >= 1  # Denali strictly wins on byteswap5

    report(
        "E3 Denali vs. conventional compiler (byteswap4/5, helpful source)",
        format_table(["problem", "paper", "measured"], rows),
    )


# -- E4 ------------------------------------------------------------------------

REPERTOIRE = ["add64", "sub64", "and64", "bis", "xor64", "not64", "sll", "srl"]

# Goals of increasing optimal length over the restricted repertoire.
BRUTE_FORCE_GOALS = [
    ("a+1", mk("add64", inp("a"), const(1)), 1),
    ("-a", mk("sub64", const(0), inp("a")), 2),
    ("(a|1)^(a>>1)", mk("xor64", mk("bis", inp("a"), const(1)),
                        mk("srl", inp("a"), const(1))), 3),
]


def test_e4_bruteforce_explosion():
    """E4 — brute-force enumeration vs. goal-directed search (1.1, 8).

    Paper: "Brute-force enumeration of all code sequences is glacially
    slow ... limited to sequences of around half-a-dozen instructions."
    Claim: the enumerated space explodes geometrically with program
    length, while Denali solves the same goals, and the 10-instruction
    byteswap4, by goal-directed search.
    """
    rows = []
    # The solvable goals are all found (and at their known optimal length).
    for name, term, expected_len in BRUTE_FORCE_GOALS:
        goal = goal_from_term(term, ["a"])
        res = brute_force_search(
            goal,
            1,
            max_length=expected_len,
            repertoire=REPERTOIRE,
            immediates=(0, 1),
        )
        assert res.found, name
        assert res.length == expected_len
        rows.append(
            [
                name,
                str(expected_len),
                "%d (stops at first hit)" % res.sequences_tested,
                "%.2f s" % res.time_seconds,
            ]
        )

    # The explosion itself: exhaust each length for a goal that is NOT in
    # the search space (umulh is excluded from the repertoire), so the
    # enumeration runs to completion.
    unreachable = goal_from_term(mk("umulh", inp("a"), inp("a")), ["a"])
    tested_counts = []
    for length in (1, 2, 3):
        res = brute_force_search(
            unreachable,
            1,
            max_length=length,
            repertoire=REPERTOIRE,
            immediates=(0, 1),
            max_sequences=400_000,
        )
        assert not res.found
        tested_counts.append(res.sequences_tested)
        rows.append(
            [
                "exhaust length %d (unreachable goal)" % length,
                "-",
                "%d sequences" % res.sequences_tested,
                "%.2f s" % res.time_seconds,
            ]
        )
    # Geometric explosion: each extra instruction multiplies the space.
    assert tested_counts[1] > tested_counts[0] * 20
    assert tested_counts[2] > tested_counts[1] * 10

    # Denali solves the longest goal too — by search, not enumeration.
    den = Denali(simple_risc(), config=default_config(min_cycles=1, max_cycles=5))
    denali_res = den.compile_term(BRUTE_FORCE_GOALS[2][1])
    assert denali_res.verified

    # And a goal far beyond brute force's reach: byteswap4 (10 instructions
    # on the EV6) — the paper could not get the GNU superoptimizer past
    # five-instruction sequences.
    den6 = Denali(ev6(), config=default_config(min_cycles=4, max_cycles=6))
    bs = den6.compile_term(byteswap_goal(4))
    assert bs.verified
    assert bs.schedule.instruction_count() >= 8

    rows.append(
        [
            "byteswap4 (Denali, goal-directed)",
            "%d instrs" % bs.schedule.instruction_count(),
            "n/a (no enumeration)",
            "%.1f s" % bs.elapsed_seconds,
        ]
    )
    report(
        "E4 brute force (Massalin/GNU-superopt style) vs. goal-directed search",
        format_table(
            ["goal", "program length", "sequences enumerated", "time"], rows
        )
        + "\npaper: brute force limited to ~6 instructions; "
        "Denali reached 31 instructions (checksum).",
    )


# -- E5 ------------------------------------------------------------------------

CHECKSUM_SOURCE = r"""
(\opdecl carry (long long) long)
(\axiom (forall (a b) (pats (carry a b))
    (eq (carry a b) (\cmpult (\add64 a b) a))))
(\axiom (forall (a b) (pats (carry a b))
    (eq (carry a b) (\cmpult (\add64 a b) b))))
(\opdecl add (long long) long)
(\axiom (forall (a b c) (pats (add a (add b c)))
    (eq (add a (add b c)) (add (add a b) c))))
(\axiom (forall (a b c) (pats (add (add a b) c))
    (eq (add a (add b c)) (add (add a b) c))))
(\axiom (forall (a b) (pats (add a b))
    (eq (add a b) (add b a))))
(\axiom (forall (a b) (pats (add a b))
    (eq (add a b) (\add64 (\add64 a b) (carry a b)))))

(\procdecl checksum ((ptr (\ref long)) (ptrend (\ref long))) short
  (\var (sum long 0)
  (\var (v1 long (\deref ptr))
  (\semi
    (\unroll 2 (\do (-> (< ptr ptrend)
      (\semi
        (:= (sum (add sum v1)))
        (:= (ptr (+ ptr 8)))
        (:= (v1 (\deref ptr)))))))
    (:= (sum (+ (\selectw sum 0)
                (+ (\selectw sum 1)
                   (+ (\selectw sum 2) (\selectw sum 3))))))
    (:= (sum (+ (\selectw sum 0) (\selectw sum 1))))
    (:= (\res (\cast short sum)))))))
"""


def _compile_checksum_loop():
    program = parse_program(CHECKSUM_SOURCE)
    gmas = dict(
        translate_procedure(program.procedure("checksum"), program.registry)
    )
    axioms = (
        math_axioms(program.registry)
        + constant_synthesis_axioms(program.registry)
        + alpha_axioms(program.registry)
        + AxiomSet(program.axioms, "checksum-local")
    )
    cfg = default_config(min_cycles=6, max_cycles=10)
    cfg.saturation.max_rounds = 8
    cfg.saturation.max_enodes = 2500
    den = Denali(ev6(), axioms=axioms, registry=program.registry, config=cfg)
    return den.compile_gma(gmas["checksum.loop0"])


def test_e5_checksum_loop_body():
    """E5 — the packet checksum (section 8, Figures 5 and 6).

    Paper: "the code for the loop body consisted of 10 cycles and 31
    instructions" (unrolled 4x, ~4 hours).  Claim: the Figure 6 program
    (program-local ``add``/``carry`` axioms, 2x-unrolled and
    software-pipelined by hand) compiles, its loop body is proved optimal
    and verifies, and it carries the carry-wraparound pattern.
    ``examples/checksum.py --unroll 4`` runs the paper's 4x body.
    """
    result = _compile_checksum_loop()
    assert result.verified
    assert result.optimal
    assert result.cycles <= 8
    # The body must contain the carry-wraparound pattern: loads, adds and a
    # cmpult computing the carry.
    mnemonics = [i.mnemonic for i in result.schedule.instructions]
    assert mnemonics.count("ldq") == 2  # one load per unrolled iteration
    assert "cmpult" in mnemonics
    assert "addq" in mnemonics

    rows = [
        ["unroll factor", "4 (hand-pipelined)", "2 (hand-pipelined)"],
        ["loop body instructions", "31", str(result.schedule.instruction_count())],
        ["loop body cycles", "10", str(result.cycles)],
        ["optimal for its E-graph", "near-optimal", "yes" if result.optimal else "no"],
        ["verified", "correct by design", "yes" if result.verified else "NO"],
        ["compile time", "~4 hours (667 MHz Alpha)", "%.1f s (Python)" % result.elapsed_seconds],
    ]
    report(
        "E5 checksum loop body (paper Fig. 5/6)",
        format_table(["quantity", "paper (unroll 4)", "measured (unroll 2)"], rows)
        + "\n\n" + result.assembly,
    )


# -- E6 ------------------------------------------------------------------------


def _sum_graph(n: int):
    reg = default_registry()
    eg = EGraph()
    term = inp("v0")
    for i in range(1, n):
        term = mk("add64", term, inp("v%d" % i))
    goal = eg.add_term(term)
    axioms = math_axioms(reg).relevant_to({"add64"})
    stats = saturate(
        eg, axioms, reg, SaturationConfig(max_rounds=20, max_enodes=8000)
    )
    return eg, goal, stats


def test_e6_ways_of_computing_sum():
    """E6 — more than 100 ways of computing a+b+c+d+e (section 5).

    Paper: "Denali's matcher uses the commutativity and associativity of
    addition to find more than a hundred different ways of computing
    a + b + c + d + e."  Claim: over a hundred derivations in a graph of
    a few hundred enodes, with ways growing explosively in the number of
    terms while the graph stays polynomial.
    """
    results = {}
    for n in (3, 4, 5):
        eg, goal, stats = _sum_graph(n)
        results[n] = (count_ways(eg, goal), stats.enodes, stats.quiescent)

    ways5, enodes5, quiescent5 = results[5]
    assert quiescent5
    assert ways5 > 100  # the paper's headline number
    # Explosive growth in ways, polynomial growth in graph size.
    assert results[4][0] > results[3][0] * 3
    assert results[5][0] > results[4][0] * 3
    assert enodes5 < 1000

    rows = [
        [
            "a+b+c (n=3)",
            "-",
            "%d ways in %d enodes" % (results[3][0], results[3][1]),
        ],
        [
            "a+b+c+d (n=4)",
            "-",
            "%d ways in %d enodes" % (results[4][0], results[4][1]),
        ],
        [
            "a+b+c+d+e (n=5)",
            "more than a hundred ways",
            "%d ways in %d enodes" % (ways5, enodes5),
        ],
    ]
    report(
        "E6 ways of computing a 5-term sum under AC matching",
        format_table(["sum", "paper", "measured"], rows),
    )


# -- E7 ------------------------------------------------------------------------

SHIFT_AXIOM = r"""
(\axiom (forall (k n) (pats (\mul64 k (\pow 2 n)))
    (or (neq n (\and64 n 63))
        (eq (\mul64 k (\pow 2 n)) (\sll k n)))))
"""

S4ADDQ_AXIOMS = r"""
(\axiom (forall (k n) (pats (\add64 (\mul64 4 k) n) (\s4addq k n))
    (eq (\s4addq k n) (\add64 (\mul64 4 k) n))))
(\axiom (forall (x y) (pats (\mul64 x y))
    (eq (\mul64 x y) (\mul64 y x))))
"""


def test_e7_figure2_stages():
    """E7 — the Figure 2 matching walkthrough, quantified.

    Figure 2 grows the E-graph for ``reg6*4 + 1`` in four stages: the bare
    term, ``4 = 2**2`` (no new computation), the shift axiom (shift+add
    appears), the ``s4addl`` axiom (a single instruction appears).  Claim:
    the staged axiom sets give exactly that progression of machine ways,
    and the compiled result is the one-cycle scaled add.
    """
    reg = default_registry()
    spec = ev6()
    goal_term = mk("add64", mk("mul64", inp("reg6"), const(4)), const(1))

    eg = EGraph()
    goal = eg.add_term(goal_term)

    def ways():
        return count_ways(eg, goal, is_computable_op=spec.is_machine_op)

    stages = []
    stages.append(("(a) initial term DAG", ways()))

    saturate(eg, AxiomSet(), reg, SaturationConfig(max_rounds=2))
    has_pow = any(n.op == "pow" for n, _ in eg.all_nodes())
    stages.append(("(b) after 4 = 2**2", ways()))

    saturate(eg, parse_axiom_file(SHIFT_AXIOM, reg), reg)
    stages.append(("(c) after k*2**n = k<<n", ways()))

    saturate(eg, parse_axiom_file(S4ADDQ_AXIOMS, reg), reg)
    stages.append(("(d) after s4addq axiom", ways()))

    assert has_pow
    assert stages[0][1] == 1  # mul+add only
    assert stages[1][1] == 1  # ** is not a machine op: no new way yet
    assert stages[2][1] == 2  # shift+add appears
    assert stages[3][1] >= 3  # s4addq appears

    result = Denali(
        ev6(), config=default_config(min_cycles=1, max_cycles=8)
    ).compile_term(goal_term)
    assert result.cycles == 1
    assert result.optimal
    assert result.schedule.instructions[0].mnemonic == "s4addq"

    paper_desc = {
        0: "multiply+add only",
        1: "no new way (no ** instruction)",
        2: "shift+add appears",
        3: "single s4addl appears (best)",
    }
    rows = [
        [name, paper_desc[i], "%d machine way(s)" % w]
        for i, (name, w) in enumerate(stages)
    ]
    rows.append(
        ["compiled result", "s4addl reg6,1", "%s (1 cycle, optimal)"
         % result.schedule.instructions[0].mnemonic]
    )
    report(
        "E7 Figure 2 walkthrough: ways of computing reg6*4+1 per stage",
        format_table(["stage", "paper", "measured"], rows),
    )


# -- E8 ------------------------------------------------------------------------


def lcp2():
    a, b = inp("a"), inp("b")
    union = mk("bis", a, b)
    return GMA(("\\res",), (mk("and64", union, mk("neg64", union)),))


def rowop():
    m = inp("M", Sort.MEM)
    p, q, c = inp("p"), inp("q"), inp("c")
    elem = mk("sub64", mk("select", m, p), mk("mul64", c, mk("select", m, q)))
    return GMA(
        ("M", "p", "q"),
        (
            mk("store", m, p, elem),
            mk("add64", p, const(8)),
            mk("add64", q, const(8)),
        ),
        guard=mk("cmpult", p, inp("pend")),
    )


def mask_low_byte():
    return GMA(("\\res",), (mk("and64", inp("a"), const(0xFFFFFFFFFFFFFF00)),))


def carry_fold():
    a, b = inp("a"), inp("b")
    s = mk("add64", a, b)
    return GMA(("\\res",), (mk("add64", s, mk("cmpult", s, a)),))


def test_e8_extra_problems():
    """E8 — rowop, lcp2 and invented problems (section 8).

    Paper: "we have used Denali on a matrix routine rowop, and on the
    problem of the least common power of 2 of two registers".  Claim:
    each problem compiles, is proved optimal, verifies, and matches or
    beats the conventional compiler; masking the low byte beats it.
    """
    problems = [
        ("lcp2", lcp2(), 6),
        ("rowop", rowop(), 14),
        ("mask_low_byte", mask_low_byte(), 4),
        ("carry_fold", carry_fold(), 5),
    ]
    rows = []
    for name, gma, max_cycles in problems:
        cfg = default_config(min_cycles=1, max_cycles=max_cycles)
        cfg.saturation.max_rounds = 10
        cfg.saturation.max_enodes = 2500
        result = Denali(ev6(), config=cfg).compile_gma(gma)
        conventional = compile_conventional(gma, ev6())
        assert simulate_timing(conventional, ev6()).ok
        assert result.verified, name
        assert result.optimal, name
        assert result.cycles <= conventional.cycles, name
        rows.append(
            [
                name,
                "compiles; peak ALU performance",
                "%d cyc (optimal, verified)" % result.cycles,
                "%d cyc" % conventional.cycles,
            ]
        )

    # mask_low_byte shows a strict win: zapnot vs. ldiq+and.
    assert int(rows[2][2].split()[0]) < int(rows[2][3].split()[0])

    report(
        "E8 additional problems (rowop, lcp2, invented problems)",
        format_table(["problem", "paper", "Denali", "conventional"], rows),
    )


# -- E9 ------------------------------------------------------------------------


def test_e9_search_strategies():
    """E9 — cycle-budget search strategies (sections 1.3 and 3).

    Paper: "Since the costs of the probes are far from constant, binary
    search might not be the best strategy, but we have not explored
    alternatives."  Claim: binary and linear search from the proved floor
    find the same proved optimum, and per-budget probe costs (each budget
    solved on its own pinned window) vary by more than 2x.
    """

    def run(strategy, lo=2, hi=9):
        cfg = default_config(min_cycles=lo, max_cycles=hi, strategy=strategy)
        return Denali(ev6(), config=cfg).compile_term(byteswap_goal(4))

    binary = run(SearchStrategy.BINARY)
    linear = run(SearchStrategy.LINEAR)

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

    pinned = [
        run(SearchStrategy.LINEAR, lo=k, hi=k).search.probes
        for k in range(binary.stats.cycle_floor, 10)
    ]
    times = [p[0].time_seconds for p in pinned if p and p[0].time_seconds > 0]
    assert len(times) >= 3
    assert max(times) > 2 * min(times)

    run(SearchStrategy.BINARY)

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


# -- E10 -----------------------------------------------------------------------


def _ablation_compile(term, axioms=None, spec=None, saturation_tweak=None,
                      **cfg_kwargs):
    cfg = default_config(**cfg_kwargs)
    if saturation_tweak:
        saturation_tweak(cfg.saturation)
    return Denali(spec or ev6(), axioms=axioms, config=cfg).compile_term(term)


def test_e10_ablations():
    """E10 — ablations of the design machinery DESIGN.md calls out.

    Not a paper table: each row removes one mechanism the paper argues
    for (clause axioms, constant and byte-mask synthesis, architectural
    axioms, cluster modelling, the one-directional availability encoding)
    and checks that the answer degrades, or for the encoding, that the
    same answer costs fewer clauses.
    """
    rows = []

    # -- clause axioms on byteswap4 -------------------------------------
    reg = default_registry()
    full = _ablation_compile(byteswap_goal(4), min_cycles=4, max_cycles=9)
    no_clauses = AxiomSet(
        [ax for ax in (math_axioms(reg) + constant_synthesis_axioms(reg)
                       + alpha_axioms(reg))
         if not isinstance(ax, AxiomClause)],
        "no-clauses",
    )
    without = _ablation_compile(
        byteswap_goal(4), axioms=no_clauses, min_cycles=4, max_cycles=9
    )
    assert full.cycles == 5 and full.verified
    assert without.verified
    assert without.cycles > full.cycles
    rows.append(
        [
            "clause axioms (byteswap4)",
            "%d cycles" % full.cycles,
            "%d cycles" % without.cycles,
        ]
    )

    # -- constant synthesis (Figure 2(b)'s "4 = 2**2" step) ----------------
    # a*16 has no scaled-add escape hatch: without the synthesised pow
    # node the shift axiom cannot fire and only the 7-cycle multiply
    # remains.  (reg6*4+1 itself would still be saved by the s4addq
    # axiom, which matches the multiplication directly.)
    times16 = mk("mul64", inp("a"), const(16))
    with_synth = _ablation_compile(times16, min_cycles=1, max_cycles=8)

    def no_synth(sat_cfg):
        sat_cfg.synthesize_constants = False

    without_synth = _ablation_compile(
        times16, min_cycles=1, max_cycles=9, saturation_tweak=no_synth
    )
    assert with_synth.cycles == 1  # sll
    assert without_synth.cycles == 7  # mulq
    assert with_synth.verified and without_synth.verified
    rows.append(
        [
            "constant synthesis (a*16)",
            "%d cycle (sll)" % with_synth.cycles,
            "%d cycles (mulq)" % without_synth.cycles,
        ]
    )

    # -- byte-mask synthesis ------------------------------------------------
    mask = mk("and64", inp("a"), const(0xFFFFFFFFFFFFFF00))
    with_masks = _ablation_compile(mask, min_cycles=1, max_cycles=4)

    def no_masks(sat_cfg):
        sat_cfg.synthesize_byte_masks = False

    without_masks = _ablation_compile(
        mask, min_cycles=1, max_cycles=4, saturation_tweak=no_masks
    )
    assert with_masks.cycles == 1  # zapnot
    assert without_masks.cycles == 2  # ldiq + and
    rows.append(
        [
            "byte-mask synthesis (a & ~0xff)",
            "%d cycle (zapnot)" % with_masks.cycles,
            "%d cycles (ldiq+and)" % without_masks.cycles,
        ]
    )

    # -- no axioms at all: non-machine goals are uncomputable ---------------
    eg = EGraph()
    goal = eg.add_term(byteswap_goal(4))
    with pytest.raises(EncodeError):
        encode_schedule(eg, ev6(), [goal], 8)
    rows.append(
        ["architectural axioms (byteswap4)", "5 cycles", "uncomputable"]
    )

    # -- cluster modelling -----------------------------------------------------
    single_cluster = ev6()
    single_cluster.cross_cluster_delay = 0
    merged = _ablation_compile(
        byteswap_goal(4), spec=single_cluster, min_cycles=3, max_cycles=9
    )
    assert merged.verified
    assert merged.cycles <= full.cycles
    rows.append(
        [
            "cross-cluster delay (byteswap4)",
            "%d cycles (delay 1)" % full.cycles,
            "%d cycles (delay 0)" % merged.cycles,
        ]
    )

    # -- strict vs loose availability encoding -------------------------------
    reg2 = default_registry()
    axioms = math_axioms(reg2) + constant_synthesis_axioms(reg2) + alpha_axioms(reg2)
    eg2 = EGraph()
    goal2 = eg2.add_term(byteswap_goal(4))
    saturate(eg2, axioms, reg2, default_config().saturation)
    loose = encode_schedule(eg2, ev6(), [goal2], 5)
    strict = encode_schedule(
        eg2, ev6(), [goal2], 5, options=EncodingOptions(strict_availability=True)
    )
    r_loose = CdclSolver().solve(loose.cnf)
    r_strict = CdclSolver().solve(strict.cnf)
    assert r_loose.satisfiable == r_strict.satisfiable is True
    assert len(loose.cnf.clauses) < len(strict.cnf.clauses)
    rows.append(
        [
            "one-directional B definition (K=5 CNF)",
            "%d clauses" % len(loose.cnf.clauses),
            "%d clauses (biconditional)" % len(strict.cnf.clauses),
        ]
    )

    report(
        "E10 ablations of Denali's design choices",
        format_table(["mechanism", "with", "without / alternative"], rows),
    )


# -- E11 -----------------------------------------------------------------------


def test_e11_retarget_itanium():
    """E11 — retargeting (section 1.1).

    Paper: the Itanium port "will not require any radical changes (and
    the changes will mostly be to the axioms)".  Claim: the same goals
    and the same axiom files compile, optimal and verified, for a
    byte-op-free IA-64-style machine (``tests/machines.py``) by swapping
    only the architectural tables.
    """
    problems = [
        ("reg6*4+1 (Fig. 2)",
         mk("add64", mk("mul64", inp("x"), const(4)), const(1)), 1, 6),
        ("a*16", mk("mul64", inp("a"), const(16)), 1, 6),
        ("byteswap2", byteswap_goal(2), 2, 7),
        ("byteswap3", byteswap_goal(3), 2, 8),
    ]

    def first(result):
        if not result.schedule.instructions:
            return "free"
        return "%d cyc (%s)" % (
            result.cycles, result.schedule.instructions[0].mnemonic
        )

    rows = []
    for name, term, lo, hi in problems:
        cfg = default_config(min_cycles=lo, max_cycles=hi)
        alpha = Denali(ev6(), config=cfg).compile_term(term)
        it = Denali(itanium_like(), config=cfg).compile_term(term)
        assert alpha.verified and it.verified, name
        assert alpha.optimal and it.optimal, name
        rows.append([name, first(alpha), first(it)])


    report(
        "E11 retargeting: same axioms, different architectural tables",
        format_table(["problem", "Alpha EV6", "Itanium-like"], rows)
        + "\npaper: 'the changes will mostly be to the axioms' — here the "
        "axioms did not change at all.",
    )


# -- E12 -----------------------------------------------------------------------


def sum_loop(annotate_miss: bool = False) -> GMA:
    m = inp("M", Sort.MEM)
    load = mk("select", m, inp("ptr"))
    return GMA(
        ("sum", "ptr"),
        (
            mk("add64", inp("sum"), load),
            mk("add64", inp("ptr"), const(8)),
        ),
        guard=mk("cmpult", inp("ptr"), inp("end")),
        slow_loads=(load,) if annotate_miss else (),
    )


def scaled_sum_loop() -> GMA:
    """sum += 4 * (*ptr): an ALU op consumes the load."""
    m = inp("M", Sort.MEM)
    load = mk("select", m, inp("ptr"))
    return GMA(
        ("sum", "ptr"),
        (
            mk("add64", inp("sum"), mk("mul64", const(4), load)),
            mk("add64", inp("ptr"), const(8)),
        ),
        guard=mk("cmpult", inp("ptr"), inp("end")),
    )


def test_e12_software_pipelining():
    """E12 — software pipelining (the paper's future work, implemented).

    Paper: "We have a design for software pipelining, but haven't
    implemented it yet."  ``repro.lang.software_pipeline`` hoists each
    load into a loop-carried temporary.  Claim: on memory loops it
    strictly shortens the proved-optimal loop body.
    """

    def compile_body(gma):
        cfg = default_config(min_cycles=2, max_cycles=22, miss_latency=12,
                             strategy=SearchStrategy.BINARY)
        cfg.saturation.max_rounds = 8
        cfg.saturation.max_enodes = 1500
        return Denali(ev6(), config=cfg).compile_gma(gma)

    rows = []
    for name, gma in [
        ("sum += *ptr", sum_loop()),
        ("sum += 4 * *ptr", scaled_sum_loop()),
        ("sum += *ptr (\\miss-annotated)", sum_loop(annotate_miss=True)),
    ]:
        before = compile_body(gma)
        transformed = software_pipeline(gma)
        after = compile_body(transformed.gma)
        assert before.verified and after.verified, name
        assert before.optimal and after.optimal, name
        assert after.cycles < before.cycles, name
        rows.append(
            [
                name,
                "%d cycles" % before.cycles,
                "%d cycles" % after.cycles,
                "-%d" % (before.cycles - after.cycles),
            ]
        )

    # The miss-annotated body's floor is its 12-cycle load; the gain comes
    # from unchaining, so it is no larger than the cheap-load case.
    gains = [int(r[3]) for r in rows]
    assert abs(gains[2]) >= 1

    software_pipeline(sum_loop())

    report(
        "E12 automatic software pipelining (paper future work)",
        format_table(
            ["loop body", "original (optimal)", "pipelined (optimal)", "gain"],
            rows,
        )
        + "\npaper: hand-specified via temporaries in Figure 6; here the "
        "temporaries are generated.",
    )
