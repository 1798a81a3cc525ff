"""Differential test: the SAT-found optimum vs. an exhaustive scheduler.

For small expression DAGs with no equivalence reasoning (empty axiom set),
the minimum schedule length on the single-issue machine can be computed
exactly by enumerating every topological order.  The pipeline's answer —
minimum K with a SAT probe, including its optimality proof — must match.
This pins down the whole section-6 encoding (latency linking, operand
availability, issue exclusivity, goal constraints) against ground truth.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Denali, DenaliConfig, SearchStrategy, inp, mk
from repro.axioms import AxiomSet
from repro.matching import SaturationConfig
from repro.terms import Term, subterms
from tests.machines import simple_risc


def _machine_nodes(term: Term, spec):
    """The operations the machine must execute: non-leaf subterms."""
    return [t for t in subterms(term) if not t.is_leaf]


def brute_force_min_cycles(term: Term, spec) -> int:
    """Exhaustive optimum on a single-issue machine.

    Every schedule is a topological order of the DAG; with one launch per
    cycle (possibly idle cycles waiting for latencies), the best makespan
    over all orders is the true optimum.  Idle cycles are implicit: given
    an order, greedily launch each op at the earliest cycle after both its
    operands' completions and the previous launch.
    """
    ops = _machine_nodes(term, spec)
    deps = {
        t: [a for a in t.args if not a.is_leaf]
        for t in ops
    }

    best = [float("inf")]

    def orders(remaining, done_times, last_launch, makespan):
        if makespan >= best[0]:
            return
        if not remaining:
            best[0] = makespan
            return
        for t in list(remaining):
            if any(d not in done_times for d in deps[t]):
                continue
            ready = max((done_times[d] + 1 for d in deps[t]), default=0)
            launch = max(ready, last_launch + 1)
            completion = launch + spec.latency(t.op) - 1
            remaining.remove(t)
            done_times[t] = completion
            orders(remaining, done_times, launch, max(makespan, completion + 1))
            del done_times[t]
            remaining.add(t)

    orders(set(ops), {}, -1, 0)
    return int(best[0])


def _serial_cycles(term: Term, spec) -> int:
    """Cycles of the serial schedule: each op waits for the one before.

    Every DAG meets this on a single-issue machine, so it is a ladder
    ceiling under which the optimum always lies.
    """
    return sum(spec.latency(t.op) for t in _machine_nodes(term, spec))


def _pipeline_min_cycles(term: Term, spec) -> int:
    config = DenaliConfig(
        min_cycles=1,
        max_cycles=_serial_cycles(term, spec),
        strategy=SearchStrategy.BINARY,
        verify=False,
        saturation=SaturationConfig(max_rounds=1, max_enodes=500,
                                    synthesize_constants=False,
                                    synthesize_byte_masks=False,
                                    fold_constants=False),
    )
    den = Denali(spec, axioms=AxiomSet(), config=config)
    result = den.compile_term(term)
    assert result.schedule is not None
    assert result.optimal
    return result.cycles


_LEAVES = [inp("a"), inp("b"), inp("c")]
_CHEAP_OPS = ["add64", "sub64", "and64", "bis", "xor64"]


def _random_dag(data, max_ops=4):
    """A random expression DAG with shared subterms and mixed latencies."""
    pool = list(_LEAVES)
    n_ops = data.draw(st.integers(1, max_ops))
    term = None
    for _ in range(n_ops):
        use_mul = data.draw(st.integers(0, 9)) == 0
        op = "mul64" if use_mul else data.draw(st.sampled_from(_CHEAP_OPS))
        x = data.draw(st.sampled_from(pool))
        y = data.draw(st.sampled_from(pool))
        term = mk(op, x, y)
        pool.append(term)
    return term


class TestEncoderAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_optimum_matches_exhaustive_scheduler(self, data):
        spec = simple_risc()
        term = _random_dag(data)
        expected = brute_force_min_cycles(term, spec)
        found = _pipeline_min_cycles(term, spec)
        assert found == expected, term.pretty()

    def test_known_case_chain(self):
        spec = simple_risc()
        term = mk("add64", mk("add64", inp("a"), inp("b")), inp("c"))
        assert brute_force_min_cycles(term, spec) == 2
        assert _pipeline_min_cycles(term, spec) == 2

    def test_known_case_latency_hiding(self):
        # mul (7 cycles) with an independent add: launch mul first, the
        # add hides under it, combiner at cycle 7: 8 cycles total.
        spec = simple_risc()
        term = mk(
            "bis",
            mk("mul64", inp("a"), inp("b")),
            mk("add64", inp("a"), inp("c")),
        )
        assert brute_force_min_cycles(term, spec) == 8
        assert _pipeline_min_cycles(term, spec) == 8

    def test_known_case_diamond(self):
        spec = simple_risc()
        shared = mk("add64", inp("a"), inp("b"))
        term = mk("and64", mk("bis", shared, inp("c")),
                  mk("xor64", shared, inp("a")))
        # shared(0), two mids (1,2), combiner at 3: 4 cycles.
        assert brute_force_min_cycles(term, spec) == 4
        assert _pipeline_min_cycles(term, spec) == 4

    def test_known_case_serial_multiplies(self):
        # Three dependent 7-cycle multiplies: nothing overlaps, so the
        # optimum is the serial schedule, 21 cycles.
        spec = simple_risc()
        a = inp("a")
        term = mk("mul64", a, mk("mul64", a, mk("mul64", a, a)))
        assert brute_force_min_cycles(term, spec) == 21
        assert _pipeline_min_cycles(term, spec) == 21
