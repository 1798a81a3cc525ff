"""Tests for the constraint generator (paper section 6 + section 7 extras).

Strategy: encode small, hand-analysable problems on the single-issue
machine (the paper's expository model) and on the EV6, solve, and check the
decoded schedules; compare against known-infeasible budgets.
"""

import pytest

from repro.core.emit import extract_schedule
from repro.egraph import EGraph
from repro.encode import EncodeError, EncodingOptions, encode_schedule
from repro.isa import ev6
from repro.matching import saturate
from repro.axioms import AxiomSet
from repro.sat import CdclSolver
from repro.sim import simulate_timing
from repro.terms import Sort, const, inp, mk
from tests.machines import simple_risc


def _solve(encoding):
    return CdclSolver().solve(encoding.cnf)


def _encode_term(term, spec, cycles, **kwargs):
    eg = EGraph()
    goal = eg.add_term(term)
    saturate(eg, AxiomSet())  # constant folding only
    return eg, encode_schedule(eg, spec, [goal], cycles, **kwargs)


class TestFeasibility:
    def test_single_add_needs_one_cycle(self):
        _, enc = _encode_term(mk("add64", inp("a"), inp("b")), simple_risc(), 1)
        assert _solve(enc).satisfiable is True

    def test_dependent_chain_needs_two_cycles(self):
        term = mk("add64", mk("add64", inp("a"), inp("b")), inp("c"))
        _, enc1 = _encode_term(term, simple_risc(), 1)
        assert _solve(enc1).satisfiable is False
        _, enc2 = _encode_term(term, simple_risc(), 2)
        assert _solve(enc2).satisfiable is True

    def test_multiply_latency_respected(self):
        term = mk("mul64", inp("a"), inp("b"))
        for k in range(1, 7):
            _, enc = _encode_term(term, simple_risc(), k)
            assert _solve(enc).satisfiable is False, k
        _, enc = _encode_term(term, simple_risc(), 7)
        assert _solve(enc).satisfiable is True

    def test_single_issue_serialises_independent_ops(self):
        # Two independent adds + combining op: 3 cycles on single issue.
        term = mk(
            "bis",
            mk("add64", inp("a"), inp("b")),
            mk("xor64", inp("c"), inp("d")),
        )
        _, enc2 = _encode_term(term, simple_risc(), 2)
        assert _solve(enc2).satisfiable is False
        _, enc3 = _encode_term(term, simple_risc(), 3)
        assert _solve(enc3).satisfiable is True

    def test_multi_issue_parallelises(self):
        # The same term fits in 2 cycles on the quad-issue EV6 ... but the
        # cross-cluster delay means the combining op must wait: 3 cycles
        # when operands come from both clusters, 2 when both fit one
        # cluster's two units?  EV6 has two units per cluster, so both adds
        # can go on U0/L0 (cluster 0) and bis reads them at cycle 1: 2 cycles.
        term = mk(
            "bis",
            mk("add64", inp("a"), inp("b")),
            mk("xor64", inp("c"), inp("d")),
        )
        _, enc = _encode_term(term, ev6(), 2)
        assert _solve(enc).satisfiable is True

    def test_cross_cluster_delay_matters(self):
        # Two shifts feeding a combiner: shifts only run on U0/U1 (one per
        # cluster), so issuing both at cycle 0 puts them on *different*
        # clusters and one result pays the cross-cluster delay — the
        # combiner cannot launch at cycle 1, so 2 cycles are infeasible.
        # Serialising both shifts on one cluster (cycles 0 and 1) gets the
        # combiner launched at cycle 2: 3 cycles.  On a single-cluster
        # machine with two shifters this would fit in 2 cycles.
        term = mk(
            "bis",
            mk("sll", inp("a"), const(1)),
            mk("srl", inp("b"), const(2)),
        )
        _, enc2 = _encode_term(term, ev6(), 2)
        assert _solve(enc2).satisfiable is False
        _, enc3 = _encode_term(term, ev6(), 3)
        assert _solve(enc3).satisfiable is True

    def test_goal_in_free_class_trivially_sat(self):
        _, enc = _encode_term(inp("a"), simple_risc(), 1)
        assert _solve(enc).satisfiable is True
        assert not enc.machine_terms or True  # no machine work required

    def test_uncomputable_goal_raises(self):
        # pow is not a machine op and nothing else computes the class.
        term = mk("pow", inp("a"), inp("b"))
        with pytest.raises(EncodeError):
            _encode_term(term, simple_risc(), 4)

    def test_zero_budget_rejected(self):
        with pytest.raises(EncodeError):
            _encode_term(mk("add64", inp("a"), inp("b")), simple_risc(), 0)


class TestConstants:
    def test_small_constant_is_free(self):
        term = mk("add64", inp("a"), const(7))
        _, enc = _encode_term(term, simple_risc(), 1)
        assert _solve(enc).satisfiable is True

    def test_large_constant_needs_materialisation(self):
        term = mk("add64", inp("a"), const(0xDEADBEEF))
        _, enc1 = _encode_term(term, simple_risc(), 1)
        assert _solve(enc1).satisfiable is False  # ldiq then add
        _, enc2 = _encode_term(term, simple_risc(), 2)
        assert _solve(enc2).satisfiable is True


    @pytest.mark.parametrize("value, walks", [(7, 1), (0xDEADBEEF, 2)])
    def test_support_rewalked_only_after_ldiq_injection(
        self, monkeypatch, value, walks
    ):
        from repro.encode import constraints

        real_support = constraints._support
        calls = []

        def counting_support(eg, goals):
            calls.append(list(goals))
            return real_support(eg, goals)

        monkeypatch.setattr(constraints, "_support", counting_support)
        spec = simple_risc()
        eg = EGraph()
        goal = eg.add_term(mk("add64", inp("a"), const(value)))
        saturate(eg, AxiomSet())
        goal_roots, support, free, rows, *_ = constraints._analyse(
            eg, spec, [goal], {}, constraints._latency_of(spec, {})
        )
        assert len(calls) == walks
        # The support and rows are those of a walk over the final graph.
        assert support == real_support(eg, goal_roots)
        assert rows == constraints._term_rows(
            eg, support, free, spec, {}, constraints._latency_of(spec, {})
        )
        has_ldiq = any(row.node.op == "ldiq" for row in rows)
        assert has_ldiq == (walks == 2)


class TestEncodingShape:
    def test_stats_fields(self):
        _, enc = _encode_term(mk("add64", inp("a"), inp("b")), ev6(), 2)
        st = enc.stats()
        assert st["vars"] > 0
        assert st["clauses"] > 0
        assert st["machine_terms"] >= 1

    def test_problem_size_grows_with_budget(self):
        term = mk("add64", mk("and64", inp("a"), inp("b")), inp("c"))
        sizes = []
        for k in (2, 4, 8):
            _, enc = _encode_term(term, ev6(), k)
            sizes.append(enc.cnf.stats()["vars"])
        assert sizes[0] < sizes[1] < sizes[2]

    def test_strict_availability_same_answer(self):
        term = mk("bis", mk("add64", inp("a"), inp("b")), inp("c"))
        for k in (1, 2, 3):
            _, loose = _encode_term(term, ev6(), k)
            _, strict = _encode_term(
                term, ev6(), k, options=EncodingOptions(strict_availability=True)
            )
            assert (
                _solve(loose).satisfiable == _solve(strict).satisfiable
            ), k

    def test_named_variables_decode(self):
        _, enc = _encode_term(mk("add64", inp("a"), inp("b")), simple_risc(), 1)
        names = [enc.cnf.name_of(v) for v in range(1, enc.cnf.num_vars + 1)]
        kinds = {n[0] for n in names if isinstance(n, tuple)}
        assert {"F", "L", "A", "B"} >= kinds
        assert "F" in kinds and "L" in kinds


class TestEndToEndSchedules:
    @pytest.mark.parametrize("spec_fn", [simple_risc, ev6])
    def test_extracted_schedule_passes_timing(self, spec_fn):
        spec = spec_fn()
        term = mk(
            "bis",
            mk("add64", inp("a"), const(1)),
            mk("sll", inp("b"), const(3)),
        )
        eg = EGraph()
        goal = eg.add_term(term)
        saturate(eg, AxiomSet())
        for k in range(1, 8):
            enc = encode_schedule(eg, spec, [goal], k)
            res = _solve(enc)
            if res.satisfiable:
                sched = extract_schedule(eg, enc, res.model)
                report = simulate_timing(sched, spec)
                assert report.ok, report.violations
                return
        pytest.fail("no feasible budget found")

    def test_memory_load_schedules(self):
        term = mk("select", inp("M", Sort.MEM), inp("p"))
        eg = EGraph()
        goal = eg.add_term(term)
        enc = encode_schedule(eg, ev6(), [goal], 3)
        res = _solve(enc)
        assert res.satisfiable
        sched = extract_schedule(eg, enc, res.model)
        assert sched.instructions[0].mnemonic == "ldq"

    def test_memory_store_schedules(self):
        term = mk("store", inp("M", Sort.MEM), inp("p"), inp("x"))
        eg = EGraph()
        goal = eg.add_term(term)
        enc = encode_schedule(eg, ev6(), [goal], 2)
        res = _solve(enc)
        assert res.satisfiable
        sched = extract_schedule(eg, enc, res.model)
        assert sched.instructions[-1].mnemonic == "stq"
        assert sched.goal_operands[0].memory

    def test_load_after_store_dataflow(self):
        m = inp("M", Sort.MEM)
        term = mk("select", mk("store", m, inp("p"), inp("x")), inp("p"))
        eg = EGraph()
        goal = eg.add_term(term)
        # Without axioms, the only way is store (1 cycle) then load (3): 4.
        enc3 = encode_schedule(eg, ev6(), [goal], 3)
        assert _solve(enc3).satisfiable is False
        enc4 = encode_schedule(eg, ev6(), [goal], 4)
        res = _solve(enc4)
        assert res.satisfiable
        sched = extract_schedule(eg, enc4, res.model)
        mnemonics = [i.mnemonic for i in sched.instructions]
        assert mnemonics.count("stq") == 1
        assert mnemonics.count("ldq") == 1

    def test_anti_dependence_blocks_late_store(self):
        """A load of old memory and a store superseding it cannot overlap
        arbitrarily: the store must wait for the load to complete."""
        m = inp("M", Sort.MEM)
        p, q = inp("p"), inp("q")
        load_old = mk("select", m, q)
        new_mem = mk("store", m, p, inp("x"))
        eg = EGraph()
        g1 = eg.add_term(load_old)
        g2 = eg.add_term(new_mem)
        # Load takes cycles 0-2; the store may launch at 3 at the earliest,
        # completing at 3 => 4 cycles minimum.
        enc = encode_schedule(eg, ev6(), [g1, g2], 3)
        assert _solve(enc).satisfiable is False
        enc4 = encode_schedule(eg, ev6(), [g1, g2], 4)
        res = _solve(enc4)
        assert res.satisfiable
        sched = extract_schedule(eg, enc4, res.model)
        stq = next(i for i in sched.instructions if i.mnemonic == "stq")
        ldq = next(i for i in sched.instructions if i.mnemonic == "ldq")
        assert ldq.cycle + 3 - 1 < stq.cycle

    def test_guard_safety_orders_unsafe_terms(self):
        """Unsafe terms launch only after the guard completes (section 7)."""
        m = inp("M", Sort.MEM)
        guard = mk("cmpult", inp("p"), inp("r"))
        load = mk("select", m, inp("p"))
        eg = EGraph()
        g_guard = eg.add_term(guard)
        g_load = eg.add_term(load)
        load_node = next(n for n, _ in eg.all_nodes() if n.op == "select")
        enc = encode_schedule(
            eg,
            ev6(),
            [g_guard, g_load],
            4,
            unsafe_terms={load_node: g_guard},
        )
        res = _solve(enc)
        assert res.satisfiable
        sched = extract_schedule(eg, enc, res.model)
        cmp_instr = next(i for i in sched.instructions if i.mnemonic == "cmpult")
        ldq = next(i for i in sched.instructions if i.mnemonic == "ldq")
        assert cmp_instr.cycle + 1 - 1 < ldq.cycle

    def test_guarded_load_infeasible_in_three_cycles(self):
        m = inp("M", Sort.MEM)
        guard = mk("cmpult", inp("p"), inp("r"))
        load = mk("select", m, inp("p"))
        eg = EGraph()
        g_guard = eg.add_term(guard)
        g_load = eg.add_term(load)
        load_node = next(n for n, _ in eg.all_nodes() if n.op == "select")
        enc = encode_schedule(
            eg, ev6(), [g_guard, g_load], 3, unsafe_terms={load_node: g_guard}
        )
        assert _solve(enc).satisfiable is False
