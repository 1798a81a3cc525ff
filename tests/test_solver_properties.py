"""Property-based tests: clause sanitisation and canonical model decode.

Two invariants the differential fuzzing harness leans on, checked
directly with hypothesis-generated inputs:

* :func:`repro.encode.constraints.sanitize_clauses` is a semantic no-op
  (it preserves the satisfying-assignment set) that is idempotent,
  removes tautologies/duplicate literals, and rejects literals outside
  the declared variable space;
* :class:`repro.sat.solver.CdclSolver` (canonical decisions only)
  returns the lexicographically least satisfying assignment, so the
  model — and everything decoded from it — is independent of clause
  order, literal order, and solver history.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encode.constraints import EncodeError, sanitize_clauses
from repro.sat import CNF, CdclSolver

import pytest


def _clauses(max_vars=6, max_clauses=10, max_len=4):
    lits = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(lits, min_size=1, max_size=max_len)
    return st.lists(clause, min_size=0, max_size=max_clauses)


def _models(clauses, num_vars):
    """All satisfying assignments, as lex-ordered True/False tuples."""
    out = []
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for cl in clauses:
            if not any(
                bits[abs(l) - 1] == (l > 0) for l in cl
            ):
                ok = False
                break
        if ok:
            out.append(bits)
    return out


class TestSanitizeClauses:
    @given(_clauses())
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, clauses):
        once = sanitize_clauses(clauses, 6)
        assert sanitize_clauses(once, 6) == once

    @given(_clauses())
    @settings(max_examples=60, deadline=None)
    def test_output_is_clean(self, clauses):
        for cl in sanitize_clauses(clauses, 6):
            assert len(set(cl)) == len(cl)  # no duplicate literals
            assert not any(-l in cl for l in cl)  # no tautologies

    @given(_clauses(max_vars=4), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_preserves_model_set(self, clauses, extra):
        """Sanitisation never changes which assignments satisfy the CNF."""
        num_vars = 4 + extra
        before = _models(clauses, num_vars)
        after = _models(sanitize_clauses(clauses, num_vars), num_vars)
        assert before == after

    def test_tautologies_are_dropped(self):
        assert sanitize_clauses([[1, -1], [2, 3, -2]], 3) == []

    def test_duplicates_are_merged(self):
        assert sanitize_clauses([[2, 2, -1, 2]], 2) == [[2, -1]]

    @pytest.mark.parametrize("bad", [[[0]], [[1, 7]], [[-7]]])
    def test_out_of_range_literal_raises(self, bad):
        with pytest.raises(EncodeError):
            sanitize_clauses(bad, 6)


def _build_cnf(clauses, num_vars):
    cnf = CNF()
    for _ in range(num_vars):
        cnf.new_var()
    for cl in clauses:
        cnf.add_clause(cl)
    return cnf


class TestCanonicalModel:
    @given(_clauses(max_vars=5, max_clauses=12))
    @settings(max_examples=40, deadline=None)
    def test_model_is_lexicographically_least(self, clauses):
        num_vars = 5
        cnf = _build_cnf(clauses, num_vars)
        res = CdclSolver().solve(cnf)
        models = _models(clauses, num_vars)
        if not models:
            assert res.satisfiable is False
            return
        assert res.satisfiable is True
        got = tuple(res.model[v] for v in range(1, num_vars + 1))
        assert got == models[0]  # itertools.product yields in lex order

    @given(_clauses(max_vars=6, max_clauses=14), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_permutation(self, clauses, seed):
        """Permuting clause and literal order never changes the model."""
        num_vars = 6
        baseline = CdclSolver().solve(_build_cnf(clauses, num_vars))
        rng = random.Random(seed)
        shuffled = [list(cl) for cl in clauses]
        rng.shuffle(shuffled)
        for cl in shuffled:
            rng.shuffle(cl)
        permuted = CdclSolver().solve(_build_cnf(shuffled, num_vars))
        assert permuted.satisfiable == baseline.satisfiable
        if baseline.satisfiable:
            assert permuted.model == baseline.model
