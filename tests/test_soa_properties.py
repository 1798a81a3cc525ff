"""Differential property tests for the flat struct-of-arrays cores.

The flat refactor replaced per-object records (dict-of-lists watch
maps, per-class Python sets, per-node ENode wrappers on the hot path)
with parallel columns.  These tests pin the refactored kernels against
small *legacy-shaped* reference models — plain dicts and lists driven
by the same random operation sequences — so any divergence between the
flat layout and the obvious semantics is caught structurally, not just
through end-to-end decode identity:

* union-find: partition equivalence against a naive parent-dict model,
  plus ``find_many`` / ``find`` agreement;
* solver trail: decide/enqueue/backtrack sequences against a frame
  stack of assignment dicts;
* watch lists: every permanent clause is watched by exactly the two
  literals in its watch slots, before and after solving;
* hashcons + congruence: interning and merge closure against a naive
  fixpoint congruence model over the same node sequence;
* the ``repro.util.soa`` primitives against their list-slice
  equivalents.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph.egraph import EGraph
from repro.egraph.unionfind import UnionFind
from repro.sat.solver import _NO_REASON, _SolverCore
from repro.terms.ops import Sort
from repro.util import soa


# -- reference models ----------------------------------------------------------


class DictUnionFind:
    """The legacy-shaped reference: a parent dict, no rank, no splitting."""

    def __init__(self):
        self.parent = {}

    def make_set(self):
        x = len(self.parent)
        self.parent[x] = x
        return x

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return rb

    def same(self, a, b):
        return self.find(a) == self.find(b)


def _uf_ops(max_sets=10, max_ops=30):
    op = st.one_of(
        st.just(("make",)),
        st.tuples(
            st.just("union"),
            st.integers(0, max_sets - 1),
            st.integers(0, max_sets - 1),
        ),
    )
    return st.lists(op, min_size=1, max_size=max_ops)


class TestUnionFindDifferential:
    @given(_uf_ops())
    @settings(max_examples=60, deadline=None)
    def test_partition_matches_dict_model(self, ops):
        uf = UnionFind()
        ref = DictUnionFind()
        for op in ops:
            if op[0] == "make":
                assert uf.make_set() == ref.make_set()
            else:
                _, a, b = op
                if a < len(ref.parent) and b < len(ref.parent):
                    uf.union(a, b)
                    ref.union(a, b)
        n = len(ref.parent)
        assert len(uf) == n
        for a in range(n):
            for b in range(a, n):
                assert uf.same(a, b) == ref.same(a, b)

    @given(_uf_ops())
    @settings(max_examples=60, deadline=None)
    def test_find_many_agrees_with_find(self, ops):
        uf = UnionFind()
        for op in ops:
            if op[0] == "make":
                uf.make_set()
            elif len(uf) > 0:
                _, a, b = op
                uf.union(a % len(uf), b % len(uf))
        xs = list(range(len(uf)))
        assert uf.find_many(xs) == [uf.find(x) for x in xs]


# -- solver trail ----------------------------------------------------------


def _trail_ops(num_vars=8, max_ops=40):
    lit = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    op = st.one_of(
        st.tuples(st.just("decide"), lit),
        st.tuples(st.just("enqueue"), lit),
        st.tuples(st.just("backtrack"), st.integers(0, 6)),
    )
    return st.lists(op, min_size=1, max_size=max_ops)


class TestTrailDifferential:
    @given(_trail_ops())
    @settings(max_examples=80, deadline=None)
    def test_trail_matches_frame_stack(self, ops):
        num_vars = 8
        core = _SolverCore()
        core.grow(num_vars)
        # Reference: a stack of per-level assignment dicts (frame 0 is
        # the root level).
        frames = [{}]

        def ref_assigned():
            merged = {}
            for f in frames:
                merged.update(f)
            return merged

        for op in ops:
            if op[0] == "decide":
                lit = op[1]
                v = abs(lit)
                if v in ref_assigned():
                    continue
                core._trail_lim.append(len(core._trail))
                core._enqueue(lit, _NO_REASON)
                frames.append({v: lit > 0})
            elif op[0] == "enqueue":
                lit = op[1]
                v = abs(lit)
                if v in ref_assigned():
                    continue
                core._enqueue(lit, _NO_REASON)
                frames[-1][v] = lit > 0
            else:
                level = op[1]
                if level >= len(frames) - 1:
                    continue
                core._backtrack(level)
                del frames[level + 1:]
            assigned = ref_assigned()
            assert core._decision_level() == len(frames) - 1
            for v in range(1, num_vars + 1):
                want = assigned.get(v)
                got = core._value(v)
                assert got == (-1 if want is None else int(want))


# -- watch lists ---------------------------------------------------------------


def _feeds(max_vars=6, max_clauses=12, max_len=4):
    lit = st.integers(1, max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    # Trusted feeds guarantee no duplicate variables within a clause.
    clause = st.lists(
        lit, min_size=1, max_size=max_len, unique_by=lambda l: abs(l)
    )
    return st.lists(clause, min_size=1, max_size=max_clauses)


def _watch_model(core):
    """Rebuild lit -> sorted clause refs from the arena's watch slots."""
    model = {}
    for ref in core._clauses:
        for slot in (ref + 1, ref + 2):
            lit = core._arena[slot]
            model.setdefault(lit, []).append(ref)
    return {lit: sorted(refs) for lit, refs in model.items()}


def _watch_lists(core):
    out = {}
    for lit in range(1, core.num_vars + 1):
        for signed in (lit, -lit):
            idx = 2 * signed if signed > 0 else 1 - 2 * signed
            refs = [r for r in core._watches[idx] if r in set(core._clauses)]
            if refs:
                out[signed] = sorted(refs)
    return out


class TestWatchListDifferential:
    @given(_feeds())
    @settings(max_examples=60, deadline=None)
    def test_trusted_feed_watches_match_arena_slots(self, clauses):
        core = _SolverCore()
        core.grow(6)
        core.add_clauses_trusted([list(c) for c in clauses])
        assert _watch_lists(core) == _watch_model(core)

    @given(_feeds())
    @settings(max_examples=40, deadline=None)
    def test_watches_consistent_after_solving(self, clauses):
        core = _SolverCore()
        core.grow(6)
        core.add_clauses_trusted([list(c) for c in clauses])
        core.run()
        assert _watch_lists(core) == _watch_model(core)

    @given(_feeds())
    @settings(max_examples=40, deadline=None)
    def test_trusted_feed_verdict_matches_validated_path(self, clauses):
        trusted = _SolverCore()
        trusted.grow(6)
        trusted.add_clauses_trusted([list(c) for c in clauses])
        checked = _SolverCore()
        checked.grow(6)
        for c in clauses:
            checked.add_clause(list(c))
        assert trusted.run().satisfiable == checked.run().satisfiable


# -- hashcons + congruence -----------------------------------------------------


def _graph_programs(max_nodes=8, max_merges=4):
    node = st.tuples(
        st.sampled_from(["f", "g", "const"]),
        st.integers(0, max_nodes - 1),
        st.integers(0, max_nodes - 1),
        st.integers(0, 3),
    )
    merge = st.tuples(
        st.integers(0, max_nodes - 1), st.integers(0, max_nodes - 1)
    )
    return st.tuples(
        st.lists(node, min_size=1, max_size=max_nodes),
        st.lists(merge, min_size=0, max_size=max_merges),
    )


class _RefCongruence:
    """Naive fixpoint congruence closure over an append-only node list."""

    def __init__(self):
        self.nodes = []  # (op, arg node-ids, value)
        self.uf = DictUnionFind()

    def add(self, op, args, value):
        self.nodes.append((op, tuple(args), value))
        self.uf.make_set()
        return len(self.nodes) - 1

    def merge(self, a, b):
        self.uf.union(a, b)

    def closed(self, extra=None):
        """A congruence-closed copy of the union-find (plus one union)."""
        tmp = DictUnionFind()
        tmp.parent = dict(self.uf.parent)
        if extra is not None:
            tmp.union(*extra)
        changed = True
        while changed:
            changed = False
            for i, (op_i, args_i, val_i) in enumerate(self.nodes):
                for j in range(i + 1, len(self.nodes)):
                    op_j, args_j, val_j = self.nodes[j]
                    if tmp.same(i, j):
                        continue
                    if (
                        op_i == op_j
                        and val_i == val_j
                        and len(args_i) == len(args_j)
                        and all(
                            tmp.same(x, y)
                            for x, y in zip(args_i, args_j)
                        )
                    ):
                        tmp.union(i, j)
                        changed = True
        return tmp

    def close(self):
        self.uf = self.closed()


class TestHashconsDifferential:
    @given(_graph_programs())
    @settings(max_examples=60, deadline=None)
    def test_congruence_matches_naive_fixpoint(self, program):
        specs, merges = program
        eg = EGraph()
        ref = _RefCongruence()
        cids = []
        for op, a1, a2, value in specs:
            if op == "const":
                cid = eg.add_enode("const", (), value=value, sort=Sort.INT)
                rid = ref.add("const", (), value)
            else:
                arity = 1 if op == "g" else 2
                picks = [a1, a2][:arity]
                if not cids:
                    cid = eg.add_enode("const", (), value=value,
                                       sort=Sort.INT)
                    rid = ref.add("const", (), value)
                else:
                    args = [cids[p % len(cids)] for p in picks]
                    rargs = [p % len(cids) for p in picks]
                    cid = eg.add_enode(op, tuple(args), sort=Sort.INT)
                    rid = ref.add(op, tuple(rargs), None)
            cids.append(cid)
            assert rid == len(cids) - 1
        for a, b in merges:
            if not cids:
                continue
            ia, ib = a % len(cids), b % len(cids)
            # Merging two distinct constants — directly or through the
            # congruence closure of earlier merges — is an
            # InconsistentError in the e-graph (constants are inherently
            # distinct); generate only consistent merge sequences.
            tmp = ref.closed(extra=(ia, ib))
            root_val = {}
            conflict = False
            for i, (op_i, _args, val_i) in enumerate(ref.nodes):
                if op_i != "const":
                    continue
                root = tmp.find(i)
                if root in root_val and root_val[root] != val_i:
                    conflict = True
                    break
                root_val[root] = val_i
            if conflict:
                continue
            eg.merge(cids[ia], cids[ib])
            ref.merge(ia, ib)
        eg.rebuild()
        ref.close()
        for i in range(len(cids)):
            for j in range(i + 1, len(cids)):
                assert (
                    eg.find(cids[i]) == eg.find(cids[j])
                ) == ref.uf.same(i, j), (i, j)

    @given(_graph_programs(max_nodes=6, max_merges=0))
    @settings(max_examples=40, deadline=None)
    def test_interning_is_stable(self, program):
        """Re-adding any existing enode returns its original class."""
        specs, _ = program
        eg = EGraph()
        made = []  # (op, args, value) -> cid
        cids = []
        for op, a1, a2, value in specs:
            if op == "const" or not cids:
                key = ("const", (), value)
                cid = eg.add_enode("const", (), value=value, sort=Sort.INT)
            else:
                arity = 1 if op == "g" else 2
                args = tuple(cids[p % len(cids)] for p in [a1, a2][:arity])
                key = (op, args, None)
                cid = eg.add_enode(op, args, sort=Sort.INT)
            cids.append(cid)
            made.append((key, cid))
        for (op, args, value), cid in made:
            again = eg.add_enode(op, args, value=value, sort=Sort.INT)
            assert eg.find(again) == eg.find(cid)


# -- soa primitives ------------------------------------------------------------


class TestSoaPrimitives:
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=20),
        st.integers(0, 19),
    )
    @settings(max_examples=60, deadline=None)
    def test_swap_remove_matches_set_semantics(self, items, idx):
        if idx >= len(items):
            idx = idx % len(items)
        for build in (list, bytearray):
            col = build(items)
            removed = soa.swap_remove(col, idx)
            assert removed == items[idx]
            want = list(items)
            want[idx] = want[-1]
            want.pop()
            assert list(col) == want

    @given(
        st.lists(st.integers(0, 255), min_size=0, max_size=10),
        st.lists(st.integers(0, 255), min_size=0, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_checkpoint_rollback_roundtrip(self, base, extra):
        for build in (list, bytearray):
            col = build(base)
            marks = soa.checkpoint(col)
            col.extend(extra)
            soa.rollback(marks, col)
            assert list(col) == base

    @given(st.lists(st.integers(0, 255), max_size=10), st.integers(0, 16))
    @settings(max_examples=60, deadline=None)
    def test_grow_and_bytes(self, base, pad):
        lst = list(base)
        ba = bytearray(base)
        soa.grow(lst, pad, 7)
        soa.grow(ba, pad, 7)
        assert lst == list(base) + [7] * pad
        assert ba == bytearray(base) + bytearray([7] * pad)
        assert soa.column_bytes(lst) == soa.LIST_SLOT_BYTES * len(lst)
        assert soa.column_bytes(ba) == len(ba)
        assert soa.columns_bytes(lst, ba) == (
            soa.column_bytes(lst) + soa.column_bytes(ba)
        )
        copy = soa.copy_column(ba)
        copy.append(1)
        assert len(copy) == len(ba) + 1
