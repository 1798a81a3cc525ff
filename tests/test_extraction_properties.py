"""Property tests for the extraction subsystem.

Random e-graphs (random DAG growth plus random merges, so cyclic
classes appear routinely) drive three invariants:

* the dominance pruner never strands a reachable class — the survivors
  always include a node achieving the class's own tree bound, at any
  slack;
* the cost analyses are admissible: the ``tree`` bound never exceeds
  the realized tree cost of the greedy choice, the ``dag`` bound never
  exceeds the realized DAG cost of any selection, and the exact
  selector lands between the DAG floor and the greedy cost;
* exact selection is a pure function of the graph's *shape*: inserting
  the same e-nodes in a different order (and unioning the same classes
  in a different order) yields byte-identical rendered terms and equal
  cost;
* the restricted problem the exact refinement solves for its floor (a
  leaf set, a viability filter, a caller's upper bound) keeps the same
  sandwich, and neutral restrictions change nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.egraph.egraph import EGraph
from repro.extraction import (
    class_lower_bounds,
    enode_tree_bound,
    exact_select,
    greedy_select,
    prune_dominated,
    unit_cost,
)

OPS = (("sextb", 1), ("add64", 2), ("sub64", 2), ("cmov", 3))


def _grow(specs, merges):
    """Deterministic e-graph from (op, arg-indices) rows + merge pairs.

    Each row's arguments index (modulo) the classes created so far, so
    the graph is a random DAG; merges then union arbitrary classes,
    which routinely creates cycles through classes.
    """
    eg = EGraph()
    classes = [
        eg.add_enode("input", (), name="a"),
        eg.add_enode("input", (), name="b"),
        eg.add_enode("const", (), value=0),
    ]
    for op_idx, arg_idxs in specs:
        op, arity = OPS[op_idx % len(OPS)]
        args = tuple(
            classes[idx % len(classes)] for idx in arg_idxs[:arity]
        )
        classes.append(eg.add_enode(op, args))
    for i, j in merges:
        eg.merge(classes[i % len(classes)], classes[j % len(classes)])
    eg.rebuild()
    return eg, [eg.find(c) for c in classes]


SPEC = st.tuples(
    st.integers(min_value=0, max_value=len(OPS) - 1),
    st.tuples(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23)),
)
GRAPHS = st.tuples(
    st.lists(SPEC, min_size=1, max_size=10),
    st.lists(
        st.tuples(st.integers(0, 23), st.integers(0, 23)),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(GRAPHS, st.integers(min_value=0, max_value=2))
def test_pruner_never_strands_a_reachable_class(graph, slack):
    specs, merges = graph
    eg, _classes = _grow(specs, merges)
    bounds = class_lower_bounds(eg, unit_cost, "tree")
    candidates = {
        cid: [
            node
            for node in eg.enodes(cid)
            if all(eg.find(a) in bounds for a in node.args)
        ]
        for cid in bounds
    }
    survivors = prune_dominated(eg, unit_cost, bounds, candidates, slack=slack)
    assert survivors.keys() == candidates.keys()
    for cid, nodes in candidates.items():
        if not nodes:
            continue
        kept = survivors[cid]
        assert kept, "slack %d stranded class %d" % (slack, cid)
        through = [
            enode_tree_bound(eg, n, unit_cost, bounds) for n in kept
        ]
        assert min(t for t in through if t is not None) == bounds[cid]
        assert set(kept) <= set(nodes)


def _tree_cost(eg, choice, root):
    """Realized tree cost of a selection: every occurrence paid."""
    memo = {}

    def walk(cid):
        cid = eg.find(cid)
        if cid in memo:
            return memo[cid]
        node = choice[cid]
        memo[cid] = 0  # selections are well-founded; guard regardless
        total = unit_cost(node) + sum(walk(a) for a in node.args)
        memo[cid] = total
        return total

    return walk(root)


@settings(max_examples=60, deadline=None)
@given(GRAPHS)
def test_bounds_are_admissible_and_exact_is_sandwiched(graph):
    specs, merges = graph
    eg, classes = _grow(specs, merges)
    root = classes[-1]
    tree = class_lower_bounds(eg, unit_cost, "tree")
    dag = class_lower_bounds(eg, unit_cost, "dag")
    assert set(dag) == set(tree)
    assert all(dag[c] <= tree[c] for c in tree)

    greedy = greedy_select(eg, [root])
    exact = exact_select(eg, [root])
    if root not in tree:
        assert greedy.cost is None and exact.cost is None
        return
    assert greedy.cost is not None and exact.cost is not None
    assert tree[root] <= _tree_cost(eg, greedy.choice, root)
    assert dag[root] <= exact.cost <= greedy.cost
    if exact.optimal:
        assert exact.cost >= dag[root]


@settings(max_examples=40, deadline=None)
@given(GRAPHS, st.randoms(use_true_random=False))
def test_exact_selection_ignores_insertion_order(graph, rng):
    specs, merges = graph
    order = list(range(len(specs)))
    rng.shuffle(order)
    merge_order = list(range(len(merges)))
    rng.shuffle(merge_order)

    # Build A in the given order; build B with the node rows inserted in
    # a shuffled order.  Rows only ever reference earlier classes, so a
    # permuted build must remap argument indices: row ``specs[i]`` sees
    # the class list [bases..., spec 0, spec 1, ...] of build A — give
    # build B the same view by resolving arguments against A's indexing.
    def grow_in(order_):
        eg = EGraph()
        base = [
            eg.add_enode("input", (), name="a"),
            eg.add_enode("input", (), name="b"),
            eg.add_enode("const", (), value=0),
        ]
        created = {}
        pending = list(order_)
        while pending:
            progressed = False
            for k in list(pending):
                op_idx, arg_idxs = specs[k]
                op, arity = OPS[op_idx % len(OPS)]
                universe = 3 + k  # what row k could see in build A
                refs = [idx % universe for idx in arg_idxs[:arity]]
                if any(r >= 3 and (r - 3) not in created for r in refs):
                    continue  # an argument row hasn't been inserted yet
                args = tuple(
                    base[r] if r < 3 else created[r - 3] for r in refs
                )
                created[k] = eg.add_enode(op, args)
                pending.remove(k)
                progressed = True
            assert progressed, "dependency cycle in straight-line specs"
        classes = base + [created[k] for k in range(len(specs))]
        for m in merge_order:
            i, j = merges[m]
            eg.merge(classes[i % len(classes)], classes[j % len(classes)])
        eg.rebuild()
        return eg, classes

    eg_a, cls_a = grow_in(range(len(specs)))
    eg_b, cls_b = grow_in(order)
    assert eg_a.num_enodes() == eg_b.num_enodes()

    root_a, root_b = cls_a[-1], cls_b[-1]
    sel_a = exact_select(eg_a, [root_a])
    sel_b = exact_select(eg_b, [root_b])
    assert sel_a.cost == sel_b.cost
    assert sel_a.optimal == sel_b.optimal
    ra = sel_a.rendered.get(eg_a.find(root_a))
    rb = sel_b.rendered.get(eg_b.find(root_b))
    assert ra == rb

    ga = greedy_select(eg_a, [root_a])
    gb = greedy_select(eg_b, [root_b])
    assert ga.cost == gb.cost
    assert ga.rendered.get(eg_a.find(root_a)) == gb.rendered.get(
        eg_b.find(root_b)
    )


def _same_selection(a, b):
    return (
        a.cost, a.choice, a.rendered, a.optimal, a.mode,
        a.solves, a.conflicts,
    ) == (
        b.cost, b.choice, b.rendered, b.optimal, b.mode,
        b.solves, b.conflicts,
    )


RESTRICTIONS = st.tuples(
    st.sets(st.integers(0, 23), max_size=4),  # leaf class indices
    st.integers(0, 2**16 - 1),  # viability bits, one per e-node
)


@settings(max_examples=60, deadline=None)
@given(GRAPHS, RESTRICTIONS)
def test_restricted_selection_is_sandwiched(graph, restriction):
    specs, merges = graph
    eg, classes = _grow(specs, merges)
    root = classes[-1]
    leaf_idx, bits = restriction
    leaves = {classes[i % len(classes)] for i in leaf_idx}
    nodes = sorted(
        {n for c in set(classes) for n in eg.enodes(c)}, key=repr
    )
    dead = {n for i, n in enumerate(nodes) if bits >> (i % 16) & 1}
    # Graph leaves stay viable, so most draws keep the root realizable.
    viable = lambda n: n.op in ("input", "const") or n not in dead  # noqa

    dag = class_lower_bounds(eg, unit_cost, "dag", leaves, viable)
    tree = class_lower_bounds(eg, unit_cost, "tree", leaves, viable)
    greedy = greedy_select(eg, [root], unit_cost, leaves, viable)
    exact = exact_select(
        eg, [root], leaf_classes=leaves, viable=viable
    )
    if root not in tree:
        assert greedy.cost is None and exact.cost is None
        return
    assert greedy.cost is not None and exact.cost is not None
    assert dag[root] <= exact.cost <= greedy.cost
    # Every chosen node is viable, and no leaf class is chosen into.
    for sel in (greedy, exact):
        assert all(viable(n) for n in sel.choice.values())
        assert not set(sel.choice) & leaves
    # The greedy cost as a caller-held upper bound changes no optimum.
    upper = exact_select(
        eg, [root], leaf_classes=leaves, viable=viable, upper=greedy.cost
    )
    if exact.optimal and upper.optimal:
        assert upper.cost == exact.cost


@settings(max_examples=40, deadline=None)
@given(GRAPHS)
def test_neutral_restrictions_change_nothing(graph):
    """Default arguments give the same Selection as before the leaf,
    viability, operand and upper-bound restrictions existed: passing
    their neutral values reproduces the default answer exactly."""
    specs, merges = graph
    eg, classes = _grow(specs, merges)
    roots = [classes[-1]]
    default = exact_select(eg, roots)
    neutral = exact_select(
        eg,
        roots,
        leaf_classes=set(),
        viable=lambda n: True,
        operands=lambda n: n.args,
        upper=None,
    )
    assert _same_selection(default, neutral)
    assert _same_selection(
        greedy_select(eg, roots),
        greedy_select(eg, roots, unit_cost, set(), lambda n: True),
    )
    if default.cost is not None:
        capped = exact_select(eg, roots, upper=default.cost + 1)
        assert capped.cost == default.cost
        assert capped.rendered == default.rendered
