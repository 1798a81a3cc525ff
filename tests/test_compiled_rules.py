"""Compiled rules against the recursive pattern walkers they replaced.

Saturation runs each axiom as a compiled rule: a match program per
trigger (:func:`repro.matching.compile.match_rows`) and a postfix build
program per side.  This file keeps the recursive walkers — a pattern
matcher and the instance builder — as the reference, and holds the
compiled programs to them on every trigger and every side of the ev6
and rv64 corpora:

* a build program adds the same nodes in the same order and returns the
  same class as the recursive builder, and ``None`` on the same
  ill-sorted bindings;
* a trigger's rows are the recursive matcher's substitutions, in the
  same order, read out in the trigger's variable order.

It also pins that rules are compiled once per corpus: ``corpus +
program`` reuses the corpus's rule objects.
"""

import random

import pytest

from repro.axioms import parse_axiom_file
from repro.axioms.axiom import AxiomClause
from repro.core.cache import global_axiom_cache
from repro.egraph import EGraph
from repro.matching import SaturationConfig, ematch_all, saturate
from repro.matching.compile import (
    compile_build,
    compile_rules,
    compile_trigger,
    make_builder,
    match_rows,
)
from repro.terms import Sort, const, default_registry, inp, mk

TARGETS = ("ev6", "rv64")


def reference_instantiate(eg, pattern, subst, registry):
    """The recursive builder: walk the pattern, adding nodes bottom-up."""
    if pattern.is_var:
        return eg.find(subst[pattern.var])
    if pattern.is_const:
        return eg.add_enode("const", (), value=pattern.value, sort=Sort.INT)
    sig = registry.get(pattern.op)
    args = []
    for sub_pat, want in zip(pattern.args, sig.params):
        cid = reference_instantiate(eg, sub_pat, subst, registry)
        if cid is None:
            return None
        if eg.class_sort(cid) != want:
            return None
        args.append(cid)
    return eg.add_enode(pattern.op, tuple(args), sort=sig.result)


def _reference_match(eg, pattern, cid, subst):
    cid = eg.find(cid)
    if pattern.is_var:
        bound = subst.get(pattern.var)
        if bound is None:
            yield dict(subst, **{pattern.var: cid})
        elif bound == cid:
            yield subst
    elif pattern.is_const:
        if eg.const_of(cid) == pattern.value:
            yield subst
    else:
        for node in eg.enodes(cid):
            if node.op == pattern.op and len(node.args) == len(pattern.args):
                yield from _reference_args(eg, pattern.args, node.args, subst)


def _reference_args(eg, patterns, cids, subst):
    if not patterns:
        yield subst
        return
    for extended in _reference_match(eg, patterns[0], cids[0], subst):
        yield from _reference_args(eg, patterns[1:], cids[1:], extended)


def reference_ematch_all(eg, trigger):
    """The recursive matcher: every head node, arguments left to right."""
    node_key = eg.flat_view().node_key
    out = []
    for nid in eg.op_nids(trigger.op):
        args = node_key[nid].args
        if len(args) == len(trigger.args):
            out.extend(_reference_args(eg, trigger.args, args, {}))
    return out


def _corpus(target):
    registry = default_registry()
    return registry, global_axiom_cache().default_corpus(registry, target)


def _saturated_graph(target):
    """A small saturated graph with classes of both sorts."""
    registry, corpus = _corpus(target)
    eg = EGraph()
    a, b = inp("a"), inp("b")
    mem = inp("M", Sort.MEM)
    for term in (
        mk("add64", mk("mul64", a, const(4)), const(1)),
        mk("storeb", mk("storeb", const(0), const(0), mk("selectb", a, const(2))),
           const(1), mk("selectb", a, const(1))),
        mk("select", mk("store", mem, a, b), a),
        mk("sub64", mk("bis", a, b), mk("and64", a, const(0xFF00))),
    ):
        eg.add_term(term)
    saturate(
        eg, corpus, registry, SaturationConfig(max_rounds=3, max_enodes=700)
    )
    return registry, corpus, eg


def _sides(axiom):
    if isinstance(axiom, AxiomClause):
        for _kind, lhs, rhs in axiom.literals:
            yield lhs
            yield rhs
    else:
        yield axiom.lhs
        yield axiom.rhs


@pytest.mark.parametrize("target", TARGETS)
def test_build_programs_replay_the_recursive_builder(target):
    registry, corpus, base = _saturated_graph(target)
    base.rebuild()
    classes = sorted(base.classes())
    rng = random.Random(0)
    built = ill_sorted = 0
    for axiom in corpus:
        for trigger in axiom.triggers:
            names = compile_trigger(trigger).names
            for side in _sides(axiom):
                program = compile_build(side, names, registry)
                for _trial in range(5):
                    subst = {name: rng.choice(classes) for name in names}
                    expect_eg, got_eg = base.copy(), base.copy()
                    expect = reference_instantiate(
                        expect_eg, side, subst, registry
                    )
                    row = tuple(got_eg.find(subst[name]) for name in names)
                    got = make_builder(got_eg)(program, row)
                    where = (axiom.name, side.pretty(), subst)
                    assert got == expect, where
                    assert got_eg.version == expect_eg.version, where
                    assert (
                        got_eg.flat_view().node_key
                        == expect_eg.flat_view().node_key
                    ), where
                    if expect is None:
                        ill_sorted += 1
                    else:
                        built += 1
    # Both outcomes were exercised.
    assert built > 1000 and ill_sorted > 100


@pytest.mark.parametrize("target", TARGETS)
def test_match_rows_replay_the_recursive_matcher(target):
    _registry, corpus, eg = _saturated_graph(target)
    matched = 0
    for axiom in corpus:
        for pattern in axiom.triggers:
            trigger = compile_trigger(pattern)
            rows = match_rows(eg, trigger, eg.op_nids(trigger.op))
            expected = reference_ematch_all(eg, pattern)
            assert rows == [
                tuple(subst[name] for name in trigger.names)
                for subst in expected
            ], pattern.pretty()
            assert ematch_all(eg, pattern) == expected, pattern.pretty()
            matched += len(rows)
    assert matched > 300


def test_corpus_plus_program_shares_the_corpus_rules():
    registry, corpus = _corpus("ev6")
    corpus_rules = compile_rules(corpus, registry)
    program = parse_axiom_file(
        r"(\axiom (forall (x) (pats (\add64 x 0)) (eq (\add64 x 0) x)))",
        registry,
    )
    combined = corpus + program
    rules = compile_rules(combined, default_registry())
    assert len(rules) == len(corpus) + 1
    assert all(
        mine is theirs for mine, theirs in zip(rules, corpus_rules)
    )
    assert compile_rules(combined, registry) is rules  # memoised


def test_rules_follow_the_registry_signatures():
    text = r"(\axiom (forall (x) (pats (f x)) (eq (f x) (g x))))"
    int_registry = default_registry()
    int_registry.declare("f", (Sort.INT,), Sort.INT)
    int_registry.declare("g", (Sort.INT,), Sort.INT)
    axioms = parse_axiom_file(text, int_registry)
    mem_registry = default_registry()
    mem_registry.declare("f", (Sort.INT,), Sort.INT)
    mem_registry.declare("g", (Sort.MEM,), Sort.INT)
    int_rules = compile_rules(axioms, int_registry)
    mem_rules = compile_rules(axioms, mem_registry)
    assert mem_rules is not int_rules
    eg = EGraph()
    a = eg.add_term(inp("a"))
    build = make_builder(eg)
    (_kind, _lhs, rhs), = int_rules[0].triggers[0].sides
    assert build(rhs, (a,)) is not None
    (_kind, _lhs, rhs), = mem_rules[0].triggers[0].sides
    assert build(rhs, (a,)) is None  # an INT class where g wants MEM


def test_unknown_operator_raises_where_the_walk_would():
    registry = default_registry()
    registry.declare("h", (Sort.INT,), Sort.INT)
    (axiom,) = parse_axiom_file(
        r"(\axiom (forall (x) (pats (h x)) (eq (h x) (\add64 (h x) 1))))",
        registry,
    )
    # Compiled against a registry that lacks h: the build fails as the
    # recursive walk does, when it reaches h.
    program = compile_build(axiom.rhs, ("x",), default_registry())
    eg = EGraph()
    a = eg.add_term(inp("a"))
    with pytest.raises(KeyError):
        make_builder(eg)(program, (a,))
    with pytest.raises(KeyError):
        reference_instantiate(eg, axiom.rhs, {"x": a}, default_registry())
