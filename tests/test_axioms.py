"""Tests for s-expressions, the axiom parser, and the built-in axiom files.

The heavyweight test here is soundness: every built-in equality axiom is
checked against the executable reference semantics on random and
adversarial values.  An unsound axiom would make Denali emit wrong code,
so this is the load-bearing wall of the whole reproduction.
"""

import os
import random

import pytest

from repro.axioms import (
    AxiomClause,
    AxiomDistinction,
    AxiomEquality,
    AxiomParseError,
    Pattern,
    SExprError,
    alpha_axioms,
    checksum_axioms,
    constant_synthesis_axioms,
    math_axioms,
    parse_axiom,
    parse_axiom_file,
    parse_sexprs,
)
from repro.axioms.sexpr import render_sexpr
from repro.terms import Memory, Sort, default_registry
from repro.terms.evaluator import Evaluator
from repro.terms.values import M64


class TestSExpr:
    def test_atoms(self):
        assert parse_sexprs("foo 42 -7") == ["foo", 42, -7]

    def test_hex_literal(self):
        assert parse_sexprs("0xff") == [255]

    def test_nested_lists(self):
        assert parse_sexprs("(a (b 1) c)") == [["a", ["b", 1], "c"]]

    def test_backslash_symbols(self):
        assert parse_sexprs(r"(\add64 a b)") == [["\\add64", "a", "b"]]

    def test_comments_stripped(self):
        assert parse_sexprs("; hello\n(a) ; trailing\n") == [["a"]]

    def test_unbalanced_open_rejected(self):
        with pytest.raises(SExprError):
            parse_sexprs("(a (b)")

    def test_unbalanced_close_rejected(self):
        with pytest.raises(SExprError):
            parse_sexprs("a)")

    def test_render_roundtrip(self):
        src = "(eq (\\add64 a 1) (\\add64 1 a))"
        parsed = parse_sexprs(src)[0]
        assert parse_sexprs(render_sexpr(parsed))[0] == parsed

    def test_multiple_toplevel(self):
        assert len(parse_sexprs("(a) (b) (c)")) == 3


class TestPattern:
    def test_variables(self):
        p = Pattern.apply("add64", Pattern.variable("x"), Pattern.constant(1))
        assert p.variables() == {"x"}

    def test_instantiate(self):
        from repro.terms import inp, mk

        p = Pattern.apply("add64", Pattern.variable("x"), Pattern.constant(1))
        t = p.instantiate({"x": inp("a")})
        assert t is mk("add64", inp("a"), const_one())

    def test_instantiate_unbound_raises(self):
        p = Pattern.variable("x")
        with pytest.raises(KeyError):
            p.instantiate({})

    def test_pretty(self):
        p = Pattern.apply("sll", Pattern.variable("k"), Pattern.constant(2))
        assert p.pretty() == "(sll ?k 2)"


def const_one():
    from repro.terms import const

    return const(1)


class TestAxiomParser:
    def test_equality(self):
        ax = parse_axiom(
            parse_sexprs(
                r"(forall (x y) (pats (\add64 x y)) (eq (\add64 x y) (\add64 y x)))"
            )[0]
        )
        assert isinstance(ax, AxiomEquality)
        assert ax.variables == ("x", "y")

    def test_default_trigger_from_lhs(self):
        ax = parse_axiom(
            parse_sexprs(r"(forall (x) (eq (\not64 (\not64 x)) x))")[0]
        )
        assert len(ax.triggers) == 1
        assert ax.triggers[0].op == "not64"

    def test_trigger_must_bind_all_vars(self):
        with pytest.raises((AxiomParseError, ValueError)):
            parse_axiom(
                parse_sexprs(
                    r"(forall (x y) (pats (\not64 x)) (eq (\not64 x) y))"
                )[0]
            )

    def test_distinction(self):
        ax = parse_axiom(
            parse_sexprs(r"(forall (x) (neq (\add64 x 1) x))")[0]
        )
        assert isinstance(ax, AxiomDistinction)

    def test_clause(self):
        ax = parse_axiom(
            parse_sexprs(
                r"""(forall (a i j x) (pats (\select (\store a i x) j))
                     (or (eq i j)
                         (eq (\select (\store a i x) j) (\select a j))))"""
            )[0]
        )
        assert isinstance(ax, AxiomClause)
        assert len(ax.literals) == 2

    def test_ground_axiom(self):
        ax = parse_axiom(parse_sexprs(r"(eq (\add64 1 2) 3)")[0])
        assert isinstance(ax, AxiomEquality)
        assert ax.variables == ()

    def test_unknown_operator_rejected(self):
        with pytest.raises(AxiomParseError):
            parse_axiom(parse_sexprs("(eq (frob x) x)")[0])

    def test_wrong_arity_rejected(self):
        with pytest.raises(AxiomParseError):
            parse_axiom(parse_sexprs(r"(forall (x) (eq (\add64 x) x))")[0])

    def test_bare_unquantified_symbol_rejected(self):
        with pytest.raises(AxiomParseError):
            parse_axiom(parse_sexprs(r"(forall (x) (eq (\not64 x) y))")[0])

    def test_axiom_file(self):
        axioms = parse_axiom_file(
            r"""
            ; a comment
            (\axiom (forall (x) (pats (\add64 x 0)) (eq (\add64 x 0) x)))
            (\axiom (forall (x) (pats (\mul64 x 1)) (eq (\mul64 x 1) x)))
            """
        )
        assert len(axioms) == 2

    def test_axiom_file_rejects_other_forms(self):
        with pytest.raises(AxiomParseError):
            parse_axiom_file("(\\opdecl f (long) long)")

    def test_program_local_operator(self):
        reg = default_registry()
        reg.declare("carry", (Sort.INT, Sort.INT), Sort.INT)
        ax = parse_axiom(
            parse_sexprs(
                r"(forall (a b) (pats (carry a b)) (eq (carry a b) (\cmpult (\add64 a b) a)))"
            )[0],
            reg,
        )
        assert ax.lhs.op == "carry"


class TestAxiomSet:
    def test_concatenation(self):
        s = math_axioms() + alpha_axioms()
        assert len(s) == len(math_axioms()) + len(alpha_axioms())

    def test_relevant_to_filters(self):
        s = math_axioms().relevant_to({"add64"})
        assert 0 < len(s) < len(math_axioms())
        for ax in s:
            assert any(
                t.op == "add64" or t.is_var or t.is_const for t in ax.triggers
            )

    def test_definitions_extracted(self):
        reg = default_registry()
        reg, axioms = checksum_axioms(reg)
        defs = axioms.definitions()
        assert "carry" in defs
        assert "add" in defs
        params, rhs = defs["carry"]
        assert params == ("a", "b")
        assert rhs.op == "cmpult"

    def test_definitions_skip_commutativity(self):
        reg = default_registry()
        reg, axioms = checksum_axioms(reg)
        params, rhs = axioms.definitions()["add"]
        # The chosen definition must not mention `add` itself.
        def ops(p):
            if p.is_var or p.is_const:
                return set()
            out = {p.op}
            for a in p.args:
                out |= ops(a)
            return out

        assert "add" not in ops(rhs)

    def test_definitions_skip_mutual_recursion(self):
        # cmovlt -> cmovge and cmovge -> cmovlt would expand forever;
        # the axiom that closes the loop must lose (rv64 seed-0
        # campaign regression: RecursionError in the baseline lowerer).
        reg = default_registry()
        axioms = parse_axiom_file(
            r"""
            (\axiom (forall (t x y) (pats (\cmovlt t x y))
                (eq (\cmovlt t x y) (\cmovge t y x))))
            (\axiom (forall (t x y) (pats (\cmovge t x y))
                (eq (\cmovge t x y) (\cmovlt t y x))))
            """,
            reg,
            name="loop",
        )
        defs = axioms.definitions()
        assert "cmovlt" in defs
        assert "cmovge" not in defs

    def test_rv64_corpus_definitions_are_grounded(self):
        # The target sublayer precedes the universal files, so the
        # grounded mask-form cmov lowerings win over math's swap forms
        # and every cmov definition bottoms out in machine arithmetic.
        from repro.axioms import default_axiom_corpus

        defs = default_axiom_corpus(default_registry(), "rv64").definitions()
        assert defs["cmovlt"][1].op == "bis"
        assert defs["cmoveq"][1].op == "bis"
        assert defs["cmovge"][1].op == "cmovlt"  # one grounded hop away



def _pattern_ops(p):
    if p.is_var or p.is_const:
        return set()
    out = {p.op}
    for a in p.args:
        out |= _pattern_ops(a)
    return out


def _unmemoised_definitions(axioms):
    """The definitions loop run from scratch over every axiom."""
    defs = {}
    for ax in axioms:
        if not isinstance(ax, AxiomEquality):
            continue
        lhs, rhs = ax.lhs, ax.rhs
        if lhs.is_var or lhs.is_const or lhs.op in defs:
            continue
        if not all(a.is_var for a in lhs.args):
            continue
        params = tuple(a.var for a in lhs.args)
        if len(set(params)) != len(params):
            continue
        if not rhs.variables() <= set(params):
            continue
        if lhs.op in _pattern_ops(rhs):
            continue
        seen, frontier, cyclic = set(), list(_pattern_ops(rhs)), False
        while frontier:
            op = frontier.pop()
            if op == lhs.op:
                cyclic = True
                break
            if op not in seen:
                seen.add(op)
                if op in defs:
                    frontier.extend(_pattern_ops(defs[op][1]))
        if not cyclic:
            defs[lhs.op] = (params, rhs)
    return defs


PERFSUITE_WORKLOADS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfsuite",
    "workloads",
)


class TestDefinitionsMemo:
    """``definitions()`` is memoised over a prefix of the axioms; every
    answer must equal the loop run from scratch."""

    @pytest.mark.parametrize("target", ["ev6", "rv64"])
    @pytest.mark.parametrize(
        "program", ["fig2", "byteswap3", "byteswap4", "checksum", "mulchain"]
    )
    def test_memo_equals_the_unmemoised_loop(self, target, program):
        from repro import parse_program
        from repro.axioms import AxiomSet, default_axiom_corpus

        corpus = default_axiom_corpus(default_registry(), target)
        assert dict(corpus.definitions()) == _unmemoised_definitions(corpus)
        with open(os.path.join(PERFSUITE_WORKLOADS, program + ".dn")) as f:
            parsed = parse_program(f.read())
        local = AxiomSet(parsed.axioms, "program")
        combined = corpus + local
        assert dict(combined.definitions()) == _unmemoised_definitions(
            combined
        )
        if program == "checksum":
            assert {"add", "carry"} <= set(combined.definitions())
        # The sum's memo never leaks into its left operand's.
        assert dict(corpus.definitions()) == _unmemoised_definitions(corpus)

    def test_add_extends_the_memo(self):
        reg, local = checksum_axioms(default_registry())
        axioms = math_axioms(reg)
        before = dict(axioms.definitions())
        assert before == _unmemoised_definitions(axioms)
        assert "carry" not in before
        for ax in local:
            axioms.add(ax)
        after = axioms.definitions()
        assert dict(after) == _unmemoised_definitions(axioms)
        assert "carry" in after and "add" in after

    def test_mapping_is_read_only(self):
        reg, axioms = checksum_axioms(default_registry())
        defs = axioms.definitions()
        with pytest.raises(TypeError):
            defs["carry"] = defs["add"]
        with pytest.raises(TypeError):
            del defs["add"]
        assert axioms.definitions() is defs


# ---------------------------------------------------------------------------
# Soundness of the built-in axiom corpus
# ---------------------------------------------------------------------------


def _infer_var_sorts(axiom, registry):
    """Infer each variable's sort from the positions it occupies."""
    sorts = {}

    def walk(pattern, expected):
        if pattern.is_var:
            sorts.setdefault(pattern.var, expected)
            return
        if pattern.is_const:
            return
        sig = registry.get(pattern.op)
        for arg, want in zip(pattern.args, sig.params):
            walk(arg, want)

    pats = []
    if isinstance(axiom, (AxiomEquality, AxiomDistinction)):
        pats = [(axiom.lhs, None), (axiom.rhs, None)]
    else:
        for _, l, r in axiom.literals:
            pats += [(l, None), (r, None)]
    for p, _ in pats:
        walk(p, Sort.INT)
    return sorts


def _random_value(sort, rng):
    if sort == Sort.MEM:
        seed = rng.randrange(1 << 20)
        return Memory(base=lambda a, s=seed: (a * 1103515245 + s) & M64)
    choices = [0, 1, 2, 3, 7, 8, 255, 256, 0xFFFF, 1 << 31, 1 << 63, M64]
    if rng.random() < 0.5:
        return rng.choice(choices)
    return rng.randrange(1 << 64)


def _eval_pattern(pattern, binding, registry):
    return Evaluator({}, registry)._eval_pattern(pattern, binding)


def _values_equal(a, b):
    if isinstance(a, Memory) and isinstance(b, Memory):
        probes = [0, 8, 16, 1 << 20, M64 & ~7]
        return all(a.select(p) == b.select(p) for p in probes)
    return a == b


def _all_builtin_axioms():
    reg = default_registry()
    corpus = []
    for axset in (math_axioms(reg), constant_synthesis_axioms(reg), alpha_axioms(reg)):
        corpus.extend(list(axset))
    checksum_reg = default_registry()
    checksum_reg, chk = checksum_axioms(checksum_reg)
    corpus.extend([(ax, checksum_reg) for ax in chk])
    return [
        (ax, reg) if not isinstance(ax, tuple) else ax for ax in corpus
    ]


@pytest.mark.parametrize(
    "axiom,registry",
    _all_builtin_axioms(),
    ids=lambda ar: getattr(ar, "name", "")[:60] if not isinstance(ar, tuple) else "",
)
def test_builtin_axiom_is_sound(axiom, registry):
    """Every built-in axiom holds on 60 random valuations."""
    rng = random.Random(hash(axiom.name) & 0xFFFF)
    sorts = _infer_var_sorts(axiom, registry)
    defs = {}
    if isinstance(axiom, AxiomEquality) and (
        registry.get(axiom.lhs.op).eval_fn is None
        if not axiom.lhs.is_var and not axiom.lhs.is_const
        else False
    ):
        pytest.skip("defines an uninterpreted operator")
    # Program-local ops (checksum) need their definitions to evaluate.
    chk_reg = registry
    if "carry" in registry:
        _, chk = checksum_axioms(default_registry())
        defs = chk.definitions()

    for _ in range(60):
        binding = {v: _random_value(s, rng) for v, s in sorts.items()}
        ev = Evaluator({}, chk_reg, defs)
        try:
            if isinstance(axiom, AxiomEquality):
                lhs = ev._eval_pattern(axiom.lhs, binding)
                rhs = ev._eval_pattern(axiom.rhs, binding)
                assert _values_equal(lhs, rhs), (
                    axiom.pretty(),
                    binding,
                    lhs,
                    rhs,
                )
            elif isinstance(axiom, AxiomDistinction):
                lhs = ev._eval_pattern(axiom.lhs, binding)
                rhs = ev._eval_pattern(axiom.rhs, binding)
                assert not _values_equal(lhs, rhs), (axiom.pretty(), binding)
            else:
                ok = False
                for kind, l, r in axiom.literals:
                    lv = ev._eval_pattern(l, binding)
                    rv = ev._eval_pattern(r, binding)
                    if (kind == "eq") == _values_equal(lv, rv):
                        ok = True
                        break
                assert ok, (axiom.pretty(), binding)
        except Exception as exc:
            if exc.__class__.__name__ == "EvalError":
                pytest.skip("axiom over uninterpreted operator")
            raise
