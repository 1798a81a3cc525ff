"""Translation: procedures → guarded multi-assignments (paper section 3).

Each procedure body is executed *symbolically*: variables map to terms over
the procedure's inputs.  Straight-line statements compose into a single
GMA; each loop is "cut" at its head — the live variables become fresh
inputs — and its (optionally unrolled) body becomes one guarded GMA whose
guard is the loop condition, exactly the copy-loop example of section 3.
Pointer reads become ``select(M, p)`` and pointer writes
``M := store(M, p, e)``.

The paper notes its factorisation into GMAs is deliberately simple ("many
conventional techniques could usefully be applied"); ours follows suit:
loops must not assign ``\\res``, and unrolled bodies assume the trip count
divides the unroll factor (the guard is evaluated once per unrolled
iteration group).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.axioms.sexpr import render_sexpr
from repro.lang.ast import (
    Assign,
    DoLoop,
    Expr,
    Procedure,
    Semi,
    Statement,
    VarDecl,
)
from repro.lang.gma import GMA
from repro.terms.ops import OperatorRegistry, Sort, default_registry
from repro.terms.term import Term, const, inp, mk


class TranslationError(Exception):
    """Raised when a procedure cannot be translated to GMAs."""


_BINOPS = {
    "+": "add64",
    "-": "sub64",
    "*": "mul64",
    "<<": "sll",
    ">>": "srl",
    ">>a": "sra",
    "&": "and64",
    "|": "bis",
    "^": "xor64",
    "<": "cmpult",
    "<=": "cmpule",
    "<s": "cmplt",
    "<=s": "cmple",
    "==": "cmpeq",
}

_CAST_MASKS = {"byte": 0xFF, "short": 0xFFFF, "word": 0xFFFF}

MEMORY_NAME = "M"
RESULT_NAME = "\\res"


class _State:
    """The symbolic machine state: variable name → term."""

    def __init__(self, registry: OperatorRegistry) -> None:
        self.registry = registry
        self.vars: Dict[str, Term] = {}
        self.memory_used = False
        # Loads annotated (\miss ...) — likely cache misses (section 6).
        self.slow_loads: set = set()

    def memory(self) -> Term:
        self.memory_used = True
        if MEMORY_NAME not in self.vars:
            self.vars[MEMORY_NAME] = inp(MEMORY_NAME, Sort.MEM)
        return self.vars[MEMORY_NAME]


def _strip(symbol: str) -> str:
    return symbol[1:] if symbol.startswith("\\") else symbol


def expr_to_term(expr: Expr, state: _State) -> Term:
    """Translate one expression under the current symbolic state."""
    if isinstance(expr, int):
        return const(expr)
    if isinstance(expr, str):
        if expr in state.vars:
            return state.vars[expr]
        raise TranslationError("unknown variable %r" % expr)
    if not isinstance(expr, list) or not expr:
        raise TranslationError("bad expression %s" % render_sexpr(expr))
    head = expr[0]
    if not isinstance(head, str):
        raise TranslationError("expression head must be a symbol")
    if head in _BINOPS and len(expr) == 3:
        return mk(
            _BINOPS[head],
            expr_to_term(expr[1], state),
            expr_to_term(expr[2], state),
            registry=state.registry,
        )
    if head == "-" and len(expr) == 2:
        return mk("neg64", expr_to_term(expr[1], state), registry=state.registry)
    if head in ("\\deref", "deref"):
        if len(expr) != 2:
            raise TranslationError("\\deref takes one address")
        return mk(
            "select",
            state.memory(),
            expr_to_term(expr[1], state),
            registry=state.registry,
        )
    if head in ("\\miss", "miss"):
        # Annotate a load as a likely cache miss (paper section 6: the
        # programmer communicates profile information via annotations).
        if len(expr) != 2:
            raise TranslationError("\\miss takes one expression")
        inner = expr_to_term(expr[1], state)
        if inner.op != "select":
            raise TranslationError("\\miss must wrap a memory read")
        state.slow_loads.add(inner)
        return inner
    if head in ("\\cast", "cast"):
        if len(expr) != 3 or not isinstance(expr[1], str):
            raise TranslationError("\\cast takes a sort and an expression")
        sort, inner = expr[1], expr_to_term(expr[2], state)
        if sort in ("long",):
            return inner
        if sort == "int":
            return mk("sextl", inner, registry=state.registry)
        if sort in _CAST_MASKS:
            return mk(
                "and64", inner, const(_CAST_MASKS[sort]), registry=state.registry
            )
        raise TranslationError("cannot cast to %r" % sort)
    op = _strip(head)
    if op not in state.registry:
        raise TranslationError("unknown operator %r" % head)
    args = tuple(expr_to_term(a, state) for a in expr[1:])
    return mk(op, *args, registry=state.registry)


def _exec_assign(stmt: Assign, state: _State) -> None:
    # Simultaneous semantics: evaluate every RHS first.
    values = [expr_to_term(rhs, state) for _, rhs in stmt.pairs]
    for (target, _), value in zip(stmt.pairs, values):
        if isinstance(target, str):
            name = target if target != "res" else RESULT_NAME
            state.vars[name] = value
            continue
        if isinstance(target, list) and target:
            head = target[0]
            if head in ("\\deref", "deref") and len(target) == 2:
                addr = expr_to_term(target[1], state)
                state.vars[MEMORY_NAME] = mk(
                    "store", state.memory(), addr, value, registry=state.registry
                )
                continue
            if head in ("\\setbyte", "setbyte") and len(target) == 3:
                var, index = target[1], target[2]
                if not isinstance(var, str) or var not in state.vars:
                    raise TranslationError("\\setbyte needs a known variable")
                state.vars[var] = mk(
                    "storeb",
                    state.vars[var],
                    expr_to_term(index, state),
                    value,
                    registry=state.registry,
                )
                continue
        raise TranslationError("bad assignment target %s" % render_sexpr(target))


def _annotations_for(state: _State, newvals, guard) -> tuple:
    """The \\miss-annotated loads that actually occur in this GMA's goals."""
    if not state.slow_loads:
        return ()
    from repro.terms.term import subterms

    present = set()
    for goal in list(newvals) + ([guard] if guard is not None else []):
        present.update(subterms(goal))
    return tuple(sorted(
        (t for t in state.slow_loads if t in present),
        key=lambda t: t.pretty(),
    ))


def _cut(state: _State) -> Dict[str, Term]:
    """Replace every variable with a fresh input (a loop-head cut)."""
    head: Dict[str, Term] = {}
    for name in state.vars:
        if name == RESULT_NAME:
            continue
        sort = Sort.MEM if name == MEMORY_NAME else Sort.INT
        head[name] = inp(name, sort)
    state.vars.update(head)
    return head


def _exec_statement(
    stmt: Statement, state: _State, gmas: List[Tuple[str, GMA]], proc_name: str
) -> None:
    if isinstance(stmt, Semi):
        for s in stmt.statements:
            _exec_statement(s, state, gmas, proc_name)
        return
    if isinstance(stmt, Assign):
        _exec_assign(stmt, state)
        return
    if isinstance(stmt, VarDecl):
        if stmt.init is not None:
            state.vars[stmt.name] = expr_to_term(stmt.init, state)
        else:
            state.vars[stmt.name] = inp(stmt.name)
        _exec_statement(stmt.body, state, gmas, proc_name)
        return
    if isinstance(stmt, DoLoop):
        head = _cut(state)
        guard = expr_to_term(stmt.guard, state)
        for _ in range(stmt.unroll):
            _exec_statement(stmt.body, state, gmas, proc_name)
        if RESULT_NAME in state.vars:
            raise TranslationError("\\res may not be assigned inside a loop")
        # Memory may be touched for the first time inside the body; its
        # loop-head value is then the plain memory input.
        if MEMORY_NAME in state.vars and MEMORY_NAME not in head:
            head[MEMORY_NAME] = inp(MEMORY_NAME, Sort.MEM)
        targets, newvals = [], []
        for name, head_term in head.items():
            now = state.vars[name]
            if now is not head_term:
                targets.append(name)
                newvals.append(now)
        if not targets:
            raise TranslationError("loop body assigns nothing")
        gmas.append(
            (
                "%s.loop%d" % (proc_name, sum(1 for l, _ in gmas if ".loop" in l)),
                GMA(
                    tuple(targets),
                    tuple(newvals),
                    guard=guard,
                    exit_label="%s.exit" % proc_name,
                    slow_loads=_annotations_for(state, newvals, guard),
                ),
            )
        )
        # After the loop the changed variables have unknown values.
        _cut(state)
        return
    raise TranslationError("unknown statement %r" % (stmt,))


def translate_procedure(
    proc: Procedure,
    registry: Optional[OperatorRegistry] = None,
) -> List[Tuple[str, GMA]]:
    """Convert one procedure into its labelled GMAs.

    Returns the loop GMAs in source order followed by the tail GMA (which
    assigns ``\\res`` and/or the memory, if the tail computes anything).
    """
    registry = registry if registry is not None else default_registry()
    state = _State(registry)
    for name, _sort in proc.params:
        state.vars[name] = inp(name)
    gmas: List[Tuple[str, GMA]] = []
    _exec_statement(proc.body, state, gmas, proc.name)

    targets, newvals = [], []
    if RESULT_NAME in state.vars:
        targets.append(RESULT_NAME)
        newvals.append(state.vars[RESULT_NAME])
    mem_now = state.vars.get(MEMORY_NAME)
    if mem_now is not None and not mem_now.is_input:
        targets.append(MEMORY_NAME)
        newvals.append(mem_now)
    if targets:
        gmas.append(
            (
                "%s.tail" % proc.name,
                GMA(
                    tuple(targets),
                    tuple(newvals),
                    slow_loads=_annotations_for(state, newvals, None),
                ),
            )
        )
    if not gmas:
        raise TranslationError(
            "procedure %r computes nothing (no \\res, no stores, no loops)"
            % proc.name
        )
    return gmas


def unroll_loop(loop: DoLoop, factor: int) -> DoLoop:
    """A copy of ``loop`` with the given unroll factor."""
    if factor < 1:
        raise TranslationError("unroll factor must be positive")
    return DoLoop(guard=loop.guard, body=loop.body, unroll=factor)
