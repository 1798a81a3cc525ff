"""Rule compilation: each axiom becomes a match program and build programs.

The saturation round loop never walks a :class:`Pattern` tree.  Every
axiom is compiled once per corpus into a :class:`Rule`; the round loop
then only runs flat programs.

**Match programs.**  Each trigger compiles into a program over *slots*
— registers holding canonical class ids:

* the trigger's head is not an instruction at all: the scan seeds the head
  argument slots straight from each candidate enode of the head operator's
  bucket (top-symbol and arity indexing);
* ``ENTER slot op arity arg_slots`` is a choice point: for every node of
  the class in ``slot`` applying ``op`` at ``arity``, write the node's
  argument classes into ``arg_slots`` and run the rest of the program;
* ``CONST slot value`` passes iff the class in ``slot`` has that constant;
* ``EQVAR slot other`` passes iff two slots hold the same class — the
  non-linear-variable check.

Instructions are emitted depth-first left-to-right, which reproduces the
enumeration order of the interpretive walker this module replaced.
Execution backtracks over ENTER choice points; a full pass over the
program yields one *row*: the variable slots read out in the trigger's
variable order (its variable names, sorted).  A trigger whose head
arguments are distinct variables has no instructions at all, and its
rows are read straight off the candidates' argument tuples.

**Build programs.**  Each side of an axiom (both sides of an equality or
distinction, both sides of every clause literal) compiles, per trigger
variable order, into a postfix program whose steps push one class each:

* ``VAR slot`` — the class bound to row position ``slot`` (rows hold
  class roots);
* ``CONST key value`` — the constant's class, adding the node if new;
* ``APPLY op arity result`` — pops ``arity`` classes and pushes the
  class of ``op`` over them, adding the node if new;
* ``UNKNOWN op`` — raises ``KeyError``: ``op`` had no signature when the
  program was compiled.

Every step also carries the parameter sort its parent wants (``None``
for the side's root); a class of another sort aborts the build with
``None`` before any later step runs.  Sorts come from the registry at
compile time.  A build therefore issues exactly the ``add_enode`` calls,
in exactly the order, that a recursive walk of the pattern would — the
hashcons is probed inline, and a probe that hits changes nothing — so
the graph sees the same mutation sequence either way.

Rules are cached on the :class:`AxiomSet` (:func:`compile_rules`).
The cache covers a prefix of the set's axioms and is extended lazily,
so ``corpus + program`` shares the corpus's rules and compiles only the
program's own axioms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.axioms.axiom import (
    Axiom,
    AxiomClause,
    AxiomDistinction,
    AxiomEquality,
    AxiomSet,
    Pattern,
)
from repro.egraph.egraph import EGraph, ENode, sort_code
from repro.terms.ops import OperatorRegistry, Sort

Subst = Dict[str, int]
Row = Tuple[int, ...]

# Match-program instructions.
ENTER = 0
CONST = 1
EQVAR = 2

# Build-program steps: (kind, a, b, c, want).
B_VAR = 0  # a = row position
B_CONST = 1  # a = hashcons key, b = value
B_APPLY = 2  # a = op, b = arity, c = result sort
B_UNKNOWN = 3  # a = op

# Rule kinds, one per axiom class.
RULE_EQ = 0
RULE_NEQ = 1
RULE_CLAUSE = 2

BuildStep = Tuple[int, object, object, object, Optional[int]]
BuildProgram = Tuple[BuildStep, ...]


class CompiledTrigger(NamedTuple):
    """One trigger pattern, compiled."""

    op: str
    arity: int
    n_slots: int
    head_slots: Tuple[int, ...]
    prog: Tuple[Tuple, ...]
    var_slots: Tuple[Tuple[str, int], ...]
    names: Tuple[str, ...]  # the variable order of a row
    row_slots: Tuple[int, ...]  # the slot of each row position


@lru_cache(maxsize=None)
def compile_trigger(pattern: Pattern) -> CompiledTrigger:
    """Compile ``pattern`` (an operator application) into a slot program."""
    if pattern.is_var or pattern.is_const:
        raise ValueError("trigger patterns must be operator applications")
    n_slots = 0
    var_map: Dict[str, int] = {}
    prog: List[Tuple] = []

    def alloc() -> int:
        nonlocal n_slots
        n_slots += 1
        return n_slots - 1

    def emit(pat: Pattern, slot: int) -> None:
        if pat.is_var:
            bound = var_map.get(pat.var)
            if bound is None:
                var_map[pat.var] = slot
            else:
                prog.append((EQVAR, slot, bound))
        elif pat.is_const:
            prog.append((CONST, slot, pat.value))
        else:
            arg_slots = tuple(alloc() for _ in pat.args)
            prog.append((ENTER, slot, pat.op, len(pat.args), arg_slots))
            for sub, sub_slot in zip(pat.args, arg_slots):
                emit(sub, sub_slot)

    head_slots = tuple(alloc() for _ in pattern.args)
    for sub, sub_slot in zip(pattern.args, head_slots):
        emit(sub, sub_slot)
    var_slots = tuple(sorted(var_map.items()))
    return CompiledTrigger(
        op=pattern.op,
        arity=len(pattern.args),
        n_slots=n_slots,
        head_slots=head_slots,
        prog=tuple(prog),
        var_slots=var_slots,
        names=tuple(name for name, _ in var_slots),
        row_slots=tuple(slot for _, slot in var_slots),
    )


# -- the match VM ----------------------------------------------------------------


def match_rows(
    eg: EGraph,
    trigger: CompiledTrigger,
    seeds: Sequence[int],
    limit: Optional[int] = None,
) -> List[Row]:
    """All rows matching ``trigger`` rooted at the ``seeds`` nodes.

    ``seeds`` are node ids of candidates carrying the trigger's head
    operator; nodes of a different arity are skipped.  A row holds the
    bound classes in ``trigger.names`` order.  Results are materialised
    eagerly — callers may mutate the graph only after this returns.
    With ``limit``, at most that many rows are built.

    The scan runs on the graph's flat columns (:meth:`EGraph.flat_view`):
    an ENTER choice point is a pointer walk down the class's node chain,
    and argument classes come straight off the canonical keys — after
    the rebuild the view performs, no per-read ``find`` is needed.
    """
    view = eg.flat_view()
    node_key = view.node_key
    arity = trigger.arity
    prog = trigger.prog
    row_slots = trigger.row_slots
    if not prog:
        # Distinct variables under the head: a row is a candidate's
        # argument tuple, permuted into variable order.
        if row_slots == trigger.head_slots:
            rows = [
                args
                for args in (node_key[seed].args for seed in seeds)
                if len(args) == arity
            ]
        else:
            rows = [
                tuple([args[slot] for slot in row_slots])
                for args in (node_key[seed].args for seed in seeds)
                if len(args) == arity
            ]
        return rows if limit is None else rows[:limit]

    nid_next = view.nid_next
    cls_head = view.cls_head
    consts = view.consts
    n_ins = len(prog)
    head_slots = trigger.head_slots
    slots = [0] * trigger.n_slots
    out: List[Row] = []

    def execute(pc: int) -> bool:
        """Run from ``pc``; True means the limit was hit — stop everything.

        Checks run in a loop; only an ENTER choice point recurses.
        """
        while pc < n_ins:
            ins = prog[pc]
            tag = ins[0]
            if tag == ENTER:
                _, slot, op, ar, arg_slots = ins
                nid = cls_head[slots[slot]]
                while nid != -1:
                    node = node_key[nid]
                    args = node.args
                    if node.op == op and len(args) == ar:
                        for arg_slot, arg in zip(arg_slots, args):
                            slots[arg_slot] = arg
                        if execute(pc + 1):
                            return True
                    nid = nid_next[nid]
                return False
            if tag == CONST:
                if consts.get(slots[ins[1]]) != ins[2]:
                    return False
            elif slots[ins[1]] != slots[ins[2]]:
                return False
            pc += 1
        out.append(tuple([slots[slot] for slot in row_slots]))
        return limit is not None and len(out) >= limit

    for seed in seeds:
        args = node_key[seed].args
        if len(args) != arity:
            continue
        for slot, arg in zip(head_slots, args):
            slots[slot] = arg
        if execute(0):
            break
    return out


def run_compiled(
    eg: EGraph,
    trigger: CompiledTrigger,
    seeds: Sequence[int],
    limit: Optional[int] = None,
) -> List[Subst]:
    """:func:`match_rows` as substitutions (variable name -> class)."""
    names = trigger.names
    return [
        dict(zip(names, row))
        for row in match_rows(eg, trigger, seeds, limit=limit)
    ]


# -- build programs --------------------------------------------------------------


def _signature(
    registry: OperatorRegistry, op: str
) -> Optional[Tuple[Tuple[Sort, ...], Sort]]:
    if op not in registry:
        return None
    sig = registry.get(op)
    return sig.params, sig.result


def compile_build(
    pattern: Pattern,
    names: Sequence[str],
    registry: OperatorRegistry,
    signatures: Optional[Dict[str, object]] = None,
) -> BuildProgram:
    """The postfix build program of ``pattern`` for rows in ``names`` order.

    Every operator's signature is recorded into ``signatures`` when
    given (the rule cache checks later registries against them).
    """
    position = {name: index for index, name in enumerate(names)}
    steps: List[BuildStep] = []

    def emit(pat: Pattern, want: Optional[int]) -> None:
        if pat.is_var:
            steps.append((B_VAR, position[pat.var], None, None, want))
            return
        if pat.is_const:
            key = ENode("const", (), pat.value, None)
            steps.append((B_CONST, key, pat.value, None, want))
            return
        sig = _signature(registry, pat.op)
        if signatures is not None:
            signatures[pat.op] = sig
        if sig is None:
            # The walk looks the signature up before building any
            # argument, so the error comes first here too.
            steps.append((B_UNKNOWN, pat.op, None, None, None))
            return
        params, result = sig
        arity = 0
        for sub, param in zip(pat.args, params):
            emit(sub, sort_code(param))
            arity += 1
        steps.append((B_APPLY, pat.op, arity, result, want))

    emit(pattern, None)
    return tuple(steps)


def make_builder(eg: EGraph) -> Callable[[BuildProgram, Row], Optional[int]]:
    """A function running build programs against ``eg``.

    ``build(program, row)`` returns the class of the instance, or
    ``None`` if a step's class has the wrong sort for its parent.
    ``row`` must hold class roots; they stay roots throughout, since
    ``add_enode`` never unions.  The builder may be kept for the
    graph's lifetime.
    """
    view = eg.build_view()
    hashcons = view.hashcons
    node_class = view.node_class
    sort_col = view.sort_col
    find = view.find
    add_enode = eg.add_enode
    int_sort = Sort.INT

    def build(program: BuildProgram, row: Row) -> Optional[int]:
        stack: List[int] = []
        push = stack.append
        pop = stack.pop
        for kind, a, b, c, want in program:
            if kind == B_VAR:
                cid = row[a]
            elif kind == B_APPLY:
                if b == 2:
                    right = pop()
                    args = (pop(), right)
                elif b == 1:
                    args = (pop(),)
                else:
                    cut = len(stack) - b
                    args = tuple(stack[cut:])
                    del stack[cut:]
                # Every class on the stack is a root (add_enode never
                # unions), so the key is canonical as built; a plain
                # tuple hashes and compares like the ENode key.
                nid = hashcons.get((a, args, None, None))
                if nid is None:
                    cid = add_enode(a, args, sort=c)
                else:
                    cid = find(node_class[nid])
            elif kind == B_CONST:
                nid = hashcons.get(a)
                if nid is None:
                    cid = add_enode("const", (), value=b, sort=int_sort)
                else:
                    cid = find(node_class[nid])
            else:
                raise KeyError("unknown operator %r" % a)
            if want is not None and sort_col[cid] != want:
                return None
            push(cid)
        return stack[0]

    return build


def instantiate(
    eg: EGraph,
    pattern: Pattern,
    subst: Subst,
    registry: OperatorRegistry,
) -> Optional[int]:
    """Add the instance of ``pattern`` under ``subst`` to the E-graph.

    Returns the class id of the instance, or ``None`` if the instance is
    ill-sorted (a variable bound to a class of the wrong sort), in which
    case building stops at the offending argument.
    """
    names = tuple(sorted(pattern.variables()))
    program = compile_build(pattern, names, registry)
    row = tuple(eg.find(subst[name]) for name in names)
    return make_builder(eg)(program, row)


# -- rules -----------------------------------------------------------------------


class RuleTrigger(NamedTuple):
    """One trigger of a rule, with the rule's sides built for its rows."""

    trigger: CompiledTrigger
    key: Tuple[str, Tuple[str, ...]]  # dedupe-key prefix: axiom, names
    # (literal kind, lhs program, rhs program) per literal; one for an
    # equality or distinction.
    sides: Tuple[Tuple[str, BuildProgram, BuildProgram], ...]


class Rule(NamedTuple):
    """One axiom, compiled."""

    name: str
    kind: int  # RULE_EQ | RULE_NEQ | RULE_CLAUSE
    triggers: Tuple[RuleTrigger, ...]


def compile_rule(
    axiom: Axiom, registry: OperatorRegistry, signatures: Dict[str, object]
) -> Rule:
    """Compile one axiom against ``registry``'s signatures."""
    if isinstance(axiom, AxiomEquality):
        kind = RULE_EQ
        literals = (("eq", axiom.lhs, axiom.rhs),)
    elif isinstance(axiom, AxiomDistinction):
        kind = RULE_NEQ
        literals = (("neq", axiom.lhs, axiom.rhs),)
    else:
        assert isinstance(axiom, AxiomClause)
        kind = RULE_CLAUSE
        literals = axiom.literals
    by_names: Dict[Tuple[str, ...], Tuple] = {}
    triggers = []
    for pattern in axiom.triggers:
        compiled = compile_trigger(pattern)
        names = compiled.names
        sides = by_names.get(names)
        if sides is None:
            sides = by_names[names] = tuple(
                (
                    lit_kind,
                    compile_build(lhs, names, registry, signatures),
                    compile_build(rhs, names, registry, signatures),
                )
                for lit_kind, lhs, rhs in literals
            )
        triggers.append(RuleTrigger(compiled, (axiom.name, names), sides))
    return Rule(axiom.name, kind, tuple(triggers))


class RuleBook:
    """An axiom set's compiled rules and the signatures they assumed.

    ``rules`` covers a prefix of the set's axioms, in order.
    ``signatures`` maps every operator a build program applies to the
    ``(params, result)`` it was compiled with (``None``: unknown).
    """

    __slots__ = ("rules", "signatures", "agreed")

    def __init__(
        self,
        rules: Tuple[Rule, ...],
        signatures: Dict[str, object],
        registry: OperatorRegistry,
    ) -> None:
        self.rules = rules
        self.signatures = signatures
        # The last registry the signatures were checked against.  A
        # registry never changes a signature it holds, so agreement
        # stays true — unless an unknown operator is declared later.
        self.agreed = None if None in signatures.values() else registry

    def agrees(self, registry: OperatorRegistry) -> bool:
        if registry is self.agreed:
            return True
        for op, sig in self.signatures.items():
            if _signature(registry, op) != sig:
                return False
        if None not in self.signatures.values():
            self.agreed = registry
        return True


def compile_rules(
    axioms: AxiomSet, registry: OperatorRegistry
) -> Tuple[Rule, ...]:
    """The rules of ``axioms`` under ``registry``, compiled once per set.

    The set's :attr:`~AxiomSet.rule_book` keeps them.  A book covering
    only a prefix (``corpus + program`` inherits the corpus's book) is
    extended by the missing axioms; a book compiled against different
    signatures is replaced.
    """
    book = axioms.rule_book
    done: Tuple[Rule, ...] = ()
    signatures: Dict[str, object] = {}
    if book is not None and book.agrees(registry):
        if len(book.rules) == len(axioms):
            return book.rules
        done = book.rules
        signatures = book.signatures
    fresh: Dict[str, object] = {}
    rules = done + tuple(
        compile_rule(axiom, registry, fresh)
        for axiom in list(axioms)[len(done):]
    )
    if not fresh.items() <= signatures.items():
        signatures = dict(signatures)
        signatures.update(fresh)
    axioms.rule_book = RuleBook(rules, signatures, registry)
    return rules
