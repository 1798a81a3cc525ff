"""Axiom datatypes and matching patterns.

An axiom is a universally quantified fact.  Three kinds exist, mirroring
section 5 of the paper:

* **equalities** ``(∀ vars :: lhs = rhs)``,
* **distinctions** ``(∀ vars :: lhs != rhs)``,
* **clauses** ``(∀ vars :: L1 ∨ L2 ∨ ... ∨ Ln)`` where each literal is an
  equality or a distinction.

Every axiom carries *trigger patterns* (the ``pats`` of the paper's input
syntax, suppressed in its prose): the matcher instantiates the axiom once
per E-graph match of each trigger.  Each trigger must bind every quantified
variable, so an instance is fully determined by a match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple, Union

from repro.terms.ops import OperatorRegistry
from repro.terms.term import Term, const, mk


@dataclass(frozen=True)
class PatternVar:
    """A quantified variable occurring in a pattern."""

    name: str

    def __repr__(self) -> str:
        return "?%s" % self.name


@dataclass(frozen=True)
class Pattern:
    """A term skeleton with pattern variables at some leaves.

    ``op`` is the operator name, or ``"const"`` / ``"var"`` for constant and
    variable leaves.
    """

    op: str
    args: Tuple["Pattern", ...] = ()
    value: Optional[int] = None  # for op == "const"
    var: Optional[str] = None  # for op == "var"

    @staticmethod
    def variable(name: str) -> "Pattern":
        return Pattern("var", (), None, name)

    @staticmethod
    def constant(value: int) -> "Pattern":
        return Pattern("const", (), value & ((1 << 64) - 1), None)

    @staticmethod
    def apply(op: str, *args: "Pattern") -> "Pattern":
        return Pattern(op, tuple(args))

    @property
    def is_var(self) -> bool:
        return self.op == "var"

    @property
    def is_const(self) -> bool:
        return self.op == "const"

    def variables(self) -> FrozenSet[str]:
        """The set of variable names occurring in this pattern."""
        if self.is_var:
            return frozenset([self.var])
        out: FrozenSet[str] = frozenset()
        for a in self.args:
            out |= a.variables()
        return out

    def instantiate(
        self,
        subst: Dict[str, Term],
        registry: Optional[OperatorRegistry] = None,
    ) -> Term:
        """Build the ground term for this pattern under ``subst``."""
        if self.is_var:
            if self.var not in subst:
                raise KeyError("unbound pattern variable %r" % self.var)
            return subst[self.var]
        if self.is_const:
            return const(self.value)
        args = tuple(a.instantiate(subst, registry) for a in self.args)
        return mk(self.op, *args, registry=registry)

    def pretty(self) -> str:
        if self.is_var:
            return "?%s" % self.var
        if self.is_const:
            return str(self.value)
        return "(%s %s)" % (self.op, " ".join(a.pretty() for a in self.args))

    def __repr__(self) -> str:
        return self.pretty()


# A clause literal: ("eq" | "neq", lhs pattern, rhs pattern)
Literal = Tuple[str, Pattern, Pattern]


@dataclass(frozen=True)
class _AxiomBase:
    name: str
    variables: Tuple[str, ...]
    triggers: Tuple[Pattern, ...]
    # Applicability tag: the target names this axiom may saturate for.
    # The empty tuple means *universal* — mathematical truths and the
    # definitional layers every target shares.  Non-empty tuples mark
    # per-ISA instruction idioms (e.g. the rv64 comparison lowerings),
    # which must never enter another target's corpus.
    targets: Tuple[str, ...] = ()

    def applies_to(self, target: str) -> bool:
        return not self.targets or target in self.targets

    def _check_triggers(self, body_vars: FrozenSet[str]) -> None:
        if not self.triggers:
            raise ValueError("axiom %r has no trigger patterns" % self.name)
        for trig in self.triggers:
            missing = body_vars - trig.variables()
            if missing:
                raise ValueError(
                    "axiom %r: trigger %s does not bind %s"
                    % (self.name, trig.pretty(), sorted(missing))
                )

    def body_ops(self) -> FrozenSet[str]:  # pragma: no cover - overridden
        raise NotImplementedError


def _pattern_ops(p: Pattern) -> FrozenSet[str]:
    if p.is_var or p.is_const:
        return frozenset()
    out = frozenset([p.op])
    for a in p.args:
        out |= _pattern_ops(a)
    return out


@dataclass(frozen=True)
class AxiomEquality(_AxiomBase):
    """``(∀ variables :: lhs = rhs)``."""

    lhs: Pattern = field(default=None)  # type: ignore[assignment]
    rhs: Pattern = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        body = self.lhs.variables() | self.rhs.variables()
        extra = body - frozenset(self.variables)
        if extra:
            raise ValueError(
                "axiom %r uses undeclared variables %s" % (self.name, sorted(extra))
            )
        self._check_triggers(body)

    def body_ops(self) -> FrozenSet[str]:
        return _pattern_ops(self.lhs) | _pattern_ops(self.rhs)

    def pretty(self) -> str:
        return "(forall (%s) %s = %s)" % (
            " ".join(self.variables),
            self.lhs.pretty(),
            self.rhs.pretty(),
        )


@dataclass(frozen=True)
class AxiomDistinction(_AxiomBase):
    """``(∀ variables :: lhs != rhs)``."""

    lhs: Pattern = field(default=None)  # type: ignore[assignment]
    rhs: Pattern = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        body = self.lhs.variables() | self.rhs.variables()
        self._check_triggers(body)

    def body_ops(self) -> FrozenSet[str]:
        return _pattern_ops(self.lhs) | _pattern_ops(self.rhs)

    def pretty(self) -> str:
        return "(forall (%s) %s != %s)" % (
            " ".join(self.variables),
            self.lhs.pretty(),
            self.rhs.pretty(),
        )


@dataclass(frozen=True)
class AxiomClause(_AxiomBase):
    """``(∀ variables :: L1 ∨ ... ∨ Ln)`` with equality/distinction literals."""

    literals: Tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        body: FrozenSet[str] = frozenset()
        for kind, lhs, rhs in self.literals:
            if kind not in ("eq", "neq"):
                raise ValueError("bad literal kind %r in axiom %r" % (kind, self.name))
            body |= lhs.variables() | rhs.variables()
        self._check_triggers(body)

    def body_ops(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for _, lhs, rhs in self.literals:
            out |= _pattern_ops(lhs) | _pattern_ops(rhs)
        return out

    def pretty(self) -> str:
        lits = " | ".join(
            "%s %s %s" % (l.pretty(), "=" if k == "eq" else "!=", r.pretty())
            for k, l, r in self.literals
        )
        return "(forall (%s) %s)" % (" ".join(self.variables), lits)


Axiom = Union[AxiomEquality, AxiomDistinction, AxiomClause]


Definitions = Mapping[str, Tuple[Tuple[str, ...], Pattern]]
_NO_DEFINITIONS: Definitions = MappingProxyType({})


def _define(defs: Dict[str, Tuple[Tuple[str, ...], Pattern]], ax) -> None:
    """Record in ``defs`` the definition ``ax`` gives, if it gives one."""
    if not isinstance(ax, AxiomEquality):
        return
    lhs, rhs = ax.lhs, ax.rhs
    if lhs.is_var or lhs.is_const or lhs.op in defs:
        return
    if not all(a.is_var for a in lhs.args):
        return
    params = tuple(a.var for a in lhs.args)
    if len(set(params)) != len(params):
        return
    if not rhs.variables() <= set(params):
        return
    if lhs.op in _pattern_ops(rhs):
        return
    # Nor may it close a mutual-recursion cycle through earlier
    # definitions (math's cmovlt -> cmovge plus a target sublayer's
    # cmovge -> cmovlt): expanding such a pair never terminates, so the
    # axiom that would close the loop loses.
    seen: set = set()
    frontier = list(_pattern_ops(rhs))
    while frontier:
        op = frontier.pop()
        if op == lhs.op:
            return
        if op in seen:
            continue
        seen.add(op)
        if op in defs:
            frontier.extend(_pattern_ops(defs[op][1]))
    defs[lhs.op] = (params, rhs)


class AxiomSet:
    """An ordered, named collection of axioms.

    Sets compose with ``+`` (mathematical + architectural + program-local),
    and can be narrowed with :meth:`relevant_to` so that per-problem
    matching only pays for axioms whose trigger operators actually occur.
    """

    def __init__(self, axioms: Iterable[Axiom] = (), name: str = "") -> None:
        self.name = name
        self._axioms: List[Axiom] = list(axioms)
        # Memos over a *prefix* of ``_axioms``: ``add`` only appends, and
        # ``+`` hands the left operand's memos to the sum, so each is
        # extended by the missing axioms when next asked for.
        self._fingerprint: Tuple[str, ...] = ()
        # ``definitions()`` after the first ``count`` axioms.
        self._definitions: Tuple[int, Definitions] = (0, _NO_DEFINITIONS)
        # The matcher's compiled rules (``repro.matching.compile``).
        self.rule_book = None

    def __iter__(self):
        return iter(self._axioms)

    def __len__(self) -> int:
        return len(self._axioms)

    def __add__(self, other: "AxiomSet") -> "AxiomSet":
        out = AxiomSet(
            list(self._axioms) + list(other._axioms),
            name="%s+%s" % (self.name, other.name),
        )
        out._fingerprint = self._fingerprint
        out._definitions = self._definitions
        out.rule_book = self.rule_book
        return out

    def add(self, axiom: Axiom) -> None:
        self._axioms.append(axiom)

    def fingerprint(self) -> Tuple[str, ...]:
        """The axioms' pretty-printed bodies, in order (memoised)."""
        done = self._fingerprint
        if len(done) < len(self._axioms):
            done = self._fingerprint = done + tuple(
                axiom.pretty() for axiom in self._axioms[len(done):]
            )
        return done

    def definitions(self) -> Definitions:
        """Definitional equalities: ``f(x1..xn) = rhs`` with fresh variables.

        Used by the evaluator to give executable semantics to
        program-declared (uninterpreted) operators, e.g. the checksum
        example's ``add``/``carry``.  An equality defines ``f`` when its
        left side is ``f`` applied to distinct variables, the right side
        only uses those variables, and does not mention ``f`` itself
        (commutativity-style axioms are skipped).  The first definition of
        each operator wins.  Memoised like :meth:`fingerprint`; the
        mapping is read-only.
        """
        count, done = self._definitions
        if count < len(self._axioms):
            defs = dict(done)
            for ax in self._axioms[count:]:
                _define(defs, ax)
            done = MappingProxyType(defs)
            self._definitions = (len(self._axioms), done)
        return done

    def for_target(self, target: str) -> "AxiomSet":
        """Keep axioms applicable to ``target``.

        Universal axioms (empty ``targets`` tag) always survive; tagged
        axioms survive only for their own targets — which is what keeps
        e.g. the rv64 comparison lowerings out of the ev6 corpus and the
        saturated fixpoints byte-stable per target.
        """
        kept = [ax for ax in self._axioms if ax.applies_to(target)]
        if len(kept) == len(self._axioms):
            return self
        return AxiomSet(kept, name="%s@%s" % (self.name, target))

    def relevant_to(self, ops: Iterable[str]) -> "AxiomSet":
        """Keep axioms with at least one trigger whose head operator is in ``ops``.

        Triggers headed by a constant or variable (rare) are always kept.
        """
        opset = set(ops)
        kept = []
        for ax in self._axioms:
            for trig in ax.triggers:
                if trig.is_var or trig.is_const or trig.op in opset:
                    kept.append(ax)
                    break
        return AxiomSet(kept, name="%s(filtered)" % self.name)

    def body_ops(self) -> FrozenSet[str]:
        out: FrozenSet[str] = frozenset()
        for ax in self._axioms:
            out |= ax.body_ops()
        return out
