"""Operator registry: names, sorts, arities and reference semantics.

Every operator that may appear in a term carries a signature.  Operators
with an ``eval_fn`` have executable reference semantics (used by the
evaluator, the verifier and constant folding in the matcher); operators
without one are *uninterpreted* — e.g. program-local operators introduced by
``\\opdecl`` whose meaning is given only by program axioms, exactly as in
the paper's checksum example.

The registry deliberately knows nothing about which operators the target
machine can execute; that is the ISA layer's business
(:mod:`repro.isa`).  The paper draws the same line: ``**`` is a perfectly
good operator for axioms even though no Alpha instruction computes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.terms import values as V


class Sort(enum.Enum):
    """The value sorts of the term language."""

    INT = "int"  # 64-bit word
    MEM = "mem"  # functional array of 64-bit words
    TUPLE = "tuple"  # multi-result instruction value (section 7)

    def __repr__(self) -> str:
        return "Sort.%s" % self.name


@dataclass(frozen=True)
class OpSignature:
    """Signature and semantics of one operator.

    Attributes:
        name: operator name as it appears in terms and axiom files.
        params: sorts of the arguments.
        result: sort of the result.
        eval_fn: reference semantics, or ``None`` for uninterpreted ops.
        commutative: hint consumed by term canonicalisation and matching.
    """

    name: str
    params: Tuple[Sort, ...]
    result: Sort
    eval_fn: Optional[Callable] = None
    commutative: bool = False

    @property
    def arity(self) -> int:
        return len(self.params)


class OperatorRegistry:
    """A mutable collection of operator signatures.

    A fresh registry starts from the built-in operators; programs may add
    their own uninterpreted operators (``\\opdecl``).  Instances are cheap
    to copy so that program-local declarations never leak between
    compilations.
    """

    def __init__(self, signatures: Optional[Dict[str, OpSignature]] = None):
        self._sigs: Dict[str, OpSignature] = dict(signatures or {})

    # -- declaration ------------------------------------------------------

    def declare(
        self,
        name: str,
        params: Iterable[Sort],
        result: Sort,
        eval_fn: Optional[Callable] = None,
        commutative: bool = False,
    ) -> OpSignature:
        """Register an operator; re-declaration must be identical."""
        sig = OpSignature(name, tuple(params), result, eval_fn, commutative)
        existing = self._sigs.get(name)
        if existing is not None:
            if (existing.params, existing.result) != (sig.params, sig.result):
                raise ValueError(
                    "operator %r re-declared with a different signature" % name
                )
            return existing
        self._sigs[name] = sig
        return sig

    def copy(self) -> "OperatorRegistry":
        return OperatorRegistry(self._sigs)

    # -- lookup ------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._sigs

    def get(self, name: str) -> OpSignature:
        try:
            return self._sigs[name]
        except KeyError:
            raise KeyError("unknown operator %r" % name) from None

    def names(self) -> Iterable[str]:
        return self._sigs.keys()


_I = Sort.INT
_M = Sort.MEM

# (name, param sorts, result sort, eval fn, commutative)
_BUILTINS = [
    # -- arithmetic --------------------------------------------------------
    ("add64", (_I, _I), _I, V.add64, True),
    ("sub64", (_I, _I), _I, V.sub64, False),
    ("mul64", (_I, _I), _I, V.mul64, True),
    ("neg64", (_I,), _I, V.neg64, False),
    ("umulh", (_I, _I), _I, V.umulh, True),
    ("addl", (_I, _I), _I, V.addl, True),
    ("subl", (_I, _I), _I, V.subl, False),
    ("mull", (_I, _I), _I, V.mull, True),
    ("s4addq", (_I, _I), _I, V.s4addq, False),
    ("s8addq", (_I, _I), _I, V.s8addq, False),
    ("s4subq", (_I, _I), _I, V.s4subq, False),
    ("s8subq", (_I, _I), _I, V.s8subq, False),
    ("s4addl", (_I, _I), _I, V.s4addl, False),
    ("s8addl", (_I, _I), _I, V.s8addl, False),
    # -- logic ---------------------------------------------------------------
    ("and64", (_I, _I), _I, V.and64, True),
    ("bis", (_I, _I), _I, V.bis, True),
    ("xor64", (_I, _I), _I, V.xor64, True),
    ("bic", (_I, _I), _I, V.bic, False),
    ("ornot", (_I, _I), _I, V.ornot, False),
    ("eqv", (_I, _I), _I, V.eqv, True),
    ("not64", (_I,), _I, V.not64, False),
    # -- shifts ---------------------------------------------------------------
    ("sll", (_I, _I), _I, V.sll, False),
    ("srl", (_I, _I), _I, V.srl, False),
    ("sra", (_I, _I), _I, V.sra, False),
    # -- comparisons ------------------------------------------------------
    ("cmpeq", (_I, _I), _I, V.cmpeq, True),
    ("cmpult", (_I, _I), _I, V.cmpult, False),
    ("cmpule", (_I, _I), _I, V.cmpule, False),
    ("cmplt", (_I, _I), _I, V.cmplt, False),
    ("cmple", (_I, _I), _I, V.cmple, False),
    # -- conditional moves ---------------------------------------------------
    ("cmoveq", (_I, _I, _I), _I, V.cmoveq, False),
    ("cmovne", (_I, _I, _I), _I, V.cmovne, False),
    ("cmovlt", (_I, _I, _I), _I, V.cmovlt, False),
    ("cmovge", (_I, _I, _I), _I, V.cmovge, False),
    ("cmovle", (_I, _I, _I), _I, V.cmovle, False),
    ("cmovgt", (_I, _I, _I), _I, V.cmovgt, False),
    ("cmovlbs", (_I, _I, _I), _I, V.cmovlbs, False),
    ("cmovlbc", (_I, _I, _I), _I, V.cmovlbc, False),
    # -- byte manipulation ------------------------------------------------
    ("extbl", (_I, _I), _I, V.extbl, False),
    ("extwl", (_I, _I), _I, V.extwl, False),
    ("extll", (_I, _I), _I, V.extll, False),
    ("extql", (_I, _I), _I, V.extql, False),
    ("insbl", (_I, _I), _I, V.insbl, False),
    ("inswl", (_I, _I), _I, V.inswl, False),
    ("insll", (_I, _I), _I, V.insll, False),
    ("insql", (_I, _I), _I, V.insql, False),
    ("mskbl", (_I, _I), _I, V.mskbl, False),
    ("mskwl", (_I, _I), _I, V.mskwl, False),
    ("mskll", (_I, _I), _I, V.mskll, False),
    ("mskql", (_I, _I), _I, V.mskql, False),
    ("zap", (_I, _I), _I, V.zap, False),
    ("zapnot", (_I, _I), _I, V.zapnot, False),
    ("sextb", (_I,), _I, V.sextb, False),
    ("sextw", (_I,), _I, V.sextw, False),
    ("sextl", (_I,), _I, V.sextl, False),
    # -- constant materialisation (pseudo-instruction on the machine side) --
    ("ldiq", (_I,), _I, lambda a: a & V.M64, False),
    # -- memory ---------------------------------------------------------------
    ("select", (_M, _I), _I, V.select_mem, False),
    ("store", (_M, _I, _I), _M, V.store_mem, False),
    # -- mathematical (non-machine) operators used by axioms -----------------
    ("pow", (_I, _I), _I, V.pow_, False),
    ("selectb", (_I, _I), _I, V.selectb, False),
    ("storeb", (_I, _I, _I), _I, V.storeb, False),
    ("selectw", (_I, _I), _I, V.selectw, False),
    # -- multi-result modelling (section 7) ---------------------------------
    ("tuple2", (_I, _I), Sort.TUPLE, lambda a, b: (a, b), False),
    ("proj0", (Sort.TUPLE,), _I, lambda t: t[0], False),
    ("proj1", (Sort.TUPLE,), _I, lambda t: t[1], False),
]


# The built-in operators whose signatures are commutative.
BUILTIN_COMMUTATIVE = frozenset(
    name for name, _params, _result, _fn, comm in _BUILTINS if comm
)


def default_registry() -> OperatorRegistry:
    """A fresh registry containing every built-in operator."""
    reg = OperatorRegistry()
    for name, params, result, fn, comm in _BUILTINS:
        reg.declare(name, params, result, fn, comm)
    return reg
