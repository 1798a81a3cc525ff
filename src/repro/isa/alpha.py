"""The Alpha EV6 architectural description.

The EV6 model follows the paper's target: a quad-issue processor with four
integer execution slots — two "upper" units (U0, U1: the only ones with the
shifter, so all byte-manipulation instructions go there; the multiplier
hangs off U1) and two "lower" units (L0, L1: loads, stores and branches,
plus plain arithmetic/logic) — organised as two clusters {U0, L0} and
{U1, L1} with a one-cycle delay for a result to cross clusters.  Latencies
are the published EV6 integer latencies (1 for ALU, 7 for multiply, 3 for a
D-cache-hit load).

The real EV6 also slots instructions to units by fetch position; like the
paper, we let the scheduler choose units freely and note the approximation
(see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.isa.spec import ArchSpec, InstructionInfo

_UPPER: Tuple[str, ...] = ("U0", "U1")
_LOWER: Tuple[str, ...] = ("L0", "L1")
_ALL: Tuple[str, ...] = ("U0", "U1", "L0", "L1")


def _ev6_instructions() -> Dict[str, InstructionInfo]:
    def alu(op, mnemonic, units=_ALL, latency=1, imm=(1,), kind="alu"):
        return InstructionInfo(op, mnemonic, latency, units, tuple(imm), kind)

    table = [
        # arithmetic
        alu("add64", "addq"),
        alu("sub64", "subq"),
        alu("neg64", "negq", imm=()),
        alu("s4addq", "s4addq"),
        alu("s8addq", "s8addq"),
        alu("s4subq", "s4subq"),
        alu("s8subq", "s8subq"),
        alu("addl", "addl"),
        alu("subl", "subl"),
        alu("s4addl", "s4addl"),
        alu("s8addl", "s8addl"),
        alu("sextl", "sextl", imm=()),
        alu("mul64", "mulq", units=("U1",), latency=7),
        alu("mull", "mull", units=("U1",), latency=7),
        alu("umulh", "umulh", units=("U1",), latency=7),
        # logic
        alu("and64", "and"),
        alu("bis", "bis"),
        alu("xor64", "xor"),
        alu("bic", "bic"),
        alu("ornot", "ornot"),
        alu("eqv", "eqv"),
        alu("not64", "not", imm=(0,)),
        # shifter (upper units only)
        alu("sll", "sll", units=_UPPER),
        alu("srl", "srl", units=_UPPER),
        alu("sra", "sra", units=_UPPER),
        # byte manipulation (shifter)
        alu("extbl", "extbl", units=_UPPER),
        alu("extwl", "extwl", units=_UPPER),
        alu("extll", "extll", units=_UPPER),
        alu("extql", "extql", units=_UPPER),
        alu("insbl", "insbl", units=_UPPER),
        alu("inswl", "inswl", units=_UPPER),
        alu("insll", "insll", units=_UPPER),
        alu("insql", "insql", units=_UPPER),
        alu("mskbl", "mskbl", units=_UPPER),
        alu("mskwl", "mskwl", units=_UPPER),
        alu("mskll", "mskll", units=_UPPER),
        alu("mskql", "mskql", units=_UPPER),
        alu("zap", "zap", units=_UPPER),
        alu("zapnot", "zapnot", units=_UPPER),
        alu("sextb", "sextb", units=_UPPER, imm=(0,)),
        alu("sextw", "sextw", units=_UPPER, imm=(0,)),
        # comparisons
        alu("cmpeq", "cmpeq"),
        alu("cmplt", "cmplt"),
        alu("cmple", "cmple"),
        alu("cmpult", "cmpult"),
        alu("cmpule", "cmpule"),
        # conditional moves (value operand may be a literal)
        alu("cmoveq", "cmoveq", imm=(1,)),
        alu("cmovne", "cmovne", imm=(1,)),
        alu("cmovlt", "cmovlt", imm=(1,)),
        alu("cmovge", "cmovge", imm=(1,)),
        alu("cmovle", "cmovle", imm=(1,)),
        alu("cmovgt", "cmovgt", imm=(1,)),
        alu("cmovlbs", "cmovlbs", imm=(1,)),
        alu("cmovlbc", "cmovlbc", imm=(1,)),
        # constant materialisation (lda/ldah pair; modelled as one pseudo)
        InstructionInfo("ldiq", "ldiq", 1, _ALL, (), "pseudo"),
        # memory (lower units)
        InstructionInfo("select", "ldq", 3, _LOWER, (), "load"),
        InstructionInfo("store", "stq", 1, _LOWER, (), "store"),
    ]
    return {info.op: info for info in table}


def ev6(load_latency: int = 3) -> ArchSpec:
    """The Alpha EV6 architectural description.

    ``load_latency`` is the assumed D-cache latency; the Denali source
    language lets the programmer annotate expected-miss loads, which the
    pipeline models by raising this per-problem (section 6's discussion of
    profile-derived latency annotations).  It must be at least 1.
    """
    if load_latency < 1:
        raise ValueError("load_latency must be >= 1, got %r" % (load_latency,))
    instructions = _ev6_instructions()
    if load_latency != 3:
        old = instructions["select"]
        instructions["select"] = InstructionInfo(
            old.op, old.mnemonic, load_latency, old.units, old.imm_args, old.kind
        )
    return ArchSpec(
        name="alpha-ev6",
        units=_ALL,
        clusters={"U0": 0, "L0": 0, "U1": 1, "L1": 1},
        cross_cluster_delay=1,
        issue_width=4,
        instructions=instructions,
    )
