"""Test machines: architectural descriptions that only tests compile for.

None is a registered target.  Each one's spec name is unregistered, so
``target_for_spec`` falls back to it and the compiler saturates with the
universal axiom layers alone, the same corpus a registered target
without a tagged sublayer (ev6) gets.
"""

from __future__ import annotations

from dataclasses import replace

from repro.isa import ArchSpec, InstructionInfo, ev6


def _on_units(units):
    """ev6's instruction table, every instruction moved to ``units``."""
    return {
        op: replace(info, units=units)
        for op, info in ev6().instructions.items()
    }


def simple_risc() -> ArchSpec:
    """A single-issue, single-cluster machine.

    This is the machine of the paper's section 6 exposition ("we assume a
    machine without multiple issue"), used by tests to check the encoder
    against hand-computable schedules.
    """
    return ArchSpec(
        name="simple-risc",
        units=("P0",),
        clusters={"P0": 0},
        cross_cluster_delay=0,
        issue_width=1,
        instructions=_on_units(("P0",)),
    )


def itanium_like() -> ArchSpec:
    """A simplified IA-64-flavoured target — the paper's porting claim.

    "We are currently making the changes necessary to target the Intel
    Itanium architecture.  It appears that this shift will not require any
    radical changes (and the changes will mostly be to the axioms)"
    (section 1.1).  This spec demonstrates exactly that: the same operator
    vocabulary and axiom files retarget by swapping the architectural
    tables.  Differences from the EV6 model:

    * two memory units (M0, M1) and two integer units (I0, I1), one flat
      cluster (no cross-cluster delay);
    * no byte-manipulation instructions (``extbl``/``insbl``/``mskbl``/
      ``zap`` are not machine operations) — byte goals must compile to
      shift-and-mask sequences, which the axioms already provide;
    * ``shladd``-style scaled adds (mapped from ``s4addq``/``s8addq``);
    * loads hit in 2 cycles; integer multiply is slow (it runs on the FP
      unit on real IA-64) at latency 15.
    """
    m_units = ("M0", "M1")
    i_units = ("I0", "I1")
    all_units = m_units + i_units

    def alu(op, mnemonic, units=all_units, latency=1, imm=(1,), kind="alu"):
        return InstructionInfo(op, mnemonic, latency, units, tuple(imm), kind)

    table = [
        alu("add64", "add"),
        alu("sub64", "sub"),
        alu("neg64", "neg", imm=()),
        alu("s4addq", "shladd4", units=i_units),
        alu("s8addq", "shladd8", units=i_units),
        alu("addl", "add4", units=i_units),
        alu("subl", "sub4", units=i_units),
        alu("sextl", "sxt4", units=i_units, imm=()),
        alu("sextb", "sxt1", units=i_units, imm=()),
        alu("sextw", "sxt2", units=i_units, imm=()),
        alu("mul64", "xma.l", units=("I0",), latency=15),
        alu("umulh", "xma.hu", units=("I0",), latency=15),
        alu("and64", "and"),
        alu("bis", "or"),
        alu("xor64", "xor"),
        alu("bic", "andcm"),
        alu("not64", "not", imm=(0,)),
        alu("sll", "shl", units=i_units),
        alu("srl", "shr.u", units=i_units),
        alu("sra", "shr", units=i_units),
        alu("cmpeq", "cmp.eq"),
        alu("cmplt", "cmp.lt"),
        alu("cmple", "cmp.le"),
        alu("cmpult", "cmp.ltu"),
        alu("cmpule", "cmp.leu"),
        alu("cmoveq", "mov.eq", imm=(1,)),
        alu("cmovne", "mov.ne", imm=(1,)),
        InstructionInfo("ldiq", "movl", 1, all_units, (), "pseudo"),
        InstructionInfo("select", "ld8", 2, m_units, (), "load"),
        InstructionInfo("store", "st8", 1, m_units, (), "store"),
    ]
    return ArchSpec(
        name="itanium-like",
        units=all_units,
        clusters={u: 0 for u in all_units},
        cross_cluster_delay=0,
        issue_width=4,
        instructions={info.op: info for info in table},
    )


def toy_tuple_machine() -> ArchSpec:
    """A two-issue toy with a multi-result instruction (paper section 7).

    ``tuple2`` computes two results at once; the non-machine projections
    ``proj0``/``proj1`` extract them.  Used by tests of the multi-result
    modelling. The projections are modelled as zero-latency machine
    pseudo-ops so the encoder can consume tuple components.
    """
    instructions = _on_units(("P0", "P1"))
    instructions["tuple2"] = InstructionInfo(
        "tuple2", "pair", 2, ("P0", "P1"), (), "alu"
    )
    instructions["proj0"] = InstructionInfo(
        "proj0", "lo", 1, ("P0", "P1"), (), "pseudo"
    )
    instructions["proj1"] = InstructionInfo(
        "proj1", "hi", 1, ("P0", "P1"), (), "pseudo"
    )
    return ArchSpec(
        name="toy-tuple",
        units=("P0", "P1"),
        clusters={"P0": 0, "P1": 0},
        cross_cluster_delay=0,
        issue_width=2,
        instructions=instructions,
    )
