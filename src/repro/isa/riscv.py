"""RISC-V RV64 architectural description (RV64IM + Zba/Zbb flavour).

The second *real* target of the reproduction, proving the pipeline's
architecture-parametricity beyond the Alpha family the paper used: a
dual-issue, single-cluster in-order core in the SiFive U74 mould.  Key
contrasts with the EV6 model that exercise the retargeting layer:

* **2-wide, one cluster** — no cross-cluster delay term in the encoder,
  half the issue bandwidth, so optimal cycle counts differ from EV6;
* **12-bit I-type immediates** — the literal field holds 0..2047 here
  (the encoder's ``fits_immediate`` gate), versus Alpha's 8-bit 0..255;
* **no byte-manipulation instructions** — ``extbl``/``insbl``/``mskbl``/
  ``zapnot`` are not machine operations, so byte goals compile to
  shift-and-mask sequences (the pipeline auto-enables
  ``synthesize_mask_alternatives`` for any spec without ``mskbl``);
* **no conditional moves and no ``cmpeq``/``cmple``/``cmpule``** — the
  base ISA only has ``slt``/``sltu``; the rv64 axiom sublayer
  (:func:`repro.axioms.builtin.riscv_axioms`) lowers the remaining
  comparisons through ``sltu``/``xor`` idioms and cmovs through
  mask-and-or arithmetic;
* **Zba scaled adds** (``sh2add``/``sh3add``) and **Zbb logic ops**
  (``andn``/``orn``/``xnor``/sign extensions), which keep the shared
  scaled-add and logic axioms profitable;
* loads hit in 3 cycles, multiplies take 4 on the first pipe only.
"""

from __future__ import annotations

from typing import Tuple

from repro.isa.registers import RV64_CONVENTIONS
from repro.isa.spec import ArchSpec, InstructionInfo

_PIPES: Tuple[str, ...] = ("X0", "X1")


def rv64(load_latency: int = 3) -> ArchSpec:
    """The RV64 (2-wide, single-cluster) architectural description.

    ``load_latency`` mirrors :func:`repro.isa.alpha.ev6`: the assumed
    D-cache hit latency, raised per-problem by expected-miss annotations.
    It must be at least 1.
    """
    if load_latency < 1:
        raise ValueError("load_latency must be >= 1, got %r" % (load_latency,))

    def alu(op, mnemonic, units=_PIPES, latency=1, imm=(1,), kind="alu"):
        return InstructionInfo(op, mnemonic, latency, units, tuple(imm), kind)

    table = [
        # arithmetic (addi/andi/ori/xori/slti/sltiu/shift-immediate forms
        # share the mnemonic; the printer keeps the register form's name,
        # as the ev6 table does for Alpha's literal encodings)
        alu("add64", "add"),
        alu("sub64", "sub", imm=()),
        alu("neg64", "neg", imm=()),
        alu("mul64", "mul", units=("X0",), latency=4, imm=()),
        alu("mull", "mulw", units=("X0",), latency=4, imm=()),
        alu("umulh", "mulhu", units=("X0",), latency=4, imm=()),
        alu("addl", "addw"),
        alu("subl", "subw", imm=()),
        # Zba address generation
        alu("s4addq", "sh2add", imm=()),
        alu("s8addq", "sh3add", imm=()),
        # logic (Zbb adds andn/orn/xnor)
        alu("and64", "and"),
        alu("bis", "or"),
        alu("xor64", "xor"),
        alu("bic", "andn", imm=()),
        alu("ornot", "orn", imm=()),
        alu("eqv", "xnor", imm=()),
        alu("not64", "not", imm=(0,)),
        # shifts (shamt immediates)
        alu("sll", "sll"),
        alu("srl", "srl"),
        alu("sra", "sra"),
        # sign extensions (Zbb sext.b/sext.h; sext.w is base RV64I)
        alu("sextl", "sext.w", imm=()),
        alu("sextb", "sext.b", imm=()),
        alu("sextw", "sext.h", imm=()),
        # comparisons: only signed/unsigned set-less-than exist
        alu("cmplt", "slt"),
        alu("cmpult", "sltu"),
        # constant materialisation (lui/addi pair; modelled as one pseudo)
        InstructionInfo("ldiq", "li", 1, _PIPES, (), "pseudo"),
        # memory (either pipe may issue a memory op on this core)
        InstructionInfo("select", "ld", load_latency, _PIPES, (), "load"),
        InstructionInfo("store", "sd", 1, _PIPES, (), "store"),
    ]
    return ArchSpec(
        name="riscv-rv64",
        units=_PIPES,
        clusters={"X0": 0, "X1": 0},
        cross_cluster_delay=0,
        issue_width=2,
        instructions={info.op: info for info in table},
        imm_lo=0,
        imm_hi=2047,
        regs=RV64_CONVENTIONS,
    )
