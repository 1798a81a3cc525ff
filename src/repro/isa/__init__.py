"""Architecture descriptions.

The paper's constraint generator consumes "an architectural description,
which includes tables specifying which functional units can execute which
instructions, and a table of latencies" (section 3).  :class:`ArchSpec` is
that description; :func:`ev6` instantiates it for the Alpha EV6 (quad
issue, two clusters with a cross-cluster delay) and :func:`rv64` for a
dual-issue RISC-V RV64 core.  Targets are resolved by name through
:mod:`repro.isa.targets`.
"""

from repro.isa.spec import ArchSpec, InstructionInfo
from repro.isa.alpha import ev6
from repro.isa.riscv import rv64
from repro.isa.registers import RegisterConventions, RegisterFile
from repro.isa.targets import (
    Target,
    available_targets,
    get_target,
    register_target,
    resolve_spec,
    target_for_spec,
    target_names,
)

__all__ = [
    "ArchSpec",
    "InstructionInfo",
    "ev6",
    "rv64",
    "RegisterConventions",
    "RegisterFile",
    "Target",
    "available_targets",
    "get_target",
    "register_target",
    "resolve_spec",
    "target_for_spec",
    "target_names",
]
