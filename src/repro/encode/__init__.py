"""Constraint generation: E-graph + architecture + cycle budget → CNF.

Implements the paper's section 6 encoding (the boolean unknowns ``L(i,T)``,
``A(i,T)``, ``B(i,Q)`` and the five constraint families) generalised to
multiple issue, per-unit assignment and per-cluster availability, plus the
section 7 extensions (guard-safety ordering).
"""

from repro.encode.constraints import (
    EncodeError,
    Encoding,
    EncodingOptions,
    IncrementalEncoder,
    cycle_floor,
    encode_schedule,
    sanitize_clauses,
)

__all__ = [
    "EncodeError",
    "Encoding",
    "EncodingOptions",
    "IncrementalEncoder",
    "cycle_floor",
    "encode_schedule",
    "sanitize_clauses",
]
