"""Boolean satisfiability: CNF construction and a CDCL solver.

The paper uses the CHAFF solver behind a narrow interface and emphasises
that "we can easily substitute the current champion satisfiability solver".
This package provides that interface (:class:`SatSolver`), a from-scratch
CDCL implementation (two-watched literals, index-order decisions that
yield the lex-least model, first-UIP learning; no restarts, and learned
clauses are deleted only when a probe budget retires), and DIMACS
import/export so that any external solver can be slotted in.
"""

from repro.sat.cnf import CNF, Lit
from repro.sat.solver import CdclSolver, SatResult, SatSolver, Stats
from repro.sat.incremental import IncrementalSolver
from repro.sat.dimacs import from_dimacs, to_dimacs

__all__ = [
    "CNF",
    "Lit",
    "CdclSolver",
    "IncrementalSolver",
    "SatResult",
    "SatSolver",
    "Stats",
    "from_dimacs",
    "to_dimacs",
]
