"""Typed-array (struct-of-arrays) primitives for the flat cores.

The SAT solver and the e-graph keep their hot state in parallel flat
columns — Python lists of small ints, ``bytearray`` columns for
byte-range values — instead of per-object heap records.  This module
collects the column manipulations both layers share (growth,
swap-remove, checkpoint/rollback, byte accounting) so the layout
invariants live in one place, plus the optional numpy detection used
for bulk fast paths.

Two deliberate layout choices, measured on CPython:

* hot integer columns are plain ``list`` objects — ``array('i')``
  re-boxes every element on read, which makes it *slower* than a list
  on read-heavy paths; a list pays 8 bytes per slot but indexes at
  native C speed and its ints stay interned/shared;
* byte-range columns (literal assignments, sort tags, liveness flags)
  are ``bytearray`` — one byte per slot, C-speed indexing, and
  ``bytearray(col)`` copies are flat memcpy.

The hottest inner loops (unit propagation, congruence repair) inline
these operations rather than calling through this module — a Python
function call costs more than the work it would wrap — so the helpers
here serve the warm paths (growth, snapshots, compaction) and the
differential tests, and double as the reference semantics the inlined
copies must agree with.

numpy, when present, accelerates bulk canonicalisation (see
:meth:`repro.egraph.unionfind.UnionFind.find_many`); it is
feature-detected and never a hard dependency.
"""

from __future__ import annotations

from typing import List, MutableSequence, Tuple, Union

try:  # pragma: no cover - exercised only where numpy is installed
    import numpy as _np

    HAVE_NUMPY = True
except Exception:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False

Column = Union[List[int], bytearray]

#: Bytes per slot charged for a Python-list column.  A CPython list slot
#: is one pointer; the boxed payload is shared/interned for the small
#: ints these columns hold, so the pointer word is the honest marginal
#: cost.  ``bytearray`` columns are charged one byte per slot.
LIST_SLOT_BYTES = 8


def numpy_or_none():
    """The numpy module when importable, else ``None`` (feature gate)."""
    return _np


def grow(col: Column, pad: int, fill: int = 0) -> None:
    """Append ``pad`` slots holding ``fill`` to a column.

    Works uniformly for list and bytearray columns; ``fill`` must be in
    byte range for the latter.  No-op when ``pad <= 0``.
    """
    if pad > 0:
        col.extend([fill] * pad)


def swap_remove(col: MutableSequence, idx: int):
    """Remove slot ``idx`` in O(1) by swapping the last slot into it.

    Returns the removed value.  Only valid for columns whose slot order
    carries no meaning (e.g. the e-graph's parent-occurrence lists);
    order-bearing columns must compact with an order-preserving sweep.
    """
    last = col.pop()
    if idx < len(col):
        removed = col[idx]
        col[idx] = last
        return removed
    return last


def checkpoint(*cols: Column) -> Tuple[int, ...]:
    """Capture the current lengths of append-only columns."""
    return tuple(len(c) for c in cols)


def rollback(marks: Tuple[int, ...], *cols: Column) -> None:
    """Truncate columns back to a :func:`checkpoint`.

    Sound only for columns that grew strictly by appends since the
    checkpoint (the trail/arena discipline): every slot past the mark is
    newer than the checkpoint and may be dropped wholesale.
    """
    for mark, col in zip(marks, cols):
        del col[mark:]


def copy_column(col: Column) -> Column:
    """A flat, independent copy of a column (one memcpy-style op)."""
    if isinstance(col, bytearray):
        return bytearray(col)
    return list(col)


def column_bytes(col: Column) -> int:
    """Approximate in-memory payload bytes of a column.

    Lists are charged :data:`LIST_SLOT_BYTES` per slot, bytearrays one
    byte per slot.  Object headers and over-allocation slack are
    excluded — the counters built on this measure relative growth, not
    absolute RSS.
    """
    if isinstance(col, (bytes, bytearray)):
        return len(col)
    return LIST_SLOT_BYTES * len(col)


def columns_bytes(*cols: Column) -> int:
    """Sum of :func:`column_bytes` over several columns."""
    return sum(column_bytes(c) for c in cols)
