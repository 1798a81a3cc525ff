"""Soundness of the incremental encoder's window pruning.

:class:`~repro.encode.constraints.IncrementalEncoder` allocates a launch
or availability variable only from the cycle the floor analysis proves
it can first be true.  These tests hold it to that claim: at each GMA's
optimal budget ``K``, every ``F``/``L``/``A``/``B`` variable of the
unpruned one-shot :func:`~repro.encode.constraints.encode_schedule`
formula that the pruned encoder leaves out must be fixed false by unit
propagation at the root of the unpruned formula.  The propagation is
written here, independent of the encoder and the solver.
"""

import os
from collections import defaultdict

import pytest

from repro.encode.constraints import IncrementalEncoder, encode_schedule
from repro.fuzz.generator import generate_case
from tests.test_cycle_floor import (
    GENERATED,
    PROGRAMS,
    WORKLOADS,
    _compile_all,
    _read,
)


def _root_values(clauses):
    """Variable -> bool for every literal unit propagation fixes at the root."""
    occurs = defaultdict(list)  # literal -> indices of the clauses holding it
    for index, clause in enumerate(clauses):
        for lit in clause:
            occurs[lit].append(index)
    unassigned = [len(clause) for clause in clauses]
    satisfied = [False] * len(clauses)
    value = {}
    queue = [clause[0] for clause in clauses if len(clause) == 1]
    while queue:
        lit = queue.pop()
        if abs(lit) in value:
            assert value[abs(lit)] == (lit > 0), "root conflict"
            continue
        value[abs(lit)] = lit > 0
        for index in occurs[lit]:
            satisfied[index] = True
        for index in occurs[-lit]:
            unassigned[index] -= 1
            if not satisfied[index] and unassigned[index] <= 1:
                rest = [x for x in clauses[index] if abs(x) not in value]
                assert rest, "root conflict"
                queue.append(rest[0])
    return value


def _pruned_keys(view, full):
    """The F/L/A/B names the pruned budget view allocates.

    ``L(i,T)`` lives from ``T``'s earliest launch on any unit and
    ``A(i,T)`` from ``lat(T) - 1`` cycles later.
    """
    keys = {("F",) + key for key in view.launch_vars}
    keys |= {("B",) + key for key in view.avail_vars}
    first = {}
    for i, node, _unit in view.launch_vars:
        first[node] = min(i, first.get(node, i))
    for node, start in first.items():
        for i in range(start, view.cycles):
            keys.add(("L", i, node))
            if i >= start + full.latency(node) - 1:
                keys.add(("A", i, node))
    return keys


def _assert_pruning_is_sound(gma, result, den):
    eg, goals, cycles = result.egraph, result.goal_classes, result.cycles
    unsafe = den._unsafe_terms(eg, gma, goals)
    overrides = den._latency_overrides(eg, gma)
    full = encode_schedule(
        eg, den.spec, goals, cycles,
        unsafe_terms=unsafe, latency_overrides=overrides,
    )
    encoder = IncrementalEncoder(eg, den.spec, goals, unsafe, overrides)
    encoder.ensure_budget(cycles)
    kept = _pruned_keys(encoder.decode_view(cycles), full)
    names = full.cnf.named_vars()
    dropped = [
        name for name in names
        if name[0] in ("F", "L", "A", "B") and name not in kept
    ]
    values = _root_values(full.cnf.clauses)
    unrefuted = [name for name in dropped if values.get(names[name]) is not False]
    assert not unrefuted, unrefuted[:5]
    return len(dropped)


@pytest.mark.parametrize(
    "target,program",
    [(t, p) for t, programs in sorted(PROGRAMS.items()) for p in programs],
)
def test_pruning_sound_on_benchmark_programs(target, program):
    source = _read(os.path.join(WORKLOADS, program + ".dn"))
    for gma, result, den in _compile_all(source, target):
        _assert_pruning_is_sound(gma, result, den)


def test_pruning_sound_on_generated_programs():
    dropped = 0
    for index in GENERATED:
        for gma, result, den in _compile_all(generate_case(index).source):
            dropped += _assert_pruning_is_sound(gma, result, den)
    assert dropped > 0  # the pruning is not vacuous
