"""The differential checker: schedule vs. GMA reference semantics."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.emit import Schedule
from repro.lang.gma import GMA
from repro.sim.machine import execute_schedule
from repro.terms.evaluator import Evaluator
from repro.terms.ops import OperatorRegistry, Sort, default_registry
from repro.terms.term import subterms
from repro.terms.values import M64, Memory

# Values that tend to expose bit-twiddling bugs.
_ADVERSARIAL = [
    0,
    1,
    2,
    0xFF,
    0x100,
    0x7FFF_FFFF,
    0x8000_0000,
    0xFFFF_FFFF,
    1 << 63,
    (1 << 63) - 1,
    M64,
    0x0102_0304_0506_0708,
    0xDEAD_BEEF_CAFE_F00D,
]


def _name_offset(name: str) -> int:
    """A process-stable stagger for adversarial values.

    ``hash(str)`` is randomised per interpreter (PYTHONHASHSEED), which
    would make trial environments — and therefore every randomised
    verification verdict — differ from run to run.  A byte sum is enough
    to give different inputs different adversarial values on the same
    trial, and it never changes across processes.
    """
    return sum(name.encode("utf-8", "surrogatepass"))


@dataclass
class Counterexample:
    """One concrete refutation: the failing input vector and what diverged.

    ``env`` holds the scalar inputs of the failing trial (memory inputs are
    reproducible from the trial's seed, not serialisable values).  Register
    mismatches carry ``got``/``want``; memory mismatches carry the first
    differing ``address`` plus both memory images over every probed address
    (``memory_got`` is the schedule's final memory, ``memory_want`` the
    GMA's).  The stochastic searcher feeds ``env`` back into its
    cost-distance test vectors (CEGIS-style) so the same wrong answer is
    penalised on the next proposal.
    """

    trial: int
    target: str
    env: Dict[str, int] = field(default_factory=dict)
    got: Optional[int] = None
    want: Optional[int] = None
    address: Optional[int] = None
    memory_got: Dict[int, int] = field(default_factory=dict)
    memory_want: Dict[int, int] = field(default_factory=dict)

    def describe(self) -> str:
        if self.address is not None:
            return (
                "trial %d: target %r first differs at M[0x%x] = 0x%x, "
                "expected 0x%x (%d probed addresses)"
                % (
                    self.trial,
                    self.target,
                    self.address,
                    self.memory_got.get(self.address, 0),
                    self.memory_want.get(self.address, 0),
                    len(self.memory_want),
                )
            )
        return "trial %d: target %r = %s, expected %s (env %s)" % (
            self.trial,
            self.target,
            "0x%x" % self.got if self.got is not None else "<missing>",
            "0x%x" % self.want if self.want is not None else "<missing>",
            self.env,
        )

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "target": self.target,
            "env": dict(self.env),
            "got": self.got,
            "want": self.want,
            "address": self.address,
            "memory_got": {"0x%x" % a: v for a, v in self.memory_got.items()},
            "memory_want": {"0x%x" % a: v for a, v in self.memory_want.items()},
        }


@dataclass
class CheckReport:
    """Result of differential checking."""

    passed: bool
    trials: int
    failures: List[str] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)


def collect_inputs(gma: GMA) -> Dict[str, Sort]:
    """The input names (and sorts) a GMA's goal terms read."""
    names: Dict[str, Sort] = {}
    for goal in gma.goal_terms():
        for sub in subterms(goal):
            if sub.is_input:
                names[sub.name] = sub.sort
    return names


def _memory_addresses(
    gma: GMA,
    env: Dict[str, object],
    registry: OperatorRegistry,
    definitions: Optional[Dict] = None,
) -> Set[int]:
    """Addresses the GMA touches under ``env`` (for extensional comparison)."""
    addrs: Set[int] = set()
    ev = Evaluator(env, registry, definitions)
    for goal in gma.goal_terms():
        for sub in subterms(goal):
            if sub.op in ("select", "store"):
                addrs.add(int(ev.eval(sub.args[1])))  # type: ignore[arg-type]
    return addrs


def random_env(
    inputs: Dict[str, Sort], rng: random.Random, trial: int
) -> Dict[str, object]:
    """One trial's input assignment: adversarial values first, then random.

    Two adversarial phases precede the random trials: staggered (each
    input gets a different corner value) and diagonal (every input gets
    the *same* corner value).  The diagonal phase exists because neither
    staggered nor random trials ever make two 64-bit inputs equal, and
    equality is exactly the corner where compare/cmov idioms like
    ``c <u a`` vs ``c <=u a`` diverge.

    Shared with the stochastic searcher's cost model, whose test vectors
    must explore the same bit-twiddling corner cases the checker does.
    """
    env: Dict[str, object] = {}
    for name, sort in inputs.items():
        if sort == Sort.MEM:
            seed = rng.randrange(1 << 30)
            env[name] = Memory(
                base=lambda a, s=seed: (a * 0x9E3779B97F4A7C15 + s) & M64
            )
        else:
            if trial < len(_ADVERSARIAL):
                env[name] = _ADVERSARIAL[
                    (trial + _name_offset(name)) % len(_ADVERSARIAL)
                ]
            elif trial < 2 * len(_ADVERSARIAL):
                env[name] = _ADVERSARIAL[trial - len(_ADVERSARIAL)]
            else:
                env[name] = rng.randrange(1 << 64)
    return env


_random_env = random_env


def _scalar_env(env: Dict[str, object]) -> Dict[str, int]:
    return {k: v for k, v in env.items() if not isinstance(v, Memory)}


def check_schedule(
    gma: GMA,
    schedule: Schedule,
    registry: Optional[OperatorRegistry] = None,
    trials: int = 16,
    seed: int = 20020617,  # PLDI'02, June 17
    definitions: Optional[Dict] = None,
) -> CheckReport:
    """Compare the schedule's results with the GMA's on many inputs.

    For each register target the value in the goal register must equal the
    evaluated right-hand side; for the memory target, the final memory must
    agree extensionally on every address the GMA touches (plus probes
    around them).
    """
    registry = registry if registry is not None else default_registry()
    inputs = collect_inputs(gma)
    rng = random.Random(seed)
    failures: List[str] = []
    counterexamples: List[Counterexample] = []

    for trial in range(trials):
        env = random_env(inputs, rng, trial)
        expected_state = gma.apply(env, registry, definitions)
        state = execute_schedule(schedule, env, registry)

        for index, target in enumerate(gma.targets):
            expected = expected_state[target]
            if isinstance(expected, Memory):
                addrs = _memory_addresses(gma, env, registry, definitions)
                probe_addrs = set(addrs)
                for a in addrs:
                    probe_addrs.add((a + 8) & M64)
                    probe_addrs.add((a - 8) & M64)
                first_bad = None
                memory_got: Dict[int, int] = {}
                memory_want: Dict[int, int] = {}
                for a in sorted(probe_addrs):
                    got = state.memory.select(a)
                    want = expected.select(a)
                    memory_got[a] = got
                    memory_want[a] = want
                    if got != want:
                        if first_bad is None:
                            first_bad = a
                        failures.append(
                            "trial %d: M[0x%x] = 0x%x, expected 0x%x"
                            % (trial, a, got, want)
                        )
                if first_bad is not None:
                    counterexamples.append(
                        Counterexample(
                            trial=trial,
                            target=target,
                            env=_scalar_env(env),
                            address=first_bad,
                            memory_got=memory_got,
                            memory_want=memory_want,
                        )
                    )
            else:
                if index >= len(schedule.goal_operands):
                    failures.append(
                        "no goal operand recorded for target %r" % target
                    )
                    counterexamples.append(
                        Counterexample(
                            trial=trial,
                            target=target,
                            env=_scalar_env(env),
                            want=expected,
                        )
                    )
                    continue
                operand = schedule.goal_operands[index]
                if operand.literal is not None:
                    got = operand.literal
                else:
                    got = state.read(operand.register)
                if got != expected:
                    failures.append(
                        "trial %d: target %r = 0x%x, expected 0x%x (env %s)"
                        % (trial, target, got, expected, _scalar_env(env))
                    )
                    counterexamples.append(
                        Counterexample(
                            trial=trial,
                            target=target,
                            env=_scalar_env(env),
                            got=got,
                            want=expected,
                        )
                    )
        if len(failures) > 10:
            break

    return CheckReport(
        passed=not failures,
        trials=trials,
        failures=failures,
        counterexamples=counterexamples,
    )
