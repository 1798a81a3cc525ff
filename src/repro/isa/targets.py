"""The declarative target registry.

Every layer that used to assume Alpha/EV6 now resolves a :class:`Target`
here — a named bundle of the architectural description
(:class:`~repro.isa.spec.ArchSpec`, which carries the register
conventions) plus the tag the axiom corpus is filtered by.  The CLI's
``--target``, the service's ``JobSpec.arch``, the fuzz oracles and the
benchmark harness all go through :func:`get_target`, so adding an ISA is
one :func:`register_target` call plus its spec and axiom sublayer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.isa.alpha import ev6
from repro.isa.riscv import rv64
from repro.isa.spec import ArchSpec


@dataclass(frozen=True)
class Target:
    """One retargetable ISA the pipeline can compile for.

    Attributes:
        name: canonical registry key ("ev6", "rv64", ...); also the tag
            axioms declare in their ``targets`` applicability field and
            the component cache/store fingerprints include.
        description: one line for ``repro targets``.
        spec_factory: builds the :class:`ArchSpec`; it takes the assumed
            D-cache latency as a ``load_latency`` keyword.
        aliases: alternative names accepted by :func:`get_target`.
    """

    name: str
    description: str
    spec_factory: Callable[..., ArchSpec] = field(repr=False)
    aliases: Tuple[str, ...] = ()

    def spec(self, load_latency: Optional[int] = None) -> ArchSpec:
        """Instantiate the architectural description (``None``: the
        factory's default load latency)."""
        if load_latency is None:
            return self.spec_factory()
        return self.spec_factory(load_latency=load_latency)


_REGISTRY: Dict[str, Target] = {}
_ALIASES: Dict[str, str] = {}


def register_target(target: Target) -> Target:
    """Add ``target`` to the registry (name and aliases must be free)."""
    for key in (target.name,) + target.aliases:
        if key in _REGISTRY or key in _ALIASES:
            raise ValueError("target name %r already registered" % key)
    _REGISTRY[target.name] = target
    for alias in target.aliases:
        _ALIASES[alias] = target.name
    return target


def get_target(name: str) -> Target:
    """The :class:`Target` registered under ``name`` (or an alias)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise KeyError(
            "unknown target %r (known: %s)"
            % (name, ", ".join(target_names()))
        )


def canonical_target(name: str) -> str:
    """A target alias's canonical name (``alpha`` -> ``ev6``).

    Unknown names pass through unchanged, so the caller's own check
    rejects them (the CLI's ``choices`` with the list of valid names).
    """
    try:
        return get_target(name).name
    except KeyError:
        return name


def target_names() -> Tuple[str, ...]:
    """Canonical names, registration order (ev6 first: the default)."""
    return tuple(_REGISTRY)


def available_targets() -> Tuple[Target, ...]:
    return tuple(_REGISTRY.values())


def resolve_spec(name: str, load_latency: Optional[int] = None) -> ArchSpec:
    """Shorthand: the named target's :class:`ArchSpec`."""
    return get_target(name).spec(load_latency=load_latency)


def target_for_spec(spec: ArchSpec) -> str:
    """The canonical target name of an :class:`ArchSpec`.

    Spec names ("alpha-ev6", "riscv-rv64", ...) are registered as aliases
    of their targets.  Unregistered specs (ad-hoc test machines) fall back
    to their own name — the corpus filter then keeps only the universal
    axiom layers, the right conservative corpus for a spec no sublayer
    was written for.
    """
    canonical = _ALIASES.get(spec.name, spec.name)
    return canonical if canonical in _REGISTRY else spec.name


register_target(Target(
    name="ev6",
    description="Alpha EV6: quad-issue, two clusters, byte-manipulation "
                "ISA (the paper's machine)",
    spec_factory=ev6,
    aliases=("alpha", "alpha-ev6"),
))
register_target(Target(
    name="rv64",
    description="RISC-V RV64 (Zba/Zbb flavour): dual-issue, single "
                "cluster, 12-bit immediates, no byte ops or cmovs",
    spec_factory=rv64,
    aliases=("riscv", "riscv-rv64"),
))
