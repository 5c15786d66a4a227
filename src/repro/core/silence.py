"""Sound detection of silent configurations.

Definition 3 calls a protocol *silent* when every computation converges
to a configuration after which communication variables are fixed.
Detecting that a given configuration is such a fixed point cannot rely
on "nothing changed for a while": internal round-robin pointers keep
moving forever, and an action that writes a communication variable may
be enabled only under a pointer value that shows up much later.

The checker here is exact for the protocols in this package (and any
protocol whose internal variables have finite declared domains and are
updated deterministically):

Given a configuration γ, assume the communication part of γ never
changes.  Then each process's future is an isolated walk over its own
internal-variable space — guards read only its own state and the frozen
neighbor communication states, and the highest-priority enabled action
is unique.  We simulate that walk from the process's *actual* internal
state.  If no reachable internal state fires an action that (a) writes a
communication variable to a different value, or (b) writes a
communication variable using randomness, the assumption is
self-consistent and γ is silent.  Otherwise the offending write is a
concrete witness that γ is not a communication fixed point.

Randomness in an *internal* write would make the walk branch; the
checker conservatively reports "not silent" in that case (none of the
paper's protocols do this — COLORING's randomness targets the
communication variable ``C`` and is caught by rule (b)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from .actions import first_enabled
from .context import StepContext
from .protocol import Protocol
from .state import Configuration

ProcessId = Hashable


@dataclass(frozen=True)
class QuiescenceWitness:
    """Why a configuration is not silent: a reachable comm write."""

    process: ProcessId
    rule: str
    variable: str
    old_value: object
    new_value: object
    randomized: bool

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        how = "randomly" if self.randomized else f"to {self.new_value!r}"
        return (
            f"process {self.process!r} can rewrite {self.variable} "
            f"(currently {self.old_value!r}) {how} via rule {self.rule!r}"
        )


class _QuiescenceWalker:
    """The per-process walks of one silence check, sharing one trial copy.

    A walk only ever writes ``p``'s internal registers, and only in the
    trial: effects stay buffered in ``ctx.writes`` and are never
    flushed.  So one copy of γ serves every process, provided each walk
    puts ``p``'s internals back before the next one starts.  The first
    state of a walk is γ's own, so it is evaluated against ``config``
    directly; the copy is made only when some walk has to step past its
    first state (a non-silent γ usually yields its witness before that).
    A check costs O(n + Σ walk lengths).
    """

    __slots__ = ("network", "config", "specs_of", "actions", "rng",
                 "_trial", "_internal_of")

    def __init__(self, protocol: Protocol, network, config: Configuration,
                 specs_of=None):
        self.network = network
        self.config = config
        self.specs_of = (specs_of if specs_of is not None
                         else protocol.specs_of(network))
        self.actions = protocol.actions()
        # Every walk probes from a fresh seed-0 stream; a walk that drew
        # from it reseeds it on exit (see :meth:`witness`).
        self.rng = random.Random(0)
        self._trial: Optional[Configuration] = None
        #: internal register names per spec tuple (protocols share one
        #: tuple per degree, so this is a handful of entries)
        self._internal_of = {}

    def _internal_names(self, p: ProcessId) -> Tuple[str, ...]:
        specs = self.specs_of[p]
        names = self._internal_of.get(id(specs))
        if names is None:
            names = self._internal_of[id(specs)] = tuple(
                s.name for s in specs if s.kind == "internal"
            )
        return names

    def witness(self, p: ProcessId) -> Optional[QuiescenceWitness]:
        """Witness that ``p`` can still change its communication state,
        or None: the walk from ``p``'s actual internal state."""
        network, config, specs_of = self.network, self.config, self.specs_of
        actions, rng = self.actions, self.rng
        names = self._internal_names(p)
        ctx = StepContext(p, network, config, specs_of, rng=rng)
        start = tuple(map(ctx.get, names))
        state = start
        seen = set()
        trial = None
        try:
            while True:
                seen.add(state)
                action = first_enabled(actions, ctx)
                if action is None:
                    return None  # disabled forever at this internal state
                action.effect(ctx)
                comm_writes = ctx.comm_writes()
                for name, new_value in comm_writes.items():
                    old_value = config.get(p, name)
                    if ctx.used_randomness:
                        return QuiescenceWitness(
                            p, action.name, name, old_value, new_value, True
                        )
                    if new_value != old_value:
                        return QuiescenceWitness(
                            p, action.name, name, old_value, new_value, False
                        )
                if ctx.used_randomness and not comm_writes:
                    # Randomized internal update: the walk would branch;
                    # refuse to certify silence rather than guess.
                    return QuiescenceWitness(
                        p, action.name, "<internal>", None, None, True
                    )
                state = tuple(map(ctx.get, names))
                if state in seen:
                    return None
                if trial is None:
                    if self._trial is None:
                        self._trial = config.copy()
                    trial = self._trial
                    ctx = StepContext(p, network, trial, specs_of, rng=rng)
                else:
                    ctx.reset(rng)
                for name, value in zip(names, state):
                    trial.set(p, name, value)
        finally:
            # A draw ends the walk with a witness (or, from a guard,
            # with None): only the state it ended on can have drawn.
            if ctx.used_randomness:
                rng.seed(0)
            if trial is not None:
                for name, value in zip(names, start):
                    trial.set(p, name, value)


def process_quiescence_witness(
    protocol: Protocol,
    network,
    config: Configuration,
    p: ProcessId,
    specs_of=None,
) -> Optional[QuiescenceWitness]:
    """Witness that ``p`` can still change its communication state, or None."""
    return _QuiescenceWalker(protocol, network, config, specs_of).witness(p)


def silence_witness(
    protocol: Protocol, network, config: Configuration, specs_of=None
) -> Optional[QuiescenceWitness]:
    """First witness that ``config`` is not silent, or None if it is.

    Processes are walked in network order; ``specs_of`` (the run's spec
    map, when the caller holds one) spares a rebuild.
    """
    walker = _QuiescenceWalker(protocol, network, config, specs_of)
    for p in network.processes:
        witness = walker.witness(p)
        if witness is not None:
            return witness
    return None


def is_silent(
    protocol: Protocol, network, config: Configuration, specs_of=None
) -> bool:
    """True iff the communication variables of ``config`` are fixed forever."""
    return silence_witness(protocol, network, config, specs_of) is None
