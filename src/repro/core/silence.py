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
from .context import StepContextPool
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
    """The per-process walks of one silence check, on pooled contexts.

    A walk only ever changes ``p``'s internal registers, and never in
    γ: each walk state is ``p``'s pooled context, re-armed and then
    given the state's internals as buffered writes, which
    :meth:`StepContext.get` reads before γ.  So no walk copies or
    writes the configuration, and every neighbour cell is resolved once
    per pool.  The pool is the run's own when the caller holds one
    (its contexts are re-armed before any later use), else a throwaway
    one.  A check costs O(n + Σ walk lengths).
    """

    __slots__ = ("config", "pool", "actions", "rng", "specs_of",
                 "_internal_of")

    def __init__(self, protocol: Protocol, network, config: Configuration,
                 specs_of=None, pool: Optional[StepContextPool] = None):
        self.config = config
        self.specs_of = (specs_of if specs_of is not None
                         else protocol.specs_of(network))
        self.pool = (pool if pool is not None
                     else StepContextPool(network, config, self.specs_of))
        self.actions = protocol.actions()
        # Every walk probes from a fresh seed-0 stream; a walk that drew
        # from it reseeds it on exit (see :meth:`witness`).
        self.rng = random.Random(0)
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
        config, actions, rng = self.config, self.actions, self.rng
        names = self._internal_names(p)
        ctx = self.pool.acquire(p, rng)
        state = tuple(map(ctx.get, names))
        seen = set()
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
                ctx.reset(rng)
                ctx.writes.update(zip(names, state))
        finally:
            # A draw ends the walk with a witness (or, from a guard,
            # with None): only the state it ended on can have drawn.
            if ctx.used_randomness:
                rng.seed(0)


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
    protocol: Protocol, network, config: Configuration, specs_of=None,
    pool: Optional[StepContextPool] = None,
) -> Optional[QuiescenceWitness]:
    """First witness that ``config`` is not silent, or None if it is.

    Processes are walked in network order; ``specs_of`` and ``pool``
    (the run's spec map and context pool over ``config``, when the
    caller holds them) spare a rebuild.  Pooled contexts read rows
    directly, so a caller passing a pool must have decoded any pending
    column writes first.
    """
    walker = _QuiescenceWalker(protocol, network, config, specs_of, pool)
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
