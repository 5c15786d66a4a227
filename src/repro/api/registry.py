"""String registries for protocols, topologies, schedulers, and engines.

The declarative experiment layer needs every component constructible
from a ``(name, params)`` pair so that a whole campaign is plain data
(JSON).  Four registries cover the experiment axes:

* **topologies** — builders ``(**params) -> Network``;
* **protocols** — builders ``(network, **params) -> Protocol`` (the
  network always comes first because every paper protocol is
  instantiated *for* a network);
* **schedulers** — builders ``(network, **params) -> Scheduler``.  The
  network argument lets network-aware daemons (the locally central
  scheduler) be described by name alone and constructed lazily at
  :class:`~repro.core.simulator.Simulator` build time.  Every built-in
  daemon that supports drawing from the maintained enabled set accepts
  ``enabled_only=True`` as a parameter;
* **engines** — builders ``(**params) -> EnabledSetEngine`` for the
  enabled-set maintenance strategies of :mod:`repro.core.engine`
  (``incremental``, ``scan``, ``debug``) and the columnar batch
  engine of :mod:`repro.core.batchengine` (``batch``, its alias
  ``batch-resident``, and ``batch-debug``).  This registry is a view
  of the core engine table :data:`repro.core.engine.ENGINES`, so an
  engine registered here is also buildable by ``Simulator(engine=)``.

Metrics tiers (``full`` | ``aggregate`` | ``off``) are deliberately
*not* a registry: they are a closed three-value knob on
:class:`~repro.core.simulator.Simulator` /
:class:`~repro.api.ExperimentSpec` (see
:data:`repro.core.metrics.METRICS_TIERS`), not an extensible component
— a custom collector would plug in as an engine-style object, not a
tier name.

All built-in implementations are pre-registered below, including the
full-read baselines, the k-window generalisations, and every scheduler
in :mod:`repro.core.scheduler`.  Downstream code extends the API with
the decorators::

    from repro.api import register_protocol

    @register_protocol("my-coloring")
    def _build(network, extra_colors=0):
        return MyColoring.for_network(network, extra_colors)
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Iterator, List, Optional

from ..core.engine import ENGINES
from ..core.scheduler import (
    BoundedFairScheduler,
    CentralScheduler,
    FixedSequenceScheduler,
    LocallyCentralScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    SynchronousScheduler,
)
from ..graphs import (
    Coloring,
    binary_tree,
    caterpillar,
    chain,
    clique,
    dsatur_coloring,
    greedy_coloring,
    grid,
    hypercube,
    random_connected,
    random_regular,
    random_tree,
    ring,
    sequential_coloring,
    sparse_random,
    star,
    torus,
    welsh_powell_coloring,
)
from ..graphs.topology import Network
from ..protocols import (
    ColoringProtocol,
    FullReadColoring,
    FullReadMIS,
    FullReadMatching,
    MISProtocol,
    MatchingProtocol,
    WindowColoringProtocol,
    WindowMISProtocol,
)


class Registry:
    """A name -> builder table with decorator-style registration."""

    def __init__(self, kind: str,
                 builders: Optional[Dict[str, Callable]] = None):
        self.kind = kind
        #: the name -> builder table (shared, not copied, when given)
        self._builders: Dict[str, Callable] = (
            {} if builders is None else builders
        )

    def register(self, name: str, builder: Callable = None):
        """Register ``builder`` under ``name``; usable as a decorator."""
        if builder is None:
            def decorator(fn: Callable) -> Callable:
                self.register(name, fn)
                return fn
            return decorator
        if name in self._builders:
            raise ValueError(f"{self.kind} {name!r} already registered")
        self._builders[name] = builder
        return builder

    def get(self, name: str) -> Callable:
        try:
            return self._builders[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def build(self, name: str, *args, **params):
        builder = self.get(name)
        try:
            inspect.signature(builder).bind(*args, **params)
        except TypeError as exc:
            raise ValueError(
                f"bad parameters for {self.kind} {name!r}: {exc}"
            ) from None
        # The arguments bind, so any TypeError past this point is a bug
        # inside the builder and propagates with its real traceback.
        return builder(*args, **params)

    def names(self) -> List[str]:
        return sorted(self._builders)

    def __contains__(self, name: str) -> bool:
        return name in self._builders

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._builders)

    def __repr__(self) -> str:
        return f"Registry({self.kind}: {self.names()})"


protocol_registry = Registry("protocol")
topology_registry = Registry("topology")
scheduler_registry = Registry("scheduler")
engine_registry = Registry("engine", ENGINES)

register_protocol = protocol_registry.register
register_topology = topology_registry.register
register_scheduler = scheduler_registry.register
register_engine = engine_registry.register


# ----------------------------------------------------------------------
# Built-in protocols
# ----------------------------------------------------------------------
_COLORERS: Dict[str, Callable[[Network], Coloring]] = {
    "greedy": greedy_coloring,
    "dsatur": dsatur_coloring,
    "sequential": sequential_coloring,
    "welsh-powell": welsh_powell_coloring,
}


def _colors(network: Network, coloring: str) -> Coloring:
    colorer = _COLORERS.get(coloring)
    if colorer is None:
        raise ValueError(
            f"unknown coloring algorithm {coloring!r}; "
            f"known: {sorted(_COLORERS)}"
        )
    return colorer(network)


@register_protocol("coloring")
def _coloring(network, extra_colors: int = 0):
    return ColoringProtocol.for_network(network, extra_colors=extra_colors)


@register_protocol("mis")
def _mis(network, coloring: str = "greedy"):
    return MISProtocol(network, _colors(network, coloring))


@register_protocol("matching")
def _matching(network, coloring: str = "greedy"):
    return MatchingProtocol(network, _colors(network, coloring))


@register_protocol("coloring-full")
def _coloring_full(network):
    return FullReadColoring.for_network(network)


@register_protocol("mis-full")
def _mis_full(network, coloring: str = "greedy"):
    return FullReadMIS(network, _colors(network, coloring))


@register_protocol("matching-full")
def _matching_full(network, coloring: str = "greedy"):
    return FullReadMatching(network, _colors(network, coloring))


@register_protocol("window-coloring")
def _window_coloring(network, k: int = 2):
    return WindowColoringProtocol.for_network(network, k=k)


@register_protocol("window-mis")
def _window_mis(network, k: int = 2, coloring: str = "greedy"):
    return WindowMISProtocol(network, _colors(network, coloring), k=k)


# ----------------------------------------------------------------------
# Built-in topologies
# ----------------------------------------------------------------------
register_topology("chain", chain)
register_topology("ring", ring)
register_topology("star", star)
register_topology("clique", clique)
register_topology("grid", grid)
register_topology("torus", torus)
register_topology("hypercube", hypercube)
register_topology("binary-tree", binary_tree)
register_topology("caterpillar", caterpillar)
register_topology("gnp", random_connected)
register_topology("regular", random_regular)
register_topology("sparse", sparse_random)
register_topology("tree", random_tree)


# ----------------------------------------------------------------------
# Built-in schedulers — builders take the network first so that
# network-aware daemons are constructible lazily; the others ignore it.
# ----------------------------------------------------------------------
@register_scheduler("synchronous")
def _synchronous(network, enabled_only: bool = False):
    return SynchronousScheduler(enabled_only=enabled_only)


@register_scheduler("central")
def _central(network, enabled_only: bool = False):
    return CentralScheduler(enabled_only=enabled_only)


@register_scheduler("random-subset")
def _random_subset(network, p_act: float = 0.5, enabled_only: bool = False):
    return RandomSubsetScheduler(p_act=p_act, enabled_only=enabled_only)


@register_scheduler("round-robin")
def _round_robin(network, enabled_only: bool = False):
    return RoundRobinScheduler(enabled_only=enabled_only)


@register_scheduler("bounded-fair")
def _bounded_fair(network, bound: int = 24, burst: int = 3):
    return BoundedFairScheduler(bound=bound, burst=burst)


@register_scheduler("fixed-sequence")
def _fixed_sequence(network, sequence=()):
    return FixedSequenceScheduler(sequence)


@register_scheduler("locally-central")
def _locally_central(network, p_act: float = 0.5, enabled_only: bool = False):
    return LocallyCentralScheduler(network, p_act=p_act,
                                   enabled_only=enabled_only)
