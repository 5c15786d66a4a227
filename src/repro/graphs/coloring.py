"""Proper vertex colorings as the local-identifier substrate.

Protocols MIS and MATCHING assume a *locally identified* network: each
process holds a communication constant color ``C.p`` that differs from
every neighbor's, ordered by ``≺``.  Any proper vertex coloring provides
these constants (Theorem 4 then derives a dag orientation from them).

This module supplies several classical constructions — largest-first
greedy, first-fit along an order, Welsh-Powell and DSATUR — plus
verification helpers.  The COLORING protocol itself can also serve as
the substrate; see :mod:`repro.protocols.composite`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional

from ..core.exceptions import TopologyError
from .topology import Network

ProcessId = Hashable
Coloring = Dict[ProcessId, int]


def is_proper_coloring(network: Network, colors: Coloring) -> bool:
    """True iff adjacent processes always carry distinct colors."""
    if set(colors) != set(network.processes):
        return False
    return all(colors[p] != colors[q] for p, q in network.edges())


def assert_local_identifiers(network: Network, colors: Coloring) -> None:
    """Raise unless ``colors`` is a valid local-identifier assignment."""
    if not is_proper_coloring(network, colors):
        raise TopologyError("colors are not a proper (local-identifier) coloring")


def color_count(colors: Coloring) -> int:
    """#C — the number of distinct colors used (Notation 1)."""
    return len(set(colors.values()))


def _normalize(raw: Dict[ProcessId, int]) -> Coloring:
    """Shift colorings to the paper's 1-based convention."""
    return {p: c + 1 for p, c in raw.items()}


def greedy_coloring(network: Network) -> Coloring:
    """Largest-first greedy; ≤ Δ+1 colors.

    Processes are taken by non-increasing degree (a stable sort, so ties
    keep process order) and each gets the least color no neighbor holds.
    Same colors, and the same key order, as
    ``nx.greedy_color(strategy="largest_first")`` shifted to 1-based.
    """
    adj = network.adjacency
    order = sorted(range(len(adj)), key=lambda i: len(adj[i]), reverse=True)
    color = [0] * len(adj)  # 0 = not yet colored
    for i in order:
        taken = {color[j] for j in adj[i]}
        c = 1
        while c in taken:
            c += 1
        color[i] = c
    labels = network.processes
    return {labels[i]: color[i] for i in order}


def sequential_coloring(network: Network, order: Optional[Iterable[ProcessId]] = None) -> Coloring:
    """First-fit along an explicit order (defaults to process order)."""
    order = list(order) if order is not None else network.processes
    colors: Coloring = {}
    for p in order:
        taken = {colors[q] for q in network.neighbors(p) if q in colors}
        c = 1
        while c in taken:
            c += 1
        colors[p] = c
    return colors


def dsatur_coloring(network: Network) -> Coloring:
    """DSATUR — usually fewer colors than plain greedy."""
    import networkx as nx

    raw = nx.greedy_color(network.nx_graph, strategy="saturation_largest_first")
    return _normalize(raw)


def welsh_powell_coloring(network: Network) -> Coloring:
    """Welsh-Powell: first-fit in non-increasing degree order."""
    order = sorted(network.processes, key=lambda p: -network.degree(p))
    return sequential_coloring(network, order)


def random_proper_coloring(network: Network, rng) -> Coloring:
    """First-fit along a random order — random but proper (for tests)."""
    order = list(network.processes)
    rng.shuffle(order)
    return sequential_coloring(network, order)
