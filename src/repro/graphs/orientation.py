"""Color-induced dag orientations (Theorem 4).

Given a proper coloring with an order ``≺`` on colors, orienting every
edge from the smaller to the larger color yields a directed acyclic
graph.  This is why a local coloring suffices as the symmetry-breaking
substrate for protocols MIS and MATCHING.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Tuple

from ..core.exceptions import TopologyError
from .coloring import Coloring, assert_local_identifiers
from .topology import Network

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

ProcessId = Hashable


def color_orientation(network: Network, colors: Coloring) -> "nx.DiGraph":
    """The orientation E' = {(p,q) : p~q and C.p ≺ C.q} of Theorem 4."""
    import networkx as nx

    assert_local_identifiers(network, colors)
    digraph = nx.DiGraph()
    digraph.add_nodes_from(network.processes)
    for p, q in network.edges():
        if colors[p] < colors[q]:
            digraph.add_edge(p, q)
        else:
            digraph.add_edge(q, p)
    return digraph


def verify_theorem4(network: Network, colors: Coloring) -> bool:
    """Check that the color orientation is acyclic (Theorem 4)."""
    import networkx as nx

    return nx.is_directed_acyclic_graph(color_orientation(network, colors))


def orientation_successors(
    network: Network, colors: Coloring
) -> Dict[ProcessId, FrozenSet[ProcessId]]:
    """``Succ.p`` per process under the color orientation."""
    digraph = color_orientation(network, colors)
    return {p: frozenset(digraph.successors(p)) for p in network.processes}


def local_minima(network: Network, colors: Coloring) -> Tuple[ProcessId, ...]:
    """Processes whose color is smaller than every neighbor's.

    These are the sources of the color dag; Lemma 4's induction starts
    from them (rank R(c) = 0).
    """
    assert_local_identifiers(network, colors)
    return tuple(
        p
        for p in network.processes
        if all(colors[p] < colors[q] for q in network.neighbors(p))
    )


def color_rank(colors: Coloring) -> Dict[ProcessId, int]:
    """R(C.p) of Notation 1: how many used colors are strictly smaller."""
    used = sorted(set(colors.values()))
    rank = {c: i for i, c in enumerate(used)}
    return {p: rank[c] for p, c in colors.items()}
