"""The paper's gadget topologies (Figures 1, 2, 3, 6, 9, 11).

These are the concrete networks used by the impossibility constructions
(Theorems 1 and 2) and the tight lower-bound examples for the stability
theorems (Theorems 6 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from ..core.exceptions import TopologyError
from .generators import chain
from .topology import Network, network_from_edges

ProcessId = Hashable


# ----------------------------------------------------------------------
# Theorem 1 gadgets (anonymous networks)
# ----------------------------------------------------------------------
def theorem1_chain() -> Network:
    """The anonymous 5-process chain of Figure 1: p1—p2—p3—p4—p5.

    Process ids are 1..5 to match the paper's naming.
    """
    return network_from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])


def theorem1_spliced_chain() -> Network:
    """The 7-process chain of Figure 1(c): p'1—…—p'7."""
    return network_from_edges([(i, i + 1) for i in range(1, 7)])


def theorem1_gadget(delta: int) -> Network:
    """The Δ-generalisation (Figure 2): Δ²+1 nodes.

    A center of degree Δ linked to Δ middle nodes of degree Δ, each
    middle node carrying Δ−1 pendants.  Node ids: ``"c"`` (center),
    ``("m", i)`` (middles), ``("l", i, j)`` (pendants).
    """
    if delta < 2:
        raise TopologyError("theorem1_gadget needs Δ ≥ 2")
    edges = []
    for i in range(delta):
        edges.append(("c", ("m", i)))
        for j in range(delta - 1):
            edges.append((("m", i), ("l", i, j)))
    net = network_from_edges(edges)
    assert net.n == delta * delta + 1
    assert net.max_degree == delta
    return net


# ----------------------------------------------------------------------
# Theorem 2 gadgets (rooted, dag-oriented networks)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OrientedNetwork:
    """A network plus a dag orientation and a distinguished root.

    ``succ[p]`` is the paper's ``Succ.p`` — the set of neighbors the
    dag-orientation directs p toward.  The directed graph over these
    edges must be acyclic (Definition 11).
    """

    network: Network
    succ: Dict[ProcessId, FrozenSet[ProcessId]]
    root: ProcessId

    def __post_init__(self) -> None:
        import networkx as nx

        digraph = nx.DiGraph()
        digraph.add_nodes_from(self.network.processes)
        for p, targets in self.succ.items():
            for q in targets:
                if not self.network.are_neighbors(p, q):
                    raise TopologyError(f"orientation edge {p!r}->{q!r} not in graph")
                digraph.add_edge(p, q)
        if not nx.is_directed_acyclic_graph(digraph):
            raise TopologyError("orientation is not a dag")
        if self.root not in self.network:
            raise TopologyError("root is not a process of the network")

    def sources(self) -> Set[ProcessId]:
        """Processes with no incoming oriented edge."""
        incoming: Set[ProcessId] = set()
        for targets in self.succ.values():
            incoming.update(targets)
        return {p for p in self.network.processes if p not in incoming}

    def sinks(self) -> Set[ProcessId]:
        """Processes with no outgoing oriented edge."""
        return {
            p for p in self.network.processes if not self.succ.get(p, frozenset())
        }


def theorem2_network() -> OrientedNetwork:
    """The rooted dag-oriented 6-cycle of Figure 3 (reconstruction).

    Topology: the cycle ``p1—p2—p5—p4—p6—p3—p1`` with orientation
    ``p1→p2, p2→p5, p4→p5, p4→p6, p3→p6, p1→p3`` and root ``p1``.
    This satisfies every structural fact the Theorem 2 proof uses:
    Γ.p2 = {p1, p5}; p6's two neighbors both point *at* p6 (so its local
    orientation cannot break the symmetry); p1 and p4 are sources; p5
    and p6 are sinks; Δ = 2.  See DESIGN.md §4 for the reconstruction
    argument (the original figure is an image).
    """
    net = network_from_edges([(1, 2), (2, 5), (5, 4), (4, 6), (6, 3), (3, 1)])
    succ = {
        1: frozenset({2, 3}),
        2: frozenset({5}),
        3: frozenset({6}),
        4: frozenset({5, 6}),
        5: frozenset(),
        6: frozenset(),
    }
    return OrientedNetwork(net, succ, root=1)


def theorem2_gadget(delta: int) -> OrientedNetwork:
    """The Δ-generalisation (Figure 6): Δ−2 pendants added per process.

    Pendant edges are oriented to preserve the proof's structure:
    p1 and p4 stay sources (their pendant edges point outward) and p5,
    p6 stay sinks (their pendant edges point inward).
    """
    if delta < 2:
        raise TopologyError("theorem2_gadget needs Δ ≥ 2")
    base = theorem2_network()
    g = base.network.nx_graph
    succ: Dict[ProcessId, Set[ProcessId]] = {
        p: set(base.succ[p]) for p in base.network.processes
    }
    for core in list(g.nodes):
        for j in range(delta - 2):
            pendant = ("pend", core, j)
            g.add_edge(core, pendant)
            succ.setdefault(pendant, set())
            if core in (5, 6):
                # keep sinks: pendant → core
                succ[pendant].add(core)
            else:
                # keep p1/p4 sources (and orient p2/p3 pendants outward too)
                succ.setdefault(core, set()).add(pendant)
    frozen = {p: frozenset(s) for p, s in succ.items()}
    return OrientedNetwork(Network(g), frozen, root=1)


# ----------------------------------------------------------------------
# Tight stability examples (Figures 9 and 11)
# ----------------------------------------------------------------------
def figure9_path(n: int = 7) -> Network:
    """Figure 9's tight example for Theorem 6: a path.

    On a path, the longest elementary path has ``L_max = n−1`` edges, so
    Theorem 6 promises at least ``⌊n/2⌋`` eventually-1-stable
    (dominated) processes; alternating Dominator/dominated along the
    path meets it exactly.
    """
    if n < 2:
        raise TopologyError("figure9_path needs n ≥ 2")
    return chain(n)


def figure11_graph() -> Tuple[Network, List[Tuple[ProcessId, ProcessId]]]:
    """Figure 11's tight example for Theorem 8: Δ = 4, m = 14.

    Two "matched" edges (a1,a2) and (b1,b2).  Each of the four endpoints
    is filled up to degree 4 with pendant edges, and one shared pendant
    ("t", "shared") links a2 and b1 so the network is connected without
    adding an edge between hubs.  The degree sum over the hubs is 16 and
    only the two matched edges are internal, so m = 16 − 2 = 14, Δ = 4,
    and the matching {(a1,a2), (b1,b2)} is maximal with
    2·⌈m/(2Δ−1)⌉ = 2·⌈14/7⌉ = 4 matched processes — the bound exactly.

    Returns the network and the tight maximal matching.
    """
    edges = [("a1", "a2"), ("b1", "b2"), ("a2", ("t", "shared")),
             ("b1", ("t", "shared"))]
    pend = 0
    for hub, k in (("a1", 3), ("a2", 2), ("b1", 2), ("b2", 3)):
        for _ in range(k):
            edges.append((hub, ("t", pend)))
            pend += 1
    net = network_from_edges(edges)
    matching = [("a1", "a2"), ("b1", "b2")]
    if net.m != 14 or net.max_degree != 4:
        raise TopologyError("figure11_graph construction drifted")  # pragma: no cover
    return net, matching
