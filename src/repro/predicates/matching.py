"""The maximal matching predicate (paper §5.3).

Protocol MATCHING marks the edge {p, q} as matched when
``PRmarried(p) ∧ PR.p = q`` — i.e. the two PR pointers designate each
other.  The predicate is true when the marked edge set is a maximal
matching of the network.
"""

from __future__ import annotations

from typing import Hashable, List, Set, Tuple

from ..core.state import Configuration
from ..graphs.topology import Network
from .coloring import values_of

ProcessId = Hashable
Edge = Tuple[ProcessId, ProcessId]


def pr_target(network: Network, config: Configuration, p: ProcessId):
    """The neighbor PR.p points at (PR values are ports; 0 = free)."""
    port = config.get(p, "PR")
    if port == 0:
        return None
    return network.neighbor_at(p, port)


def is_married(network: Network, config: Configuration, p: ProcessId) -> bool:
    """PRmarried without the cur restriction: p and PR.p point at each
    other (the configuration-level notion of a matched process)."""
    q = pr_target(network, config, p)
    if q is None:
        return False
    return pr_target(network, config, q) == p


def matched_edges(network: Network, config: Configuration) -> List[Edge]:
    """Edges {p,q} whose endpoints' PR pointers designate each other."""
    at = network.neighbor_at
    target = {p: at(p, port) if port else None
              for p, port in values_of(network, config, "PR").items()}
    return [(p, q) for p, q in network.edges()
            if target[p] == q and target[q] == p]


def is_matching(network: Network, edges: List[Edge]) -> bool:
    """No two edges share an endpoint."""
    seen: Set[ProcessId] = set()
    for p, q in edges:
        if p in seen or q in seen:
            return False
        seen.add(p)
        seen.add(q)
    return True


def is_maximal_matching(network: Network, edges: List[Edge]) -> bool:
    """A matching not extendable by any edge of the network."""
    if not is_matching(network, edges):
        return False
    covered: Set[ProcessId] = set()
    for p, q in edges:
        covered.add(p)
        covered.add(q)
    return all(p in covered or q in covered for p, q in network.edges())


def matching_predicate(network: Network, config: Configuration) -> bool:
    """The maximal matching predicate over the PR pointers."""
    return is_maximal_matching(network, matched_edges(network, config))


def married_processes(network: Network, config: Configuration) -> Set[ProcessId]:
    """Processes incident to a matched edge."""
    covered: Set[ProcessId] = set()
    for p, q in matched_edges(network, config):
        covered.add(p)
        covered.add(q)
    return covered
