"""The maximal independent set predicate (paper §5.2).

Legitimate configurations of protocol MIS satisfy both:

1. independence — every Dominator has only dominated neighbors;
2. maximality — every dominated process has a Dominator neighbor.
"""

from __future__ import annotations

from typing import Hashable, List, Set

from ..core.state import Configuration
from ..graphs.topology import Network
from .coloring import values_of

ProcessId = Hashable

DOMINATOR = "Dominator"
DOMINATED = "dominated"


def dominators(
    network: Network, config: Configuration, var: str = "S"
) -> Set[ProcessId]:
    """The set {p : S.p = Dominator} (the claimed independent set)."""
    return {p for p, s in values_of(network, config, var).items()
            if s == DOMINATOR}


def is_independent_set(network: Network, members: Set[ProcessId]) -> bool:
    """No two members are neighbors."""
    return not any(p in members and q in members for p, q in network.edges())


def is_maximal_independent_set(network: Network, members: Set[ProcessId]) -> bool:
    """Independent and not extendable by any process."""
    if not is_independent_set(network, members):
        return False
    covered = set(members)
    for p in members:
        if p in network:
            covered.update(network.neighbors(p))
    return covered.issuperset(network.processes)


def mis_predicate(network: Network, config: Configuration, var: str = "S") -> bool:
    """The MIS predicate of §5.2 over the S communication variable."""
    return is_maximal_independent_set(network, dominators(network, config, var))


def independence_violations(
    network: Network, config: Configuration, var: str = "S"
) -> List:
    """Edges joining two Dominators (condition 1 failures)."""
    doms = dominators(network, config, var)
    return [(p, q) for p, q in network.edges() if p in doms and q in doms]


def maximality_violations(
    network: Network, config: Configuration, var: str = "S"
) -> List[ProcessId]:
    """Dominated processes with no Dominator neighbor (condition 2 failures)."""
    doms = dominators(network, config, var)
    return [
        p
        for p in network.processes
        if p not in doms and not any(q in doms for q in network.neighbors(p))
    ]
