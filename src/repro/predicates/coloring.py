"""The vertex coloring predicate (paper §5.1).

True iff for every process p and every neighbor q, ``color.p ≠ color.q``.
For protocol COLORING the color output is the communication variable
``C``; the helpers below also report the conflict structure used by
Lemma 2's potential-function argument.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Tuple

from ..core.state import Configuration
from ..graphs.topology import Network

ProcessId = Hashable


def values_of(network: Network, config: Configuration, var: str) -> Dict[ProcessId, Any]:
    """``p -> config.get(p, var)`` for every process, read in one pass
    over the flat rows when the configuration is in network order."""
    pids = network.processes
    aligned = getattr(config, "aligned_storage", None)
    storage = aligned(pids) if aligned is not None else None
    if storage is None:
        get = config.get
        return {p: get(p, var) for p in pids}
    layouts, rows = storage
    return {p: row[layout.index[var]]
            for p, layout, row in zip(pids, layouts, rows)}


def coloring_predicate(
    network: Network, config: Configuration, var: str = "C"
) -> bool:
    """The vertex coloring predicate over communication variable ``var``."""
    color = values_of(network, config, var)
    return all(color[p] != color[q] for p, q in network.edges())


def conflicting_edges(
    network: Network, config: Configuration, var: str = "C"
) -> List[Tuple[ProcessId, ProcessId]]:
    """Edges whose endpoints share a color."""
    color = values_of(network, config, var)
    return [(p, q) for p, q in network.edges() if color[p] == color[q]]


def conflict_count(
    network: Network, config: Configuration, var: str = "C"
) -> int:
    """Lemma 2's potential ``Conflit(γ)``: number of processes with at
    least one same-colored neighbor."""
    in_conflict = set()
    for p, q in conflicting_edges(network, config, var):
        in_conflict.add(p)
        in_conflict.add(q)
    return len(in_conflict)


def colors_used(network: Network, config: Configuration, var: str = "C") -> int:
    """Number of distinct colors in the configuration."""
    return len(set(values_of(network, config, var).values()))
