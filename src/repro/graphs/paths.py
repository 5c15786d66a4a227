"""Longest elementary path (L_max) computation.

Theorem 6's stability bound for MIS is ``⌊(L_max+1)/2⌋`` where L_max is
the number of edges of the longest elementary (simple) path.  Longest
path is NP-hard in general, so we provide:

* an exact exponential search with pruning, fine for the gadget and
  test graphs (n ≲ 30 at reasonable density, any size for paths/trees),
* a linear-time exact algorithm for trees (double BFS),
* a randomized DFS heuristic that yields a certified *lower bound*
  for larger graphs (a lower bound on L_max only weakens the claimed
  stability bound, so benches stay sound).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Set, Tuple

from .topology import Network

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

ProcessId = Hashable


@dataclass(frozen=True)
class LongestPathResult:
    """Length (in edges) of the longest elementary path found.

    ``exact`` records whether the value is proven optimal or merely a
    lower bound from the heuristic.
    """

    length: int
    exact: bool
    path: Tuple[ProcessId, ...]


def _tree_longest_path(g: nx.Graph) -> LongestPathResult:
    """Double-BFS: in a tree the longest path is the diameter path."""
    import networkx as nx

    start = next(iter(g.nodes))
    far1 = max(nx.single_source_shortest_path_length(g, start).items(), key=lambda kv: kv[1])[0]
    lengths = nx.single_source_shortest_path(g, far1)
    far2, path = max(lengths.items(), key=lambda kv: len(kv[1]))
    return LongestPathResult(len(path) - 1, True, tuple(path))


def _exact_longest_path(g: nx.Graph, budget: int) -> Optional[LongestPathResult]:
    """Branch-and-bound DFS over simple paths; None if budget exhausted."""
    best_len = 0
    best_path: Tuple[ProcessId, ...] = (next(iter(g.nodes)),)
    nodes = list(g.nodes)
    steps = 0

    def dfs(v, visited: Set[ProcessId], path: List[ProcessId]) -> bool:
        nonlocal best_len, best_path, steps
        steps += 1
        if steps > budget:
            return False
        if len(path) - 1 > best_len:
            best_len = len(path) - 1
            best_path = tuple(path)
        # Prune: remaining reachable unvisited nodes bound the extension.
        remaining = len(nodes) - len(visited)
        if len(path) - 1 + remaining <= best_len:
            return True
        ok = True
        for w in g.neighbors(v):
            if w not in visited:
                visited.add(w)
                path.append(w)
                ok = dfs(w, visited, path) and ok
                path.pop()
                visited.remove(w)
                if not ok:
                    return False
        return ok

    complete = True
    for v in nodes:
        if not dfs(v, {v}, [v]):
            complete = False
            break
    if not complete:
        return None
    return LongestPathResult(best_len, True, best_path)


def _heuristic_longest_path(
    g: nx.Graph, tries: int, seed: Optional[int]
) -> LongestPathResult:
    """Randomized greedy DFS walks; certified lower bound."""
    rng = random.Random(seed)
    nodes = list(g.nodes)
    best_len = 0
    best_path: Tuple[ProcessId, ...] = (nodes[0],)
    for _ in range(tries):
        v = nodes[rng.randrange(len(nodes))]
        visited = {v}
        path = [v]
        while True:
            nxt = [w for w in g.neighbors(path[-1]) if w not in visited]
            if not nxt:
                break
            # Prefer low-degree extensions (keeps options open).
            nxt.sort(key=lambda w: sum(1 for x in g.neighbors(w) if x not in visited))
            cut = max(1, len(nxt) // 2)
            w = nxt[rng.randrange(cut)]
            visited.add(w)
            path.append(w)
        if len(path) - 1 > best_len:
            best_len = len(path) - 1
            best_path = tuple(path)
    return LongestPathResult(best_len, False, best_path)


def longest_elementary_path(
    network: Network,
    exact_budget: int = 2_000_000,
    heuristic_tries: int = 200,
    seed: Optional[int] = None,
) -> LongestPathResult:
    """L_max of the network (see module docstring for exactness rules)."""
    if network.n == 1:
        return LongestPathResult(0, True, (network.processes[0],))
    import networkx as nx

    g = network.nx_graph
    if nx.is_tree(g):
        return _tree_longest_path(g)
    exact = _exact_longest_path(g, exact_budget)
    if exact is not None:
        return exact
    return _heuristic_longest_path(g, heuristic_tries, seed)


def mis_stability_lower_bound(network: Network, **kwargs) -> Tuple[int, bool]:
    """Theorem 6's ⌊(L_max+1)/2⌋, plus whether L_max was exact."""
    result = longest_elementary_path(network, **kwargs)
    return (result.length + 1) // 2, result.exact
