"""Topology generators.

Standard families used by the tests, examples and benchmarks: chains,
rings, stars, cliques, grids, tori, trees, caterpillars, hypercubes and
random graphs.  All return :class:`~repro.graphs.topology.Network`
objects with process ids ``0..n-1`` (or coordinate tuples for grids).

Every family except ``hypercube``, ``random_regular`` and
``random_tree`` writes the network's integer adjacency directly, in the
node and edge order of the networkx generator it replaces, so each
graph (port numbering included) is the one networkx would build from
the same parameters and seed.  Those three still draw their edge lists
from networkx, imported on first use.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

from ..core.exceptions import TopologyError
from .topology import Network


def _adjacency(n: int, pairs) -> List[List[int]]:
    """Positions ``0..n-1`` wired by an edge sequence.

    Each adjacency lists its neighbors in the order the edges arrive,
    which is how networkx orders a graph built by ``add_edges_from`` on
    the same sequence; ``pairs`` must hold no repeated edge.
    """
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def _network(n: int, pairs, labels: Optional[list] = None) -> Network:
    """A network on positions ``0..n-1`` from an edge sequence (see
    :func:`_adjacency`), labelled ``0..n-1`` unless ``labels`` names
    the processes."""
    return _adopt(_adjacency(n, pairs), labels)


def _adopt(adj: List[List[int]], labels: Optional[list] = None) -> Network:
    if labels is None:
        labels = list(range(len(adj)))
    return Network._from_arrays(labels, {p: i for i, p in enumerate(labels)}, adj)


def chain(n: int) -> Network:
    """A path of ``n`` processes: ``0 — 1 — … — n-1``."""
    if n < 1:
        raise TopologyError("chain needs at least one process")
    return _network(n, zip(range(n - 1), range(1, n)))


def ring(n: int) -> Network:
    """A cycle of ``n ≥ 3`` processes."""
    if n < 3:
        raise TopologyError("ring needs at least 3 processes")
    return _network(n, [*zip(range(n - 1), range(1, n)), (n - 1, 0)])


def star(leaves: int) -> Network:
    """A star: center ``0`` plus ``leaves`` pendant processes."""
    if leaves < 1:
        raise TopologyError("star needs at least one leaf")
    return _network(leaves + 1, ((0, v) for v in range(1, leaves + 1)))


def clique(n: int) -> Network:
    """The complete graph on ``n ≥ 2`` processes (a Δ-clique forces the
    Δ+1 colors of protocol COLORING)."""
    if n < 2:
        raise TopologyError("clique needs at least 2 processes")
    return _network(n, combinations(range(n), 2))


def _grid(rows: int, cols: int, periodic: bool) -> Network:
    """``nx.grid_2d_graph``'s node and edge sequence, on positions
    ``r * cols + c`` labelled ``(r, c)``."""
    pairs: List[Tuple[int, int]] = []
    for r in range(1, rows):
        pairs.extend((r * cols + c, (r - 1) * cols + c) for c in range(cols))
    for r in range(rows):
        base = r * cols
        pairs.extend((base + c, base + c - 1) for c in range(1, cols))
    if periodic and rows > 2:
        last = (rows - 1) * cols
        pairs.extend((c, last + c) for c in range(cols))
    if periodic and cols > 2:
        pairs.extend((r * cols, r * cols + cols - 1) for r in range(rows))
    labels = [(r, c) for r in range(rows) for c in range(cols)]
    return _network(rows * cols, pairs, labels)


def grid(rows: int, cols: int) -> Network:
    """A rows×cols 2D mesh; process ids are (row, col) tuples."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be positive")
    return _grid(rows, cols, periodic=False)


def torus(rows: int, cols: int) -> Network:
    """A rows×cols 2D torus (4-regular when both dims ≥ 3)."""
    if rows < 3 or cols < 3:
        raise TopologyError("torus dimensions must be ≥ 3")
    return _grid(rows, cols, periodic=True)


def hypercube(dim: int) -> Network:
    """The ``dim``-dimensional hypercube (ids are ints 0..2^dim-1)."""
    if dim < 1:
        raise TopologyError("hypercube dimension must be ≥ 1")
    import networkx as nx

    g = nx.hypercube_graph(dim)
    return Network(nx.convert_node_labels_to_integers(g, ordering="sorted"))


def binary_tree(height: int) -> Network:
    """A complete binary tree of the given height (height 0 = one node).

    Node ``c ≥ 1`` hangs below ``(c - 1) // 2``, as in
    ``nx.balanced_tree(2, height)``.
    """
    if height < 0:
        raise TopologyError("tree height must be ≥ 0")
    n = 2 ** (height + 1) - 1
    return _network(n, (((c - 1) // 2, c) for c in range(1, n)))


def caterpillar(spine: int, legs_per_node: int) -> Network:
    """A caterpillar: a spine path with ``legs_per_node`` pendants each.

    Caterpillars stress the stability measures: spine processes see
    high degree while pendants are forced to watch their only neighbor.
    Spine processes are ``0..spine-1``; the pendants of spine process
    ``v`` follow in order from ``spine + v * legs_per_node``.
    """
    if spine < 1 or legs_per_node < 0:
        raise TopologyError("bad caterpillar parameters")
    legs = ((v, spine + v * legs_per_node + k)
            for v in range(spine) for k in range(legs_per_node))
    return _network(spine * (1 + legs_per_node),
                    [*zip(range(spine - 1), range(1, spine)), *legs])


def _gnp_pairs(n: int, p: float, rng: random.Random) -> List[Tuple[int, int]]:
    """The edges ``nx.gnp_random_graph(n, p, seed=rng)`` adds, in order."""
    if p >= 1:
        return list(combinations(range(n), 2))
    if p <= 0:
        return []
    draw = rng.random
    return [e for e in combinations(range(n), 2) if draw() < p]


def _fast_gnp_pairs(n: int, p: float, rng: random.Random) -> List[Tuple[int, int]]:
    """The edges ``nx.fast_gnp_random_graph(n, p, seed=rng)`` adds, in
    order (Batagelj & Brandes' geometric skips)."""
    if p <= 0 or p >= 1:
        return _gnp_pairs(n, p, rng)
    lp = math.log(1.0 - p)
    draw = rng.random
    pairs = []
    v, w = 1, -1
    while v < n:
        lr = math.log(1.0 - draw())
        w = w + 1 + int(lr / lp)
        while w >= v and v < n:
            w = w - v
            v = v + 1
        if v < n:
            pairs.append((v, w))
    return pairs


def _components(adj: Sequence[Sequence[int]]) -> List[set]:
    """Connected components as networkx's ``connected_components``
    yields them: one set per component, in order of its first node,
    each filled by a level-order BFS.  Set iteration order depends on
    insertion order, so the sets are built in the same order too."""
    seen: set = set()
    comps = []
    for v in range(len(adj)):
        if v not in seen:
            comp = {v}
            level = [v]
            while level:
                nxt = []
                for u in level:
                    for w in adj[u]:
                        if w not in comp:
                            comp.add(w)
                            nxt.append(w)
                level = nxt
            seen.update(comp)
            comps.append(comp)
    return comps


def random_connected(
    n: int, p: float, seed: Optional[int] = None, max_tries: int = 200
) -> Network:
    """A connected Erdős–Rényi G(n, p) sample (resampled until connected).

    Draw for draw the graphs ``nx.gnp_random_graph`` gives under the
    same seeds.
    """
    if n < 1:
        raise TopologyError("need at least one process")
    rng = random.Random(seed)
    for _ in range(max_tries):
        try:
            return _network(n, _gnp_pairs(n, p, random.Random(rng.randrange(2**31))))
        except TopologyError:  # disconnected: draw again
            pass
    # Fall back: connect components along a chain of their least nodes.
    adj = _adjacency(n, _gnp_pairs(n, p, random.Random(rng.randrange(2**31))))
    firsts = [min(c) for c in _components(adj)]
    for u, v in zip(firsts, firsts[1:]):
        adj[u].append(v)
        adj[v].append(u)
    return _adopt(adj)


def random_regular(n: int, d: int, seed: Optional[int] = None) -> Network:
    """A random connected ``d``-regular graph on ``n`` processes."""
    if n * d % 2 != 0:
        raise TopologyError("n*d must be even for a d-regular graph")
    import networkx as nx

    rng = random.Random(seed)
    for _ in range(200):
        g = nx.random_regular_graph(d, n, seed=rng.randrange(2**31))
        if nx.is_connected(g):
            return Network(g)
    raise TopologyError(f"could not sample a connected {d}-regular graph on {n}")


def sparse_random(
    n: int, avg_degree: float = 3.0, seed: Optional[int] = None
) -> Network:
    """A connected sparse random graph on ``n`` processes in O(n + m).

    The 10k-node scale tier needs random topologies that build in linear
    time; :func:`random_connected` resamples dense G(n, p) draws and is
    quadratic in ``n``.  This generator takes one G(n, p = avg_degree/n)
    sample via the fast (sparse) algorithm and then stitches the
    connected components together along a random chain, adding at most
    ``#components - 1`` edges — negligible against ``m ≈ n·avg_degree/2``
    and guaranteeing connectivity without resampling.  Draw for draw the
    graphs ``nx.fast_gnp_random_graph`` and ``nx.connected_components``
    give under the same seeds.
    """
    if n < 2:
        raise TopologyError("need at least two processes")
    if avg_degree <= 0:
        raise TopologyError("avg_degree must be positive")
    rng = random.Random(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    adj = _adjacency(n, _fast_gnp_pairs(n, p, random.Random(rng.randrange(2**31))))
    comps = [list(c) for c in _components(adj)]
    rng.shuffle(comps)
    for a, b in zip(comps, comps[1:]):
        u, v = rng.choice(a), rng.choice(b)
        adj[u].append(v)
        adj[v].append(u)
    return _adopt(adj)


def random_tree(n: int, seed: Optional[int] = None) -> Network:
    """A uniformly random labelled tree on ``n`` processes."""
    if n < 1:
        raise TopologyError("need at least one process")
    if n == 1:
        return chain(1)
    import networkx as nx

    if hasattr(nx, "random_labeled_tree"):
        g = nx.random_labeled_tree(n, seed=seed)
    else:  # networkx < 3.2
        g = nx.random_tree(n, seed=seed)
    return Network(g)
