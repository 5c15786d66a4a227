"""Port-numbered network topologies.

The paper's model assumes each process ``p`` distinguishes its neighbors
via *local indices* numbered ``1 .. δ.p`` (Section 2).  The local index
assignment (the "port numbering") is adversarial in anonymous networks —
several impossibility arguments hinge on choosing it maliciously — so the
topology object carries an explicit, per-process port map rather than
relying on any canonical neighbor ordering.

:class:`Network` holds that port map as integer arrays: the process
labels in a fixed order, a label → index map, and one tuple of neighbor
indices per process in port order.  It exposes the paper's notation:
``Γ.p`` (:meth:`Network.neighbors`), ``δ.p`` (:meth:`Network.degree`),
``Δ`` (:attr:`Network.max_degree`), ``D`` (:attr:`Network.diameter`),
``n`` and ``m``.  Connectivity, bridges and cut vertices are computed
on the arrays; :mod:`networkx` is imported only for the diameter and by
:attr:`Network.nx_graph`, which builds a graph on demand.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from ..core.exceptions import TopologyError

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

ProcessId = Hashable
Adjacency = List[Sequence[int]]


class Network:
    """An undirected connected network with explicit port numbering.

    Parameters
    ----------
    graph:
        Undirected :class:`networkx.Graph`.  Must be connected, simple,
        with at least one node and no self-loops.  It is read once:
        the network keeps its own arrays, not the graph.
    ports:
        Optional mapping ``p -> [q1, q2, ...]`` listing p's neighbors in
        local-index order (index ``i`` of the list is port ``i+1``).
        When omitted, a deterministic port numbering is derived from the
        graph's neighbor iteration order.
    """

    __slots__ = ("_labels", "_index", "_adj", "_ports", "_m", "_max_degree",
                 "_edges", "_port_of", "_diameter")

    def __init__(
        self,
        graph: "nx.Graph",
        ports: Optional[Mapping[ProcessId, Sequence[ProcessId]]] = None,
    ):
        labels = list(graph.nodes)
        index = {p: i for i, p in enumerate(labels)}
        adj: Adjacency = []
        for i, p in enumerate(labels):
            row = [index[q] for q in graph.neighbors(p)]
            if i in row:
                raise TopologyError("self-loops are not allowed")
            adj.append(row)
        if ports is not None:
            adj = _reordered(index, adj, ports)
        self._init(labels, index, adj)

    @classmethod
    def _from_arrays(cls, labels: List[ProcessId],
                     index: Dict[ProcessId, int],
                     adj: Adjacency) -> "Network":
        """Adopt prebuilt arrays (the generators' and mutators' path).

        ``adj[i]`` lists the indices of ``labels[i]``'s neighbors in port
        order; the caller guarantees a simple symmetric adjacency.
        Connectivity is still checked.
        """
        net = cls.__new__(cls)
        net._init(labels, index, adj)
        return net

    def _init(self, labels, index, adj) -> None:
        n = len(labels)
        if n == 0:
            raise TopologyError("network must have at least one process")
        adj = [tuple(row) for row in adj]
        if n > 1 and not _connected(adj):
            raise TopologyError("network must be connected")
        self._labels = labels
        self._index = index
        self._adj = adj
        degrees = list(map(len, adj))
        self._m = sum(degrees) // 2
        self._max_degree = max(degrees)
        if labels == list(range(n)) and all(type(p) is int for p in labels):
            # Integer ids 0..n-1: neighbor labels are the indices.
            self._ports: Dict[ProcessId, Tuple[ProcessId, ...]] = dict(
                zip(labels, adj))
        else:
            at = labels.__getitem__
            self._ports = {p: tuple(map(at, row))
                           for p, row in zip(labels, adj)}
        self._edges: Optional[Tuple[Tuple[ProcessId, ProcessId], ...]] = None
        #: ``p -> {q: port}`` inverse tables, built lazily by
        #: :meth:`port_to` — only scenario churn and debug tooling ask
        #: for them.
        self._port_of: Dict[ProcessId, Dict[ProcessId, int]] = {}
        self._diameter: Optional[int] = None

    # ------------------------------------------------------------------
    # Paper notation
    # ------------------------------------------------------------------
    @property
    def processes(self) -> List[ProcessId]:
        """Π — all processes, in a stable order."""
        return list(self._labels)

    @property
    def n(self) -> int:
        """Number of processes."""
        return len(self._labels)

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """Γ.p — neighbors of ``p`` in local-index order (port 1 first)."""
        return self._ports[p]

    def degree(self, p: ProcessId) -> int:
        """δ.p — the degree of ``p``."""
        return len(self._ports[p])

    @property
    def max_degree(self) -> int:
        """Δ — the degree of the network."""
        return self._max_degree

    @property
    def diameter(self) -> int:
        """D — the diameter (computed lazily, cached)."""
        if self._diameter is None:
            if self.n == 1:
                self._diameter = 0
            else:
                import networkx as nx

                self._diameter = nx.diameter(self.nx_graph)
        return self._diameter

    # ------------------------------------------------------------------
    # Integer arrays
    # ------------------------------------------------------------------
    @property
    def index(self) -> Mapping[ProcessId, int]:
        """Process → position in :attr:`processes` (read-only)."""
        return self._index

    @property
    def adjacency(self) -> Sequence[Tuple[int, ...]]:
        """Per process position, its neighbors' positions in port order
        (read-only): ``adjacency[i][k]`` is the process behind port
        ``k + 1`` of ``processes[i]``."""
        return self._adj

    # ------------------------------------------------------------------
    # Port numbering
    # ------------------------------------------------------------------
    def neighbor_at(self, p: ProcessId, port: int) -> ProcessId:
        """The neighbor of ``p`` behind local index ``port`` (1-based)."""
        order = self._ports[p]
        if not 1 <= port <= len(order):
            raise TopologyError(
                f"process {p!r} has no port {port} (degree {len(order)})"
            )
        return order[port - 1]

    def port_to(self, p: ProcessId, q: ProcessId) -> int:
        """The local index under which ``p`` sees its neighbor ``q``."""
        table = self._port_of.get(p)
        if table is None:
            order = self._ports.get(p)
            if order is None:
                raise TopologyError(f"{q!r} is not a neighbor of {p!r}")
            table = self._port_of[p] = {r: i + 1 for i, r in enumerate(order)}
        try:
            return table[q]
        except KeyError:
            raise TopologyError(f"{q!r} is not a neighbor of {p!r}") from None

    def with_ports(self, ports: Mapping[ProcessId, Sequence[ProcessId]]) -> "Network":
        """A copy of this network with (some) port maps replaced."""
        return Network._from_arrays(
            self._labels, self._index, _reordered(self._index, self._adj, ports))

    # ------------------------------------------------------------------
    # Safe mutation (functional: every mutator returns a new Network)
    # ------------------------------------------------------------------
    def _position(self, p: ProcessId) -> int:
        i = self._index.get(p)
        if i is None:
            raise TopologyError(f"{p!r} is not a process")
        return i

    def with_edge_added(self, p: ProcessId, q: ProcessId) -> "Network":
        """A copy with edge ``{p, q}`` added.

        Port numbering stays stable for every untouched process; each
        endpoint sees its new neighbor behind its highest port (the
        least disruptive assignment for round-robin pointers).
        """
        if p == q:
            raise TopologyError("self-loops are not allowed")
        i, j = self._position(p), self._position(q)
        if j in self._adj[i]:
            raise TopologyError(f"{p!r} and {q!r} are already neighbors")
        adj = list(self._adj)
        adj[i] += (j,)
        adj[j] += (i,)
        return Network._from_arrays(self._labels, self._index, adj)

    def with_edge_removed(self, p: ProcessId, q: ProcessId) -> "Network":
        """A copy with edge ``{p, q}`` removed (ports compact upward).

        Raises :class:`TopologyError` when the edge does not exist or
        its removal would disconnect the network (use
        :func:`non_bridge_edges` to sample safely).
        """
        if not self.are_neighbors(p, q):
            raise TopologyError(f"{p!r} and {q!r} are not neighbors")
        i, j = self._index[p], self._index[q]
        adj = list(self._adj)
        adj[i] = tuple(k for k in adj[i] if k != j)
        adj[j] = tuple(k for k in adj[j] if k != i)
        return Network._from_arrays(self._labels, self._index, adj)

    def with_node_added(
        self, p: ProcessId, neighbors: Sequence[ProcessId]
    ) -> "Network":
        """A copy with a joining process ``p`` wired to ``neighbors``.

        The newcomer needs at least one neighbor (the network must stay
        connected); existing processes see it behind their highest port.
        """
        if p in self._index:
            raise TopologyError(f"{p!r} is already a process")
        neighbors = list(neighbors)
        if not neighbors:
            raise TopologyError("a joining process needs >= 1 neighbor")
        if len(set(neighbors)) != len(neighbors):
            raise TopologyError("duplicate neighbors for the joining process")
        row = tuple(map(self._position, neighbors))
        k = len(self._labels)
        adj = list(self._adj)
        for j in row:
            adj[j] += (k,)
        adj.append(row)
        index = dict(self._index)
        index[p] = k
        return Network._from_arrays(self._labels + [p], index, adj)

    def with_node_removed(self, p: ProcessId) -> "Network":
        """A copy with process ``p`` (and its edges) removed.

        Raises :class:`TopologyError` when ``p`` does not exist, is the
        last process, or is a cut vertex (use :func:`removable_nodes`
        to sample safely).
        """
        k = self._position(p)
        if self.n == 1:
            raise TopologyError("cannot remove the last process")
        labels = self._labels[:k] + self._labels[k + 1:]
        adj = [
            tuple(j - (j > k) for j in row if j != k)
            for i, row in enumerate(self._adj) if i != k
        ]
        index = {q: i for i, q in enumerate(labels)}
        return Network._from_arrays(labels, index, adj)

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    def edges(self) -> List[Tuple[ProcessId, ProcessId]]:
        """All edges as (p, q) tuples.

        The order is networkx's edge order for a graph whose nodes and
        adjacency follow :attr:`processes` and the port order: each
        process in turn, with its later-positioned neighbors in port
        order.
        """
        if self._edges is None:
            labels = self._labels
            self._edges = tuple(
                (labels[i], labels[j])
                for i, row in enumerate(self._adj) for j in row if j > i
            )
        return list(self._edges)

    def are_neighbors(self, p: ProcessId, q: ProcessId) -> bool:
        j = self._index.get(q)
        return j is not None and p in self._index and j in self._adj[self._index[p]]

    @property
    def nx_graph(self) -> "nx.Graph":
        """A new :mod:`networkx` graph of this network.

        Nodes follow :attr:`processes` and every adjacency follows the
        port order, so networkx traversals visit neighbors in the same
        order as the network's own arrays.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._labels)
        # networkx keeps insertion order per adjacency dict; writing the
        # dicts directly is the only way to give every node its port
        # order (edge-by-edge insertion cannot in general).
        gadj = g._adj
        labels = self._labels
        for p, row in zip(labels, self._adj):
            nbrs = gadj[p]
            for j in row:
                q = labels[j]
                data = gadj[q].get(p)
                nbrs[q] = {} if data is None else data
        return g

    def subgraph_view(self) -> "nx.Graph":
        """A :mod:`networkx` graph of this network (built on demand, as
        :attr:`nx_graph`)."""
        return self.nx_graph

    def __contains__(self, p: ProcessId) -> bool:
        return p in self._index

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"Network(n={self.n}, m={self.m}, Δ={self.max_degree})"


def _connected(adj: Sequence[Sequence[int]]) -> bool:
    """One BFS from position 0 over the integer adjacency."""
    seen = bytearray(len(adj))
    seen[0] = 1
    frontier = [0]
    reached = 1
    for i in frontier:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = 1
                reached += 1
                frontier.append(j)
    return reached == len(adj)


def _reordered(index: Mapping[ProcessId, int], adj: Sequence[Sequence[int]],
               ports: Mapping[ProcessId, Sequence[ProcessId]]) -> Adjacency:
    """``adj`` with the rows named in ``ports`` replaced by those port
    orders; every named pid must be a process and every new row must
    enumerate exactly that process's neighbors."""
    out = list(adj)
    for p, order in ports.items():
        i = index.get(p)
        if i is None:
            raise TopologyError(f"port list given for {p!r}, which is not a process")
        row = [index.get(q, -1) for q in order]
        if sorted(row) != sorted(adj[i]):
            raise TopologyError(
                f"port list of {p!r} does not enumerate its neighbors"
            )
        out[i] = row
    return out


def relabel_ports_randomly(network: Network, rng) -> Network:
    """Shuffle every process's port numbering uniformly at random.

    In anonymous networks the port numbering is not under the protocol's
    control; randomizing it exercises protocols against arbitrary
    labellings (and lets tests search for adversarial ones).
    """
    ports = {}
    for p in network.processes:
        order = list(network.neighbors(p))
        rng.shuffle(order)
        ports[p] = order
    return network.with_ports(ports)


def _cut_structure(adj: Sequence[Sequence[int]]):
    """Bridges (as ``(i, j)`` with ``i < j``) and cut vertices of a
    simple graph, by one iterative Hopcroft–Tarjan low-link DFS."""
    n = len(adj)
    disc = [-1] * n
    low = [0] * n
    bridges = set()
    cuts = set()
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent < 0:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] > disc[parent]:
                    bridges.add((min(parent, v), max(parent, v)))
                if parent == root:
                    root_children += 1
                elif low[v] >= disc[parent]:
                    cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
    return bridges, cuts


def non_bridge_edges(network: Network) -> List[Tuple[ProcessId, ProcessId]]:
    """Edges whose removal keeps the network connected (non-bridges).

    The safe candidate pool for edge-removal churn events, in the
    deterministic order of :meth:`Network.edges`.
    """
    adj = network.adjacency
    bridges, _ = _cut_structure(adj)
    labels = network.processes
    return [
        (labels[i], labels[j])
        for i, row in enumerate(adj) for j in row
        if j > i and (i, j) not in bridges
    ]


def removable_nodes(network: Network, min_n: int = 3) -> List[ProcessId]:
    """Processes whose departure keeps the network connected.

    Excludes cut vertices, and returns nothing once the network has
    shrunk to ``min_n`` processes (the default 3 keeps every remaining
    process a neighbor-having one, as the paper's protocols require).
    """
    if network.n <= min_n:
        return []
    _, cuts = _cut_structure(network.adjacency)
    return [p for i, p in enumerate(network.processes) if i not in cuts]


def missing_edges(
    network: Network, limit: int = 0
) -> List[Tuple[ProcessId, ProcessId]]:
    """Non-adjacent process pairs — the edge-add churn fallback when
    rejection sampling finds nothing (near-complete graphs).  ``limit``
    caps the enumeration (0 = all pairs); pairs come out in
    deterministic process order.
    """
    out: List[Tuple[ProcessId, ProcessId]] = []
    procs = network.processes
    for i, p in enumerate(procs):
        for q in procs[i + 1:]:
            if not network.are_neighbors(p, q):
                out.append((p, q))
                if limit and len(out) >= limit:
                    return out
    return out


def network_from_edges(
    edges: Iterable[Tuple[ProcessId, ProcessId]],
    ports: Optional[Mapping[ProcessId, Sequence[ProcessId]]] = None,
) -> Network:
    """Build a :class:`Network` from an edge list."""
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(edges)
    return Network(g, ports)
