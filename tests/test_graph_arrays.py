"""Differential tests: the array-built networks against networkx.

Every registered topology builder writes ``Network``'s integer arrays
directly (or, for ``hypercube``/``regular``/``tree``, adapts a networkx
graph).  The oracles below are the networkx constructions the builders
replace, kept here verbatim: each array-built network must match its
oracle graph in process order, every port list, edge order, ``m`` and
``Δ``, and ``greedy_coloring`` must match ``nx.greedy_color``.  Pinned
edge-list digests keep the graphs fixed even if networkx changes.
"""

from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import topology_registry
from repro.core.exceptions import TopologyError
from repro.graphs import (
    Network,
    greedy_coloring,
    network_from_edges,
    non_bridge_edges,
    removable_nodes,
)


# ----------------------------------------------------------------------
# networkx oracles
# ----------------------------------------------------------------------
def _oracle_gnp(n, p, seed=None, max_tries=200):
    rng = random.Random(seed)
    for _ in range(max_tries):
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
        if n == 1 or nx.is_connected(g):
            return g
    g = nx.gnp_random_graph(n, p, seed=rng.randrange(2**31))
    comps = [sorted(c) for c in nx.connected_components(g)]
    for a, b in zip(comps, comps[1:]):
        g.add_edge(a[0], b[0])
    return g


def _oracle_sparse(n, avg_degree=3.0, seed=None):
    rng = random.Random(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    g = nx.fast_gnp_random_graph(n, p, seed=rng.randrange(2**31))
    comps = [list(c) for c in nx.connected_components(g)]
    rng.shuffle(comps)
    for a, b in zip(comps, comps[1:]):
        g.add_edge(rng.choice(a), rng.choice(b))
    return g


def _oracle_caterpillar(spine, legs_per_node):
    g = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            g.add_edge(v, next_id)
            next_id += 1
    return g


def _oracle_regular(n, d, seed=None):
    rng = random.Random(seed)
    for _ in range(200):
        g = nx.random_regular_graph(d, n, seed=rng.randrange(2**31))
        if nx.is_connected(g):
            return g
    raise AssertionError("oracle could not sample")


def _oracle_tree(n, seed=None):
    if n == 1:
        return nx.path_graph(1)
    if hasattr(nx, "random_labeled_tree"):
        return nx.random_labeled_tree(n, seed=seed)
    return nx.random_tree(n, seed=seed)  # networkx < 3.2


def _oracle_binary_tree(height):
    return nx.balanced_tree(2, height) if height > 0 else nx.path_graph(1)


ORACLES = {
    "chain": lambda n: nx.path_graph(n),
    "ring": lambda n: nx.cycle_graph(n),
    "star": lambda leaves: nx.star_graph(leaves),
    "clique": lambda n: nx.complete_graph(n),
    "grid": lambda rows, cols: nx.grid_2d_graph(rows, cols),
    "torus": lambda rows, cols: nx.grid_2d_graph(rows, cols, periodic=True),
    "hypercube": lambda dim: nx.convert_node_labels_to_integers(
        nx.hypercube_graph(dim), ordering="sorted"),
    "binary-tree": _oracle_binary_tree,
    "caterpillar": _oracle_caterpillar,
    "gnp": _oracle_gnp,
    "regular": _oracle_regular,
    "sparse": _oracle_sparse,
    "tree": _oracle_tree,
}

seeds = st.integers(0, 2**31 - 1)

#: hypothesis parameter strategies per registered topology
PARAMS = {
    "chain": st.fixed_dictionaries({"n": st.integers(1, 40)}),
    "ring": st.fixed_dictionaries({"n": st.integers(3, 40)}),
    "star": st.fixed_dictionaries({"leaves": st.integers(1, 20)}),
    "clique": st.fixed_dictionaries({"n": st.integers(2, 12)}),
    "grid": st.fixed_dictionaries({"rows": st.integers(1, 7),
                                   "cols": st.integers(1, 7)}),
    "torus": st.fixed_dictionaries({"rows": st.integers(3, 7),
                                    "cols": st.integers(3, 7)}),
    "hypercube": st.fixed_dictionaries({"dim": st.integers(1, 5)}),
    "binary-tree": st.fixed_dictionaries({"height": st.integers(0, 5)}),
    "caterpillar": st.fixed_dictionaries({"spine": st.integers(1, 8),
                                          "legs_per_node": st.integers(0, 3)}),
    "gnp": st.fixed_dictionaries({
        "n": st.integers(1, 30), "seed": seeds,
        "p": st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.5, 1.0])}),
    "regular": st.fixed_dictionaries({
        "n": st.sampled_from([6, 8, 10, 12]), "d": st.sampled_from([2, 3, 4]),
        "seed": seeds}),
    "sparse": st.fixed_dictionaries({
        "n": st.integers(2, 80), "seed": seeds,
        "avg_degree": st.sampled_from([0.5, 1.0, 2.0, 3.0, 6.0, 200.0])}),
    "tree": st.fixed_dictionaries({"n": st.integers(1, 30), "seed": seeds}),
}


def test_every_registered_topology_has_an_oracle():
    assert set(topology_registry.names()) == set(ORACLES) == set(PARAMS)


def assert_matches_graph(net: Network, g: nx.Graph) -> None:
    """``net`` is the network today's ``Network(g)`` adapter gives."""
    assert net.processes == list(g.nodes)
    for p in g.nodes:
        assert net.neighbors(p) == tuple(g.neighbors(p))
    assert net.edges() == list(g.edges)
    assert net.n == g.number_of_nodes()
    assert net.m == g.number_of_edges()
    assert net.max_degree == max(d for _, d in g.degree)
    raw = nx.greedy_color(g, strategy="largest_first")
    expected = [(p, c + 1) for p, c in raw.items()]
    assert list(greedy_coloring(net).items()) == expected


@pytest.mark.parametrize("family", sorted(ORACLES))
def test_array_builders_match_networkx(family):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(params=PARAMS[family])
    def check(params):
        if family == "regular" and params["n"] * params["d"] % 2:
            with pytest.raises(TopologyError):
                topology_registry.build(family, **params)
            return
        net = topology_registry.build(family, **params)
        assert_matches_graph(net, ORACLES[family](**params))

    check()


# ----------------------------------------------------------------------
# Pinned graphs: independent of the installed networkx
# ----------------------------------------------------------------------
def edge_digest(net: Network) -> str:
    return hashlib.sha256(repr(net.edges()).encode()).hexdigest()[:16]


PINNED = [
    ("ring", {"n": 12}, "e3a33f1e8f6a4c8f"),
    ("grid", {"rows": 4, "cols": 5}, "7cc4bb926549abc8"),
    ("torus", {"rows": 4, "cols": 5}, "a1e8553625de66bf"),
    ("caterpillar", {"spine": 4, "legs_per_node": 2}, "272c3fa5f2cb1eab"),
    ("gnp", {"n": 20, "p": 0.3, "seed": 1}, "3c685a00baf80736"),
    ("gnp", {"n": 40, "p": 0.15, "seed": 7}, "8adcdbeaa9d4be72"),
    ("sparse", {"n": 30, "seed": 2}, "19d71d83a376e994"),
    ("sparse", {"n": 500, "seed": 11}, "56d02457e1ded269"),
]


@pytest.mark.parametrize("family,params,digest", PINNED,
                         ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(PINNED)])
def test_pinned_edge_digests(family, params, digest):
    assert edge_digest(topology_registry.build(family, **params)) == digest


# ----------------------------------------------------------------------
# The nx -> arrays adapter and its connectivity errors
# ----------------------------------------------------------------------
edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=25)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edges=edge_lists)
def test_adapter_keeps_the_graph_or_rejects_it(edges):
    g = nx.Graph()
    g.add_edges_from(edges)
    if nx.number_of_selfloops(g) or not nx.is_connected(g):
        with pytest.raises(TopologyError):
            Network(g)
        return
    assert_matches_graph(Network(g), g)


# ----------------------------------------------------------------------
# Mutators and structural queries against a networkx replay
# ----------------------------------------------------------------------
def _replay(net: Network) -> nx.Graph:
    """The graph today's mutators would hold: nodes in process order,
    adjacency in port order."""
    g = nx.Graph()
    g.add_nodes_from(net.processes)
    for p in net.processes:
        for q in net.neighbors(p):
            g.add_edge(p, q)
    return g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 25), p=st.sampled_from([0.15, 0.3, 0.6]),
       seed=seeds, pick=st.randoms(use_true_random=False))
def test_mutators_and_structural_queries(n, p, seed, pick):
    net = topology_registry.build("gnp", n=n, p=p, seed=seed)
    g = net.nx_graph
    # nx_graph keeps the process order and every port order
    assert list(g.nodes) == net.processes
    for q in net.processes:
        assert tuple(g.adj[q]) == net.neighbors(q)
    assert net.diameter == nx.diameter(g)

    bridges = set(nx.bridges(g))
    assert non_bridge_edges(net) == [
        (a, b) for a, b in g.edges
        if (a, b) not in bridges and (b, a) not in bridges]
    cuts = set(nx.articulation_points(g))
    assert removable_nodes(net, min_n=0) == [
        q for q in g.nodes if q not in cuts]

    procs = net.processes
    a, b = pick.sample(procs, 2)
    if net.are_neighbors(a, b):
        if (a, b) in bridges or (b, a) in bridges:
            with pytest.raises(TopologyError):
                net.with_edge_removed(a, b)
        else:
            g2 = g.copy()
            g2.remove_edge(a, b)
            assert_matches_graph(net.with_edge_removed(a, b), g2)
    else:
        g2 = g.copy()
        g2.add_edge(a, b)
        assert_matches_graph(net.with_edge_added(a, b), g2)

    joiners = pick.sample(procs, pick.randint(1, 3))
    g2 = g.copy()
    g2.add_edges_from(("new", q) for q in joiners)
    grown = net.with_node_added("new", joiners)
    assert grown.processes == procs + ["new"]
    assert grown.neighbors("new") == tuple(joiners)
    for q in procs:
        assert grown.neighbors(q) == tuple(g2.adj[q])
    assert grown.edges() == list(_replay(grown).edges)

    victim = pick.choice(procs)
    if victim in cuts:
        with pytest.raises(TopologyError):
            net.with_node_removed(victim)
    else:
        g2 = g.copy()
        g2.remove_node(victim)
        assert_matches_graph(net.with_node_removed(victim), g2)


# ----------------------------------------------------------------------
# Port maps fail loudly
# ----------------------------------------------------------------------
class TestPortMaps:
    def test_adapter_rejects_unknown_pid(self):
        with pytest.raises(TopologyError, match="99"):
            Network(nx.path_graph(3), {99: [0, 1]})

    def test_with_ports_rejects_unknown_pid(self):
        net = topology_registry.build("chain", n=3)
        with pytest.raises(TopologyError, match="42"):
            net.with_ports({42: [0, 1]})

    def test_with_ports_rejects_non_neighbor_and_duplicates(self):
        net = topology_registry.build("chain", n=4)
        with pytest.raises(TopologyError):
            net.with_ports({1: [0, 3]})
        with pytest.raises(TopologyError):
            net.with_ports({1: [0, 2, 2]})

    def test_mixed_label_types_compare_exactly(self):
        # ``repr`` sorting once confused distinct labels with equal reprs
        net = network_from_edges([(1, "1"), ("1", 2)])
        with pytest.raises(TopologyError):
            net.with_ports({"1": [1, 1]})
        assert net.with_ports({"1": [2, 1]}).neighbors("1") == (2, 1)

    def test_copy_option_is_gone(self):
        with pytest.raises(TypeError):
            Network(nx.path_graph(2), copy=False)
