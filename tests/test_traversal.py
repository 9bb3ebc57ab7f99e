"""Tests for BFS, components, k-hop neighbourhoods, shortest paths."""

import numpy as np
import pytest

import reference_samplers as reference
from repro.editing import NeighborSampler, ego_subgraph
from repro.errors import GraphError
from repro.graph import (
    Graph,
    bfs_distances,
    bfs_tree,
    connected_components,
    grid_graph,
    k_hop_neighborhood,
    path_graph,
    ring_graph,
    shortest_path_distance,
)
from repro.graph.dynamic import DynamicGraph
from repro.graph.traversal import expand
from repro.models import GraphSAGE
from repro.serving import dirty_frontiers


class TestBfsDistances:
    def test_path_distances(self):
        d = bfs_distances(path_graph(5), 0)
        assert np.array_equal(d, [0, 1, 2, 3, 4])

    def test_ring_distances_symmetric(self):
        d = bfs_distances(ring_graph(8), 0)
        assert d[4] == 4
        assert d[1] == d[7] == 1

    def test_unreachable_is_minus_one(self):
        g = Graph.from_edges([(0, 1), (2, 3)], 4)
        d = bfs_distances(g, 0)
        assert d[2] == -1 and d[3] == -1

    def test_invalid_source(self, triangle):
        with pytest.raises(GraphError):
            bfs_distances(triangle, 5)


class TestShortestPathDistance:
    def test_matches_bfs_on_grid(self):
        g = grid_graph(4, 4)
        d = bfs_distances(g, 0)
        for target in range(16):
            assert shortest_path_distance(g, 0, target) == d[target]

    def test_same_node_zero(self, triangle):
        assert shortest_path_distance(triangle, 1, 1) == 0

    def test_disconnected_minus_one(self):
        g = Graph.from_edges([(0, 1), (2, 3)], 4)
        assert shortest_path_distance(g, 0, 3) == -1

    def test_matches_bfs_on_random_graph(self, ba_graph, rng):
        d = bfs_distances(ba_graph, 3)
        for target in rng.choice(ba_graph.n_nodes, 10, replace=False):
            assert shortest_path_distance(ba_graph, 3, int(target)) == d[target]


class TestBfsTree:
    def test_parents_reduce_distance(self, ba_graph):
        parent = bfs_tree(ba_graph, 0)
        dist = bfs_distances(ba_graph, 0)
        for v in range(1, ba_graph.n_nodes):
            if parent[v] >= 0:
                assert dist[parent[v]] == dist[v] - 1

    def test_source_is_own_parent(self, triangle):
        assert bfs_tree(triangle, 2)[2] == 2


class TestConnectedComponents:
    def test_single_component(self, ba_graph):
        assert connected_components(ba_graph).max() == 0

    def test_two_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], 5)
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert len(np.unique(comp)) == 3  # isolated node 4 is its own

    def test_directed_uses_weak_connectivity(self):
        g = Graph.from_edges([(0, 1)], 2, directed=True)
        comp = connected_components(g)
        assert comp[0] == comp[1]


class TestKHopNeighborhood:
    def test_zero_hops_is_seeds(self, ba_graph):
        assert np.array_equal(k_hop_neighborhood(ba_graph, [5], 0), [5])

    def test_one_hop_is_closed_neighborhood(self, triangle):
        assert np.array_equal(k_hop_neighborhood(triangle, [0], 1), [0, 1, 2])

    def test_monotone_in_k(self, ba_graph):
        sizes = [len(k_hop_neighborhood(ba_graph, [0], k)) for k in range(5)]
        assert sizes == sorted(sizes)

    def test_matches_bfs_ball(self, grid5x5):
        d = bfs_distances(grid5x5, 12)
        ball = k_hop_neighborhood(grid5x5, [12], 2)
        assert np.array_equal(ball, np.flatnonzero((d >= 0) & (d <= 2)))

    def test_multiple_seeds(self, path4):
        assert np.array_equal(k_hop_neighborhood(path4, [0, 3], 1), [0, 1, 2, 3])


def _random_graph(seed, directed):
    """60 nodes, ~120 random arcs among the first 50; 50..59 isolated."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, 50, size=(120, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return Graph.from_edges(edges, 60, directed=directed)


def _bfs_in_order(graph, seeds, k):
    """Per-element ``expand``: each hop scans the previous hop's new ids in
    order, their rows in stored order, and appends every unseen id."""
    levels = [list(map(int, seeds))]
    seen, frontier = set(levels[0]), levels[0]
    for _ in range(k):
        fresh = []
        for u in frontier:
            for v in map(int, graph.neighbors(u)):
                if v not in seen:
                    seen.add(v)
                    fresh.append(v)
        levels.append(levels[-1] + fresh)
        frontier = fresh
    return levels


class TestExpandOracle:
    @pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_node_bfs(self, seed, directed):
        graph = _random_graph(seed, directed)
        rng = np.random.default_rng(100 + seed)
        # Duplicate seeds, and isolated seeds (ids >= 50) on some draws.
        seeds = rng.integers(0, 60, size=int(rng.integers(1, 7)))
        seeds = np.concatenate([seeds, seeds[:2]])
        for k in range(5):
            levels = expand(graph.indptr, graph.indices, seeds, k)
            assert len(levels) == k + 1
            assert np.array_equal(levels[0], seeds)
            for earlier, later in zip(levels, levels[1:]):
                assert np.array_equal(later[: len(earlier)], earlier)
            assert [lv.tolist() for lv in levels] == _bfs_in_order(graph, seeds, k)
            assert np.array_equal(
                np.unique(levels[-1]), reference.k_hop_neighborhood(graph, seeds, k)
            )
            assert np.array_equal(
                k_hop_neighborhood(graph, seeds, k),
                reference.k_hop_neighborhood(graph, seeds, k),
            )

    def test_empty_seeds(self, ba_graph):
        levels = expand(ba_graph.indptr, ba_graph.indices, np.empty(0, np.int64), 3)
        assert [len(level) for level in levels] == [0, 0, 0, 0]
        assert len(k_hop_neighborhood(ba_graph, [], 2)) == 0

    def test_isolated_seed_never_grows(self):
        graph = _random_graph(0, False)
        levels = expand(graph.indptr, graph.indices, np.array([55]), 4)
        assert [level.tolist() for level in levels] == [[55]] * 5


_N = 5


def _five_node_entry_points():
    graph = path_graph(_N).with_data(
        x=np.random.default_rng(0).normal(size=(_N, 3)), y=np.zeros(_N, int)
    )
    model, adj = GraphSAGE(3, 4, 2, n_layers=2, seed=0), GraphSAGE.prepare(graph)
    return {
        "k_hop_neighborhood": lambda ids: k_hop_neighborhood(graph, ids, 1),
        "ego_subgraph": lambda ids: ego_subgraph(
            graph, ids[0] if isinstance(ids, list) else ids, 1
        ),
        "dirty_frontiers": lambda ids: dirty_frontiers(
            DynamicGraph.from_graph(graph), ids, 1
        ),
        "NeighborSampler.sample": lambda ids: NeighborSampler(
            graph, [2], seed=0
        ).sample(np.asarray(ids)),
        "GraphSAGE.frontiers": lambda ids: model.frontiers(adj, ids),
        "GraphSAGE.forward_full": lambda ids: model.forward_full(adj, graph.x, ids),
    }


@pytest.mark.parametrize("entry", sorted(_five_node_entry_points()))
@pytest.mark.parametrize(
    "bad",
    [[-1], [_N], [1.7], [True], np.array([[1]])],
    ids=["negative", "n", "float", "bool", "two_d"],
)
def test_frontier_entry_points_reject_bad_node_ids(entry, bad):
    call = _five_node_entry_points()[entry]
    with pytest.raises(GraphError):
        call(bad)
