"""Tests for dynamic graphs and incremental PPR maintenance."""

import numpy as np
import pytest

from repro.analytics.ppr import ppr_forward_push, ppr_power_iteration
from repro.errors import GraphError
from repro.graph import Graph, barabasi_albert_graph, path_graph
from repro.graph.dynamic import DynamicGraph, IncrementalPPR
from repro.graph.traversal import neighbors_of

import reference_dynamic as reference


class TestDynamicGraph:
    def test_from_graph_roundtrip(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        assert dyn.snapshot() == ba_graph

    def test_insert_edge(self):
        dyn = DynamicGraph(4)
        dyn.insert_edge(0, 1)
        dyn.insert_edge(1, 2)
        assert dyn.n_edges == 2
        assert dyn.has_edge(1, 0)
        assert not dyn.has_edge(0, 2)

    def test_snapshot_reflects_inserts(self):
        dyn = DynamicGraph(3)
        dyn.insert_edge(0, 2)
        snap = dyn.snapshot()
        assert snap.has_edge(0, 2)
        assert snap.n_undirected_edges == 1

    def test_duplicate_rejected(self):
        dyn = DynamicGraph(3)
        dyn.insert_edge(0, 1)
        with pytest.raises(GraphError):
            dyn.insert_edge(1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DynamicGraph(3).insert_edge(1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            DynamicGraph(3).insert_edge(0, 5)

    def test_directed_source_rejected(self):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1)], 2, directed=True)
        with pytest.raises(GraphError):
            DynamicGraph.from_graph(g)

    def test_snapshot_carries_features_and_labels(self, featured_graph):
        # Regression: snapshot() used to be topology-only, silently
        # dropping x/y on every dynamic-to-static handoff.
        dyn = DynamicGraph.from_graph(featured_graph)
        u = 0
        v = next(
            w for w in range(featured_graph.n_nodes)
            if w != u and not featured_graph.has_edge(u, w)
        )
        dyn.insert_edge(u, v)
        snap = dyn.snapshot()
        assert np.array_equal(snap.x, featured_graph.x)
        assert np.array_equal(snap.y, featured_graph.y)
        assert snap.has_edge(u, v)

    def test_snapshot_rows_sorted_after_inserts(self, ba_graph):
        # Regression: inserts appended to the neighbour lists, so touched
        # snapshot rows came out unsorted and the operators built from them
        # summed rows in a different order than a from-scratch graph.
        dyn = DynamicGraph.from_graph(ba_graph)
        edges = {tuple(sorted(e)) for e in zip(*ba_graph.adjacency().nonzero())}
        rng = np.random.default_rng(0)
        while len(edges) < ba_graph.n_undirected_edges + 5:
            u, v = sorted(int(w) for w in rng.integers(0, ba_graph.n_nodes, 2))
            if u != v and (u, v) not in edges:
                dyn.insert_edge(v, u)
                edges.add((u, v))
        snap = dyn.snapshot().adjacency()
        fresh = Graph.from_edges(sorted(edges), ba_graph.n_nodes).adjacency()
        assert snap.has_sorted_indices
        assert np.array_equal(snap.indptr, fresh.indptr)
        assert np.array_equal(snap.indices, fresh.indices)


    def test_from_graph_borrows_arrays(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        assert dyn.indptr is ba_graph.indptr
        assert dyn.indices is ba_graph.indices

    def test_inserts_never_write_old_arrays(self):
        dyn = DynamicGraph.from_graph(path_graph(12))
        before = dyn.snapshot()
        kept = (before.indptr.copy(), before.indices.copy())
        dyn.insert_edges([(0, 10), (5, 7), (7, 10)])
        assert np.array_equal(before.indptr, kept[0])
        assert np.array_equal(before.indices, kept[1])
        assert dyn.snapshot().n_edges == before.n_edges + 6

    def test_batch_into_one_row_gap_stays_sorted(self):
        dyn = DynamicGraph.from_graph(Graph.from_edges([(0, 1), (0, 9)], 10))
        dyn.insert_edges([(0, 7), (0, 3), (5, 0), (2, 8)])
        assert dyn.neighbors(0).tolist() == [1, 3, 5, 7, 9]
        assert dyn.neighbors(8).tolist() == [2]
        assert dyn.snapshot() == Graph.from_edges(
            [(0, 1), (0, 9), (0, 7), (0, 3), (5, 0), (2, 8)], 10
        )

    def test_rejected_batch_changes_nothing(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        u, v = 0, int(ba_graph.neighbors(0)[0])
        with pytest.raises(GraphError):
            dyn.insert_edges([(1, 118), (u, v)])
        assert dyn.indices is ba_graph.indices
        assert dyn.n_edges == ba_graph.n_edges // 2

    def test_neighbors_of_gathers_rows(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        nodes = np.array([5, 0, 5, 119])
        expect = np.concatenate([ba_graph.neighbors(u) for u in nodes])
        gather = neighbors_of(dyn.indptr, dyn.indices, nodes)
        assert np.array_equal(gather, expect)
        empty = np.empty(0, dtype=np.int64)
        assert len(neighbors_of(dyn.indptr, dyn.indices, empty)) == 0


class TestIncrementalPPR:
    def test_bitwise_equal_to_reference(self):
        # The CSR-array graph and the vectorised queue seeding must leave
        # every push in the order the per-node lists gave.
        base = barabasi_albert_graph(300, 3, seed=1)
        dyn = DynamicGraph.from_graph(base)
        ref_dyn = reference.DynamicGraph.from_graph(base)
        inc = IncrementalPPR(dyn, 0, alpha=0.15, epsilon=1e-6)
        ref = reference.IncrementalPPR(ref_dyn, 0, alpha=0.15, epsilon=1e-6)
        rng = np.random.default_rng(19)
        inserted = 0
        while inserted < 50:
            u, v = (int(w) for w in rng.integers(0, base.n_nodes, 2))
            if u == v or dyn.has_edge(u, v):
                continue
            inc.insert_edge(u, v)
            ref.insert_edge(u, v)
            inserted += 1
            assert np.array_equal(inc.estimate, ref.estimate)
            assert np.array_equal(inc.residual, ref.residual)
            assert inc.last_push_count == ref.last_push_count
        assert dyn.snapshot() == ref_dyn.snapshot()

    def test_initial_matches_static_push(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        inc = IncrementalPPR(dyn, 0, alpha=0.2, epsilon=1e-6)
        static = ppr_forward_push(ba_graph, 0, alpha=0.2, epsilon=1e-6)
        exact = ppr_power_iteration(ba_graph, 0, alpha=0.2, tol=1e-12)
        assert np.abs(inc.estimate - exact).max() < 1e-4
        assert np.abs(static.estimate - exact).max() < 1e-4

    def test_invariant_maintained_exactly(self, ba_graph, rng):
        dyn = DynamicGraph.from_graph(ba_graph)
        inc = IncrementalPPR(dyn, 0, alpha=0.2, epsilon=1e-5)
        assert inc.check_invariant()
        for _ in range(30):
            while True:
                u = int(rng.integers(ba_graph.n_nodes))
                v = int(rng.integers(ba_graph.n_nodes))
                if u != v and not dyn.has_edge(u, v):
                    break
            inc.insert_edge(u, v)
            assert inc.check_invariant()

    def test_tracks_exact_ppr_through_updates(self, ba_graph, rng):
        dyn = DynamicGraph.from_graph(ba_graph)
        inc = IncrementalPPR(dyn, 3, alpha=0.2, epsilon=1e-7)
        for _ in range(20):
            while True:
                u = int(rng.integers(ba_graph.n_nodes))
                v = int(rng.integers(ba_graph.n_nodes))
                if u != v and not dyn.has_edge(u, v):
                    break
            inc.insert_edge(u, v)
        exact = ppr_power_iteration(dyn.snapshot(), 3, alpha=0.2, tol=1e-12)
        wdeg = dyn.snapshot().degrees()
        assert np.all(np.abs(exact - inc.estimate) <= 1e-7 * wdeg + 1e-9)

    def test_edge_changing_structure_changes_estimate(self):
        # Connect two halves of a path: mass must flow into the far half.
        g = path_graph(10)
        dyn = DynamicGraph.from_graph(g)
        inc = IncrementalPPR(dyn, 0, alpha=0.3, epsilon=1e-8)
        before = inc.estimate[9]
        inc.insert_edge(0, 9)
        assert inc.estimate[9] > before * 2

    def test_updates_are_cheap(self, ba_graph, rng):
        dyn = DynamicGraph.from_graph(ba_graph)
        inc = IncrementalPPR(dyn, 0, alpha=0.2, epsilon=1e-5)
        initial_pushes = inc.last_push_count
        push_counts = []
        for _ in range(10):
            while True:
                u = int(rng.integers(ba_graph.n_nodes))
                v = int(rng.integers(ba_graph.n_nodes))
                if u != v and not dyn.has_edge(u, v):
                    break
            inc.insert_edge(u, v)
            push_counts.append(inc.last_push_count)
        assert np.mean(push_counts) < 0.3 * max(initial_pushes, 1)

    def test_invalid_alpha(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            IncrementalPPR(dyn, 0, alpha=1.5)
