"""Tests for the CSR Graph core: construction, accessors, derived graphs."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import GraphError, ShapeError
from repro.graph import Graph
from repro.graph.io import load_edge_list


class TestConstruction:
    def test_from_edges_basic(self, triangle):
        assert triangle.n_nodes == 3
        assert triangle.n_edges == 6  # both arc directions stored
        assert triangle.n_undirected_edges == 3

    def test_from_edges_symmetrises(self):
        g = Graph.from_edges([(0, 1)], 2)
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_from_edges_merges_duplicates(self):
        g = Graph.from_edges([(0, 1), (0, 1)], 2)
        assert g.n_undirected_edges == 1
        assert g.neighbor_weights(0)[0] == 2.0

    def test_from_edges_self_loop_not_doubled(self):
        g = Graph.from_edges([(0, 0), (0, 1)], 2)
        assert g.adjacency()[0, 0] == 1.0

    def test_from_edges_weights(self):
        g = Graph.from_edges([(0, 1), (1, 2)], 3, weights=np.array([2.0, 3.0]))
        assert g.adjacency()[0, 1] == 2.0
        assert g.adjacency()[2, 1] == 3.0

    def test_from_edges_weight_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Graph.from_edges([(0, 1)], 2, weights=np.array([1.0, 2.0]))

    def test_from_scipy_roundtrip(self, ba_graph):
        again = Graph.from_scipy(ba_graph.adjacency())
        assert again == ba_graph

    def test_from_scipy_rejects_nonsquare(self):
        with pytest.raises(GraphError):
            Graph.from_scipy(sp.csr_matrix(np.ones((2, 3))))

    def test_directed_graph_allows_asymmetry(self):
        g = Graph.from_edges([(0, 1)], 2, directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_undirected_rejects_asymmetric_csr(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(GraphError):
            Graph.from_scipy(mat, directed=False)

    def test_invalid_indices_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 1]), np.array([5]), directed=True)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            Graph(np.array([0, 2, 1]), np.array([0, 1, 0]), directed=True)

    def test_feature_shape_validated(self):
        with pytest.raises(ShapeError):
            Graph.from_edges([(0, 1)], 2, x=np.zeros((3, 4)))

    def test_label_shape_validated(self):
        with pytest.raises(ShapeError):
            Graph.from_edges([(0, 1)], 2, y=np.zeros(3, dtype=int))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad, tmp_path):
        # NaN compares false, so the symmetry check alone let it through.
        with pytest.raises(GraphError, match="finite"):
            Graph.from_edges([(0, 1), (1, 2)], 3, weights=[bad, 1.0])
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1 {bad}\n1 2 1.0\n", encoding="utf-8")
        with pytest.raises(GraphError, match="finite"):
            load_edge_list(path)

    @pytest.mark.parametrize("y", [
        [0.5, 1.0, 2.0],        # fractional
        [-1, 1, 2],             # negative
        [-1.0, 0.0, 1.0],       # negative integral float
        [np.nan, 0.0, 1.0],     # NaN
        [np.inf, 0.0, 1.0],     # inf
        ["a", "b", "c"],        # not numeric
    ])
    def test_malformed_labels_rejected(self, y):
        with pytest.raises(GraphError, match="labels"):
            Graph.from_edges([(0, 1), (1, 2)], 3, y=y)
        with pytest.raises(GraphError, match="labels"):
            Graph.from_edges([(0, 1), (1, 2)], 3).with_data(y=np.asarray(y))

    @pytest.mark.parametrize("y, n_classes", [
        ([0, 2, 1], 3),
        (np.array([0, 2, 1], dtype=np.uint8), 3),
        ([0.0, 2.0, 1.0], 3),   # integral floats, as F.cross_entropy takes
        ([True, False, True], 2),
    ])
    def test_integral_labels_accepted(self, y, n_classes):
        graph = Graph.from_edges([(0, 1), (1, 2)], 3, y=y)
        assert graph.n_classes == n_classes

    def test_arrays_immutable(self, triangle):
        with pytest.raises(ValueError):
            triangle.indices[0] = 99


class TestAccessors:
    def test_degrees(self, triangle):
        assert np.array_equal(triangle.degrees(), [2, 2, 2])

    def test_weighted_degrees(self):
        g = Graph.from_edges([(0, 1), (0, 2)], 3, weights=np.array([2.0, 5.0]))
        assert g.degrees(weighted=True)[0] == 7.0

    def test_weighted_degrees_isolated_node(self):
        g = Graph.from_edges([(0, 1)], 3)
        assert g.degrees(weighted=True)[2] == 0.0

    def test_neighbors_sorted_within_csr(self, triangle):
        assert set(triangle.neighbors(0)) == {1, 2}

    def test_has_edge(self, path4):
        assert path4.has_edge(1, 2)
        assert not path4.has_edge(0, 3)

    def test_edge_array_shape(self, triangle):
        arr = triangle.edge_array()
        assert arr.shape == (6, 2)

    def test_edge_sources_align_with_indices(self, ba_graph):
        src = ba_graph.edge_sources()
        assert len(src) == ba_graph.n_edges
        # spot-check: every (src, dst) pair is a real edge
        for i in [0, 10, 100]:
            assert ba_graph.has_edge(int(src[i]), int(ba_graph.indices[i]))

    def test_iter_edges(self, triangle):
        edges = list(triangle.iter_edges())
        assert len(edges) == 6
        assert all(w == 1.0 for _, _, w in edges)

    def test_n_features_requires_x(self, triangle):
        with pytest.raises(GraphError):
            _ = triangle.n_features

    def test_n_classes_requires_y(self, triangle):
        with pytest.raises(GraphError):
            _ = triangle.n_classes

    def test_n_classes(self, featured_graph):
        assert featured_graph.n_classes == 3


class TestDerivedGraphs:
    def test_with_data(self, triangle, rng):
        x = rng.normal(size=(3, 2))
        g = triangle.with_data(x=x)
        assert np.array_equal(g.x, x)
        assert g == triangle  # structure unchanged

    def test_add_self_loops(self, triangle):
        g = triangle.add_self_loops()
        assert all(g.has_edge(i, i) for i in range(3))
        assert g.n_undirected_edges == 6

    def test_add_self_loops_replaces_existing(self):
        g = Graph.from_edges([(0, 0), (0, 1)], 2).add_self_loops(weight=1.0)
        assert g.adjacency()[0, 0] == 1.0

    def test_remove_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1)], 2).remove_self_loops()
        assert not g.has_edge(0, 0)
        assert g.has_edge(0, 1)

    def test_to_undirected(self):
        g = Graph.from_edges([(0, 1)], 2, directed=True).to_undirected()
        assert g.has_edge(1, 0)
        assert not g.directed

    def test_to_undirected_noop_on_undirected(self, triangle):
        assert triangle.to_undirected() is triangle

    def test_subgraph_structure(self, path4):
        sub = path4.subgraph(np.array([1, 2]))
        assert sub.n_nodes == 2
        assert sub.has_edge(0, 1)

    def test_subgraph_slices_data(self, featured_graph):
        nodes = np.array([3, 5, 8])
        sub = featured_graph.subgraph(nodes)
        assert np.array_equal(sub.x, featured_graph.x[nodes])
        assert np.array_equal(sub.y, featured_graph.y[nodes])

    def test_subgraph_rejects_duplicates(self, path4):
        with pytest.raises(GraphError):
            path4.subgraph(np.array([1, 1]))

    def test_subgraph_rejects_out_of_range(self, path4):
        with pytest.raises(GraphError):
            path4.subgraph(np.array([9]))

    def test_reweighted(self, triangle):
        new = triangle.reweighted(np.full(6, 2.0))
        assert new.adjacency()[0, 1] == 2.0

    def test_reweighted_shape_check(self, triangle):
        with pytest.raises(ShapeError):
            triangle.reweighted(np.ones(3))

    def test_equality_and_hash(self, triangle):
        other = Graph.from_edges([(0, 1), (1, 2), (2, 0)], 3)
        assert triangle == other
        assert hash(triangle) == hash(other)

    def test_inequality(self, triangle, path4):
        assert triangle != path4
