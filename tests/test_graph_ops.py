"""Tests for graph matrix operators: normalisations, Laplacians."""

import numpy as np
import pytest

from repro.errors import ConfigError, GraphError
from repro.graph import (
    laplacian_matrix,
    normalized_adjacency,
    propagation_matrix,
    ring_graph,
)
from repro.graph.core import Graph


class TestNormalizedAdjacency:
    def test_rw_rows_sum_to_one(self, ba_graph):
        p = normalized_adjacency(ba_graph, kind="rw", self_loops=False)
        assert np.allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_col_columns_sum_to_one(self, ba_graph):
        p = normalized_adjacency(ba_graph, kind="col", self_loops=False)
        assert np.allclose(np.asarray(p.sum(axis=0)).ravel(), 1.0)

    def test_sym_is_symmetric(self, ba_graph):
        a = normalized_adjacency(ba_graph, kind="sym")
        diff = a - a.T
        assert abs(diff).max() < 1e-12

    def test_sym_spectral_norm_at_most_one(self, ba_graph):
        a = normalized_adjacency(ba_graph, kind="sym").toarray()
        eigs = np.linalg.eigvalsh(a)
        assert eigs.max() <= 1.0 + 1e-9
        assert eigs.min() >= -1.0 - 1e-9

    def test_none_returns_plain_adjacency(self, triangle):
        a = normalized_adjacency(triangle, kind="none", self_loops=False)
        assert (a != triangle.adjacency()).nnz == 0

    def test_self_loops_added(self, triangle):
        a = normalized_adjacency(triangle, kind="none", self_loops=True)
        assert np.all(a.diagonal() == 1.0)

    def test_isolated_node_row_zero(self):
        g = Graph.from_edges([(0, 1)], 3)
        p = normalized_adjacency(g, kind="rw", self_loops=False)
        assert p[2].nnz == 0

    def test_invalid_kind(self, triangle):
        with pytest.raises(ConfigError):
            normalized_adjacency(triangle, kind="bogus")


class TestLaplacian:
    def test_combinatorial_rows_sum_zero(self, ba_graph):
        lap = laplacian_matrix(ba_graph, kind="comb")
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_sym_eigenvalues_in_zero_two(self, ba_graph):
        lap = laplacian_matrix(ba_graph, kind="sym").toarray()
        eigs = np.linalg.eigvalsh(lap)
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2.0 + 1e-9

    def test_sym_psd(self, sbm_graph):
        lap = laplacian_matrix(sbm_graph, kind="sym").toarray()
        assert np.linalg.eigvalsh(lap).min() >= -1e-9

    def test_zero_eigenvalue_multiplicity_counts_components(self):
        g = Graph.from_edges([(0, 1), (2, 3)], 4)
        lap = laplacian_matrix(g, kind="sym").toarray()
        eigs = np.linalg.eigvalsh(lap)
        assert np.sum(np.abs(eigs) < 1e-9) == 2

    def test_ring_spectrum_closed_form(self):
        n = 16
        lap = laplacian_matrix(ring_graph(n), kind="sym").toarray()
        eigs = np.sort(np.linalg.eigvalsh(lap))
        exact = np.sort(1.0 - np.cos(2 * np.pi * np.arange(n) / n))
        assert np.allclose(eigs, exact, atol=1e-9)

    def test_rw_laplacian_rows_sum_zero(self, ba_graph):
        lap = laplacian_matrix(ba_graph, kind="rw")
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)

    def test_invalid_kind(self, triangle):
        with pytest.raises(ConfigError):
            laplacian_matrix(triangle, kind="bogus")


class TestPropagationMatrix:
    def test_gcn_operator_symmetric(self, ba_graph):
        p = propagation_matrix(ba_graph, scheme="gcn")
        assert abs(p - p.T).max() < 1e-12

    def test_gcn_includes_self_loops(self, triangle):
        p = propagation_matrix(triangle, scheme="gcn")
        assert np.all(p.diagonal() > 0)

    def test_lazy_walk_stochastic(self, ba_graph):
        p = propagation_matrix(ba_graph, scheme="lazy", alpha=0.5)
        assert np.allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)

    def test_lazy_requires_alpha(self, triangle):
        with pytest.raises(ConfigError):
            propagation_matrix(triangle, scheme="lazy")

    def test_unknown_scheme(self, triangle):
        with pytest.raises(ConfigError):
            propagation_matrix(triangle, scheme="nope")


class TestRowRestriction:
    @pytest.mark.parametrize("build", [
        lambda g, rows: propagation_matrix(g, "gcn", rows=rows),
        lambda g, rows: propagation_matrix(g, "lazy", alpha=0.3, rows=rows),
        lambda g, rows: normalized_adjacency(g, "col", False, rows=rows),
        lambda g, rows: laplacian_matrix(g, "comb", rows=rows),
    ])
    def test_kept_rows_are_the_full_rows(self, ba_graph, build):
        rows = np.array([7, 3, 3, 119, 0])  # unsorted, repeated: a set
        full, part = build(ba_graph, None), build(ba_graph, rows)
        kept = np.unique(rows)
        assert np.array_equal(part[kept].indices, full[kept].indices)
        assert np.array_equal(part[kept].data, full[kept].data)
        assert part.nnz == full[kept].nnz

    @pytest.mark.parametrize("rows", [[-1, 2], [0, 120]])
    def test_rows_out_of_range_rejected(self, ba_graph, rows):
        with pytest.raises(GraphError):
            propagation_matrix(ba_graph, "gcn", rows=np.array(rows))
