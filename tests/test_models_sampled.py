"""Tests for GraphSAGE, PPRGo, and node-adaptive inference."""

import numpy as np
import pytest

from repro.editing.sampling import LaborSampler, NeighborSampler
from repro.errors import ConfigError, GraphError, NotFittedError, ShapeError
from repro.graph import Graph, k_hop_neighborhood
from repro.models import SGC, GraphSAGE, NodeAdaptiveInference, PPRGo
from repro.tensor import functional as F
from repro.tensor.autograd import Tensor, no_grad, spmm


class TestGraphSAGE:
    def test_forward_blocks_shape(self, featured_graph):
        model = GraphSAGE(6, 8, 3, n_layers=2, seed=0)
        sampler = NeighborSampler(featured_graph, [4, 4], seed=0)
        seeds = np.arange(12)
        blocks = sampler.sample(seeds)
        out = model.forward_blocks(blocks, featured_graph.x[blocks[0].src_ids])
        assert out.shape == (12, 3)

    def test_blocks_must_match_layers(self, featured_graph):
        model = GraphSAGE(6, 8, 3, n_layers=2, seed=0)
        sampler = NeighborSampler(featured_graph, [4], seed=0)
        blocks = sampler.sample(np.arange(3))
        with pytest.raises(ConfigError):
            model.forward_blocks(blocks, featured_graph.x[blocks[0].src_ids])

    def test_full_forward_shape(self, featured_graph):
        model = GraphSAGE(6, 8, 3, n_layers=2, seed=0)
        out = model.forward_full(GraphSAGE.prepare(featured_graph), featured_graph.x)
        assert out.shape == (featured_graph.n_nodes, 3)

    def test_full_fanout_matches_full_forward(self, featured_graph):
        # With fanout >= max degree, sampled blocks equal full aggregation.
        model = GraphSAGE(6, 8, 3, n_layers=1, dropout=0.0, seed=0)
        model.eval()
        max_deg = int(featured_graph.degrees().max())
        sampler = NeighborSampler(featured_graph, [max_deg + 1], seed=0)
        seeds = np.arange(featured_graph.n_nodes)
        blocks = sampler.sample(seeds)
        with no_grad():
            sampled = model.forward_blocks(
                blocks, featured_graph.x[blocks[0].src_ids]
            ).data
            full = model.forward_full(
                GraphSAGE.prepare(featured_graph), featured_graph.x
            ).data
        assert np.allclose(sampled, full, atol=1e-10)

    def test_works_with_labor_sampler(self, featured_graph):
        model = GraphSAGE(6, 8, 3, n_layers=2, seed=0)
        sampler = LaborSampler(featured_graph, [4, 4], seed=0)
        blocks = sampler.sample(np.arange(6))
        out = model.forward_blocks(blocks, featured_graph.x[blocks[0].src_ids])
        assert out.shape == (6, 3)


def _sparse_graph_with_isolated_nodes():
    """97 nodes, mean degree ~3, nodes 95 and 96 without neighbours."""
    rng = np.random.default_rng(11)
    edges = rng.integers(0, 95, size=(150, 2))
    graph = Graph.from_edges(edges[edges[:, 0] != edges[:, 1]], n_nodes=97)
    return graph.with_data(x=rng.normal(size=(97, 5)), y=rng.integers(0, 2, 97))


_ROWS_CASES = {
    "sorted": np.arange(3, 97, 4),
    "unsorted": np.random.default_rng(2).permutation(97)[:31],
    "duplicated": np.array([40, 7, 40, 40, 12, 7]),
    "single": np.array([17]),
    "empty": np.array([], dtype=np.int64),
    "every_node": np.arange(97),
    "with_zero_degree": np.array([95, 3, 96, 50]),
}


class TestRestrictedForward:
    """``forward_full(adj, x, rows)`` == ``forward_full(adj, x).data[rows]``."""

    @pytest.fixture(scope="class")
    def graph(self):
        return _sparse_graph_with_isolated_nodes()

    @staticmethod
    def _model(n_layers):
        # Two output columns with odd row counts and a single row are the
        # shapes where a plain BLAS product's row bits depend on the batch.
        model = GraphSAGE(5, 16, 2, n_layers=n_layers, seed=n_layers)
        model.eval()
        return model

    @pytest.mark.parametrize("case", sorted(_ROWS_CASES))
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_bitwise_equal_to_full_rows(self, graph, n_layers, case):
        rows = _ROWS_CASES[case]
        model, adj = self._model(n_layers), GraphSAGE.prepare(graph)
        with no_grad():
            full = model.forward_full(adj, graph.x).data
            restricted = model.forward_full(adj, graph.x, rows).data
        assert restricted.shape == (len(rows), 2)
        assert np.array_equal(restricted, full[rows])

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_each_layer_multiplies_its_frontier_rows(
        self, graph, n_layers, monkeypatch
    ):
        import repro.models.sage as sage

        products = []

        def spy(matrix, dense):
            products.append(matrix.shape[0])
            return spmm(matrix, dense)

        monkeypatch.setattr(sage, "spmm", spy)
        model, adj = self._model(n_layers), GraphSAGE.prepare(graph)
        rows = np.array([95, 3, 50])
        frontiers = model.frontiers(adj, rows)
        with no_grad():
            model.forward_full(adj, graph.x, rows)
        assert products == [len(f) for f in frontiers]
        assert products[-1] == len(rows) and products[0] < graph.n_nodes
        products.clear()
        with no_grad():
            model.forward_full(adj, graph.x)
        assert products == [graph.n_nodes] * n_layers

    def test_frontiers_are_prefix_closed_neighbourhoods(self, graph):
        model, adj = self._model(3), GraphSAGE.prepare(graph)
        rows = np.array([60, 95, 2, 60])
        frontiers = model.frontiers(adj, rows)
        assert np.array_equal(frontiers[-1], rows)
        for earlier, later in zip(frontiers, frontiers[1:]):
            assert np.array_equal(earlier[: len(later)], later)
            needed = set(adj[later].indices.tolist()) | set(later.tolist())
            assert set(earlier.tolist()) == needed
            # The new ids in order of first appearance in the rows' stored order.
            known, order = set(later.tolist()), []
            for v in adj[later].indices.tolist():
                if v not in known:
                    known.add(v)
                    order.append(v)
            assert earlier[len(later):].tolist() == order

    @pytest.mark.parametrize("case", sorted(_ROWS_CASES))
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_input_frontier_is_the_k_hop_ball(self, graph, n_layers, case):
        rows = _ROWS_CASES[case]
        model, adj = self._model(n_layers), GraphSAGE.prepare(graph)
        frontier = model.frontiers(adj, rows)[0]
        assert set(frontier.tolist()) == set(
            k_hop_neighborhood(graph, rows, n_layers - 1).tolist()
        )

    def test_gradients_match_plain_layers(self, graph):
        # Reference: the same layers through SAGEConv.forward (plain Linear).
        model, adj = self._model(2), GraphSAGE.prepare(graph)
        rows = np.array([4, 95, 30])
        h = Tensor(graph.x)
        for i, conv in enumerate(model.convs):
            h = conv(adj, h, graph.n_nodes)
            h = F.relu(h) if i == 0 else h
        reference = h.gather_rows(rows)
        (reference * reference).sum().backward()
        expected = [p.grad.copy() for p in model.parameters()]
        model.zero_grad()
        restricted = model.forward_full(adj, graph.x, rows)
        (restricted * restricted).sum().backward()
        assert np.allclose(restricted.data, reference.data, atol=1e-12)
        for param, grad in zip(model.parameters(), expected):
            assert np.allclose(param.grad, grad, atol=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [np.array([-1, 3]), np.array([97]), np.array([1.0, 2.0]),
         np.array([[1, 2]]), np.array([True, False])],
        ids=["negative", "out_of_range", "float", "two_d", "bool"],
    )
    def test_malformed_rows_rejected(self, graph, rows):
        model, adj = self._model(2), GraphSAGE.prepare(graph)
        with pytest.raises(GraphError):
            model.forward_full(adj, graph.x, rows)
        with pytest.raises(GraphError):
            model.frontiers(adj, rows)

    def test_feature_rows_must_match_operator(self, graph):
        model, adj = self._model(1), GraphSAGE.prepare(graph)
        with pytest.raises(ShapeError):
            model.forward_full(adj, graph.x[:-1], np.array([0]))


class TestPPRGo:
    def test_requires_precompute(self, featured_graph):
        model = PPRGo(6, 8, 3, seed=0)
        with pytest.raises(NotFittedError):
            model(np.arange(3))

    def test_requires_features(self, ba_graph):
        model = PPRGo(6, 8, 3, seed=0)
        with pytest.raises(ConfigError):
            model.precompute(ba_graph)

    def test_pi_rows_normalised_topk(self, featured_graph):
        model = PPRGo(6, 8, 3, topk=8, seed=0)
        pi = model.precompute(featured_graph)
        sums = np.asarray(pi.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)
        assert np.diff(pi.indptr).max() <= 8

    def test_forward_shape(self, featured_graph):
        model = PPRGo(6, 8, 3, topk=8, seed=0)
        model.precompute(featured_graph)
        assert model(np.arange(9)).shape == (9, 3)

    def test_batch_support_smaller_than_graph(self, featured_graph):
        model = PPRGo(6, 8, 3, topk=4, seed=0)
        model.precompute(featured_graph)
        support = model.batch_support_size(np.arange(5))
        assert support <= 5 * 4
        assert support < featured_graph.n_nodes

    def test_alpha_validated(self):
        with pytest.raises(ConfigError):
            PPRGo(4, 8, 2, alpha=1.0)


class TestNodeAdaptiveInference:
    @pytest.fixture
    def trained_sgc(self, csbm_dataset):
        from repro.training import train_decoupled

        graph, split = csbm_dataset
        model = SGC(graph.n_features, graph.n_classes, k_hops=3, hidden=16, seed=0)
        train_decoupled(model, graph, split, epochs=60, seed=0)
        return graph, split, model

    def test_threshold_zero_exits_immediately(self, trained_sgc):
        graph, _, model = trained_sgc
        nai = NodeAdaptiveInference(model, threshold=0.0)
        res = nai.predict(graph)
        assert np.all(res.hops_used == 0)
        assert res.ops_used == 0
        assert res.ops_saved_fraction == 1.0

    def test_threshold_one_runs_full_depth(self, trained_sgc):
        graph, _, model = trained_sgc
        nai = NodeAdaptiveInference(model, threshold=1.0)
        res = nai.predict(graph)
        assert np.all(res.hops_used == model.k_hops)
        assert res.ops_saved_fraction == pytest.approx(0.0, abs=1e-9)

    def test_intermediate_threshold_saves_ops_keeps_accuracy(self, trained_sgc):
        from repro.training import accuracy

        graph, split, model = trained_sgc
        full = NodeAdaptiveInference(model, threshold=1.0).predict(graph)
        adaptive = NodeAdaptiveInference(model, threshold=0.95).predict(graph)
        acc_full = accuracy(full.predictions[split.test], graph.y[split.test])
        acc_adaptive = accuracy(adaptive.predictions[split.test], graph.y[split.test])
        assert adaptive.ops_used <= full.ops_used
        assert acc_adaptive >= acc_full - 0.1

    def test_all_nodes_predicted(self, trained_sgc):
        graph, _, model = trained_sgc
        res = NodeAdaptiveInference(model, threshold=0.9).predict(graph)
        assert np.all(res.predictions >= 0)

    def test_threshold_validated(self, trained_sgc):
        _, _, model = trained_sgc
        with pytest.raises(ConfigError):
            NodeAdaptiveInference(model, threshold=1.5)
