"""Tests for node-, layer-, and subgraph-level samplers."""

import numpy as np
import pytest

import reference_samplers as reference
from repro.errors import ConfigError, GraphError
from repro.editing.sampling import (
    HistoryCache,
    LaborSampler,
    LayerSampler,
    NeighborSampler,
    aggregate_with_cache,
    compact_layer,
    edge_subgraph_sample,
    estimate_aggregation_variance,
    node_subgraph_sample,
    random_walk_subgraph_sample,
    sample_neighbor_estimate,
)
from repro.graph import Graph, star_graph
from repro.graph.ops import normalized_adjacency


class TestNeighborSampler:
    def test_block_shapes(self, ba_graph):
        sampler = NeighborSampler(ba_graph, [4, 4], seed=0)
        seeds = np.arange(8)
        blocks = sampler.sample(seeds)
        assert len(blocks) == 2
        assert np.array_equal(blocks[-1].dst_ids, seeds)
        assert np.array_equal(blocks[-1].src_ids[: len(seeds)], seeds)

    def test_dst_prefix_invariant(self, ba_graph):
        blocks = NeighborSampler(ba_graph, [3, 3, 3], seed=1).sample(np.arange(5))
        for b in blocks:
            assert np.array_equal(b.src_ids[: b.n_dst], b.dst_ids)

    def test_fanout_respected(self, ba_graph):
        blocks = NeighborSampler(ba_graph, [3], seed=2).sample(np.arange(20))
        row_nnz = np.diff(blocks[0].matrix.indptr)
        assert row_nnz.max() <= 3

    def test_full_neighborhood_when_degree_small(self):
        g = star_graph(5)
        blocks = NeighborSampler(g, [10], seed=0).sample(np.array([1]))
        assert blocks[0].matrix.nnz == 1  # leaf has exactly one neighbour

    def test_mean_weights(self, ba_graph):
        blocks = NeighborSampler(ba_graph, [4], seed=3).sample(np.arange(10))
        sums = np.asarray(blocks[0].matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0)

    def test_empty_fanouts_rejected(self, ba_graph):
        with pytest.raises(ConfigError):
            NeighborSampler(ba_graph, [])


class TestLaborSampler:
    def test_blocks_smaller_than_independent(self, ba_graph):
        seeds = np.arange(40)
        n_trials = 10
        labor_sizes, uniform_sizes = [], []
        for s in range(n_trials):
            labor_sizes.append(
                LaborSampler(ba_graph, [5], seed=s).sample(seeds)[0].n_src
            )
            uniform_sizes.append(
                NeighborSampler(ba_graph, [5], seed=s).sample(seeds)[0].n_src
            )
        assert np.mean(labor_sizes) < np.mean(uniform_sizes)

    def test_estimator_unbiased(self, ba_graph, rng):
        # Mean over many samples approximates the exact neighbourhood mean.
        feats = rng.normal(size=(ba_graph.n_nodes, 4))
        node = int(np.argmax(ba_graph.degrees()))
        est = np.mean(
            [
                sample_neighbor_estimate(ba_graph, node, feats, 5, "labor", seed=s)
                for s in range(2000)
            ],
            axis=0,
        )
        exact = feats[ba_graph.neighbors(node)].mean(axis=0)
        assert np.allclose(est, exact, atol=0.06)

    def test_sample_structure(self, ba_graph):
        blocks = LaborSampler(ba_graph, [4, 4], seed=0).sample(np.arange(6))
        assert len(blocks) == 2
        for b in blocks:
            assert np.array_equal(b.src_ids[: b.n_dst], b.dst_ids)


class TestLayerSampler:
    def test_layer_budget_bounds_block(self, ba_graph):
        sampler = LayerSampler(ba_graph, n_layers=2, n_per_layer=20, seed=0)
        blocks = sampler.sample(np.arange(10))
        for b in blocks:
            assert b.n_src <= b.n_dst + 20

    def test_estimator_unbiased(self, ba_graph, rng):
        feats = rng.normal(size=(ba_graph.n_nodes, 3))
        ahat = normalized_adjacency(ba_graph, kind="sym", self_loops=True)
        seeds = np.arange(5)
        exact = (ahat @ feats)[seeds]
        acc = np.zeros_like(exact)
        n_rep = 3000
        sampler = LayerSampler(ba_graph, 1, 30, seed=0)
        for _ in range(n_rep):
            block = sampler.sample(seeds)[0]
            acc += block.matrix @ feats[block.src_ids]
        assert np.allclose(acc / n_rep, exact, atol=0.05)


class TestSubgraphSamplers:
    def test_node_sample_size(self, ba_graph):
        nodes, sub = node_subgraph_sample(ba_graph, 30, seed=0)
        assert len(nodes) == 30
        assert sub.n_nodes == 30

    def test_node_sample_budget_capped(self, triangle):
        nodes, _ = node_subgraph_sample(triangle, 100, seed=0)
        assert len(nodes) == 3

    def test_node_sample_custom_prob(self, ba_graph):
        prob = np.zeros(ba_graph.n_nodes)
        prob[:40] = 1.0
        nodes, _ = node_subgraph_sample(ba_graph, 20, seed=0, prob=prob)
        assert nodes.max() < 40

    def test_node_sample_bad_prob_shape(self, ba_graph):
        with pytest.raises(GraphError):
            node_subgraph_sample(ba_graph, 5, prob=np.ones(3))

    def test_edge_sample_nodes_from_edges(self, ba_graph):
        nodes, sub = edge_subgraph_sample(ba_graph, 40, seed=0)
        assert sub.n_nodes == len(nodes)
        assert sub.n_edges > 0

    def test_rw_sample_connected_ish(self, ba_graph):
        nodes, sub = random_walk_subgraph_sample(ba_graph, 5, 6, seed=0)
        # Walk-union subgraphs keep walk edges, so few isolated nodes.
        assert (sub.degrees() == 0).mean() < 0.3

    def test_deterministic(self, ba_graph):
        a, _ = node_subgraph_sample(ba_graph, 20, seed=9)
        b, _ = node_subgraph_sample(ba_graph, 20, seed=9)
        assert np.array_equal(a, b)


class TestVarianceEstimation:
    def test_variance_drops_with_budget(self, ba_graph, rng):
        feats = rng.normal(size=(ba_graph.n_nodes, 4))
        hub = int(np.argmax(ba_graph.degrees()))
        v_small, _ = estimate_aggregation_variance(
            ba_graph, hub, feats, 2, "uniform", n_trials=400, seed=0
        )
        v_large, _ = estimate_aggregation_variance(
            ba_graph, hub, feats, 20, "uniform", n_trials=400, seed=0
        )
        assert v_large < v_small

    def test_without_replacement_no_worse(self, ba_graph, rng):
        feats = rng.normal(size=(ba_graph.n_nodes, 4))
        hub = int(np.argmax(ba_graph.degrees()))
        v_wo, _ = estimate_aggregation_variance(
            ba_graph, hub, feats, 8, "uniform", n_trials=600, seed=1
        )
        v_w, _ = estimate_aggregation_variance(
            ba_graph, hub, feats, 8, "uniform_replace", n_trials=600, seed=1
        )
        assert v_wo <= v_w * 1.1

    def test_full_budget_zero_variance(self, ba_graph, rng):
        feats = rng.normal(size=(ba_graph.n_nodes, 2))
        node = 5
        deg = len(ba_graph.neighbors(node))
        var, bias = estimate_aggregation_variance(
            ba_graph, node, feats, deg, "uniform", n_trials=50, seed=2
        )
        assert var == pytest.approx(0.0, abs=1e-18)
        assert bias == pytest.approx(0.0, abs=1e-18)

    def test_unknown_method(self, ba_graph, rng):
        with pytest.raises(ConfigError):
            sample_neighbor_estimate(ba_graph, 0, rng.normal(size=(120, 2)), 3, "nope")

    def test_isolated_node_rejected(self, rng):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1)], 3)
        with pytest.raises(GraphError):
            sample_neighbor_estimate(g, 2, rng.normal(size=(3, 2)), 1, "uniform")


class TestHistoryCache:
    def test_update_and_get(self):
        cache = HistoryCache(10, 3)
        cache.update(np.array([1, 4]), np.ones((2, 3)))
        assert np.array_equal(cache.get(np.array([1])), np.ones((1, 3)))
        assert cache.fill_fraction == pytest.approx(0.2)

    def test_aggregate_with_cache_exact_when_full_budget(self, ba_graph, rng):
        feats = rng.normal(size=(ba_graph.n_nodes, 3))
        cache = HistoryCache(ba_graph.n_nodes, 3)
        node = 5
        deg = len(ba_graph.neighbors(node))
        est = aggregate_with_cache(ba_graph, node, feats, cache, deg, seed=0)
        exact = feats[ba_graph.neighbors(node)].mean(axis=0)
        assert np.allclose(est, exact)

    def test_cache_reduces_error_over_rounds(self, ba_graph, rng):
        # As the cache fills with exact (stationary) features, the cached
        # estimator converges to the exact mean.
        feats = rng.normal(size=(ba_graph.n_nodes, 3))
        hub = int(np.argmax(ba_graph.degrees()))
        exact = feats[ba_graph.neighbors(hub)].mean(axis=0)
        cache = HistoryCache(ba_graph.n_nodes, 3)
        errs = []
        for round_i in range(30):
            est = aggregate_with_cache(ba_graph, hub, feats, cache, 4, seed=round_i)
            errs.append(np.linalg.norm(est - exact))
        assert np.mean(errs[-5:]) < np.mean(errs[:5])

    def test_no_neighbours_rejected(self, rng):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1)], 3)
        cache = HistoryCache(3, 2)
        with pytest.raises(GraphError):
            aggregate_with_cache(g, 2, rng.normal(size=(3, 2)), cache, 1)


# --------------------------------------------------------------------- #
# Regression tests: zero-degree destinations, coupled variates,
# fixed-seed determinism, block invariants.
# --------------------------------------------------------------------- #


class TestZeroDegreeDestinations:
    """Isolated destinations must get a self-connection (weight 1.0), not
    silently vanish from the block (they used to lose their features)."""

    @pytest.mark.parametrize("which", ["neighbor", "labor"])
    def test_isolated_node_gets_self_connection(self, which):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1), (1, 2)], 4)  # node 3 is isolated
        cls = NeighborSampler if which == "neighbor" else LaborSampler
        blocks = cls(g, [2], seed=0).sample(np.array([3, 0]))
        b = blocks[0]
        assert 3 in b.src_ids
        row = b.matrix.getrow(0)  # dst 3 is row 0
        assert row.nnz == 1
        col = int(row.indices[0])
        assert b.src_ids[col] == 3
        assert row.data[0] == 1.0

    def test_isolated_node_keeps_its_features(self, rng):
        from repro.graph import Graph

        x = rng.normal(size=(4, 3))
        g = Graph.from_edges([(0, 1), (1, 2)], 4, x=x)
        blocks = NeighborSampler(g, [2], seed=0).sample(np.array([3]))
        agg = blocks[0].matrix @ x[blocks[0].src_ids]
        assert np.allclose(agg[0], x[3])

    def test_multi_layer_with_isolated_seed(self):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1), (1, 2), (2, 0)], 5)  # 3, 4 isolated
        blocks = NeighborSampler(g, [2, 2], seed=0).sample(np.array([3, 4, 0]))
        for b in blocks:
            # every destination row must aggregate from something
            assert np.diff(b.matrix.indptr).min() >= 1


class TestLaborCoupledVariates:
    def test_shared_neighborhood_destinations_sample_identically(self):
        from repro.graph import Graph

        # Two destinations wired to the same ten neighbours: with coupled
        # per-source variates (same degree -> same threshold) both must
        # include exactly the same sources.
        edges = [(0, v) for v in range(2, 12)] + [(1, v) for v in range(2, 12)]
        g = Graph.from_edges(edges, 12)
        blocks = LaborSampler(g, [3], seed=4).sample(np.array([0, 1]))
        m = blocks[0].matrix
        row0 = set(blocks[0].src_ids[m.getrow(0).indices].tolist())
        row1 = set(blocks[0].src_ids[m.getrow(1).indices].tolist())
        assert row0 == row1

    def test_lazy_variates_only_touch_candidate_sources(self, ba_graph):
        # The sampler must not consume an n_nodes-sized variate vector per
        # layer: drawing for the candidate set only means two batches with
        # disjoint frontiers consume different amounts of the stream, but
        # a fixed seed still reproduces exactly (determinism test below).
        s = LaborSampler(ba_graph, [3], seed=0)
        raw = s.sample_layer(np.array([0]), 0)
        deg = len(ba_graph.neighbors(0))
        assert raw.nnz <= deg


class TestSamplerDeterminism:
    @pytest.mark.parametrize("which", ["neighbor", "labor", "layer"])
    def test_fixed_seed_reproduces_blocks(self, ba_graph, which):
        def make():
            if which == "neighbor":
                return NeighborSampler(ba_graph, [4, 3], seed=13)
            if which == "labor":
                return LaborSampler(ba_graph, [4, 3], seed=13)
            return LayerSampler(ba_graph, n_layers=2, n_per_layer=20, seed=13)

        seeds = np.arange(24)
        for a, b in zip(make().sample(seeds), make().sample(seeds)):
            assert np.array_equal(a.src_ids, b.src_ids)
            assert np.array_equal(a.dst_ids, b.dst_ids)
            assert np.abs(a.matrix - b.matrix).sum() == 0.0


class TestBlockInvariants:
    @pytest.mark.parametrize("which", ["neighbor", "labor", "layer"])
    def test_unique_sources_and_in_range_columns(self, ba_graph, which):
        if which == "neighbor":
            sampler = NeighborSampler(ba_graph, [4, 4], seed=7)
        elif which == "labor":
            sampler = LaborSampler(ba_graph, [4, 4], seed=7)
        else:
            sampler = LayerSampler(ba_graph, n_layers=2, n_per_layer=24, seed=7)
        blocks = sampler.sample(np.arange(16))
        for b in blocks:
            assert len(np.unique(b.src_ids)) == len(b.src_ids)
            assert np.array_equal(b.src_ids[: b.n_dst], b.dst_ids)
            if b.matrix.nnz:
                assert b.matrix.indices.max() < b.n_src
                assert b.matrix.indices.min() >= 0
            assert b.matrix.shape == (b.n_dst, b.n_src)

    def test_chained_layers_connect(self, ba_graph):
        blocks = NeighborSampler(ba_graph, [3, 3], seed=1).sample(np.arange(10))
        # layer k's destinations are layer k-1's sources (input-first order)
        assert np.array_equal(blocks[0].dst_ids, blocks[1].src_ids)


# --------------------------------------------------------------------- #
# Array-at-a-time kernels against the per-element loops they replaced
# (tests/reference_samplers.py), sampler statistics, input hardening.
# --------------------------------------------------------------------- #


def _with_isolated(graph, n_extra):
    """``graph`` plus ``n_extra`` zero-degree nodes appended."""
    return Graph.from_edges(graph.edge_array(), graph.n_nodes + n_extra)


def _assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def _assert_same_layer(got, want):
    assert got.shape == want.shape
    _assert_same_arrays(
        (got.indptr, got.indices, got.data),
        (want.indptr, want.indices, want.data),
    )


def _rows(layer):
    """Each stored arc's row index, in stored order."""
    return np.repeat(np.arange(layer.shape[0]), np.diff(layer.indptr))


def _assert_same_block(got, want):
    assert got.matrix.shape == want.matrix.shape
    _assert_same_arrays(
        (got.src_ids, got.dst_ids, got.matrix.indptr, got.matrix.indices,
         got.matrix.data),
        (want.src_ids, want.dst_ids, want.matrix.indptr, want.matrix.indices,
         want.matrix.data),
    )


def _layer(n_rows, rows, cols, vals=None):
    """A CSR row block over 1000 global ids; ``rows`` non-decreasing."""
    vals = np.ones(len(rows)) if vals is None else vals
    return reference._layer(rows, cols, vals, (n_rows, 1000))


class TestCompactLayerOracle:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_layers_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n_ids, n_dst, nnz = 200, int(rng.integers(1, 40)), int(rng.integers(0, 300))
        dst = rng.permutation(n_ids)[:n_dst]
        layer = _layer(
            n_dst,
            np.sort(rng.integers(0, n_dst, nnz)),
            rng.integers(0, n_ids, nnz),  # repeats, some inside dst
            rng.random(nnz),
        )
        _assert_same_block(
            compact_layer(dst, layer), reference.compact_layer(dst, layer)
        )

    @pytest.mark.parametrize(
        "dst, rows, cols",
        [
            ([5, 2, 9], [0, 0, 1, 2, 2], [7, 7, 7, 7, 7]),  # all-duplicate columns
            ([5, 2, 9], [0, 1, 1, 2], [9, 5, 2, 5]),  # columns inside dst
            ([5, 2, 9], [], []),  # empty layer
            ([], [], []),  # nothing at all: a 0x0 block
            ([4, 8], [0, 1], [4, 8]),  # isolated-only: each row its own id
            ([3, 6, 3], [0, 1, 2], [3, 1, 6]),  # repeated dst: the dict kept the last
        ],
    )
    def test_edge_cases_bitwise(self, dst, rows, cols):
        dst, layer = np.asarray(dst, dtype=np.int64), _layer(len(dst), rows, cols)
        got = compact_layer(dst, layer)
        _assert_same_block(got, reference.compact_layer(dst, layer))
        assert got.matrix.shape == (len(dst), len(got.src_ids))

    @pytest.mark.parametrize("which", ["neighbor", "labor", "layer"])
    def test_pipeline_layers_bitwise(self, ba_graph, which):
        graph = _with_isolated(ba_graph, 6)
        if which == "layer":
            sampler = LayerSampler(graph, n_layers=2, n_per_layer=30, seed=3)
        else:
            cls = NeighborSampler if which == "neighbor" else LaborSampler
            sampler = cls(graph, [3, 3], seed=3)
        dst = np.random.default_rng(3).permutation(graph.n_nodes)[:30]
        for layer in range(2):
            raw = sampler.sample_layer(dst, layer)
            block = compact_layer(dst, raw)
            _assert_same_block(block, reference.compact_layer(dst, raw))
            dst = block.src_ids

    def test_negative_ids_rejected(self):
        with pytest.raises(GraphError):
            compact_layer(np.array([0, 1]), _layer(2, [0], [-1]))


class TestLaborOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_bitwise_and_same_generator_state(self, ba_graph, seed):
        graph = _with_isolated(ba_graph, 8)
        # Fan-out 2 on a power-law graph starves rows often enough to
        # exercise the smallest-variate fallback on most seeds.
        fanout = 2 + seed % 3
        dst = np.random.default_rng(seed).permutation(graph.n_nodes)[:48]
        sampler = LaborSampler(graph, [fanout], seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(2):  # the second call continues both streams
            _assert_same_layer(
                sampler.sample_layer(dst, 0),
                reference.labor_sample_layer(graph, dst, fanout, rng),
            )
            assert sampler._rng.bit_generator.state == rng.bit_generator.state

    def test_fallback_row_is_exercised(self, ba_graph):
        # Fan-out 1 on the hub: inclusion 1/deg each, so often nothing.
        hub = int(np.argmax(ba_graph.degrees()))
        neigh = ba_graph.neighbors(hub)
        starved = 0
        for seed in range(20):
            got = LaborSampler(ba_graph, [1], seed=seed).sample_layer(
                np.array([hub]), 0
            )
            _assert_same_layer(got, reference.labor_sample_layer(
                ba_graph, np.array([hub]), 1, np.random.default_rng(seed)
            ))
            r = np.random.default_rng(seed).random(len(neigh))
            if (r > 1 / len(neigh)).all():
                starved += 1
                assert got.indices.tolist() == [neigh[np.argmin(r)]]
        assert starved >= 3

    def test_isolated_only_draws_nothing(self):
        graph = Graph.from_edges([(0, 1)], 5)
        sampler = LaborSampler(graph, [2], seed=0)
        before = sampler._rng.bit_generator.state
        raw = sampler.sample_layer(np.array([3, 4, 2]), 0)
        want = reference._layer([0, 1, 2], [3, 4, 2], np.ones(3), (3, 5))
        _assert_same_layer(raw, want)
        assert sampler._rng.bit_generator.state == before


class TestNeighborSamplerStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_against_reference(self, ba_graph, seed):
        graph, fanout = _with_isolated(ba_graph, 5), 4
        dst = np.random.default_rng(seed).permutation(graph.n_nodes)[:60]
        raw = NeighborSampler(graph, [fanout], seed=seed).sample_layer(dst, 0)
        want = reference.neighbor_sample_layer(
            graph, dst, fanout, np.random.default_rng(seed)
        )
        deg = graph.degrees().astype(np.int64)[dst]
        rows, want_rows = _rows(raw), _rows(want)
        count = np.bincount(rows, minlength=len(dst))
        assert np.array_equal(count, np.maximum(np.minimum(deg, fanout), 1))
        assert raw.shape == (len(dst), graph.n_nodes)
        pairs = np.stack([rows, raw.indices], axis=1)
        assert len(np.unique(pairs, axis=0)) == len(pairs)
        assert np.array_equal(raw.data, 1.0 / count[rows])
        for i, u in enumerate(dst):
            cols = raw.indices[rows == i]
            if deg[i] == 0:
                assert cols.tolist() == [u]
            elif deg[i] <= fanout:  # nothing to draw: the loop's exact output
                assert np.array_equal(cols, want.indices[want_rows == i])
            else:
                assert np.isin(cols, graph.neighbors(int(u))).all()

    def test_inclusion_frequency_is_fanout_over_degree(self, ba_graph):
        fanout, n_draws = 3, 3000
        deg = ba_graph.degrees().astype(np.int64)
        nodes = np.flatnonzero(deg > fanout)[:12]
        raw = NeighborSampler(ba_graph, [fanout], seed=0).sample_layer(
            np.repeat(nodes, n_draws), 0
        )
        n = ba_graph.n_nodes
        hits = np.bincount(
            nodes[_rows(raw) // n_draws] * n + raw.indices, minlength=n * n
        ).reshape(n, n)
        for u in nodes:
            p = fanout / deg[u]
            sigma = np.sqrt(p * (1 - p) / n_draws)
            freq = hits[u, ba_graph.neighbors(int(u))] / n_draws
            assert np.abs(freq - p).max() < 4 * sigma
            assert hits[u].sum() == fanout * n_draws  # and nothing else

    @pytest.mark.parametrize("which", ["neighbor", "labor"])
    def test_block_estimate_of_neighbour_mean_is_unbiased(self, ba_graph, rng, which):
        fanout, n_draws = 4, 1500
        feats = rng.normal(size=(ba_graph.n_nodes, 3))
        seeds = np.argsort(ba_graph.degrees())[-6:]  # all deg > fanout
        exact = np.stack([feats[ba_graph.neighbors(int(u))].mean(0) for u in seeds])
        if which == "neighbor":
            # Rows draw independently, so one call holds every repetition.
            block = NeighborSampler(ba_graph, [fanout], seed=1).sample(
                np.tile(seeds, n_draws)
            )[0]
            est = (block.matrix @ feats[block.src_ids]).reshape(n_draws, 6, 3)
        else:
            # LABOR couples rows of one call through the shared variates.
            sampler = LaborSampler(ba_graph, [fanout], seed=1)
            est = np.stack([
                b.matrix @ feats[b.src_ids]
                for b in (sampler.sample(seeds)[0] for _ in range(n_draws))
            ])
        # Unit-variance features: one estimate has variance <= 1/fanout
        # (uniform) or <= 1/fanout per coordinate (Poisson), so the mean of
        # n_draws sits within 5 sigma = 5 / sqrt(fanout * n_draws) = 0.065.
        assert np.abs(est.mean(axis=0) - exact).max() < 5 / np.sqrt(fanout * n_draws)


class TestSamplerInputHardening:
    SAMPLERS = {
        "neighbor": lambda g: NeighborSampler(g, [3, 3], seed=0),
        "labor": lambda g: LaborSampler(g, [3, 3], seed=0),
        "layer": lambda g: LayerSampler(g, n_layers=2, n_per_layer=10, seed=0),
    }

    @pytest.mark.parametrize("which", SAMPLERS)
    @pytest.mark.parametrize(
        "bad", [[-1, 2], [0, 120], [0.0, 1.0], [True, False], [[0, 1]]]
    )
    def test_bad_seed_ids_rejected(self, ba_graph, which, bad):
        sampler = self.SAMPLERS[which](ba_graph)
        with pytest.raises(GraphError):
            sampler.sample(np.asarray(bad))
        with pytest.raises(GraphError):
            sampler.sample_layer(np.asarray(bad), 0)

    @pytest.mark.parametrize("which", SAMPLERS)
    def test_empty_seeds_give_empty_blocks(self, ba_graph, which):
        sampler = self.SAMPLERS[which](ba_graph)
        assert sampler.sample_layer(np.array([], dtype=np.int64), 0).nnz == 0
        blocks = sampler.sample([])
        assert len(blocks) == 2
        for b in blocks:
            assert b.matrix.shape == (0, 0)
            assert b.n_src == b.n_dst == 0

    def test_small_integer_dtypes_accepted(self, ba_graph):
        a = NeighborSampler(ba_graph, [3], seed=0).sample(np.arange(5, dtype=np.int32))
        b = NeighborSampler(ba_graph, [3], seed=0).sample(list(range(5)))
        _assert_same_block(a[0], b[0])
        assert a[0].dst_ids.dtype == np.int64


class TestRandomWalkSample:
    def test_visited_nodes_reachable_within_walk_length(self, ba_graph):
        graph = _with_isolated(ba_graph, 4)
        for seed in range(5):
            roots = np.random.default_rng(seed).integers(0, graph.n_nodes, size=6)
            nodes, sub = random_walk_subgraph_sample(graph, 6, 3, seed=seed)
            assert np.isin(roots, nodes).all()
            assert np.isin(nodes, reference.nodes_within_hops(graph, roots, 3)).all()
            assert len(nodes) <= 6 * (3 + 1)
            assert np.array_equal(nodes, np.unique(nodes))
            assert sub.n_nodes == len(nodes)

    def test_walker_on_isolated_node_stays_put(self):
        graph = Graph.from_edges([(0, 1)], 3)
        for seed in range(8):
            nodes, _ = random_walk_subgraph_sample(graph, 1, 4, seed=seed)
            assert nodes.tolist() in ([0, 1], [2])

    def test_fixed_seed_reproduces(self, ba_graph):
        a, _ = random_walk_subgraph_sample(ba_graph, 5, 6, seed=9)
        b, _ = random_walk_subgraph_sample(ba_graph, 5, 6, seed=9)
        assert np.array_equal(a, b)
