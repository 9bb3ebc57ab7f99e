"""Tests for the online serving subsystem (repro.serving) and its substrate:
latency histograms, the fingerprint-keyed FeatureStore, micro-batch
coalescing, dirty-set invalidation, and the ServingEngine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.editing import ldg_partition
from repro.errors import (
    ConfigError,
    GraphError,
    LoadSheddingError,
    ServingError,
    TransientError,
)
from repro.graph import Graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.traversal import k_hop_neighborhood
from repro.models import SGC, NodeAdaptiveInference
from repro.models.sgc import hop_features
from repro.perf import OperatorCache, PropagationEngine
from repro.resilience import FaultPlan, inject
from repro.serving import (
    BatchingQueue,
    CachedPrediction,
    EmbeddingStore,
    ModelRegistry,
    ServingEngine,
    ServingRuntime,
    ShardRouter,
    dirty_frontiers,
    patch_stack,
)
from repro.storage import FeatureStore
from repro.tensor.autograd import Tensor, no_grad
from repro.training.metrics import latency_summary
from repro.utils.timer import LatencyHistogram


class ManualClock:
    """Deterministic injectable clock for TTL / max-wait tests."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def served_setup(csbm_dataset):
    """An untrained SGC over the shared cSBM graph (gating still exercised)."""
    graph, _ = csbm_dataset
    model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=0)
    return graph, model


def fresh_edge(graph: Graph, rng) -> tuple[int, int]:
    """A (u, v) pair not currently an edge of ``graph``."""
    while True:
        u, v = (int(z) for z in rng.integers(0, graph.n_nodes, size=2))
        if u != v and not graph.has_edge(u, v):
            return u, v


# --------------------------------------------------------------------- #
# LatencyHistogram
# --------------------------------------------------------------------- #


class TestLatencyHistogram:
    def test_percentiles_are_ordered_and_bracketing(self):
        hist = LatencyHistogram()
        for value in [0.001] * 90 + [0.5] * 10:
            hist.record(value)
        assert hist.count == 100
        assert hist.p50 <= hist.p95 <= hist.p99
        assert hist.p50 == pytest.approx(0.001, rel=0.2)
        assert hist.p99 == pytest.approx(0.5, rel=0.2)

    def test_empty_histogram_reads_zero(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.p50 == 0.0
        assert hist.mean == 0.0
        assert len(hist) == 0

    def test_merge_equals_combined_stream(self):
        a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for v in (0.001, 0.01, 0.02):
            a.record(v)
            both.record(v)
        for v in (0.1, 0.2):
            b.record(v)
            both.record(v)
        a.merge(b)
        assert a.count == both.count
        assert a.total == pytest.approx(both.total)
        for q in (50, 95, 99):
            assert a.percentile(q) == pytest.approx(both.percentile(q))

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(buckets_per_decade=5))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1e-3)

    def test_exactly_zero_duration_clamps_into_lowest_bucket(self):
        # Regression: a coarse monotonic clock ticking twice inside its
        # resolution yields a 0.0 duration, which used to reach
        # math.log(0) in the bucket computation.
        hist = LatencyHistogram()
        hist.record(0.0)
        assert hist.count == 1
        assert hist.min == 0.0
        assert hist.percentile(50) <= hist.min_latency * hist._growth

    def test_non_finite_latency_rejected_with_clear_message(self):
        # Regression: NaN used to surface as a bare float-conversion
        # error from the bucket math instead of a validation error.
        hist = LatencyHistogram()
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                hist.record(bad)
        assert hist.count == 0

    def test_record_many_matches_individual_records(self):
        one_by_one, batched = LatencyHistogram(), LatencyHistogram()
        samples = [0.0005, 0.002, 0.004, 0.03, 0.3]
        for s in samples:
            one_by_one.record(s)
        batched.record_many(samples)
        assert batched.count == one_by_one.count
        assert batched.total == pytest.approx(one_by_one.total)
        assert batched.summary() == one_by_one.summary()

    def test_out_of_range_values_clamp_into_edge_buckets(self):
        hist = LatencyHistogram(min_latency=1e-3, max_latency=1.0)
        hist.record(1e-9)
        hist.record(100.0)
        assert hist.count == 2
        assert hist.max == 100.0
        assert hist.percentile(100) == 100.0  # clamped by the exact max

    def test_summary_and_metrics_reuse(self):
        hist = LatencyHistogram()
        samples = [0.002, 0.004, 0.008, 0.016]
        for s in samples:
            hist.record(s)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p95", "p99"}
        # training.metrics.latency_summary accepts both forms.
        assert latency_summary(hist) == summary
        from_samples = latency_summary(samples)
        assert from_samples["count"] == summary["count"]
        assert from_samples["p50"] == pytest.approx(summary["p50"])


# --------------------------------------------------------------------- #
# FeatureStore (fingerprint keying satellite)
# --------------------------------------------------------------------- #


class TestFeatureStore:
    def test_rebuilt_identical_graph_shares_entries(self, rng):
        edges = [(0, 1), (1, 2), (2, 3)]
        g1 = Graph.from_edges(edges, 4)
        g2 = Graph.from_edges(edges, 4)  # distinct object, identical content
        assert g1 is not g2
        store = FeatureStore(capacity=8)
        store.put(g1, 2, "row")
        assert store.get(g2, 2) == "row"

    def test_different_topology_never_serves_stale_rows(self):
        g1 = Graph.from_edges([(0, 1), (1, 2)], 4)
        g2 = Graph.from_edges([(0, 1), (1, 3)], 4)
        store = FeatureStore(capacity=8)
        store.put(g1, 1, "old")
        assert store.get(g2, 1) is None

    def test_ttl_expiry(self):
        clock = ManualClock()
        store = FeatureStore(capacity=8, ttl_s=10.0, clock=clock)
        store.put("ns", 0, "v")
        clock.advance(9.0)
        assert store.get("ns", 0) == "v"
        clock.advance(2.0)
        assert store.get("ns", 0) is None
        assert store.expirations == 1

    def test_lru_eviction_at_capacity(self):
        store = FeatureStore(capacity=2)
        store.put("ns", 0, "a")
        store.put("ns", 1, "b")
        assert store.get("ns", 0) == "a"  # refresh 0 → 1 is now LRU
        store.put("ns", 2, "c")
        assert store.get("ns", 1) is None
        assert store.get("ns", 0) == "a"
        assert store.stats.evictions == 1

    def test_invalidate_selected_nodes_only(self):
        store = FeatureStore(capacity=8)
        for node in range(4):
            store.put("ns", node, node)
        dropped = store.invalidate("ns", [1, 3, 99])
        assert dropped == 2
        assert store.get("ns", 0) == 0
        assert store.get("ns", 1) is None
        assert store.invalidations == 2

    def test_invalidate_whole_namespace(self):
        store = FeatureStore(capacity=8)
        store.put("a", 0, 1)
        store.put("a", 1, 2)
        store.put("b", 0, 3)
        assert store.invalidate("a") == 2
        assert store.get("b", 0) == 3
        assert len(store) == 1

    def test_hit_miss_accounting(self):
        store = FeatureStore(capacity=4)
        store.put("ns", 0, "x")
        store.get("ns", 0)
        store.get("ns", 1)
        stats = store.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_expired_rows_swept_before_live_lru_eviction(self):
        # Regression: a full store used to LRU-evict a *live* row while
        # TTL-expired rows sat resident; expired residents must go first
        # and be accounted as expirations, not evictions.
        clock = ManualClock()
        store = FeatureStore(capacity=2, ttl_s=10.0, clock=clock)
        store.put("ns", 0, "a")
        store.put("ns", 1, "b")
        clock.advance(11.0)  # both residents are now TTL-expired
        store.put("ns", 2, "c")
        assert store.expirations == 2
        assert store.stats.evictions == 0
        assert len(store) == 1
        assert store.get("ns", 2) == "c"

    def test_live_row_survives_insert_when_expired_resident_exists(self):
        clock = ManualClock()
        store = FeatureStore(capacity=2, ttl_s=10.0, clock=clock)
        store.put("ns", 0, "stale")
        clock.advance(8.0)
        store.put("ns", 1, "live")
        clock.advance(3.0)  # node 0 expired (11s), node 1 still live (3s)
        store.put("ns", 2, "new")
        assert store.get("ns", 1) == "live"
        assert store.get("ns", 0) is None
        assert store.stats.evictions == 0

    def test_snapshot_size_excludes_expired_residents(self):
        clock = ManualClock()
        store = FeatureStore(capacity=8, ttl_s=10.0, clock=clock)
        store.put("ns", 0, "a")
        clock.advance(11.0)
        store.put("ns", 1, "b")
        snap = store.snapshot()
        assert snap["size"] == 1
        assert snap["expired_resident"] == 1

    def test_put_many_matches_individual_puts(self):
        one, many = FeatureStore(capacity=8), FeatureStore(capacity=8)
        rows = [(0, "a"), (1, "b"), (2, "c")]
        for node, value in rows:
            one.put("ns", node, value)
        many.put_many("ns", rows)
        assert len(many) == len(one) == 3
        for node, value in rows:
            assert many.get("ns", node) == value


# --------------------------------------------------------------------- #
# BatchingQueue
# --------------------------------------------------------------------- #


class TestBatchingQueue:
    def test_batch_emitted_at_max_batch(self):
        clock = ManualClock()
        queue = BatchingQueue(max_batch=4, max_wait_s=10.0, clock=clock)
        for node in range(3):
            queue.submit(node, "m")
        assert not queue.ready()
        queue.submit(3, "m")
        assert queue.ready()
        batch = queue.next_batch()
        assert [r.node_id for r in batch] == [0, 1, 2, 3]
        assert len(queue) == 0

    def test_max_wait_makes_partial_batch_ready(self):
        clock = ManualClock()
        queue = BatchingQueue(max_batch=64, max_wait_s=0.005, clock=clock)
        queue.submit(7, "m")
        assert not queue.ready()
        clock.advance(0.006)
        assert queue.ready()
        batch = queue.next_batch()
        assert [r.node_id for r in batch] == [7]

    def test_not_ready_before_wait_or_fill(self):
        clock = ManualClock()
        queue = BatchingQueue(max_batch=8, max_wait_s=1.0, clock=clock)
        queue.submit(0, "m")
        clock.advance(0.5)
        assert not queue.ready()
        assert queue.next_batch() == []

    def test_fifo_order_within_batches(self):
        clock = ManualClock()
        queue = BatchingQueue(max_batch=3, max_wait_s=0.0, clock=clock)
        for node in range(7):
            queue.submit(node, "m")
        seen = [r.node_id for batch in queue.drain() for r in batch]
        assert seen == list(range(7))

    def test_batches_are_per_model_with_seniority_kept(self):
        clock = ManualClock()
        queue = BatchingQueue(max_batch=8, max_wait_s=0.0, clock=clock)
        queue.submit(0, "a")
        queue.submit(1, "b")
        queue.submit(2, "a")
        first = queue.next_batch(force=True)
        assert [r.model_key for r in first] == ["a", "a"]
        assert [r.node_id for r in first] == [0, 2]
        second = queue.next_batch(force=True)
        assert [(r.model_key, r.node_id) for r in second] == [("b", 1)]

    def test_load_shedding_when_full(self):
        queue = BatchingQueue(max_batch=8, max_queue=2, clock=ManualClock())
        queue.submit(0, "m")
        queue.submit(1, "m")
        with pytest.raises(LoadSheddingError):
            queue.submit(2, "m")
        assert queue.shed == 1
        assert queue.submitted == 2

    def test_drain_flushes_everything(self):
        queue = BatchingQueue(max_batch=4, max_wait_s=99.0, clock=ManualClock())
        for node in range(6):
            queue.submit(node, "m")
        batches = list(queue.drain())
        assert [len(b) for b in batches] == [4, 2]
        assert len(queue) == 0
        assert queue.mean_batch_size == pytest.approx(3.0)

    def test_skipped_requests_keep_seniority_across_repeated_batches(self):
        # Mixed-model traffic: requests skipped while another model's
        # batch forms must stay in FIFO order across *multiple*
        # next_batch() calls, not just one.
        clock = ManualClock()
        queue = BatchingQueue(max_batch=2, max_wait_s=0.0, clock=clock)
        arrivals = [
            (0, "a"), (1, "b"), (2, "c"), (3, "a"),
            (4, "b"), (5, "c"), (6, "a"), (7, "b"),
        ]
        for node, key in arrivals:
            queue.submit(node, key)
        emitted = []
        while len(queue):
            emitted.append(
                [(r.node_id, r.model_key) for r in queue.next_batch(force=True)]
            )
        # Batch order follows head-of-queue seniority: a, b, c, then the
        # overflow "a" request (max_batch=2 capped the first a-batch).
        assert emitted == [
            [(0, "a"), (3, "a")],
            [(1, "b"), (4, "b")],
            [(2, "c"), (5, "c")],
            [(6, "a")],
            [(7, "b")],
        ]

    def test_drain_terminates_with_heterogeneous_model_keys(self):
        queue = BatchingQueue(max_batch=4, max_wait_s=99.0, clock=ManualClock())
        for node in range(12):
            queue.submit(node, f"model-{node % 5}")
        batches = list(queue.drain())
        assert len(queue) == 0
        served = [r.node_id for batch in batches for r in batch]
        assert sorted(served) == list(range(12))
        for batch in batches:
            assert len({r.model_key for r in batch}) == 1

    def test_oldest_age_tracks_head_request(self):
        clock = ManualClock()
        queue = BatchingQueue(max_batch=8, max_wait_s=1.0, clock=clock)
        assert queue.oldest_age() is None
        queue.submit(0, "m")
        clock.advance(0.25)
        queue.submit(1, "m")
        assert queue.oldest_age() == pytest.approx(0.25)
        queue.next_batch(force=True)
        assert queue.oldest_age() is None


# --------------------------------------------------------------------- #
# Dynamic snapshot regression (satellite) — see also tests/test_dynamic.py
# --------------------------------------------------------------------- #


class TestDynamicSnapshotData:
    def test_snapshot_carries_features_and_labels(self, featured_graph):
        dyn = DynamicGraph.from_graph(featured_graph)
        snap = dyn.snapshot()
        assert snap.x is not None and snap.y is not None
        assert np.array_equal(snap.x, featured_graph.x)
        assert np.array_equal(snap.y, featured_graph.y)

    def test_snapshot_keeps_data_across_insertions(self, featured_graph):
        dyn = DynamicGraph.from_graph(featured_graph)
        rng = np.random.default_rng(3)
        u, v = fresh_edge(featured_graph, rng)
        dyn.insert_edge(u, v)
        snap = dyn.snapshot()
        assert snap.has_edge(u, v)
        assert np.array_equal(snap.x, featured_graph.x)

    def test_mismatched_feature_shape_rejected(self):
        with pytest.raises(ConfigError):
            DynamicGraph(4, x=np.zeros((3, 2)))
        with pytest.raises(ConfigError):
            DynamicGraph(4, y=np.zeros(5, dtype=np.int64))


# --------------------------------------------------------------------- #
# Dirty sets + incremental stack patching
# --------------------------------------------------------------------- #


class TestIncrementalInvalidation:
    def test_dirty_frontiers_match_k_hop_neighborhoods(self, ba_graph):
        dyn = DynamicGraph.from_graph(ba_graph)
        rng = np.random.default_rng(0)
        u, v = fresh_edge(ba_graph, rng)
        dyn.insert_edge(u, v)
        frontiers = dirty_frontiers(dyn, [u, v], 3)
        snap = dyn.snapshot()
        for depth, dirty in enumerate(frontiers, start=1):
            expected = k_hop_neighborhood(snap, [u, v], depth)
            assert np.array_equal(dirty, expected)

    def test_patch_stack_is_exact_vs_full_recompute(self, served_setup):
        graph, _ = served_setup
        k = 3
        engine = PropagationEngine()
        stack = [a.copy() for a in engine.propagate(graph, graph.x, k)]
        dyn = DynamicGraph.from_graph(graph)
        rng = np.random.default_rng(1)
        u, v = fresh_edge(graph, rng)
        dyn.insert_edge(u, v)
        new_graph = dyn.snapshot()
        dirty = dirty_frontiers(dyn, [u, v], k)
        operator = engine.operator(new_graph, "gcn")
        rows = patch_stack(stack, operator, dirty)
        assert rows == sum(len(d) for d in dirty)
        fresh = PropagationEngine().propagate(new_graph, new_graph.x, k)
        for depth in range(k + 1):
            assert np.array_equal(stack[depth], fresh[depth])

    def test_patch_touches_strictly_fewer_rows_than_full(self, served_setup):
        graph, _ = served_setup
        dyn = DynamicGraph.from_graph(graph)
        rng = np.random.default_rng(2)
        u, v = fresh_edge(graph, rng)
        dyn.insert_edge(u, v)
        dirty = dirty_frontiers(dyn, [u, v], 2)
        assert sum(len(d) for d in dirty) < 2 * graph.n_nodes

    def test_patch_stack_validates_depths(self, served_setup):
        graph, _ = served_setup
        engine = PropagationEngine()
        stack = [a.copy() for a in engine.propagate(graph, graph.x, 2)]
        with pytest.raises(ConfigError):
            patch_stack(stack, engine.operator(graph), [np.array([0])])


# --------------------------------------------------------------------- #
# EmbeddingStore
# --------------------------------------------------------------------- #


class TestEmbeddingStore:
    def test_roundtrip(self):
        store = EmbeddingStore(capacity=8)
        store.put("ns", 3, prediction=2, hops_used=1)
        entry = store.get("ns", 3)
        assert (entry.prediction, entry.hops_used) == (2, 1)

    def test_ttl_bounds_staleness(self):
        clock = ManualClock()
        store = EmbeddingStore(capacity=8, ttl_s=5.0, clock=clock)
        store.put("ns", 0, 1, 0)
        clock.advance(6.0)
        assert store.get("ns", 0) is None
        assert store.expirations == 1

    def test_dirty_invalidation(self):
        store = EmbeddingStore(capacity=16)
        for node in range(6):
            store.put("ns", node, 0, 0)
        assert store.invalidate("ns", [0, 2, 4]) == 3
        assert store.get("ns", 1) is not None
        assert store.get("ns", 2) is None

    def test_is_a_feature_store_that_only_shapes_writes(self):
        assert issubclass(EmbeddingStore, FeatureStore)
        own = {k for k in vars(EmbeddingStore) if not k.startswith("__")}
        assert own == {"put", "put_many"}
        assert "__init__" in vars(EmbeddingStore)

    def test_snapshot_keys(self):
        assert set(EmbeddingStore(capacity=4).snapshot()) == {
            "hits", "misses", "evictions", "accesses", "hit_rate",
            "expirations", "invalidations", "stale_hits", "size",
            "expired_resident", "capacity",
        }

    def test_put_returns_the_cached_prediction(self):
        store = EmbeddingStore(capacity=4)
        entry = store.put("ns", 1, np.int64(2), np.int64(1))
        assert entry == CachedPrediction(2, 1)
        assert type(entry.prediction) is int
        assert store.get("ns", 1) is entry

    def test_put_many_takes_triples(self):
        store = EmbeddingStore(capacity=8)
        store.put_many("ns", [(0, 2, 1), (3, 1, 2)])
        assert store.get("ns", 0) == CachedPrediction(2, 1)
        assert store.get("ns", 3) == CachedPrediction(1, 2)
        assert len(store) == 2

    def test_get_stale_serves_expired_rows_and_counts_apart(self):
        clock = ManualClock()
        store = EmbeddingStore(capacity=8, ttl_s=5.0, clock=clock)
        store.put("ns", 0, 1, 2)
        clock.advance(6.0)
        assert store.get_stale("ns", 0) == CachedPrediction(1, 2)
        assert store.get_stale("ns", 1) is None
        assert store.stale_hits == 1
        assert (store.stats.hits, store.stats.misses) == (0, 0)
        assert store.get("ns", 0) is None  # the regular read expires it
        assert store.get_stale("ns", 0) is None

    def test_stats_accounting(self):
        store = EmbeddingStore(capacity=2)
        store.put("ns", 0, 0, 0)
        store.put("ns", 1, 0, 0)
        store.get("ns", 0)
        store.get("ns", 9)
        store.put("ns", 2, 0, 0)  # evicts node 1, the LRU row
        s = store.stats
        assert (s.hits, s.misses, s.evictions) == (1, 1, 1)
        assert store.invalidate("ns") == 2 and store.invalidations == 2

    @pytest.mark.parametrize("threadsafe", [False, True])
    def test_probe_pattern_in_both_modes(self, threadsafe):
        # The macro benchmark's store probe: put(ns, node, 1, 1), then get.
        store = EmbeddingStore(capacity=4096, threadsafe=threadsafe)
        for node in range(16):
            store.put("probe", node, 1, 1)
        get = store.get
        assert all(get("probe", node).prediction == 1 for node in range(16))
        assert store.stats.hits == 16


# --------------------------------------------------------------------- #
# ModelRegistry
# --------------------------------------------------------------------- #


class TestModelRegistry:
    def test_register_versions_and_latest(self, served_setup):
        graph, model = served_setup
        registry = ModelRegistry(engine=PropagationEngine())
        first = registry.register("sgc", model, graph)
        second = registry.register("sgc", model, graph)
        assert (first.version, second.version) == (1, 2)
        assert registry.get("sgc").version == 2
        assert registry.get("sgc", version=1) is first
        assert registry.get("sgc@v1") is first
        assert registry.versions("sgc") == [1, 2]
        assert len(registry) == 2

    def test_unknown_model_and_version_raise(self, served_setup):
        graph, model = served_setup
        registry = ModelRegistry(engine=PropagationEngine())
        with pytest.raises(ServingError):
            registry.get("nope")
        registry.register("sgc", model, graph)
        with pytest.raises(ServingError):
            registry.get("sgc", version=9)

    def test_duplicate_version_rejected(self, served_setup):
        graph, model = served_setup
        registry = ModelRegistry(engine=PropagationEngine())
        registry.register("sgc", model, graph, version=3)
        with pytest.raises(ServingError):
            registry.register("sgc", model, graph, version=3)

    def test_featureless_graph_rejected(self, ba_graph):
        registry = ModelRegistry(engine=PropagationEngine())
        with pytest.raises(ConfigError):
            registry.register("sgc", SGC(4, 2, k_hops=1), ba_graph)

    def test_warm_stack_borrowed_from_propagation_engine(self, served_setup):
        graph, model = served_setup
        engine = PropagationEngine()
        registry = ModelRegistry(engine=engine)
        registry.register("a", model, graph)
        assert engine.stats.misses == 1
        registry.register("b", model, graph)  # same (graph, K, kind) → warm
        assert engine.stats.hits == 1
        # Registered stacks are private copies: patching one must not
        # corrupt the engine's shared cache.
        record = registry.get("b")
        shared = engine.propagate(graph, graph.x, record.k_hops)
        assert record.stack[1] is not shared[1]

    def test_unregister(self, served_setup):
        graph, model = served_setup
        registry = ModelRegistry(engine=PropagationEngine())
        registry.register("sgc", model, graph)
        registry.register("sgc", model, graph)
        registry.unregister("sgc", version=1)
        assert registry.versions("sgc") == [2]
        registry.unregister("sgc")
        assert "sgc" not in registry


# --------------------------------------------------------------------- #
# ServingEngine
# --------------------------------------------------------------------- #


class TestServingEngine:
    def test_full_depth_predictions_match_offline_model(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine(store=None, early_exit=False)
        engine.register("sgc", model, graph)
        results = engine.predict_many(np.arange(graph.n_nodes))
        served = np.array([r.prediction for r in results])
        with no_grad():
            logits = model(Tensor(hop_features(graph, model.k_hops)[-1])).data
        assert np.array_equal(served, logits.argmax(axis=1))
        assert all(r.hops_used == model.k_hops for r in results)

    def test_early_exit_parity_with_node_adaptive_inference(self, served_setup):
        graph, model = served_setup
        threshold = 0.6
        offline = NodeAdaptiveInference(model, threshold=threshold).predict(graph)
        engine = ServingEngine(store=None, threshold=threshold)
        engine.register("sgc", model, graph)
        results = engine.predict_many(np.arange(graph.n_nodes))
        assert np.array_equal(
            np.array([r.prediction for r in results]), offline.predictions
        )
        assert np.array_equal(
            np.array([r.hops_used for r in results]), offline.hops_used
        )

    def test_second_request_is_a_cache_hit(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine()
        engine.register("sgc", model, graph)
        first = engine.predict(5)
        second = engine.predict(5)
        assert not first.cached and second.cached
        assert first.prediction == second.prediction
        assert engine.cache_hits == 1

    def test_load_shedding_response(self, served_setup):
        graph, model = served_setup
        clock = ManualClock()
        queue = BatchingQueue(max_batch=8, max_queue=2, clock=clock)
        engine = ServingEngine(queue=queue, store=None, clock=clock)
        engine.register("sgc", model, graph)
        results = engine.predict_many([0, 1, 2, 3, 4])
        status = [r.status for r in results]
        # Queue holds 2: requests beyond that are shed, the rest drain fine.
        assert status.count("shed") == 3
        assert results[2].status == "shed"
        assert results[2].prediction == -1
        assert engine.shed == 3
        assert engine.served == 2

    def test_shed_requests_do_not_pollute_latency_histogram(self, served_setup):
        graph, model = served_setup
        clock = ManualClock()
        queue = BatchingQueue(max_batch=8, max_queue=1, clock=clock)
        engine = ServingEngine(queue=queue, store=None, clock=clock)
        engine.register("sgc", model, graph)
        results = engine.predict_many([0, 1, 2])
        assert engine.latency.count == sum(r.ok for r in results)

    def test_ttl_and_dirty_invalidation_compose(self, served_setup):
        graph, model = served_setup
        clock = ManualClock()
        store = EmbeddingStore(capacity=1024, ttl_s=100.0, clock=clock)
        engine = ServingEngine(store=store, clock=clock)
        engine.register("sgc", model, graph)
        engine.predict_many(np.arange(graph.n_nodes))
        # Within TTL: everything cached.
        assert engine.predict(0).cached
        # A graph update evicts exactly the dirty K-hop set.
        rng = np.random.default_rng(4)
        u, v = fresh_edge(engine.registry.get("sgc").graph, rng)
        report = engine.apply_update(u, v)
        dirty = set(report.dirty_nodes.tolist())
        assert report.store_invalidated > 0
        clean = next(n for n in range(graph.n_nodes) if n not in dirty)
        assert engine.predict(clean).cached
        assert not engine.predict(u).cached
        # Past the TTL even clean entries expire.
        clock.advance(101.0)
        assert not engine.predict(clean).cached

    def test_apply_update_recomputes_only_dirty_rows(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine()
        engine.register("sgc", model, graph)
        rng = np.random.default_rng(5)
        u, v = fresh_edge(graph, rng)
        report = engine.apply_update(u, v)
        assert report.rows_recomputed == sum(
            len(d) for d in report.dirty_per_depth
        )
        assert report.rows_recomputed < report.rows_full
        assert report.rows_saved_fraction > 0.0
        record = engine.registry.get("sgc")
        assert record.updates_applied == 1
        assert record.rows_recomputed == report.rows_recomputed
        # Patched stack is exact.
        fresh = PropagationEngine().propagate(
            record.graph, record.graph.x, record.k_hops
        )
        for depth in range(record.k_hops + 1):
            assert np.array_equal(record.stack[depth], fresh[depth])

    def test_batched_update_shares_one_patch_pass(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine()
        engine.register("sgc", model, graph)
        rng = np.random.default_rng(6)
        e1 = fresh_edge(graph, rng)
        e2 = fresh_edge(graph, rng)
        if set(e1) == set(e2):  # pragma: no cover - rng collision guard
            e2 = fresh_edge(graph, np.random.default_rng(7))
        report = engine.apply_updates([e1, e2])
        assert report.edges == (e1, e2)
        record = engine.registry.get("sgc")
        assert record.updates_applied == 2
        fresh = PropagationEngine().propagate(
            record.graph, record.graph.x, record.k_hops
        )
        for depth in range(record.k_hops + 1):
            assert np.array_equal(record.stack[depth], fresh[depth])

    def test_updates_leave_the_operator_cache_alone(self, served_setup):
        """A write builds only its dirty operator rows: five updates add no
        entry and no byte to the registry engine's operator cache."""
        graph, model = served_setup
        cache = OperatorCache()
        registry = ModelRegistry(PropagationEngine(cache=cache))
        engine = ServingEngine(registry=registry)
        engine.register("sgc", model, graph)
        entries, nbytes = len(cache), cache.nbytes
        rng = np.random.default_rng(9)
        for _ in range(5):
            engine.apply_update(*fresh_edge(engine.registry.get("sgc").graph, rng))
        assert (len(cache), cache.nbytes) == (entries, nbytes)
        record = engine.registry.get("sgc")
        fresh = PropagationEngine().propagate(
            record.graph, record.graph.x, record.k_hops
        )
        for depth in range(record.k_hops + 1):
            assert np.array_equal(record.stack[depth], fresh[depth])

    @pytest.mark.parametrize(
        "bad", ["present", "reversed", "self_loop", "out_of_range"]
    )
    def test_rejected_batch_is_not_half_applied(self, served_setup, bad):
        """A batch whose later edge is invalid leaves the dynamic graph
        untouched, so the next valid update's patched stack still equals
        a fresh propagate of the resulting graph bitwise."""
        graph, model = served_setup
        engine = ServingEngine(store=None)
        engine.register("sgc", model, graph, kind="sym")
        record = engine.registry.get("sgc")
        rng = np.random.default_rng(8)
        u, v = fresh_edge(graph, rng)
        second = {
            "present": (int(graph.indices[0]), 0),
            "reversed": (v, u),
            "self_loop": (u, u),
            "out_of_range": (u, graph.n_nodes),
        }[bad]
        dynamic = record.ensure_dynamic()
        before = dynamic.snapshot()
        with pytest.raises(GraphError):
            engine.apply_updates([(u, v), second])
        after = dynamic.snapshot()
        assert dynamic.n_edges == graph.n_edges // 2
        assert np.array_equal(after.indptr, before.indptr)
        assert np.array_equal(after.indices, before.indices)
        assert record.updates_applied == 0

        a, b = fresh_edge(graph, rng)
        engine.apply_update(a, b)
        assert record.graph.n_edges == graph.n_edges + 2
        fresh = PropagationEngine().propagate(
            record.graph, record.graph.x, record.k_hops, kind="sym"
        )
        for depth in range(record.k_hops + 1):
            assert np.array_equal(record.stack[depth], fresh[depth])

    def test_failed_update_changes_nothing(self, served_setup):
        """A fault before the commit (a transient error in the dirty-row
        SpMM) leaves the graph, the adjacency, the stack and the store as
        they were, so retrying the same update succeeds exactly."""
        graph, model = served_setup
        engine = ServingEngine()
        engine.register("sgc", model, graph)
        record = engine.registry.get("sgc")
        engine.predict_many(np.arange(graph.n_nodes))  # warm the store
        dynamic, published = record.ensure_dynamic(), record.graph
        stack, stored = record.stacked.copy(), len(engine.store)
        u, v = fresh_edge(graph, np.random.default_rng(12))
        plan = FaultPlan().add("propagation.hop", "transient", max_fires=1)
        with inject(plan):
            with pytest.raises(TransientError):
                engine.apply_update(u, v)
        assert record.graph is published and record.dynamic is dynamic
        assert dynamic.n_edges == graph.n_edges // 2
        assert np.array_equal(record.stacked, stack)
        assert len(engine.store) == stored and engine.predict(u).cached
        assert (record.updates_applied, record.rows_recomputed) == (0, 0)

        engine.apply_update(u, v)
        engine.apply_update(*fresh_edge(record.graph, np.random.default_rng(13)))
        fresh = PropagationEngine().propagate(
            record.graph, record.graph.x, record.k_hops
        )
        assert np.array_equal(record.stacked, np.stack(fresh))

    def test_node_out_of_range_rejected(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine()
        engine.register("sgc", model, graph)
        with pytest.raises(ServingError):
            engine.predict(graph.n_nodes)

    def test_model_name_required_with_multiple_models(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine()
        engine.register("a", model, graph)
        engine.register("b", model, graph)
        with pytest.raises(ServingError):
            engine.predict(0)
        assert engine.predict(0, model="a").ok

    def test_stats_shape(self, served_setup):
        graph, model = served_setup
        engine = ServingEngine()
        key = engine.register("sgc", model, graph)
        engine.predict(0)  # flushes → node 0 now cached
        engine.predict_many([1, 2, 0])
        snap = engine.snapshot()
        assert snap["served"] == 4
        assert snap["cache_hits"] == 1
        assert snap["models"] == 1
        assert engine.latency.summary()["count"] == 4.0
        assert engine.queue.snapshot()["submitted"] == 3
        assert engine.store.snapshot()["hits"] == 1
        assert [r.key for r in engine.registry.records()] == [key]
        assert not hasattr(engine, "stats")

    def test_end_to_end_thousand_requests_with_midstream_updates(
        self, served_setup
    ):
        """Acceptance: 1000 requests through the queue, 10 edge insertions
        mid-stream, only dirty K-hop rows recomputed, final answers exact."""
        graph, model = served_setup
        engine = ServingEngine(
            queue=BatchingQueue(max_batch=64, max_wait_s=10.0),
            store=EmbeddingStore(capacity=4096),
            threshold=0.9,
        )
        engine.register("sgc", model, graph)
        rng = np.random.default_rng(8)
        expected_rows = 0
        n_ok = 0
        for _ in range(10):
            nodes = rng.integers(0, graph.n_nodes, size=100)
            results = engine.predict_many(nodes)
            assert all(r.ok for r in results)
            n_ok += len(results)
            u, v = fresh_edge(engine.registry.get("sgc").graph, rng)
            report = engine.apply_update(u, v)
            assert report.rows_recomputed == sum(
                len(d) for d in report.dirty_per_depth
            )
            assert report.rows_recomputed < report.rows_full
            expected_rows += report.rows_recomputed
        assert n_ok == 1000
        record = engine.registry.get("sgc")
        assert record.updates_applied == 10
        assert record.rows_recomputed == expected_rows
        # Served state (incrementally patched + cache survivors) must agree
        # with a from-scratch engine on the final graph.
        final = ServingEngine(store=None, threshold=0.9)
        final.register("sgc", model, record.graph)
        served = engine.predict_many(np.arange(graph.n_nodes))
        scratch = final.predict_many(np.arange(graph.n_nodes))
        assert np.array_equal(
            np.array([r.prediction for r in served]),
            np.array([r.prediction for r in scratch]),
        )
        latency = engine.latency.summary()
        assert latency["p50"] <= latency["p99"]
        assert engine.queue.snapshot()["mean_batch_size"] > 1.0


# --------------------------------------------------------------------- #
# Node ids at the front doors
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def front_doors(csbm_dataset):
    """An inline engine, a runtime and a two-shard router over one graph."""
    graph, _ = csbm_dataset
    model = SGC(graph.n_features, graph.n_classes, k_hops=1, seed=0)
    engine = ServingEngine()
    engine.register("sgc", model, graph)
    runtime = ServingRuntime(n_workers=1)
    runtime.register("sgc", model, graph)
    router = ShardRouter(
        model, graph, ldg_partition(graph, 2, seed=0).assignment, 2,
        runtime_kwargs=dict(early_exit=False),
    )
    yield {"engine": engine, "runtime": runtime, "router": router}
    runtime.close()
    router.close()


ENTRY_POINTS = {
    "engine.predict": lambda d, bad: d["engine"].predict(bad),
    "engine.predict_many": lambda d, bad: d["engine"].predict_many([bad]),
    "runtime.predict": lambda d, bad: d["runtime"].predict(bad),
    "runtime.predict_many": lambda d, bad: d["runtime"].predict_many([bad]),
    "runtime.predict_async": lambda d, bad: d["runtime"].predict_async(bad),
    "router.predict": lambda d, bad: d["router"].predict(bad),
    "router.predict_many": lambda d, bad: d["router"].predict_many([bad]),
    "engine.apply_update": lambda d, bad: d["engine"].apply_update(0, bad),
    "engine.apply_updates": lambda d, bad: d["engine"].apply_updates([(bad, 5)]),
    "runtime.apply_update": lambda d, bad: d["runtime"].apply_update(bad, 5),
    "runtime.apply_updates": lambda d, bad: d["runtime"].apply_updates(
        [(0, 5, bad)]
    ),
}


class TestNodeIds:
    @pytest.mark.parametrize("bad", [3.7, np.float64(2.0), "a", None])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_integral_node_id_is_a_serving_error(
        self, front_doors, entry, bad
    ):
        """A float, string or None id is rejected, never truncated to a
        node; a three-element edge is rejected, never half-read."""
        with pytest.raises(ServingError):
            ENTRY_POINTS[entry](front_doors, bad)
        record = front_doors["engine"].registry.get("sgc")
        assert record.updates_applied == 0
