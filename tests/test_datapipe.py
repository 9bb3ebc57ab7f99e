"""Tests for the streaming minibatch datapipe and the prefetch iterator."""

import inspect
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.editing.sampling import LaborSampler, LayerSampler, NeighborSampler
from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.storage import FeatureStore
from repro.training.datapipe import (
    CompactPerLayer,
    MiniBatch,
    PrefetchIterator,
    SeedBatcher,
    iterate_batches,
)
from repro.training.pipeline import measured_stage_times, pipelined_makespan


@pytest.fixture(autouse=True)
def _isolate_obs():
    """Restore the process-global observability state after each test."""
    previous = (obs.OBS.enabled, obs.OBS.tracer, obs.OBS.registry)
    yield
    obs.configure(
        enabled=previous[0], tracer=previous[1], registry=previous[2]
    )


def _no_prefetch_threads() -> bool:
    return not any(
        t.name == "repro-datapipe-prefetch" and t.is_alive()
        for t in threading.enumerate()
    )


class TestIterateBatches:
    def test_is_lazy_generator(self):
        out = iterate_batches(np.arange(10), 3, np.random.default_rng(0))
        assert inspect.isgenerator(out)

    def test_covers_every_id_once(self):
        ids = np.arange(23)
        batches = list(iterate_batches(ids, 5, np.random.default_rng(1)))
        assert sorted(np.concatenate(batches).tolist()) == ids.tolist()
        assert [len(b) for b in batches] == [5, 5, 5, 5, 3]


class TestSeedBatcher:
    def test_covers_every_seed_once_per_epoch(self):
        sb = SeedBatcher(np.arange(40), 16, seed=0)
        seen = np.concatenate([mb.seeds for mb in sb])
        assert sorted(seen.tolist()) == list(range(40))
        assert sb.n_batches == 3

    def test_reiteration_draws_fresh_permutation(self):
        sb = SeedBatcher(np.arange(64), 32, seed=3)
        first = [mb.seeds for mb in sb]
        second = [mb.seeds for mb in sb]
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))

    def test_shared_rng_matches_bespoke_permutation(self):
        ids = np.arange(30)
        sb = SeedBatcher(ids, 8, seed=np.random.default_rng(7))
        perm = np.random.default_rng(7).permutation(ids)
        for i, mb in enumerate(sb):
            assert np.array_equal(mb.seeds, perm[i * 8 : (i + 1) * 8])
            assert mb.index == i

    def test_no_shuffle_streams_in_order_without_rng(self):
        ids = np.arange(10)
        sb = SeedBatcher(ids, 4, seed=5, shuffle=False)
        seen = np.concatenate([mb.seeds for mb in sb])
        assert np.array_equal(seen, ids)

    def test_drop_last(self):
        sb = SeedBatcher(np.arange(10), 4, seed=0, drop_last=True)
        assert [mb.n_seeds for mb in sb] == [4, 4]
        assert sb.n_batches == 2

    def test_empty_ids_rejected(self):
        with pytest.raises(ConfigError):
            SeedBatcher(np.array([], dtype=np.int64), 4)


class TestSampleCompactParity:
    """The per-layer sample→compact chain must be bit-identical to
    ``sampler.sample(seeds)`` given the same RNG stream."""

    @pytest.mark.parametrize("which", ["neighbor", "labor", "layer"])
    def test_pipe_matches_direct_sample(self, ba_graph, which):
        def make():
            if which == "neighbor":
                return NeighborSampler(ba_graph, [3, 4], seed=11)
            if which == "labor":
                return LaborSampler(ba_graph, [3, 4], seed=11)
            return LayerSampler(ba_graph, n_layers=2, n_per_layer=24, seed=11)

        pipe = SeedBatcher(np.arange(ba_graph.n_nodes), 32, seed=2).sample(make())
        reference = make()
        perm = np.random.default_rng(2).permutation(np.arange(ba_graph.n_nodes))
        for i, mb in enumerate(pipe):
            ref_blocks = reference.sample(perm[i * 32 : (i + 1) * 32])
            assert len(mb.blocks) == len(ref_blocks) == 2
            for got, want in zip(mb.blocks, ref_blocks):
                assert np.array_equal(got.src_ids, want.src_ids)
                assert np.array_equal(got.dst_ids, want.dst_ids)
                assert np.abs(got.matrix - want.matrix).sum() < 1e-12

    def test_compact_without_sample_stage_rejected(self):
        pipe = CompactPerLayer(SeedBatcher(np.arange(8), 4, seed=0))
        with pytest.raises(ConfigError):
            list(pipe)

    def test_input_ids_are_block_sources(self, ba_graph):
        sampler = NeighborSampler(ba_graph, [3], seed=0)
        pipe = SeedBatcher(np.arange(20), 10, seed=0).sample(sampler)
        for mb in pipe:
            assert np.array_equal(mb.input_ids, mb.blocks[0].src_ids)


class TestFeatureFetcher:
    def test_direct_array_path(self, rng):
        x = rng.normal(size=(30, 6))
        y = np.arange(30) % 3
        pipe = SeedBatcher(np.arange(30), 10, seed=1).fetch_features(
            features=x, labels=y
        )
        for mb in pipe:
            assert np.array_equal(mb.x, x[mb.seeds])
            assert np.array_equal(mb.y, y[mb.seeds])

    def test_list_of_arrays_path(self, rng):
        hops = [rng.normal(size=(20, 4)) for _ in range(3)]
        pipe = SeedBatcher(np.arange(20), 8, seed=1).fetch_features(features=hops)
        for mb in pipe:
            assert isinstance(mb.x, list) and len(mb.x) == 3
            for got, full in zip(mb.x, hops):
                assert np.array_equal(got, full[mb.seeds])

    @pytest.mark.parametrize("depth", [0, 2], ids=["sync", "prefetch"])
    @pytest.mark.parametrize("shape", ["array", "list"])
    def test_rows_equal_fancy_index_and_are_never_reused(self, rng, shape, depth):
        # Every batch is collected before any is checked, so a gather into
        # a reused buffer would show as earlier batches overwritten.
        x = rng.normal(size=(50, 6))
        features = x if shape == "array" else [x, 2.0 * x]
        pipe = SeedBatcher(np.arange(50), 8, seed=3).fetch_features(features=features)
        batches = list(pipe.prefetch(depth=depth) if depth else pipe)
        assert len(batches) == 7
        for mb in batches:
            got = mb.x if shape == "list" else [mb.x]
            full = features if shape == "list" else [features]
            for g, f in zip(got, full):
                assert g.tobytes() == f[mb.seeds].tobytes()
                assert not np.shares_memory(g, f)

    def test_store_routing_hits_on_second_epoch(self, rng):
        x = rng.normal(size=(40, 5))
        store = FeatureStore(capacity=100)
        pipe = SeedBatcher(np.arange(40), 16, seed=2).fetch_features(
            features=x, store=store, namespace="g"
        )
        for mb in pipe:  # cold epoch populates the store
            assert np.allclose(mb.x, x[mb.seeds])
        hits_before = store.stats.hits
        for mb in pipe:  # warm epoch must be served from cache
            assert np.allclose(mb.x, x[mb.seeds])
        assert store.stats.hits - hits_before == 40

    def test_store_without_features_rejected(self):
        with pytest.raises(ConfigError):
            SeedBatcher(np.arange(4), 2).fetch_features(store=FeatureStore(8))

    def test_negative_io_delay_rejected(self, rng):
        with pytest.raises(ConfigError):
            SeedBatcher(np.arange(4), 2).fetch_features(
                features=rng.normal(size=(4, 2)), io_delay_per_row_s=-1.0
            )


class TestToDevice:
    def test_casts_and_makes_contiguous(self, rng):
        x = rng.normal(size=(16, 4))
        pipe = (
            SeedBatcher(np.arange(16), 8, seed=0)
            .fetch_features(features=x)
            .to_device(dtype=np.float32)
        )
        for mb in pipe:
            assert mb.x.dtype == np.float32
            assert mb.x.flags["C_CONTIGUOUS"]

    def test_stage_times_recorded(self, rng):
        x = rng.normal(size=(16, 4))
        pipe = (
            SeedBatcher(np.arange(16), 8, seed=0)
            .fetch_features(features=x)
            .to_device()
        )
        mb = next(iter(pipe))
        assert set(mb.stage_s) == {"fetch", "finalize"}
        assert all(v >= 0.0 for v in mb.stage_s.values())


class TestPrefetchIterator:
    def test_parity_with_synchronous_iteration(self, ba_graph):
        sampler = NeighborSampler(ba_graph, [3], seed=4)
        sync = list(SeedBatcher(np.arange(60), 20, seed=9).sample(
            NeighborSampler(ba_graph, [3], seed=4)
        ))
        pre = list(
            SeedBatcher(np.arange(60), 20, seed=9).sample(sampler).prefetch(depth=2)
        )
        assert len(sync) == len(pre)
        for a, b in zip(sync, pre):
            assert np.array_equal(a.seeds, b.seeds)
            assert np.array_equal(a.blocks[0].src_ids, b.blocks[0].src_ids)

    def test_no_live_thread_after_exhaustion(self):
        pipe = SeedBatcher(np.arange(32), 8, seed=0).prefetch(depth=2)
        list(pipe)
        assert pipe.last is not None and not pipe.last.alive
        assert _no_prefetch_threads()

    def test_close_mid_iteration_reaps_thread(self):
        it = PrefetchIterator(SeedBatcher(np.arange(100), 4, seed=0), depth=2)
        next(it)
        it.close()
        assert not it.alive
        with pytest.raises(StopIteration):
            next(it)
        assert _no_prefetch_threads()

    def test_consumer_break_reaps_thread(self):
        pipe = SeedBatcher(np.arange(100), 4, seed=0).prefetch(depth=2)
        for i, _ in enumerate(pipe):
            if i == 1:
                break
        # The generator's finally-close runs when the loop's iterator is
        # finalized; drop the reference and check the thread is gone.
        assert pipe.last is not None
        pipe.last.close()
        assert _no_prefetch_threads()

    def test_upstream_exception_propagates_and_reaps(self):
        def boom():
            yield MiniBatch(seeds=np.arange(4))
            raise RuntimeError("upstream failure")

        it = PrefetchIterator(boom(), depth=2)
        next(it)
        with pytest.raises(RuntimeError, match="upstream failure"):
            next(it)
        assert not it.alive
        assert _no_prefetch_threads()

    def test_queue_depth_is_bounded(self):
        produced = []

        def source():
            for i in range(50):
                produced.append(i)
                yield MiniBatch(seeds=np.asarray([i]))

        it = PrefetchIterator(source(), depth=2)
        next(it)
        time.sleep(0.3)  # let the producer run as far ahead as it can
        # depth in queue + one batch in the producer's hand + one consumed
        assert len(produced) <= 2 + 2
        it.close()

    def test_stats_snapshot(self):
        it = PrefetchIterator(SeedBatcher(np.arange(32), 8, seed=0), depth=2)
        for _ in it:
            pass
        snap = it.snapshot()
        assert snap["batches"] == 4
        assert snap["ready_hits"] + snap["waits"] >= 4
        assert 0.0 <= snap["hit_ratio"] <= 1.0
        assert snap["alive"] == 0.0

    def test_depth_validated(self):
        with pytest.raises(ConfigError):
            PrefetchIterator(SeedBatcher(np.arange(8), 4, seed=0), depth=0)


class TestObservability:
    def test_stage_spans_and_metrics_emitted(self, ba_graph):
        obs.configure(enabled=True, tracer=Tracer(), registry=MetricsRegistry())
        sampler = NeighborSampler(ba_graph, [3], seed=0)
        pipe = (
            SeedBatcher(np.arange(40), 20, seed=0)
            .sample(sampler)
            .fetch_features(features=ba_graph.x
                            if ba_graph.x is not None
                            else np.ones((ba_graph.n_nodes, 2)))
            .prefetch(depth=2)
        )
        list(pipe)
        names = {s.name for s in obs.get_tracer().spans()}
        assert {"datapipe.stage.sample", "datapipe.stage.compact",
                "datapipe.stage.fetch"} <= names
        snap = obs.get_registry().snapshot()
        assert snap["datapipe.batches"] == 2
        assert any(k.startswith("datapipe.stage_s") for k in snap)
        assert "datapipe.prefetch.queue_depth" in snap
        ready = snap.get("datapipe.prefetch.ready", 0.0)
        waits = snap.get("datapipe.prefetch.wait", 0.0)
        assert ready + waits == 2


class TestMeasuredStageTimes:
    def test_matrix_feeds_cost_model(self, rng):
        x = rng.normal(size=(40, 6))
        pipe = SeedBatcher(np.arange(40), 10, seed=0).fetch_features(features=x)
        times = measured_stage_times(pipe, lambda mb: None)
        assert times.shape == (4, 3)
        assert (times >= 0).all()
        assert pipelined_makespan(times, queue_depth=2) > 0.0

    def test_max_batches_truncates_and_closes(self):
        pipe = SeedBatcher(np.arange(100), 10, seed=0).prefetch(depth=2)
        times = measured_stage_times(pipe, lambda mb: None, max_batches=3)
        assert times.shape == (3, 3)
        pipe.last.close()
        assert _no_prefetch_threads()


class TestTrainerPrefetchParity:
    """prefetch_depth must not change fixed-seed results, only overlap."""

    def test_train_sampled_parity(self, csbm_dataset):
        from repro.editing.sampling import NeighborSampler
        from repro.models.sage import GraphSAGE
        from repro.training.trainers import train_sampled

        graph, split = csbm_dataset

        def run(depth):
            model = GraphSAGE(
                graph.x.shape[1], 16, int(graph.y.max()) + 1, n_layers=2, seed=5
            )
            sampler = NeighborSampler(graph, [4, 4], seed=9)
            return train_sampled(
                model, graph, split, sampler, epochs=3, batch_size=48,
                seed=3, prefetch_depth=depth,
            )

        sync, pre = run(0), run(2)
        assert sync.train_losses == pre.train_losses
        assert sync.test_accuracy == pre.test_accuracy
        assert _no_prefetch_threads()

    def test_train_decoupled_parity(self, csbm_dataset):
        from repro.models.sgc import SGC
        from repro.training.trainers import train_decoupled

        graph, split = csbm_dataset

        def run(depth):
            model = SGC(
                graph.x.shape[1], int(graph.y.max()) + 1, k_hops=2, seed=5
            )
            return train_decoupled(
                model, graph, split, epochs=4, batch_size=64, seed=3,
                prefetch_depth=depth,
            )

        sync, pre = run(0), run(2)
        assert sync.train_losses == pre.train_losses
        assert sync.test_accuracy == pre.test_accuracy
        assert _no_prefetch_threads()
