"""Tests for the perf layer's supporting pieces: the buffer arena,
dtype-variant operators, and the float32 propagation mode end to end.

The hop oracles themselves (every hop == ``operator @ previous hop``,
bitwise, per kind and dtype) live in ``tests/test_perf.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigError
from repro.models import SGC
from repro.perf import BufferArena, OperatorCache, PropagationEngine
from repro.perf.propagation import get_default_engine
from repro.serving import ModelRegistry, ServingEngine


# --------------------------------------------------------------------- #
# BufferArena
# --------------------------------------------------------------------- #


class TestBufferArena:
    def test_rent_release_reuses_buffer(self):
        arena = BufferArena()
        a = arena.rent((8, 4))
        arena.release(a)
        b = arena.rent((8, 4))
        assert b is a
        assert arena.stats.hits == 1
        assert arena.stats.misses == 1

    def test_shape_and_dtype_keyed(self):
        arena = BufferArena()
        a = arena.rent((8, 4))
        arena.release(a)
        assert arena.rent((4, 8)) is not a
        assert arena.rent((8, 4), dtype=np.float32) is not a

    def test_zero_fill_on_request(self):
        arena = BufferArena()
        a = arena.rent((4,))
        a.fill(7.0)
        arena.release(a)
        assert not arena.rent((4,), zero=True).any()

    def test_per_key_bound_discards(self):
        arena = BufferArena(per_key=2)
        bufs = [np.empty((3, 3)) for _ in range(4)]
        arena.release(*bufs)
        assert len(arena) == 2
        assert arena.stats.evictions == 2  # discards surface as evictions

    def test_max_bytes_bound(self):
        arena = BufferArena(max_bytes=1024)
        arena.release(np.empty(64))   # 512 B pooled
        arena.release(np.empty(64))   # 1024 B pooled
        arena.release(np.empty(64))   # would exceed -> discarded
        assert arena.nbytes == 1024
        assert arena.stats.evictions == 1

    def test_views_and_readonly_buffers_discarded(self):
        arena = BufferArena()
        base = np.empty((10, 10))
        arena.release(base[:5])          # view
        frozen = np.empty(4)
        frozen.setflags(write=False)
        arena.release(frozen)            # read-only
        arena.release(np.empty((4, 4)).T[:, :])  # non-C-contiguous view
        assert len(arena) == 0
        assert arena.stats.evictions == 3

    def test_borrow_releases_even_on_error(self):
        arena = BufferArena()
        with pytest.raises(RuntimeError):
            with arena.borrow((5,)):
                raise RuntimeError("boom")
        assert len(arena) == 1

    def test_snapshot_and_reset_and_clear(self):
        arena = BufferArena()
        arena.release(arena.rent((6,)))
        snap = arena.snapshot()
        assert snap["rents"] == 1 and snap["allocations"] == 1
        assert snap["pooled_buffers"] == 1 and snap["pooled_bytes"] == 48
        arena.reset()
        assert arena.snapshot()["rents"] == 0
        assert len(arena) == 1  # reset keeps buffers
        arena.clear()
        assert len(arena) == 0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            BufferArena(max_bytes=-1)
        with pytest.raises(ConfigError):
            BufferArena(per_key=0)

    def test_default_arena_registered_with_obs(self):
        snap = obs.get_registry().snapshot()
        assert any(key.startswith("perf.arena.") for key in snap)


# --------------------------------------------------------------------- #
# Operator cache dtype variants + frozen structure
# --------------------------------------------------------------------- #


class TestOperatorCacheDtypes:
    def test_float32_variant_shares_frozen_structure(self, ba_graph):
        cache = OperatorCache()
        base = cache.adjacency(ba_graph, self_loops=True)
        f32 = cache.adjacency(ba_graph, self_loops=True, dtype=np.float32)
        assert f32.data.dtype == np.float32
        assert f32.indices is base.indices  # structure shared, not copied
        assert f32.indptr is base.indptr
        assert f32.has_sorted_indices
        # Both the base and the variant are frozen end to end.
        for mat in (base, f32):
            assert not mat.data.flags.writeable
            assert not mat.indices.flags.writeable
            assert not mat.indptr.flags.writeable

    def test_default_dtype_returns_base_without_extra_entry(self, ba_graph):
        cache = OperatorCache()
        base = cache.adjacency(ba_graph, self_loops=False)
        assert cache.adjacency(ba_graph, self_loops=False, dtype=np.float64) is base
        assert len(cache) == 1  # no variant entry for the native dtype
        assert cache.stats.misses == 1

    def test_variant_cached_once(self, ba_graph):
        cache = OperatorCache()
        a = cache.normalized_adjacency(ba_graph, dtype=np.float32)
        b = cache.normalized_adjacency(ba_graph, dtype=np.float32)
        assert a is b

    def test_all_accessors_accept_dtype(self, ba_graph):
        cache = OperatorCache()
        for build in (
            lambda: cache.adjacency(ba_graph, dtype=np.float32),
            lambda: cache.normalized_adjacency(ba_graph, dtype=np.float32),
            lambda: cache.laplacian(ba_graph, dtype=np.float32),
            lambda: cache.propagation(ba_graph, dtype=np.float32),
        ):
            mat = build()
            assert mat.data.dtype == np.float32
            assert not mat.data.flags.writeable

    def test_variant_values_match_cast(self, ba_graph):
        cache = OperatorCache()
        base = cache.propagation(ba_graph)
        f32 = cache.propagation(ba_graph, dtype=np.float32)
        assert (f32.data == base.data.astype(np.float32)).all()


# --------------------------------------------------------------------- #
# Engine dtype mode (float32 end to end)
# --------------------------------------------------------------------- #


class TestEngineDtypeMode:
    def test_float32_stack_dtype(self, featured_graph):
        engine = PropagationEngine(dtype=np.float32)
        stack = engine.propagate(featured_graph, featured_graph.x, 2)
        assert all(layer.dtype == np.float32 for layer in stack)

    def test_per_call_override_and_memo_separation(self, featured_graph):
        engine = PropagationEngine()
        f64 = engine.propagate(featured_graph, featured_graph.x, 2)
        f32 = engine.propagate(
            featured_graph, featured_graph.x, 2, dtype=np.float32
        )
        assert f64[1].dtype == np.float64 and f32[1].dtype == np.float32
        assert engine.stats.misses == 2  # distinct memo keys per dtype
        again = engine.propagate(
            featured_graph, featured_graph.x, 2, dtype=np.float32
        )
        assert again[2] is f32[2]
        assert engine.stats.hits == 1

    def test_float32_accuracy_close_to_float64(self, featured_graph):
        engine = PropagationEngine()
        f64 = engine.propagate(featured_graph, featured_graph.x, 3)
        f32 = engine.propagate(
            featured_graph, featured_graph.x, 3, dtype=np.float32
        )
        for a, b in zip(f64, f32):
            assert np.allclose(a, b, atol=1e-3)

    def test_invalid_dtype_rejected(self, featured_graph):
        with pytest.raises(ConfigError):
            PropagationEngine(dtype=np.int32)
        engine = PropagationEngine()
        with pytest.raises(ConfigError):
            engine.propagate(
                featured_graph, featured_graph.x, 1, dtype=np.float16
            )

    def test_traced_propagate_matches_untraced(self, featured_graph):
        traced = PropagationEngine(dtype=np.float32)
        obs.configure(enabled=True)
        try:
            stack = traced.propagate(featured_graph, featured_graph.x, 2)
        finally:
            obs.configure(enabled=False)
        plain = PropagationEngine(dtype=np.float32).propagate(
            featured_graph, featured_graph.x, 2
        )
        assert len(stack) == 3
        for a, b in zip(stack, plain):
            assert np.array_equal(a, b)

    def test_hop_features_dtype_pass_through(self, featured_graph):
        engine = PropagationEngine()
        stack = engine.hop_features(featured_graph, 1, dtype=np.float32)
        assert stack[1].dtype == np.float32


# --------------------------------------------------------------------- #
# Serving in float32
# --------------------------------------------------------------------- #


class TestServingFloat32:
    def test_register_serve_and_patch_in_float32(self, csbm_dataset, rng):
        graph, _ = csbm_dataset
        engine = PropagationEngine(dtype=np.float32)
        registry = ModelRegistry(engine)
        serving = ServingEngine(registry=registry, store=None)
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=0)
        serving.register("sgc32", model, graph)
        record = registry.get("sgc32")
        assert record.dtype == np.float32
        result = serving.predict(3)
        assert 0 <= result.prediction < graph.n_classes
        # Incremental update patches the float32 stack with float32
        # products; the patched stack must equal a fresh recompute bitwise.
        u, v = 0, graph.n_nodes - 1
        if graph.has_edge(u, v):
            u, v = 1, graph.n_nodes - 2
        serving.apply_update(u, v)
        fresh = engine.propagate(
            record.graph, record.graph.x, record.k_hops, memoize=False
        )
        for depth in range(record.k_hops + 1):
            assert record.stack[depth].dtype == np.float32
            assert np.array_equal(record.stack[depth], fresh[depth])

    def test_default_engine_restored(self, featured_graph):
        # Guard: tests above never swap the process default engine, so the
        # shared engine keeps serving float64 by default.
        assert get_default_engine().dtype == np.float64
        stack = get_default_engine().propagate(
            featured_graph, featured_graph.x, 1
        )
        assert stack[1].dtype == np.float64
