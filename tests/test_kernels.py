"""Property tests for the SpMM kernel layer (repro.perf.kernels / arena).

Every kernel is checked against the plain scipy product it replaces:
the row-walk and column-blocked layouts must be *bitwise* identical to
``operator @ dense`` (they accumulate in scipy's own column order), the
fused normalize+propagate kernel agrees with the materialized operator
to rounding error, and the decoded row bands reproduce
``(operator @ dense)[rows]`` exactly. The arena, dtype-variant operator
cache, and float32 end-to-end mode are covered alongside because they
are the kernels' supporting cast.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.errors import ConfigError
from repro.graph import normalized_adjacency
from repro.models import SGC
from repro.perf import (
    DEFAULT_L2_BUDGET,
    HAVE_SPARSETOOLS,
    BufferArena,
    FusedOperator,
    OperatorCache,
    PropagationEngine,
    RowBand,
    SpmmPlan,
    blocked_spmm,
    chunked_spmm,
    fused_spmm,
    get_default_arena,
    kernel_supported,
    rows_spmm,
    rows_spmm_multi,
    set_default_engine,
)
from repro.perf import kernels
from repro.perf.propagation import get_default_engine
from repro.serving import ModelRegistry, ServingEngine

pytestmark = pytest.mark.skipif(
    not HAVE_SPARSETOOLS, reason="scipy sparsetools unavailable"
)


def random_csr(
    n_rows, n_cols, density=0.05, dtype=np.float64, seed=0, empty_rows=()
):
    """A random CSR with sorted indices, optionally with all-zero rows."""
    rng = np.random.default_rng(seed)
    mat = sp.random(
        n_rows, n_cols, density=density, format="csr",
        random_state=np.random.RandomState(seed), dtype=np.float64,
    )
    mat.data[:] = rng.normal(size=mat.nnz)
    if len(empty_rows):
        lil = mat.tolil()
        for r in empty_rows:
            lil.rows[r] = []
            lil.data[r] = []
        mat = lil.tocsr()
    mat = mat.astype(dtype)
    mat.sort_indices()
    return mat


def dense_rhs(n, d, dtype=np.float64, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)).astype(dtype)
    return np.ascontiguousarray(x[:, 0]) if d == 1 else x


# --------------------------------------------------------------------- #
# blocked_spmm: row walk and column plan vs scipy
# --------------------------------------------------------------------- #


class TestBlockedSpmm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 33])
    def test_rowwalk_bitwise_equal_to_scipy(self, dtype, width):
        op = random_csr(300, 300, dtype=dtype, seed=width)
        x = dense_rhs(300, width, dtype=dtype)
        ref = op @ x
        got = blocked_spmm(op, x, chunk_rows=64, plan="never")
        assert got.dtype == ref.dtype
        assert (got == ref).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_explicit_plan_bitwise_equal_to_scipy(self, dtype):
        op = random_csr(400, 400, dtype=dtype, seed=2)
        x = dense_rhs(400, 9, dtype=dtype)
        plan = SpmmPlan(op, col_block=97)
        got = blocked_spmm(op, x, chunk_rows=128, plan=plan)
        assert (got == op @ x).all()

    def test_auto_plan_engages_for_frozen_overflowing_operand(self):
        # col_block floors at 1024, so the plan only engages when the
        # operator is wider than that and the dense operand overflows.
        op = random_csr(2048, 2048, density=0.01, seed=3)
        op.data.setflags(write=False)  # frozen = cache-owned signal
        x = dense_rhs(2048, 16)
        kernels.clear_plans()
        got = blocked_spmm(op, x, chunk_rows=512, l2_budget=65536)
        assert kernels._PLAN_CACHE  # the tiny budget forced a plan build
        assert (got == op @ x).all()
        kernels.clear_plans()

    def test_writable_operator_skips_plan_cache(self):
        op = random_csr(2048, 2048, density=0.01, seed=3)
        x = dense_rhs(2048, 16)
        kernels.clear_plans()
        got = blocked_spmm(op, x, chunk_rows=512, l2_budget=65536)
        assert not kernels._PLAN_CACHE  # not frozen -> row walk
        assert (got == op @ x).all()

    def test_empty_rows_and_isolated_columns(self):
        op = random_csr(120, 120, empty_rows=[0, 7, 119], seed=4)
        x = dense_rhs(120, 5)
        got = blocked_spmm(op, x, chunk_rows=32, plan="never")
        assert (got == op @ x).all()
        assert not got[0].any() and not got[119].any()

    def test_all_empty_matrix(self):
        op = sp.csr_matrix((10, 10), dtype=np.float64)
        x = dense_rhs(10, 3)
        got = blocked_spmm(op, x, chunk_rows=4)
        assert got.shape == (10, 3)
        assert not got.any()

    def test_one_dimensional_rhs(self):
        op = random_csr(200, 200, seed=5)
        v = dense_rhs(200, 1)
        assert v.ndim == 1
        got = blocked_spmm(op, v, chunk_rows=64)
        assert got.shape == (200,)
        assert (got == op @ v).all()

    def test_rectangular_operator(self):
        op = random_csr(150, 80, seed=6)
        x = dense_rhs(80, 4)
        got = blocked_spmm(op, x, chunk_rows=64)
        assert got.shape == (150, 4)
        assert (got == op @ x).all()

    def test_out_buffer_is_used_and_validated(self):
        op = random_csr(100, 100, seed=7)
        x = dense_rhs(100, 4)
        out = np.empty((100, 4))
        got = blocked_spmm(op, x, chunk_rows=32, out=out)
        assert got is out
        with pytest.raises(ConfigError):
            blocked_spmm(op, x, chunk_rows=32, out=np.empty((99, 4)))
        with pytest.raises(ConfigError):
            blocked_spmm(
                op, x, chunk_rows=32, out=np.empty((100, 4), dtype=np.float32)
            )

    def test_unsupported_operands_raise(self):
        op = random_csr(50, 50, seed=8)
        with pytest.raises(ConfigError):
            blocked_spmm(op, dense_rhs(50, 3, dtype=np.float32), chunk_rows=16)
        with pytest.raises(ConfigError):
            blocked_spmm(op.tocoo(), dense_rhs(50, 3), chunk_rows=16)

    def test_kernel_supported_gate(self):
        op = random_csr(40, 40, seed=9)
        x = dense_rhs(40, 3)
        assert kernel_supported(op, x)
        assert not kernel_supported(op, x.astype(np.float32))  # dtype mix
        assert not kernel_supported(op.tocsc(), x)  # not CSR
        assert not kernel_supported(op.astype(np.int64), x)  # int data
        assert not kernel_supported(op, x[:, ::2])  # non-contiguous
        assert not kernel_supported(op, x[None])  # 3-D


class TestSpmmPlan:
    def test_plan_requires_sorted_csr(self):
        op = random_csr(30, 30, seed=10)
        with pytest.raises(ConfigError):
            SpmmPlan(op.tocoo(), 8)
        shuffled = op.copy()
        shuffled.has_sorted_indices = False
        with pytest.raises(ConfigError):
            SpmmPlan(shuffled, 8)

    def test_plan_nbytes_positive_and_cache_lru(self):
        kernels.clear_plans()
        ops = [random_csr(64, 64, seed=s) for s in range(10)]
        plans = [kernels.get_plan(op, 16) for op in ops]
        assert all(p.nbytes > 0 for p in plans)
        assert len(kernels._PLAN_CACHE) <= kernels._PLAN_CACHE_MAX
        # A repeat lookup of a live entry returns the identical plan.
        assert kernels.get_plan(ops[-1], 16) is plans[-1]
        kernels.clear_plans()
        assert not kernels._PLAN_CACHE


# --------------------------------------------------------------------- #
# chunked_spmm dispatcher
# --------------------------------------------------------------------- #


class TestChunkedSpmmDispatch:
    def test_kernel_paths_match_slice_path(self):
        # The kernel path (row walk) and the slice path (a CSC operand,
        # which the kernels reject) are both bitwise the scipy product.
        op = random_csr(250, 250, seed=11)
        x = dense_rhs(250, 6)
        ref = op @ x
        assert kernel_supported(op, x)
        assert (chunked_spmm(op, x, chunk_rows=64) == ref).all()
        assert not kernel_supported(op.tocsc(), x)
        assert (chunked_spmm(op.tocsc(), x, chunk_rows=64) == ref).all()

    def test_forced_kernel_rejects_unsupported_operand(self):
        op = random_csr(50, 50, seed=12)
        x32 = dense_rhs(50, 3, dtype=np.float32)
        with pytest.raises(ConfigError):
            blocked_spmm(op, x32, chunk_rows=16)
        with pytest.raises(ConfigError):
            blocked_spmm(op, x32, chunk_rows=16, plan="never")
        # The dispatcher falls back to the slice path instead of raising.
        got = chunked_spmm(op, x32, chunk_rows=16)
        assert np.allclose(got, op @ x32)


# --------------------------------------------------------------------- #
# FusedOperator: normalize+propagate without materializing
# --------------------------------------------------------------------- #


class TestFusedOperator:
    def _adjacency(self, graph, self_loops):
        adj = graph.adjacency().astype(np.float64).tocsr()
        if self_loops:
            adj = (adj + sp.eye(graph.n_nodes, format="csr")).tocsr()
        adj.sort_indices()
        return adj

    def test_matches_materialized_gcn_operator(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True)
        fused = FusedOperator(adj)
        x = dense_rhs(ba_graph.n_nodes, 8)
        materialized = normalized_adjacency(ba_graph, kind="sym", self_loops=True)
        got = fused.matmul(x, chunk_rows=32)
        assert np.allclose(got, materialized @ x, atol=1e-12)

    def test_isolated_nodes_produce_zero_rows(self):
        # Node 3 has no edges: d=0 must scale to 0, not inf/nan.
        adj = sp.csr_matrix(
            (np.ones(2), ([0, 1], [1, 0])), shape=(4, 4), dtype=np.float64
        )
        fused = FusedOperator(adj)
        assert fused.scale[3] == 0.0
        out = fused.matmul(dense_rhs(4, 3), chunk_rows=2)
        assert np.isfinite(out).all()
        assert not out[3].any()

    def test_float32_mode(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True).astype(np.float32)
        fused = FusedOperator(adj)
        x = dense_rhs(ba_graph.n_nodes, 4, dtype=np.float32)
        out = fused.matmul(x, chunk_rows=64)
        assert out.dtype == np.float32
        ref = normalized_adjacency(ba_graph, kind="sym", self_loops=True) @ x
        assert np.allclose(out, ref, atol=1e-4)

    def test_scratch_rented_from_arena(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True)
        fused = FusedOperator(adj)
        arena = BufferArena()
        x = dense_rhs(ba_graph.n_nodes, 4)
        fused.matmul(x, chunk_rows=64, arena=arena)
        fused.matmul(x, chunk_rows=64, arena=arena)
        stats = arena.stats
        assert stats.misses == 1  # one allocation, then pooled
        assert stats.hits >= 1

    def test_fused_cache_identity(self, ba_graph):
        cache = OperatorCache()
        fused = cache.fused_adjacency(ba_graph, self_loops=True)
        assert cache.fused_adjacency(ba_graph, self_loops=True) is fused
        assert fused.adjacency is cache.adjacency(ba_graph, self_loops=True)
        # The wrapper rides on the adjacency's entry: no extra miss.
        assert cache.stats.misses == 1 and len(cache) == 1
        f32 = cache.fused_adjacency(ba_graph, self_loops=True, dtype=np.float32)
        assert f32.dtype == np.float32 and f32 is not fused

    def test_rejects_non_csr_and_int_data(self):
        with pytest.raises(ConfigError):
            FusedOperator(sp.eye(4, format="coo"))
        with pytest.raises(ConfigError):
            FusedOperator(sp.eye(4, format="csr", dtype=np.int64))

    def test_fused_spmm_dispatcher(self, ba_graph):
        adj = self._adjacency(ba_graph, self_loops=True)
        fused = FusedOperator(adj)
        x = dense_rhs(ba_graph.n_nodes, 4)
        got = fused_spmm(fused, x, chunk_rows=32)
        assert np.allclose(got, fused.matmul(x, chunk_rows=32))


# --------------------------------------------------------------------- #
# RowBand / rows_spmm / rows_spmm_multi
# --------------------------------------------------------------------- #


class TestRowBand:
    def test_matches_sliced_product(self):
        op = random_csr(200, 200, seed=14)
        rows = np.array([0, 3, 3, 17, 199, 42])
        x = dense_rhs(200, 5)
        band = RowBand(op, rows)
        assert (band.matmul(x) == (op @ x)[rows]).all()

    def test_negative_rows_normalized(self):
        op = random_csr(50, 50, seed=15)
        x = dense_rhs(50, 3)
        band = RowBand(op, np.array([-1, -50, 10]))
        assert (band.matmul(x) == (op @ x)[[49, 0, 10]]).all()
        assert band.matches(np.array([49, 0, 10]))

    def test_out_of_range_rejected(self):
        op = random_csr(20, 20, seed=16)
        with pytest.raises(ConfigError):
            RowBand(op, np.array([20]))
        with pytest.raises(ConfigError):
            RowBand(op, np.array([-21]))

    def test_empty_selection(self):
        op = random_csr(20, 20, seed=17)
        band = RowBand(op, np.array([], dtype=np.int64))
        out = band.matmul(dense_rhs(20, 3))
        assert out.shape == (0, 3)
        assert band.nnz == 0

    def test_rows_with_no_nonzeros(self):
        op = random_csr(60, 60, empty_rows=[5, 6], seed=18)
        band = RowBand(op, np.array([5, 6, 7]))
        out = band.matmul(dense_rhs(60, 4))
        assert not out[:2].any()
        assert (out == (op @ dense_rhs(60, 4))[[5, 6, 7]]).all()

    def test_dtype_mismatch_rejected(self):
        op = random_csr(20, 20, seed=19)
        band = RowBand(op, np.array([1, 2]))
        with pytest.raises(ConfigError):
            band.matmul(dense_rhs(20, 3, dtype=np.float32))

    def test_matches_is_exact(self):
        op = random_csr(20, 20, seed=20)
        band = RowBand(op, np.array([1, 2, 3]))
        assert band.matches(np.array([1, 2, 3]))
        assert not band.matches(np.array([1, 2]))
        assert not band.matches(np.array([1, 2, 4]))


class TestRowsSpmm:
    def test_matches_full_product_rows(self):
        op = random_csr(300, 300, seed=21)
        x = dense_rhs(300, 6)
        rows = np.arange(0, 300, 7)
        assert (rows_spmm(op, rows, x) == (op @ x)[rows]).all()

    def test_chunk_rows_bound_is_honored(self):
        # Regression (satellite): a selection larger than chunk_rows must
        # be processed in windows, yielding identical results.
        op = random_csr(400, 400, seed=22)
        x = dense_rhs(400, 4)
        rows = np.arange(400)
        ref = (op @ x)[rows]
        assert (rows_spmm(op, rows, x, chunk_rows=37) == ref).all()
        # Legacy fallback path (mixed dtype) must chunk too.
        x32 = x.astype(np.float32)
        got = rows_spmm(op, rows, x32, chunk_rows=37)
        assert np.allclose(got, (op @ x32)[rows])

    def test_predecoded_band_reused_when_matching(self):
        op = random_csr(100, 100, seed=23)
        x = dense_rhs(100, 3)
        rows = np.array([4, 8, 15])
        band = RowBand(op, rows)
        assert (rows_spmm(op, rows, x, band=band) == (op @ x)[rows]).all()
        # A stale band (different rows) is ignored, not misused.
        other = np.array([16, 23, 42])
        assert (rows_spmm(op, other, x, band=band) == (op @ x)[other]).all()

    def test_multi_matches_per_rhs_calls(self):
        op = random_csr(150, 150, seed=24)
        rows = np.array([0, 10, 20, 149])
        denses = [dense_rhs(150, d, seed=d) for d in (2, 5, 9)]
        multi = rows_spmm_multi(op, rows, denses, chunk_rows=3)
        for got, x in zip(multi, denses):
            assert (got == rows_spmm(op, rows, x)).all()

    def test_multi_mixed_dtypes_fall_back(self):
        op = random_csr(80, 80, seed=25)
        rows = np.array([1, 2, 3])
        denses = [dense_rhs(80, 3), dense_rhs(80, 3).astype(np.float32)]
        multi = rows_spmm_multi(op, rows, denses)
        for got, x in zip(multi, denses):
            assert np.allclose(got, (op @ x)[rows])

    def test_multi_empty_batch(self):
        op = random_csr(10, 10, seed=26)
        assert rows_spmm_multi(op, np.array([1]), []) == []


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

    def test_fused_matches_materialized_engine(self, featured_graph):
        fused = PropagationEngine(fused=True)
        plain = PropagationEngine(fused=False)
        a = fused.propagate(featured_graph, featured_graph.x, 3, kind="gcn")
        b = plain.propagate(featured_graph, featured_graph.x, 3, kind="gcn")
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)

    def test_fused_spmm_runs_under_observability(self, featured_graph):
        engine = PropagationEngine()
        obs.configure(enabled=True)
        try:
            stack = engine.propagate(featured_graph, featured_graph.x, 1)
        finally:
            obs.configure(enabled=False)
        assert len(stack) == 2

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
        # products; the patched rows must match a fresh recompute.
        u, v = 0, graph.n_nodes - 1
        if graph.has_edge(u, v):
            u, v = 1, graph.n_nodes - 2
        serving.apply_update(u, v)
        fresh = engine.propagate(
            record.graph, record.graph.x, record.k_hops, memoize=False
        )
        for depth in range(record.k_hops + 1):
            assert record.stack[depth].dtype == np.float32
            assert np.allclose(
                record.stack[depth], fresh[depth], atol=1e-4
            )

    def test_default_engine_restored(self, featured_graph):
        # Guard: tests above never swap the process default engine, so the
        # shared engine keeps serving float64 by default.
        assert get_default_engine().dtype == np.float64
        stack = get_default_engine().propagate(
            featured_graph, featured_graph.x, 1
        )
        assert stack[1].dtype == np.float64
