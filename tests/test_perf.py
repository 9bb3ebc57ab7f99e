"""Tests for repro.perf: fingerprints, bounded memo, operator cache,
propagation engine, and the hop oracles every SpMM must meet bitwise."""

import gc
import hashlib
import inspect
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph import Graph, barabasi_albert_graph, normalized_adjacency
from repro.graph.ops import adjacency_matrix, propagation_matrix
from repro.models import GAMLP, SGC
from repro.perf import (
    BoundedCache,
    OperatorCache,
    PropagationEngine,
    array_fingerprint,
    get_default_cache,
    get_default_engine,
    graph_fingerprint,
    rows_spmm,
    set_default_cache,
    set_default_engine,
    spmm,
)
from repro.resilience import FaultSpec, inject
from repro.training import precompute_stage_profile, train_decoupled


@pytest.fixture
def featured_ba(rng):
    g = barabasi_albert_graph(150, 3, seed=3)
    x = rng.normal(size=(150, 12))
    y = rng.integers(0, 3, size=150)
    return g.with_data(x=x, y=y)


class TestFingerprint:
    def test_stable_across_instances(self, triangle):
        rebuilt = Graph.from_edges([(0, 1), (1, 2), (2, 0)], 3)
        assert rebuilt.fingerprint == triangle.fingerprint

    def test_cached_on_instance(self, triangle):
        assert triangle.fingerprint is triangle.fingerprint

    def test_structure_changes_fingerprint(self, triangle, path4):
        assert triangle.fingerprint != path4.fingerprint

    def test_weights_change_fingerprint(self, triangle):
        reweighted = triangle.reweighted(np.full(6, 2.0))
        assert reweighted.fingerprint != triangle.fingerprint

    def test_directedness_changes_fingerprint(self):
        und = Graph.from_edges([(0, 1), (1, 0)], 2)
        dir_ = Graph(und.indptr, und.indices, und.weights, directed=True)
        assert und.fingerprint != dir_.fingerprint

    def test_matches_free_function(self, ba_graph):
        assert ba_graph.fingerprint == graph_fingerprint(ba_graph)

    def test_array_fingerprint_none_distinct_from_empty(self):
        assert array_fingerprint(None) != array_fingerprint(np.empty(0))

    def test_array_fingerprint_dtype_sensitive(self):
        a = np.arange(4, dtype=np.int64)
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float64))

    @pytest.mark.parametrize("arr", [
        np.arange(12.0).reshape(3, 4),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(20, dtype=np.int64)[::3],
        np.zeros((0, 5)),
        np.array(2.5),
        np.ones(7, dtype=bool),
    ], ids=["c", "fortran", "strided", "empty", "scalar", "bool"])
    def test_array_fingerprint_matches_the_tobytes_formula(self, arr):
        # The digest hashed ``tobytes()`` copies before; hashing the
        # contiguous buffer in place must keep every digest byte-identical.
        digest = hashlib.blake2b(digest_size=16)
        contiguous = np.ascontiguousarray(arr)
        digest.update(str(contiguous.dtype).encode())
        digest.update(str(contiguous.shape).encode())
        digest.update(contiguous.tobytes())
        digest.update(b"<none>")
        assert array_fingerprint(arr, None) == digest.hexdigest()

    def test_feature_fingerprint_memoized_on_graph(self, featured_ba):
        assert featured_ba.feature_fingerprint == array_fingerprint(featured_ba.x)
        assert featured_ba.feature_fingerprint is featured_ba.feature_fingerprint
        assert Graph.from_edges([(0, 1)], 2).feature_fingerprint is None

    def test_engine_clear_does_not_rehash_graph_features(self, featured_ba, monkeypatch):
        import repro.perf.propagation as propagation

        engine = PropagationEngine(OperatorCache())
        first = engine.hop_features(featured_ba, 2)
        calls = []
        monkeypatch.setattr(
            propagation, "array_fingerprint",
            lambda *a: calls.append(a) or array_fingerprint(*a),
        )
        engine.clear()
        again = engine.hop_features(featured_ba, 2)
        assert calls == []
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


class TestBoundedCache:
    def test_lru_order_and_evictions_at_bound(self):
        cache = BoundedCache(2)
        assert cache.get_or_build("a", lambda: "A") == "A"
        assert cache.get_or_build("b", lambda: "B") == "B"
        assert cache.get_or_build("a", lambda: "rebuilt") == "A"  # a refreshed
        cache.put("c", "C")  # evicts b, the least recent
        assert cache.values() == ["A", "C"]
        assert cache.get("b") is None
        cache.get("a")  # uncounted, but refreshes a
        cache.put("d", "D")  # evicts c
        assert cache.values() == ["A", "D"]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 2)

    def test_identity_entry_never_served_to_another_object(self):
        class Box:
            pass

        cache = BoundedCache(4)
        a, b = Box(), Box()
        assert cache.get_or_build_for(a, lambda: "a", 7) == "a"
        assert cache.get_or_build_for(a, lambda: "rebuilt", 7) == "a"
        assert cache.get_or_build_for(a, lambda: "a8", 8) == "a8"
        # The entry a recycled id would leave behind: b's id, a's object.
        cache.put((id(b), 7), (a, "a"))
        assert cache.get_or_build_for(b, lambda: "b", 7) == "b"
        assert cache.stats.hits == 1 and cache.stats.misses == 3
        # The entry keeps its object alive, so the id cannot be recycled.
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is not None
        cache.clear()
        gc.collect()
        assert ref() is None

    def test_reset_keeps_entries_clear_drops_them(self):
        cache = BoundedCache(4)
        cache.get_or_build("k", lambda: 1)
        cache.get_or_build("k", lambda: 2)
        assert cache.snapshot() == {
            "hits": 1, "misses": 1, "evictions": 0, "accesses": 2,
            "hit_rate": 0.5, "entries": 1,
        }
        cache.reset()
        assert cache.stats.accesses == 0 and len(cache) == 1
        assert cache.get_or_build("k", lambda: 3) == 1
        cache.clear()
        assert cache.stats.accesses == 0 and len(cache) == 0
        assert cache.get_or_build("k", lambda: 4) == 4

    def test_concurrent_get_or_build_builds_once(self):
        n_threads = 8
        cache = BoundedCache(4)
        barrier = threading.Barrier(n_threads, timeout=10)
        builds, results = [], [None] * n_threads

        def build():
            builds.append(sum(range(20_000)))  # a window for a racing builder
            return object()

        def worker(i):
            barrier.wait()
            results[i] = cache.get_or_build("key", build)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(builds) == 1
        assert all(r is results[0] for r in results)
        stats = cache.stats
        assert (stats.hits, stats.misses) == (n_threads - 1, 1)

    def test_bound_validated(self):
        with pytest.raises(ConfigError):
            BoundedCache(0)


class TestGraphAdjacencyCache:
    def test_adjacency_is_cached(self, ba_graph):
        assert ba_graph.adjacency() is ba_graph.adjacency()

    def test_cached_adjacency_matches_arrays(self, triangle):
        adj = triangle.adjacency()
        assert np.array_equal(adj.indptr, triangle.indptr)
        assert np.array_equal(adj.indices, triangle.indices)
        assert np.array_equal(adj.data, triangle.weights)

    def test_add_self_loops_replaces_and_preserves_original(self, triangle):
        before = triangle.adjacency().toarray().copy()
        looped = triangle.add_self_loops(weight=0.5)
        assert np.allclose(looped.adjacency().diagonal(), 0.5)
        assert np.array_equal(triangle.adjacency().toarray(), before)

    def test_remove_self_loops_preserves_original(self):
        g = Graph.from_edges([(0, 0), (0, 1)], 2)
        before = g.adjacency().toarray().copy()
        stripped = g.remove_self_loops()
        assert not stripped.has_edge(0, 0)
        assert np.array_equal(g.adjacency().toarray(), before)

    def test_adjacency_matrix_self_loops_fast_path(self, triangle):
        a = adjacency_matrix(triangle, self_loops=True)
        assert np.all(a.diagonal() == 1.0)
        assert a.nnz == triangle.n_edges + triangle.n_nodes


class TestOperatorCache:
    def test_hit_on_identical_content(self, ba_graph):
        cache = OperatorCache()
        first = cache.propagation(ba_graph, scheme="gcn")
        rebuilt = Graph(ba_graph.indptr, ba_graph.indices, ba_graph.weights,
                        validate=False)
        second = cache.propagation(rebuilt, scheme="gcn")
        assert first is second
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_kinds_are_distinct_entries(self, ba_graph):
        cache = OperatorCache()
        sym = cache.normalized_adjacency(ba_graph, kind="sym", self_loops=False)
        rw = cache.normalized_adjacency(ba_graph, kind="rw", self_loops=False)
        assert sym is not rw
        assert cache.stats.misses == 2 and len(cache) == 2

    def test_results_match_uncached_ops(self, ba_graph):
        cache = OperatorCache()
        cached = cache.normalized_adjacency(ba_graph, kind="sym", self_loops=True)
        direct = normalized_adjacency(ba_graph, kind="sym", self_loops=True)
        assert np.allclose(cached.toarray(), direct.toarray())

    def test_lru_eviction(self, triangle, path4, ba_graph):
        cache = OperatorCache(max_entries=2)
        cache.propagation(triangle, scheme="gcn")
        cache.propagation(path4, scheme="gcn")
        cache.propagation(ba_graph, scheme="gcn")  # evicts triangle
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        cache.propagation(triangle, scheme="gcn")  # must rebuild
        assert cache.stats.misses == 4

    def test_lru_order_refreshed_on_hit(self, triangle, path4, ba_graph):
        cache = OperatorCache(max_entries=2)
        cache.propagation(triangle, scheme="gcn")
        cache.propagation(path4, scheme="gcn")
        cache.propagation(triangle, scheme="gcn")  # refresh triangle
        cache.propagation(ba_graph, scheme="gcn")  # evicts path4, not triangle
        cache.propagation(triangle, scheme="gcn")
        assert cache.stats.hits == 2

    def test_cached_matrix_is_read_only(self, ba_graph):
        cache = OperatorCache()
        op = cache.propagation(ba_graph, scheme="gcn")
        with pytest.raises(ValueError):
            op.data[0] = 99.0

    def test_clear_resets(self, triangle):
        cache = OperatorCache()
        cache.laplacian(triangle)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 0

    def test_nbytes_positive(self, ba_graph):
        cache = OperatorCache()
        cache.adjacency(ba_graph)
        assert cache.nbytes > 0

    def test_default_cache_swap(self):
        fresh = OperatorCache()
        old = set_default_cache(fresh)
        try:
            assert get_default_cache() is fresh
        finally:
            set_default_cache(old)


class TestSpmm:
    def test_matches_scipy_product(self, ba_graph, rng):
        op = propagation_matrix(ba_graph, scheme="gcn")
        x = rng.normal(size=(ba_graph.n_nodes, 7))
        assert np.array_equal(spmm(op, x), op @ x)

    def test_vector_input(self, ba_graph, rng):
        op = propagation_matrix(ba_graph, scheme="gcn")
        v = rng.normal(size=ba_graph.n_nodes)
        assert np.array_equal(spmm(op, v), op @ v)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 7, 33])
    def test_bitwise_equal_to_scipy(self, dtype, width):
        op = sp.random(300, 300, density=0.03, format="csr", dtype=dtype,
                       random_state=width)
        x = np.random.default_rng(width).normal(size=(300, width)).astype(dtype)
        got = spmm(op, x)
        assert got.dtype == dtype and got.shape == (300, width)
        assert np.array_equal(got, op @ x)


class TestHopOracles:
    """Every hop is exactly scipy's ``operator @ previous hop``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["gcn", "rw", "lazy", "col", "sym", "lap"])
    def test_hop_is_operator_times_previous_hop(self, featured_ba, kind, dtype):
        engine = PropagationEngine(cache=OperatorCache(), dtype=dtype)
        alpha = 0.5 if kind == "lazy" else None
        stack = engine.propagate(featured_ba, featured_ba.x, 3, kind=kind,
                                 alpha=alpha)
        op = engine.operator(featured_ba, kind, alpha, dtype=dtype)
        assert op.dtype == dtype
        for i in range(1, 4):
            assert stack[i].dtype == dtype
            assert np.array_equal(stack[i], op @ stack[i - 1])

    @pytest.mark.parametrize(
        "rows",
        [[0, 3, 3, 17, 149, 42], [], [-1, -150, 10], list(range(0, 150, 7))],
        ids=["repeated", "empty", "negative", "strided"],
    )
    def test_rows_spmm_is_product_rows(self, featured_ba, rows):
        op = propagation_matrix(featured_ba, scheme="gcn")
        rows = np.asarray(rows, dtype=np.int64)
        got = rows_spmm(op, rows, featured_ba.x)
        assert got.shape == (len(rows), featured_ba.x.shape[1])
        assert np.array_equal(got, (op @ featured_ba.x)[rows])

    def test_rows_spmm_vector_input(self, featured_ba):
        op = propagation_matrix(featured_ba, scheme="gcn")
        v = featured_ba.x[:, 0].copy()
        rows = np.array([5, 0, 149, 5])
        got = rows_spmm(op, rows, v)
        assert got.shape == (4,)
        assert np.array_equal(got, (op @ v)[rows])

    @pytest.mark.parametrize("kind", ["corrupt", "drop"])
    def test_both_products_fire_the_hop_fault_site(self, featured_ba, kind):
        op = propagation_matrix(featured_ba, scheme="gcn")
        x, rows = featured_ba.x, np.arange(0, 150, 7)
        with inject([FaultSpec("propagation.hop", kind)]) as injector:
            full, part = spmm(op, x), rows_spmm(op, rows, x)
        assert injector.calls("propagation.hop") == 2
        if kind == "drop":
            assert not full.any() and not part.any()
        else:
            assert not np.array_equal(full, op @ x)
            assert not np.array_equal(part, (op @ x)[rows])


class TestPropagationEngine:
    def test_init_takes_cache_max_stacks_dtype_only(self):
        params = inspect.signature(PropagationEngine.__init__).parameters
        assert list(params) == ["self", "cache", "max_stacks", "dtype"]
        engine = PropagationEngine(OperatorCache(), 2, np.float32)
        assert engine.max_stacks == 2 and engine.dtype == np.float32

    def test_stack_matches_dense_loop(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        stack = engine.propagate(featured_ba, featured_ba.x, 3, kind="gcn")
        prop = propagation_matrix(featured_ba, scheme="gcn").toarray()
        ref = featured_ba.x
        for k in range(1, 4):
            ref = prop @ ref
            assert np.allclose(stack[k], ref)

    def test_stack_memoized_and_prefix_served(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        full = engine.propagate(featured_ba, featured_ba.x, 3, kind="gcn")
        prefix = engine.propagate(featured_ba, featured_ba.x, 2, kind="gcn")
        assert engine.stats.hits == 1
        assert len(prefix) == 3
        assert prefix[2] is full[2]

    def test_stack_extended_not_recomputed(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        short = engine.propagate(featured_ba, featured_ba.x, 2, kind="gcn")
        longer = engine.propagate(featured_ba, featured_ba.x, 4, kind="gcn")
        assert longer[2] is short[2]
        assert len(longer) == 5

    def test_memoize_false_bypasses_store(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        engine.propagate(featured_ba, featured_ba.x, 2, kind="gcn", memoize=False)
        assert len(engine) == 0
        assert engine.stats.misses == 0

    def test_lru_stack_eviction(self, featured_ba, rng):
        engine = PropagationEngine(cache=OperatorCache(), max_stacks=2)
        for _ in range(3):
            engine.propagate(
                featured_ba, rng.normal(size=(featured_ba.n_nodes, 4)), 1
            )
        assert len(engine) == 2
        assert engine.stats.evictions == 1

    def test_different_features_different_entries(self, featured_ba, rng):
        engine = PropagationEngine(cache=OperatorCache())
        engine.propagate(featured_ba, featured_ba.x, 1)
        engine.propagate(featured_ba, rng.normal(size=featured_ba.x.shape), 1)
        assert engine.stats.misses == 2

    def test_clear_releases_the_operators_it_built(self, featured_ba):
        # The gcn hops multiply by the cached operator; clearing both
        # caches must release it.
        cache = OperatorCache()
        engine = PropagationEngine(cache=cache)
        engine.propagate(featured_ba, featured_ba.x, 2, kind="gcn")
        ref = weakref.ref(engine.operator(featured_ba, "gcn"))
        engine.clear()
        cache.clear()
        gc.collect()
        assert ref() is None

    def test_rejects_misaligned_features(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        with pytest.raises(ConfigError):
            engine.propagate(featured_ba, np.ones((3, 2)), 1)

    def test_rejects_unknown_kind(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        with pytest.raises(ConfigError):
            engine.propagate(featured_ba, featured_ba.x, 1, kind="bogus")

    def test_returned_arrays_read_only(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        stack = engine.propagate(featured_ba, featured_ba.x, 1)
        with pytest.raises(ValueError):
            stack[1][0, 0] = 1.0

    def test_default_engine_swap(self):
        fresh = PropagationEngine(cache=OperatorCache())
        old = set_default_engine(fresh)
        try:
            assert get_default_engine() is fresh
        finally:
            set_default_engine(old)


class TestModelSharing:
    def test_sgc_and_gamlp_share_the_stack(self, featured_ba):
        """Two decoupled models on one graph: one set of SpMMs, one operator."""
        engine = PropagationEngine(cache=OperatorCache())
        old = set_default_engine(engine)
        try:
            sgc = SGC(12, 3, k_hops=2, seed=0)
            gamlp = GAMLP(12, 16, 3, k_hops=2, seed=0)
            emb_sgc = sgc.precompute(featured_ba)
            hops_gamlp = gamlp.precompute(featured_ba)
            assert engine.stats.misses == 1  # SGC's cold pass
            assert engine.stats.hits == 1  # GAMLP served from the stack
            assert emb_sgc is hops_gamlp[2]
            assert engine.cache.stats.misses == 1  # one operator build
        finally:
            set_default_engine(old)

    def test_decoupled_training_end_to_end_through_engine(self, featured_ba):
        engine = PropagationEngine(cache=OperatorCache())
        old_engine = set_default_engine(engine)
        old_cache = set_default_cache(engine.cache)
        try:
            split_ids = np.arange(featured_ba.n_nodes)
            from repro.datasets.synthetic import Split

            split = Split(split_ids[:90], split_ids[90:120], split_ids[120:])
            r1 = train_decoupled(SGC(12, 3, k_hops=2, seed=0), featured_ba,
                                 split, epochs=3, seed=0)
            r2 = train_decoupled(GAMLP(12, 16, 3, k_hops=2, seed=0), featured_ba,
                                 split, epochs=3, seed=0)
            assert 0.0 <= r1.test_accuracy <= 1.0
            assert 0.0 <= r2.test_accuracy <= 1.0
            # The second model's precompute rebuilt nothing.
            assert r1.operator_cache_misses == 1
            assert r2.operator_cache_misses == 0
        finally:
            set_default_engine(old_engine)
            set_default_cache(old_cache)


class TestPipelineProfile:
    def test_warm_not_slower_orders_of_magnitude(self, featured_ba):
        cold, warm = precompute_stage_profile(featured_ba, k_hops=2)
        assert cold >= 0.0 and warm >= 0.0
        assert warm <= cold * 10  # warm pass is cache-served, never pathological

    def test_requires_features(self, ba_graph):
        with pytest.raises(ConfigError):
            precompute_stage_profile(ba_graph)
