"""Concurrency hammer tests: the ServingRuntime under thread pressure and
the thread-safety contract of every shared-mutable component it touches
(BatchingQueue, FeatureStore, OperatorCache, LatencyHistogram, obs
metrics/tracer), and the served hop stack's sequence-number protocol:
readers never wait on a writer and never see a half-written update.

The hammer pattern: N producer threads firing M requests each against one
runtime while an updater thread streams edge insertions, then a full
accounting audit — every request answered exactly once, every counter
consistent with every other counter, clean drain on close.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.serving.engine as engine_module
from repro.datasets import contextual_sbm
from repro.errors import (
    ConfigError,
    LoadSheddingError,
    ServingError,
    ServingTimeoutError,
    TransientError,
)
from repro.graph.dynamic import DynamicGraph
from repro.models import SGC
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.perf import OperatorCache, PropagationEngine, row_operator
from repro.serving import (
    BatchingQueue,
    EmbeddingStore,
    PredictRequest,
    ServingEngine,
    ServingRuntime,
    dirty_frontiers,
    patch_stack,
)
from repro.storage import FeatureStore
from repro.tensor.autograd import Tensor
from repro.utils import LatencyHistogram


@pytest.fixture
def fast_switching():
    """Shrink the bytecode switch interval so races actually interleave."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)


def _serving_graph(n_nodes=200, seed=7):
    graph, _ = contextual_sbm(
        n_nodes, n_classes=3, homophily=0.8, avg_degree=8,
        n_features=12, feature_signal=1.0, seed=seed,
    )
    return graph


def _fresh_edges(graph, count, seed):
    """Node pairs absent from ``graph``, safe to stream as insertions."""
    rng = np.random.default_rng(seed)
    seen, edges = set(), []
    while len(edges) < count:
        u, v = (int(x) for x in rng.integers(0, graph.n_nodes, size=2))
        key = (min(u, v), max(u, v))
        if u == v or key in seen or graph.has_edge(u, v):
            continue
        seen.add(key)
        edges.append((u, v))
    return edges


class StubModel:
    """Controllable decoupled head for runtime semantics tests.

    Deterministic output (a slice of the gathered hop row); ``delay``
    sleeps inside the forward (releases the GIL, standing in for BLAS or
    remote-fetch latency); ``fail_times`` raises on the first N forwards
    to exercise the bounded-retry path.
    """

    def __init__(self, n_classes=3, delay=0.0, fail_times=0):
        self.k_hops = 1
        self.n_classes = n_classes
        self.delay = delay
        self.fail_times = fail_times
        self._fail_lock = threading.Lock()

    def eval(self):
        pass

    def __call__(self, x):
        with self._fail_lock:
            if self.fail_times > 0:
                self.fail_times -= 1
                raise TransientError("transient failure (injected)")
        if self.delay:
            time.sleep(self.delay)
        return Tensor(np.asarray(x.data)[:, : self.n_classes])


class TestServingRuntimeHammer:
    N_THREADS = 8
    N_REQUESTS = 250
    N_UPDATES = 40

    @pytest.mark.parametrize("n_writers", [1, 2])
    def test_hammer_with_midstream_updates(self, n_writers):
        graph = _serving_graph()
        n = graph.n_nodes
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=3)
        rt = ServingRuntime(n_workers=4, max_retries=1)
        rt.register("sgc", model, graph)
        edges = _fresh_edges(graph, self.N_UPDATES, seed=99)

        total = self.N_THREADS * self.N_REQUESTS
        results, typed_errors = [], []
        collect = threading.Lock()
        start = threading.Barrier(self.N_THREADS + n_writers)

        def producer(tid):
            rng = np.random.default_rng(1000 + tid)
            ok, bad = [], []
            start.wait()
            for _ in range(self.N_REQUESTS):
                node = int(rng.integers(0, n))
                try:
                    res = rt.predict(node, timeout_s=60.0)
                    ok.append((node, res))
                except (LoadSheddingError, ServingTimeoutError) as exc:
                    bad.append((node, exc))
            with collect:
                results.extend(ok)
                typed_errors.extend(bad)

        def updater(w):
            start.wait()
            for u, v in edges[w::n_writers]:
                rt.apply_update(u, v)
                time.sleep(0.002)

        threads = [
            threading.Thread(target=producer, args=(t,))
            for t in range(self.N_THREADS)
        ]
        threads.extend(
            threading.Thread(target=updater, args=(w,))
            for w in range(n_writers)
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        rt.close()

        # Every request answered exactly once (a lost response would hang
        # the producer; a duplicate would inflate the counts below).
        assert len(results) + len(typed_errors) == total
        # Generous queue + deadline: nothing should actually shed/expire.
        assert typed_errors == []
        for node, res in results:
            assert res.ok and res.node_id == node and res.prediction >= 0

        # Counter audit: no torn increments anywhere in the pipeline.
        engine = rt.engine
        snap = engine.snapshot()
        assert snap["served"] == total
        assert snap["shed"] == 0
        stats = engine.store.stats
        assert stats.hits + stats.misses == total  # one store probe each
        assert snap["cache_hits"] == stats.hits
        assert engine.latency.count == total
        queue = engine.queue
        assert queue.submitted == total - stats.hits
        assert queue.batched_requests == queue.submitted  # none lost/dup
        assert queue.shed == 0 and len(queue) == 0

        # The update stream really ran mid-flight and was fully applied,
        # and concurrent writers serialised into an exact stack.
        record = engine.registry.get("sgc")
        assert record.updates_applied == self.N_UPDATES
        assert record.graph.n_edges == graph.n_edges + 2 * self.N_UPDATES
        fresh = PropagationEngine().propagate(
            record.graph, record.graph.x, record.k_hops
        )
        assert np.array_equal(record.stacked, np.stack(fresh))

        # Clean shutdown: drained, detached, inline path restored.
        rt_snap = rt.snapshot()
        assert rt.closed and rt_snap["pending_futures"] == 0
        assert rt_snap["batches_executed"] == queue.batches_formed
        assert engine.predict(0).ok  # inline works again after close

    def test_predict_many_aligned_under_contention(self):
        graph = _serving_graph(n_nodes=120, seed=11)
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=5)
        failures = []
        with ServingRuntime(n_workers=3) as rt:
            rt.register("sgc", model, graph)

            def worker(tid):
                rng = np.random.default_rng(tid)
                nodes = rng.integers(0, graph.n_nodes, size=100)
                out = rt.predict_many(nodes, timeout_s=60.0)
                for want, res in zip(nodes, out):
                    if res.node_id != int(want) or not res.ok:
                        failures.append((tid, int(want), res))

            threads = [
                threading.Thread(target=worker, args=(t,)) for t in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []


class TestRuntimeSemantics:
    def test_full_queue_sheds_synchronously_with_typed_error(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        queue = BatchingQueue(
            max_batch=8, max_wait_s=30.0, max_queue=2, threadsafe=True
        )
        engine = ServingEngine(queue=queue, early_exit=False, threadsafe=True)
        rt = ServingRuntime(engine=engine, n_workers=1)
        rt.register("stub", StubModel(), graph)
        f1 = rt.predict_async(0)
        f2 = rt.predict_async(1)
        with pytest.raises(LoadSheddingError):
            rt.predict_async(2)
        assert engine.snapshot()["shed"] == 1 and queue.shed == 1
        rt.close()  # force-flushes the two queued requests
        assert f1.result(5.0).ok and f2.result(5.0).ok

    def test_deadline_raises_typed_timeout_but_work_completes(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        rt = ServingRuntime(
            n_workers=1, early_exit=False, default_timeout_s=0.05
        )
        rt.register("slow", StubModel(delay=0.4), graph)
        with pytest.raises(ServingTimeoutError):
            rt.predict(3)  # default_timeout_s applies
        rt.close()  # waits out the in-flight batch
        # The timeout bounded the caller's wait, not the work: the batch
        # still completed and landed in the accounting + store.
        assert rt.engine.snapshot()["served"] == 1
        assert rt.engine.store.get(
            rt.engine.registry.get("slow").namespace, 3
        ) is not None

    def test_failed_batch_retries_then_succeeds(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        rt = ServingRuntime(n_workers=1, max_retries=2, early_exit=False)
        rt.register("flaky", StubModel(fail_times=1), graph)
        res = rt.predict(5, timeout_s=10.0)
        assert res.ok
        assert rt.snapshot()["retries"] == 1
        rt.close()

    def test_retries_are_bounded_and_surface_the_error(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        rt = ServingRuntime(n_workers=1, max_retries=1, early_exit=False)
        rt.register("dead", StubModel(fail_times=10), graph)
        with pytest.raises(TransientError, match="injected"):
            rt.predict(3, timeout_s=10.0)
        assert rt.snapshot()["retries"] == 1  # one retry, then fail
        assert rt.engine.snapshot()["served"] == 0
        rt.close()

    def test_close_is_idempotent_and_rejects_new_requests(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        rt = ServingRuntime(n_workers=1, early_exit=False)
        rt.register("stub", StubModel(), graph)
        rt.close()
        rt.close()
        assert rt.closed
        with pytest.raises(ServingError):
            rt.predict_async(0)

    def test_close_rejects_even_store_hits(self):
        # Regression: the closed check must precede the store probe, or a
        # warm node is still served through a closed runtime.
        graph = _serving_graph(n_nodes=40, seed=2)
        rt = ServingRuntime(n_workers=1, early_exit=False)
        rt.register("stub", StubModel(), graph)
        assert rt.predict(7, timeout_s=10.0).ok  # warms the store
        rt.close()
        assert rt.engine.predict(7).cached  # inline path may serve it...
        with pytest.raises(ServingError, match="closed"):
            rt.predict_async(7)  # ...but the runtime may not

    def test_context_manager_closes(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        with ServingRuntime(n_workers=1, early_exit=False) as rt:
            rt.register("stub", StubModel(), graph)
            assert rt.predict(1, timeout_s=10.0).ok
        assert rt.closed

    def test_inline_engine_path_blocked_while_attached(self):
        graph = _serving_graph(n_nodes=40, seed=2)
        rt = ServingRuntime(n_workers=1, early_exit=False)
        rt.register("stub", StubModel(), graph)
        with pytest.raises(ServingError, match="attached"):
            rt.engine.predict(0)
        rt.close()
        assert rt.engine.predict(0).ok

    def test_attachment_validation(self):
        with pytest.raises(ConfigError, match="threadsafe"):
            ServingRuntime(engine=ServingEngine(threadsafe=False))
        rt = ServingRuntime(n_workers=1)
        with pytest.raises(ServingError, match="already attached"):
            ServingRuntime(engine=rt.engine)
        with pytest.raises(ConfigError, match="engine_kwargs"):
            ServingRuntime(engine=ServingEngine(threadsafe=True), threshold=0.5)
        rt.close()


class TestOneRequestPath:
    def test_inline_and_runtime_count_a_stream_alike(self):
        # Both front doors answer a hit through ServingEngine.try_store
        # and a miss through one micro-batch, so the same hit/miss stream
        # leaves the same counters behind.
        graph = _serving_graph(n_nodes=60, seed=5)
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=1)
        cold = np.arange(20)
        mixed = np.arange(30)  # nodes 0..19 now hit, 20..29 miss
        inline = ServingEngine(early_exit=False)
        inline.register("sgc", model, graph)
        inline.predict_many(cold)
        inline.predict_many(mixed)
        with ServingRuntime(n_workers=1, early_exit=False) as rt:
            rt.register("sgc", model, graph)
            rt.predict_many(cold, timeout_s=60.0)
            rt.predict_many(mixed, timeout_s=60.0)
        for engine in (inline, rt.engine):
            snap = engine.snapshot()
            assert (snap["served"], snap["cache_hits"]) == (50, 20)
            assert engine.latency.count == 50

    def test_in_flight_batch_never_resurrects_an_invalidated_row(self):
        # A batch gathers node 80's rows, an update to node 80 runs to
        # completion while the batch is still inferring, then the batch
        # finishes: its answer predates the update, so it must not be
        # written back over the invalidation.
        graph, _ = contextual_sbm(
            200, n_classes=3, homophily=0.8, avg_degree=6, n_features=8,
            feature_signal=2.0, seed=3,
        )
        engine = ServingEngine(
            early_exit=False, threadsafe=True,
            store=EmbeddingStore(1000, threadsafe=True),
        )
        key = engine.register("sgc", SGC(8, 3, k_hops=2, seed=0), graph)
        namespace = engine.registry.get(key).namespace
        engine.predict(80)  # node 80 resident before the race
        gathered, release = threading.Event(), threading.Event()
        infer = engine._infer

        def gated_infer(*args):
            gathered.set()
            assert release.wait(30.0)
            return infer(*args)

        engine._infer = gated_infer
        answers = []
        batch = [PredictRequest(0, 80, key, engine._clock())]
        worker = threading.Thread(
            target=lambda: answers.append(engine.run_batch(batch))
        )
        worker.start()
        assert gathered.wait(30.0)
        report = engine.apply_update(80, 5)
        assert report.store_invalidated >= 1
        release.set()
        worker.join(30.0)
        assert not worker.is_alive()
        assert answers and answers[0][0].ok  # the batch itself completed
        assert engine.store.get(namespace, 80) is None
        engine._infer = infer
        fresh = ServingEngine(early_exit=False, store=None)
        fresh.register("sgc", SGC(8, 3, k_hops=2, seed=0),
                       engine.registry.get(key).graph)
        served = engine.predict(80)
        assert not served.cached
        assert served.prediction == fresh.predict(80).prediction


def _flipping_edge(graph, model):
    """An absent edge ``(u, v)`` whose insertion changes ``u``'s answer,
    with ``u``'s answers before and after it."""
    before = ServingEngine(early_exit=False, store=None)
    before.register("m", model, graph)
    for u, v in _fresh_edges(graph, 200, seed=5):
        dynamic = DynamicGraph.from_graph(graph)
        dynamic.insert_edge(u, v)
        after = ServingEngine(early_exit=False, store=None)
        after.register("m", model, dynamic.snapshot())
        old, new = before.predict(u).prediction, after.predict(u).prediction
        if old != new:
            return (u, v), old, new
    raise AssertionError("no edge changes an endpoint's answer")


class TestReadersNeverWait:
    def test_reader_completes_while_writer_computes(self, monkeypatch):
        # Park the writer inside its compute phase (the operator-row
        # build), then serve a batch on the same model: it must finish
        # without waiting and answer from the stack as it was.
        graph = _serving_graph()
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=3)
        edge, old, new = _flipping_edge(graph, model)
        engine = ServingEngine(early_exit=False, threadsafe=True, store=None)
        key = engine.register("sgc", model, graph)
        parked, release = threading.Event(), threading.Event()
        build = engine_module.row_operator

        def parked_build(*args, **kwargs):
            parked.set()
            assert release.wait(30.0)
            return build(*args, **kwargs)

        monkeypatch.setattr(engine_module, "row_operator", parked_build)
        answers = []
        batch = [PredictRequest(0, edge[0], key, engine._clock())]
        writer = threading.Thread(target=engine.apply_update, args=edge)
        reader = threading.Thread(
            target=lambda: answers.append(engine.run_batch(batch))
        )
        writer.start()
        try:
            assert parked.wait(30.0)
            reader.start()
            reader.join(5.0)
            finished_while_parked = not reader.is_alive()
        finally:
            release.set()
            writer.join(30.0)
        reader.join(30.0)
        assert not writer.is_alive() and not reader.is_alive()
        assert finished_while_parked, "the reader waited on the writer"
        assert answers[0][0].prediction == old
        assert engine.registry.get(key).updates_applied == 1
        assert engine.predict(edge[0]).prediction == new

    def test_readers_see_exactly_one_published_version(self, fast_switching):
        # Readers gather every row while a writer applies a seeded insert
        # stream. The published versions are replayed beforehand through
        # patch_stack on a copy; every gathered block must be one of them,
        # bitwise, never a mix of two.
        graph = _serving_graph()
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=3)
        engine = ServingEngine(early_exit=False, threadsafe=True, store=None)
        key = engine.register("sgc", model, graph)
        record = engine.registry.get(key)
        edges = _fresh_edges(graph, 60, seed=21)
        stack = [layer.copy() for layer in record.stack]
        dynamic = DynamicGraph.from_graph(graph)
        versions = {record.stacked.tobytes(): 0}
        for i, (u, v) in enumerate(edges, start=1):
            dynamic.insert_edge(u, v)
            dirty = dirty_frontiers(dynamic, [u, v], record.k_hops)
            operator = row_operator(
                dynamic.snapshot(), dirty[-1], record.kind, record.alpha,
                dtype=record.dtype,
            )
            patch_stack(stack, operator, dirty)
            versions[np.stack(stack).tobytes()] = i
        assert len(versions) == len(edges) + 1  # every version distinct
        nodes = np.arange(graph.n_nodes)
        seen = [[] for _ in range(4)]
        torn = []
        done = threading.Event()

        def reader(tid):
            while not done.is_set():
                block = np.stack(record.hop_rows(nodes))
                version = versions.get(block.tobytes())
                if version is None:
                    torn.append(tid)
                else:
                    seen[tid].append(version)

        readers = [
            threading.Thread(target=reader, args=(t,)) for t in range(4)
        ]
        for t in readers:
            t.start()
        try:
            for u, v in edges:
                engine.apply_update(u, v)
        finally:
            done.set()
            for t in readers:
                t.join(30.0)
        assert not any(t.is_alive() for t in readers)
        assert torn == []
        # A reader never goes back to an older version.
        assert all(versions_read == sorted(versions_read) for versions_read in seen)
        final = np.stack(record.hop_rows(nodes)).tobytes()
        assert versions[final] == len(edges)


def _run_threads(n, target):
    threads = [threading.Thread(target=target, args=(t,)) for t in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestPrimitiveThreadSafety:
    def test_counter_increments_are_exact(self, fast_switching):
        registry = MetricsRegistry()
        counter = registry.counter("hits")

        def bump(_tid):
            for _ in range(5000):
                counter.inc()
                counter.inc(status="ok")

        _run_threads(8, bump)
        assert counter.total == 80000.0
        assert counter.value(status="ok") == 40000.0

    def test_latency_histogram_concurrent_records(self, fast_switching):
        hist = LatencyHistogram()
        value = 2.0 ** -10  # dyadic: sums exactly in any order

        def record(_tid):
            for _ in range(1000):
                hist.record(value)
            hist.record_many([value] * 1000)

        _run_threads(8, record)
        assert hist.count == 16000
        assert hist.total == 16000 * value

    def test_feature_store_mixed_ops_keep_consistent_accounting(
        self, fast_switching
    ):
        store = FeatureStore(capacity=128, threadsafe=True)
        gets_per_thread = 1000

        def churn(tid):
            rng = np.random.default_rng(tid)
            for i in range(gets_per_thread):
                key = int(rng.integers(0, 400))
                if i % 3 == 0:
                    store.put("ns", key, key)
                store.get("ns", key)
                if i % 97 == 0:
                    store.invalidate("ns", [key])

        _run_threads(6, churn)
        stats = store.stats
        assert stats.hits + stats.misses == 6 * gets_per_thread
        assert len(store) <= 128
        assert store.snapshot()["size"] == len(store)

    def test_operator_cache_builds_once_under_race(self, fast_switching):
        graph = _serving_graph(n_nodes=80, seed=4)
        cache = OperatorCache()
        mats = [None] * 8

        def lookup(tid):
            for _ in range(50):
                mats[tid] = cache.normalized_adjacency(graph)

        _run_threads(8, lookup)
        stats = cache.stats
        assert stats.misses == 1  # built exactly once, never duplicated
        assert stats.hits == 8 * 50 - 1
        assert len(cache) == 1
        for m in mats[1:]:
            assert (m != mats[0]).nnz == 0

    def test_tracer_keeps_span_stacks_per_thread(self, fast_switching):
        tracer = Tracer(max_roots=10_000)
        active_leaks = []

        def trace(_tid):
            for _ in range(100):
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        pass
            if tracer.active is not None:  # stack must drain per-thread
                active_leaks.append(tracer.active)

        _run_threads(8, trace)
        assert active_leaks == []
        roots = tracer.roots()
        assert len(roots) == 800
        assert all(len(r.children) == 1 for r in roots)
        ids = [s.span_id for s in tracer.spans()]
        assert len(ids) == 1600 and len(set(ids)) == 1600

    def test_batching_queue_concurrent_submissions(self, fast_switching):
        queue = BatchingQueue(
            max_batch=32, max_wait_s=0.0, max_queue=100_000, threadsafe=True
        )

        def submit(tid):
            for i in range(1000):
                queue.submit(i, f"model-{tid % 3}")

        _run_threads(8, submit)
        assert queue.submitted == 8000 and queue.shed == 0
        ids = [r.request_id for batch in queue.drain() for r in batch]
        assert len(ids) == 8000 and len(set(ids)) == 8000
        assert queue.batched_requests == 8000 and len(queue) == 0
