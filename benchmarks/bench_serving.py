"""E29 (repro.serving): micro-batched online inference pays for itself.

Claims measured here:

1. Serving single-node requests through the micro-batching queue
   coalesces them: the batched engine forms ``ceil(N_REQUESTS /
   MAX_BATCH)`` batches where the unbatched one forms one per request,
   at identical predictions (the acceptance bar, a count that holds on
   any host). The wall-clock throughput speedup is reported, ungated.
2. A warm :class:`repro.serving.EmbeddingStore` answers repeat traffic
   from cache; the hit rate on a skewed (Zipf-like) request stream is
   reported.
3. Streaming edge insertions are absorbed incrementally: only the dirty
   K-hop rows of the hop stack are recomputed (recompute counters vs the
   full-precompute row count).

Per-request latency lands in a :class:`LatencyHistogram`; p50/p95/p99 are
persisted with the rest of the record to
``benchmarks/results/E29_serving.json`` for CI regression tracking.
"""

import math
import time

import numpy as np
from _common import emit, emit_json

from repro.bench import Table, format_seconds
from repro.datasets import contextual_sbm
from repro.models import SGC, train_depth_calibrated
from repro.serving import BatchingQueue, EmbeddingStore, ServingEngine

N_NODES = 2000
K_HOPS = 2
N_FEATURES = 32
N_REQUESTS = 1200
N_UPDATES = 10
MAX_BATCH = 64


def _make_engine(batched: bool, store: EmbeddingStore | None) -> ServingEngine:
    max_batch = MAX_BATCH if batched else 1
    return ServingEngine(
        queue=BatchingQueue(max_batch=max_batch, max_wait_s=10.0),
        store=store,
        early_exit=False,
    )


def test_serving_throughput_and_incremental_updates(benchmark):
    graph, split = contextual_sbm(
        N_NODES, n_classes=4, homophily=0.8, avg_degree=10,
        n_features=N_FEATURES, feature_signal=1.0, seed=1,
    )
    model = SGC(N_FEATURES, 4, k_hops=K_HOPS, seed=0)
    train_depth_calibrated(model, graph, split.train, epochs=5, seed=2)

    rng = np.random.default_rng(3)
    requests = rng.integers(0, N_NODES, size=N_REQUESTS)

    # --- 1. batched vs unbatched throughput (store off: pure model path) --
    unbatched = _make_engine(batched=False, store=None)
    unbatched.register("sgc", model, graph)
    start = time.perf_counter()
    results_single = unbatched.predict_many(requests)
    unbatched_s = time.perf_counter() - start

    batched = _make_engine(batched=True, store=None)
    batched.register("sgc", model, graph)
    start = time.perf_counter()
    results_batched = batched.predict_many(requests)
    batched_s = time.perf_counter() - start

    preds_single = np.array([r.prediction for r in results_single])
    preds_batched = np.array([r.prediction for r in results_batched])
    speedup = unbatched_s / max(batched_s, 1e-9)
    batches_single = unbatched.queue.batches_formed
    batches_batched = batched.queue.batches_formed

    # --- 2. warm embedding store on a skewed stream -----------------------
    warm = ServingEngine(
        queue=BatchingQueue(max_batch=MAX_BATCH, max_wait_s=10.0),
        store=EmbeddingStore(capacity=N_NODES),
        early_exit=False,
    )
    warm.register("sgc", model, graph)
    hot = rng.zipf(1.5, size=4 * N_REQUESTS) % N_NODES
    warm.predict_many(hot)
    store_stats = warm.store.stats

    # --- 3. incremental updates mid-stream --------------------------------
    rows_recomputed = 0
    for _ in range(N_UPDATES):
        record = warm.registry.get("sgc")
        while True:
            u, v = (int(z) for z in rng.integers(0, N_NODES, size=2))
            if u != v and not record.graph.has_edge(u, v):
                break
        report = warm.apply_update(u, v)
        rows_recomputed += report.rows_recomputed
    warm.predict_many(rng.integers(0, N_NODES, size=N_REQUESTS))
    record = warm.registry.get("sgc")
    rows_full = N_UPDATES * K_HOPS * N_NODES

    latency = batched.latency.summary()
    table = Table(
        "E29: online serving (micro-batching + embedding store + updates)",
        ["metric", "value"],
    )
    table.add_row("requests", N_REQUESTS)
    table.add_row("unbatched", format_seconds(unbatched_s))
    table.add_row(f"batched (<= {MAX_BATCH})", format_seconds(batched_s))
    table.add_row("batches formed (unbatched / batched)",
                  f"{batches_single} / {batches_batched}")
    table.add_row("throughput speedup (reported)", f"{speedup:.1f}x")
    table.add_row("batched req/s", f"{N_REQUESTS / batched_s:,.0f}")
    table.add_row("p50 / p95 / p99", " / ".join(
        format_seconds(latency[q]) for q in ("p50", "p95", "p99")
    ))
    table.add_row("warm store hit rate", f"{store_stats.hit_rate:.2f}")
    table.add_row(f"update rows recomputed ({N_UPDATES} edges)",
                  f"{rows_recomputed} / {rows_full}")
    emit(table, "E29_serving")

    payload = {
        "experiment": "E29_serving",
        "n_nodes": N_NODES,
        "k_hops": K_HOPS,
        "n_requests": N_REQUESTS,
        "max_batch": MAX_BATCH,
        "unbatched_s": unbatched_s,
        "batched_s": batched_s,
        "throughput_speedup": speedup,
        "unbatched_batches": batches_single,
        "batched_batches": batches_batched,
        "batched_requests_per_s": N_REQUESTS / batched_s,
        "latency": latency,
        "warm_store_hit_rate": store_stats.hit_rate,
        "updates": N_UPDATES,
        "update_rows_recomputed": rows_recomputed,
        "update_rows_full": rows_full,
    }
    emit_json("E29_serving", payload, metrics=True)

    # pytest-benchmark hook: steady-state single batched request (cold row).
    bench_engine = _make_engine(batched=True, store=None)
    bench_engine.register("sgc", model, graph)
    benchmark(bench_engine.predict, 17)

    assert np.array_equal(preds_single, preds_batched), (
        "batched and unbatched serving must agree prediction-for-prediction"
    )
    assert batches_batched == math.ceil(N_REQUESTS / MAX_BATCH), (
        f"the batched engine must coalesce {N_REQUESTS} requests into "
        f"{math.ceil(N_REQUESTS / MAX_BATCH)} batches, formed {batches_batched}"
    )
    assert batches_single == N_REQUESTS, (
        f"the unbatched engine must form one batch per request, "
        f"formed {batches_single}"
    )
    assert store_stats.hit_rate > 0.5, (
        f"warm store must absorb a skewed stream, hit rate {store_stats.hit_rate:.2f}"
    )
    assert rows_recomputed < rows_full, (
        "incremental updates must touch fewer rows than full recompute"
    )
    assert record.rows_recomputed == rows_recomputed
