"""E31 (repro.serving.runtime): concurrent serving scales, a store hit is one probe.

Claims measured here:

1. **Worker-pool scaling.** A :class:`~repro.serving.ServingRuntime`
   with several workers sustains >= ``SPEEDUP_BOUND``x (2x) the
   throughput of a single-worker runtime on the same request stream,
   when per-batch service time is dominated by GIL-releasing work. The
   serving model here sleeps inside its forward — an honest stand-in on
   a single-CPU runner for the remote feature fetch / accelerator call
   that dominates real per-batch latency (pure-Python compute would
   serialize on the GIL and show nothing).
2. **One store-hit path.** A warm store-hit burst through the inline
   engine makes exactly one ``store.get`` per request and never reaches
   ``queue.submit``: a hit is answered by ``ServingEngine.try_store``
   alone, the same path the runtime's submit takes. This is a call
   count, not a wall ratio, so it holds on any host. The per-request
   store-hit cost of the default (``threadsafe=False``) and the
   ``threadsafe=True`` engine is reported, ungated; the two are timed
   interleaved so machine drift hits both alike.
3. **Reads beside writes.** Reader threads send requests through a
   runtime while a writer streams edge inserts into the same model.
   Every request is accounted for (served + shed + errored = sent), the
   answers given after the last write equal a fresh propagate of the
   final graph, and a read completes while a writer is parked inside
   its compute phase (Event-gated, so the overlap is a fact, not a
   timing). Counts and equality only; nothing here is a wall ratio.

Run directly (``python benchmarks/bench_concurrency.py [--smoke]``) or
through pytest; ``--smoke`` shrinks the request volume for CI.
"""

import argparse
import sys
import threading
import time

import numpy as np
from _common import emit, emit_json

import repro.serving.engine as engine_module
from repro.bench import Table, format_seconds
from repro.datasets import contextual_sbm
from repro.errors import LoadSheddingError, ReproError
from repro.models import SGC
from repro.serving import (
    BatchingQueue,
    PredictRequest,
    ServingEngine,
    ServingRuntime,
)
from repro.tensor.autograd import Tensor

SPEEDUP_BOUND = 2.0
N_FEATURES = 12
N_CLASSES = 3


class SleepingModel:
    """Decoupled head whose forward sleeps ``delay_s`` then answers.

    ``time.sleep`` releases the GIL, so concurrent workers overlap their
    batches exactly the way they would overlap remote-store reads or
    accelerator kernels; the argmax keeps the output shape honest.
    """

    def __init__(self, delay_s: float):
        self.k_hops = 1
        self.delay_s = delay_s

    def eval(self):
        pass

    def __call__(self, x):
        time.sleep(self.delay_s)
        return Tensor(np.asarray(x.data)[:, :N_CLASSES])


def _make_graph(n_nodes: int, seed: int = 1):
    graph, _ = contextual_sbm(
        n_nodes, n_classes=N_CLASSES, homophily=0.8, avg_degree=8,
        n_features=N_FEATURES, feature_signal=1.0, seed=seed,
    )
    return graph


def _throughput(
    n_workers: int, graph, n_requests: int, delay_s: float, max_batch: int
) -> float:
    """Requests/second through a fresh runtime with ``n_workers``."""
    rt = ServingRuntime(
        n_workers=n_workers,
        early_exit=False,
        store=None,  # no prediction cache: every request pays a batch
        queue=BatchingQueue(
            max_batch=max_batch, max_wait_s=0.001, threadsafe=True
        ),
    )
    try:
        rt.register("sleepy", SleepingModel(delay_s), graph)
        nodes = [i % graph.n_nodes for i in range(n_requests)]
        start = time.perf_counter()
        futures = [rt.predict_async(node) for node in nodes]
        for future in futures:
            future.result(timeout=120)
        elapsed = time.perf_counter() - start
    finally:
        rt.close()
    return n_requests / elapsed


def _scaling_measurements(
    n_requests: int, delay_s: float, n_workers: int, repeat: int
) -> dict:
    graph = _make_graph(120)
    single = [
        _throughput(1, graph, n_requests, delay_s, max_batch=8)
        for _ in range(repeat)
    ]
    multi = [
        _throughput(n_workers, graph, n_requests, delay_s, max_batch=8)
        for _ in range(repeat)
    ]
    return {
        "n_requests": n_requests,
        "batch_delay_s": delay_s,
        "n_workers": n_workers,
        "single_worker_rps": max(single),
        "multi_worker_rps": max(multi),
        "speedup": max(multi) / max(single),
    }


def _store_hit_calls(engine: ServingEngine, burst: np.ndarray) -> dict:
    """``store.get`` and ``queue.submit`` calls one warm burst makes.

    Both methods are shadowed on the instance by counting wrappers for
    the one burst, then deleted so the class methods apply again.
    """
    calls = {"store_get_calls": 0, "queue_submit_calls": 0}

    def count(obj, attr: str, name: str) -> None:
        method = getattr(obj, attr)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        setattr(obj, attr, counted)

    count(engine.store, "get", "store_get_calls")
    count(engine.queue, "submit", "queue_submit_calls")
    try:
        results = engine.predict_many(burst)
    finally:
        del engine.store.get, engine.queue.submit
    calls["all_cached"] = all(r.ok and r.cached for r in results)
    return calls


def _store_hit_measurements(repeat: int, inner: int) -> dict:
    """Single-threaded warm store-hit burst: call counts, then wall cost.

    The store-hit path is where the engine's per-request machinery lives
    (store probe, counter bump, latency record); a model forward would
    bury it in noise. Both engine modes serve the identical warm burst.
    """
    graph = _make_graph(256)
    burst = np.arange(graph.n_nodes).repeat(2)

    def build(threadsafe: bool) -> ServingEngine:
        engine = ServingEngine(early_exit=False, threadsafe=threadsafe)
        engine.register("sleepy", SleepingModel(0.0), graph)
        engine.predict_many(np.arange(graph.n_nodes))  # warm the store
        return engine

    engines = {"default": build(False), "threadsafe": build(True)}
    calls = _store_hit_calls(engines["default"], burst)
    samples = {name: [] for name in engines}
    for _ in range(repeat):
        for name, engine in engines.items():
            start = time.perf_counter()
            for _ in range(inner):
                engine.predict_many(burst)
            samples[name].append(
                (time.perf_counter() - start) / (inner * len(burst))
            )
    return {
        "burst_size": int(len(burst)),
        "repeat": repeat,
        "inner": inner,
        **calls,
        "default_per_request_s": min(samples["default"]),
        "threadsafe_per_request_s": min(samples["threadsafe"]),
    }


def _fresh_edges(graph, count: int, seed: int) -> list[tuple[int, int]]:
    """``count`` distinct node pairs absent from ``graph``."""
    rng = np.random.default_rng(seed)
    seen: set[tuple[int, int]] = set()
    while len(seen) < count:
        u, v = sorted(int(x) for x in rng.integers(0, graph.n_nodes, size=2))
        if u != v and not graph.has_edge(u, v):
            seen.add((u, v))
    return sorted(seen)


def _overlap_holds(graph, model, edge: tuple[int, int]) -> bool:
    """Whether a micro-batch completes while a writer is parked inside its
    compute phase (the dirty operator-row build) on the same model."""
    engine = ServingEngine(early_exit=False, threadsafe=True, store=None)
    key = engine.register("sgc", model, graph)
    parked, release = threading.Event(), threading.Event()
    build = engine_module.row_operator

    def parked_build(*args, **kwargs):
        parked.set()
        release.wait(60.0)
        return build(*args, **kwargs)

    batch = [PredictRequest(0, edge[0], key, engine._clock())]
    writer = threading.Thread(target=engine.apply_update, args=edge)
    reader = threading.Thread(target=engine.run_batch, args=(batch,))
    engine_module.row_operator = parked_build
    try:
        writer.start()
        overlapped = parked.wait(60.0)
        reader.start()
        reader.join(10.0)
        overlapped = overlapped and not reader.is_alive()
    finally:
        release.set()
        engine_module.row_operator = build
        writer.join(60.0)
        if reader.ident is not None:
            reader.join(60.0)
    return overlapped


def _reads_beside_writes(
    n_nodes: int, n_readers: int, n_requests: int, n_updates: int
) -> dict:
    """Claim 3: request accounting and exactness with a concurrent writer."""
    graph = _make_graph(n_nodes, seed=3)
    model = SGC(N_FEATURES, N_CLASSES, k_hops=2, seed=0)
    edges = _fresh_edges(graph, n_updates + 1, seed=4)
    counts = {"served": 0, "shed": 0, "errored": 0}
    count_lock = threading.Lock()
    start = threading.Barrier(n_readers + 1)
    rt = ServingRuntime(n_workers=2, early_exit=False)
    try:
        rt.register("sgc", model, graph)

        def read(tid: int) -> None:
            rng = np.random.default_rng(100 + tid)
            start.wait()
            for node in rng.integers(0, n_nodes, size=n_requests).tolist():
                try:
                    ok = rt.predict(node, timeout_s=60.0).ok
                    outcome = "served" if ok else "errored"
                except LoadSheddingError:
                    outcome = "shed"
                except ReproError:  # a timeout or an open breaker
                    outcome = "errored"
                with count_lock:
                    counts[outcome] += 1

        def write() -> None:
            start.wait()
            for u, v in edges[:n_updates]:
                rt.apply_update(u, v)

        threads = [
            threading.Thread(target=read, args=(t,)) for t in range(n_readers)
        ] + [threading.Thread(target=write)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(300.0)
        after = rt.predict_many(np.arange(n_nodes), timeout_s=60.0)
        final_graph = rt.engine.registry.get("sgc").graph
    finally:
        rt.close()
    oracle = ServingEngine(early_exit=False, store=None)
    oracle.register("sgc", model, final_graph)
    expected = oracle.predict_many(np.arange(n_nodes))
    return {
        "rw_sent": n_readers * n_requests,
        "rw_updates": n_updates,
        **{f"rw_{name}": value for name, value in counts.items()},
        "rw_after_write_match": all(
            a.ok and a.prediction == e.prediction
            for a, e in zip(after, expected)
        ),
        "rw_edges_applied": final_graph.n_edges == graph.n_edges + 2 * n_updates,
        "rw_overlap": _overlap_holds(graph, model, edges[-1]),
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        n_requests, delay_s, n_workers, repeat = 160, 0.004, 4, 2
        hit_repeat, hit_inner = 5, 2
        rw_nodes, rw_readers, rw_requests, rw_updates = 400, 4, 100, 10
    else:
        n_requests, delay_s, n_workers, repeat = 480, 0.005, 4, 3
        hit_repeat, hit_inner = 9, 3
        rw_nodes, rw_readers, rw_requests, rw_updates = 2000, 8, 250, 40

    scaling = _scaling_measurements(n_requests, delay_s, n_workers, repeat)
    hits = _store_hit_measurements(hit_repeat, hit_inner)
    rw = _reads_beside_writes(rw_nodes, rw_readers, rw_requests, rw_updates)

    table = Table(
        "E31: concurrent serving runtime (scaling, store-hit path, "
        "reads beside writes)",
        ["metric", "value"],
    )
    table.add_row("requests / batch delay",
                  f"{scaling['n_requests']} / {scaling['batch_delay_s']*1e3:.0f}ms")
    table.add_row("1-worker throughput",
                  f"{scaling['single_worker_rps']:.0f} req/s")
    table.add_row(f"{scaling['n_workers']}-worker throughput",
                  f"{scaling['multi_worker_rps']:.0f} req/s")
    table.add_row("speedup", f"{scaling['speedup']:.2f}x")
    table.add_row("bound (speedup)", f">= {SPEEDUP_BOUND:.1f}x")
    table.add_row("store-hit burst (requests)", hits["burst_size"])
    table.add_row("store.get calls (bound: one per request)",
                  hits["store_get_calls"])
    table.add_row("queue.submit calls (bound: 0)", hits["queue_submit_calls"])
    table.add_row("store-hit path, default engine (reported)",
                  format_seconds(hits["default_per_request_s"]))
    table.add_row("store-hit path, threadsafe engine (reported)",
                  format_seconds(hits["threadsafe_per_request_s"]))
    table.add_row("reads beside writes: sent / edge inserts",
                  f"{rw['rw_sent']} / {rw['rw_updates']}")
    table.add_row("served + shed + errored (bound: = sent)",
                  f"{rw['rw_served']} + {rw['rw_shed']} + {rw['rw_errored']}")
    table.add_row("answers after the last write = fresh propagate",
                  rw["rw_after_write_match"])
    table.add_row("read completes while a writer computes",
                  rw["rw_overlap"])
    emit(table, "E31_concurrency")

    payload = {
        "experiment": "E31_concurrency",
        "smoke": smoke,
        "speedup_bound": SPEEDUP_BOUND,
        **scaling,
        **hits,
        **rw,
    }
    emit_json("E31_concurrency", payload, metrics=True)

    assert scaling["speedup"] >= SPEEDUP_BOUND, (
        f"{scaling['n_workers']} workers must sustain >= "
        f"{SPEEDUP_BOUND:.1f}x single-worker throughput, measured "
        f"{scaling['speedup']:.2f}x"
    )
    assert hits["all_cached"], "the warm burst must be answered from the store"
    assert hits["store_get_calls"] == hits["burst_size"], (
        f"a store hit must probe the store exactly once: "
        f"{hits['store_get_calls']} store.get calls for "
        f"{hits['burst_size']} requests"
    )
    assert hits["queue_submit_calls"] == 0, (
        f"a store hit must never reach the batching queue: "
        f"{hits['queue_submit_calls']} queue.submit calls"
    )
    accounted = rw["rw_served"] + rw["rw_shed"] + rw["rw_errored"]
    assert accounted == rw["rw_sent"], (
        f"served + shed + errored = {accounted}, sent {rw['rw_sent']}"
    )
    assert rw["rw_edges_applied"], "not every edge insert was applied"
    assert rw["rw_after_write_match"], (
        "answers after the last write differ from a fresh propagate"
    )
    assert rw["rw_overlap"], (
        "a read waited on a writer parked in its compute phase"
    )
    return payload


def test_concurrency(benchmark):
    run(smoke=True)

    # pytest-benchmark hook: one warm store-hit predict on a threadsafe
    # engine.
    graph = _make_graph(64)
    engine = ServingEngine(early_exit=False, threadsafe=True)
    engine.register("sleepy", SleepingModel(0.0), graph)
    engine.predict(0)
    benchmark(engine.predict, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI (same assertions)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    print(
        f"E31 ok: {payload['n_workers']}-worker speedup "
        f"{payload['speedup']:.2f}x (bound >= {SPEEDUP_BOUND:.1f}x), "
        f"store hit = {payload['store_get_calls']} store.get / "
        f"{payload['burst_size']} requests, "
        f"{payload['queue_submit_calls']} queue.submit; "
        f"{payload['default_per_request_s'] * 1e6:.2f} us/request default, "
        f"{payload['threadsafe_per_request_s'] * 1e6:.2f} us/request threadsafe; "
        f"reads beside {payload['rw_updates']} writes: "
        f"{payload['rw_served']} served, {payload['rw_shed']} shed, "
        f"{payload['rw_errored']} errored of {payload['rw_sent']} sent, "
        f"after-write answers exact, read overlapped a parked writer"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
