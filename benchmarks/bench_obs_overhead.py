"""E30 (repro.obs): disabled-mode observability costs nothing measurable.

Claims measured here:

1. With :func:`repro.obs.configure(enabled=False)` (the default), the
   instrumented K-hop propagation path — the E28 workload — leaves no
   observability footprint: one ``propagate(memoize=False)`` creates 0
   spans and 0 registry series, and ``tracemalloc`` attributes 0 bytes to
   ``repro/obs/``. The same check run with observability enabled is the
   positive control and must fail. This is a structural gate, not a wall
   ratio: a percent-level bound flaked on a shared 2-core host.
2. Disabled- and enabled-mode overheads against the hand-inlined
   uninstrumented hop loop are reported (not bounded): enabled spans cost
   real time, and that cost is the price of the data.
3. One traced end-to-end run (``TrainingPipeline.run`` + a
   ``ServingEngine`` request burst) produces a >= 3-level nested trace
   and a registry snapshot carrying operator-cache and embedding-store
   hit rates; the trace is persisted to
   ``benchmarks/results/E30_obs_trace.json`` as a CI artifact, and the
   registry snapshot is exported in Prometheus text exposition format
   (``E30_obs_overhead.prom``), which must pass
   :func:`repro.obs.telemetry.lint_prometheus`.
4. A 2-worker :class:`repro.distributed.ProcessBackend` run with the
   telemetry plane enabled assembles one cross-process trace spanning
   coordinator → rank → kernel (>= 3 levels), persisted to
   ``benchmarks/results/E30_cross_process_trace.json``.

Run directly (``python benchmarks/bench_obs_overhead.py [--smoke]``) or
through pytest; ``--smoke`` shrinks the graph for CI.
"""

import argparse
import gc
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np
from _common import emit, emit_json

from repro import obs
from repro.bench import Table, format_seconds
from repro.datasets import contextual_sbm
from repro.models import SGC
from repro.obs import MetricsRegistry, Tracer
from repro.perf import OperatorCache, PropagationEngine, spmm
from repro.serving import BatchingQueue, EmbeddingStore, ServingEngine
from repro.training import TrainingPipeline

K_HOPS = 3
N_FEATURES = 32

TRACE_ARTIFACT = "E30_obs_trace.json"
CROSS_TRACE_ARTIFACT = "E30_cross_process_trace.json"


def _time_interleaved(fns: dict, repeat: int, inner: int) -> dict:
    """Per-call seconds sampled round-robin: ``{name: [per-round, ...]}``.

    Interleaving the variants within each round (instead of timing them
    in sequential blocks) cancels slow drift — frequency scaling, cache
    warmup, allocator state — that would otherwise bias whichever variant
    runs first. Overheads are then computed as medians of *per-round*
    ratios, pairing samples that share the same machine state.

    Two further noise controls, needed for a percent-level bound on a
    shared CI runner: the garbage collector is paused for the whole
    measurement (a collection landing inside one variant's window would
    be charged to that variant alone), and after each variant switch one
    untimed warm-up call absorbs the switch cost (branch predictors,
    allocator free lists) before its timed window opens.
    """
    samples = {name: [] for name in fns}
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeat):
            for name, (setup, fn) in fns.items():
                setup()  # untimed: flips obs state for this variant
                fn()     # untimed: absorbs the variant-switch cost
                start = time.perf_counter()
                for _ in range(inner):
                    fn()
                samples[name].append((time.perf_counter() - start) / inner)
    finally:
        gc.enable()
    return samples


def _overhead_measurements(n_nodes: int, repeat: int, inner: int) -> dict:
    """Raw vs disabled vs enabled K-hop propagation (the E28 workload)."""
    graph, _ = contextual_sbm(
        n_nodes, n_classes=4, homophily=0.8, avg_degree=10,
        n_features=N_FEATURES, feature_signal=1.0, seed=1,
    )
    engine = PropagationEngine(cache=OperatorCache())
    # The exact (cached) operator the disabled propagate path multiplies
    # by — the raw loop must apply the *same* product or the ratio
    # measures operator disparity, not instrumentation.
    hop_op = engine.operator(graph, "gcn", dtype=engine.dtype)
    x = np.asarray(graph.x, dtype=engine.dtype)

    def raw():
        # What the disabled propagate path does, hand-inlined: no engine
        # entry, no validation, no OBS check. Retaining the whole stack
        # (not just the last hop) matters: propagate returns all K+1
        # arrays, and dropping intermediates would let the allocator
        # reuse warm pages the real path cannot.
        stack = [x]
        for _ in range(K_HOPS):
            stack.append(spmm(hop_op, stack[-1]))
        return stack

    def instrumented():
        # memoize=False: every call pays the full SpMM loop (no stack
        # cache), so the only delta vs raw() is entry validation plus the
        # observability guards.
        return engine.propagate(graph, graph.x, K_HOPS, memoize=False)

    previous = obs.configure(enabled=False, tracer=Tracer(max_roots=16))
    try:
        samples = _time_interleaved(
            {
                "raw": (lambda: obs.configure(enabled=False), raw),
                "disabled": (
                    lambda: obs.configure(enabled=False), instrumented
                ),
                "enabled": (
                    lambda: obs.configure(enabled=True), instrumented
                ),
            },
            repeat, inner,
        )
    finally:
        obs.configure(enabled=previous, tracer=Tracer())
    raw_s = min(samples["raw"])
    disabled_s = min(samples["disabled"])
    enabled_s = min(samples["enabled"])
    disabled_overhead = statistics.median(
        d / r for d, r in zip(samples["disabled"], samples["raw"])
    )
    enabled_overhead = statistics.median(
        e / r for e, r in zip(samples["enabled"], samples["raw"])
    )

    return {
        "n_nodes": n_nodes,
        "k_hops": K_HOPS,
        "repeat": repeat,
        "inner": inner,
        "raw_khop_s": raw_s,
        "disabled_khop_s": disabled_s,
        "enabled_khop_s": enabled_s,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled_overhead,
    }


_OBS_FILES = tracemalloc.Filter(True, os.path.join("*", "repro", "obs", "*"))


def _obs_footprint(enabled: bool, n_nodes: int = 600) -> dict:
    """What one ``propagate(memoize=False)`` leaves in ``repro.obs``.

    Counts the spans a fresh tracer retains, the series a fresh registry
    holds, and the bytes still allocated from ``repro/obs/`` source files
    afterwards (``tracemalloc`` attributes each allocation to the file
    that made it). With observability disabled all three are zero
    whatever the timing, so the gate needs no repetitions.
    """
    graph, _ = contextual_sbm(
        n_nodes, n_classes=4, homophily=0.8, avg_degree=10,
        n_features=N_FEATURES, feature_signal=1.0, seed=1,
    )
    engine = PropagationEngine(cache=OperatorCache())
    engine.operator(graph, "gcn")  # build outside the measured call
    tracer, registry = Tracer(max_roots=16), MetricsRegistry()
    previous = obs.configure(
        enabled=enabled, tracer=tracer, registry=registry,
        register_default_sources=False,
    )
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([_OBS_FILES])
        engine.propagate(graph, graph.x, K_HOPS, memoize=False)
        after = tracemalloc.take_snapshot().filter_traces([_OBS_FILES])
    finally:
        tracemalloc.stop()
        obs.configure(
            enabled=previous, tracer=Tracer(), registry=MetricsRegistry()
        )
    return {
        "spans": sum(1 for _ in tracer.spans()),
        "registry_series": sum(
            len(instrument.snapshot()) for instrument in registry.instruments()
        ),
        "obs_bytes": sum(
            max(stat.size_diff, 0) for stat in after.compare_to(before, "filename")
        ),
    }


def _footprint_free(footprint: dict) -> bool:
    return not any(footprint.values())


def _traced_end_to_end(n_nodes: int, epochs: int) -> dict:
    """One fully traced train + serve run; exports the trace artifact."""
    graph, split = contextual_sbm(
        n_nodes, n_classes=4, homophily=0.8, avg_degree=10,
        n_features=N_FEATURES, feature_signal=1.0, seed=2,
    )
    previous = obs.configure(
        enabled=True, tracer=Tracer(), registry=MetricsRegistry()
    )
    try:
        model = SGC(N_FEATURES, 4, k_hops=2, seed=0)
        pipeline = TrainingPipeline(model, epochs=epochs, seed=3)
        pipeline.run(graph, split)

        serving = ServingEngine(
            queue=BatchingQueue(max_batch=32, max_wait_s=10.0),
            store=EmbeddingStore(capacity=n_nodes),
        )
        serving.register("sgc", model, graph)
        rng = np.random.default_rng(4)
        requests = rng.integers(0, n_nodes, size=200)
        serving.predict_many(requests)
        serving.predict_many(requests)  # repeat traffic -> store hits

        tracer = obs.get_tracer()
        snapshot = obs.get_registry().snapshot()
        trace_json = tracer.export_json(indent=2)
        n_spans = sum(1 for _ in tracer.spans())
        result = {
            "trace_max_depth": tracer.max_depth(),
            "trace_n_spans": n_spans,
            "operator_cache_hit_rate": snapshot.get(
                "perf.operator_cache.hit_rate"
            ),
            "store_hit_rate": snapshot.get("serving.store.hit_rate"),
            "snapshot_size": len(snapshot),
        }
    finally:
        obs.configure(
            enabled=previous, tracer=Tracer(), registry=MetricsRegistry()
        )

    from _common import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / TRACE_ARTIFACT).write_text(trace_json, encoding="utf-8")
    return result


def _trace_depth(node: dict) -> int:
    children = node.get("children") or []
    return 1 + max((_trace_depth(child) for child in children), default=0)


def _cross_process_trace(n_nodes: int, epochs: int) -> dict:
    """A 2-worker telemetry run; exports the assembled cross-process trace.

    The distributed counterpart of :func:`_traced_end_to_end`: two
    spawned workers flush spans to per-rank logs and publish their
    registries through shm cells, and the coordinator stitches
    everything into one tree — ``distributed.run`` → ``worker.round`` →
    ``worker.spmm`` — persisted as a CI artifact.
    """
    import json

    from repro.distributed import ProcessBackend
    from repro.editing import ldg_partition

    graph, split = contextual_sbm(
        n_nodes, n_classes=3, homophily=0.8, avg_degree=8,
        n_features=16, feature_signal=1.2, seed=7,
    )
    part = ldg_partition(graph, 2, seed=1)
    result = ProcessBackend().run(
        graph, split, part.assignment, 2,
        epochs=epochs, hidden=8, seed=0, timeout_s=300.0, telemetry=True,
    )
    depth = _trace_depth(result.trace)
    names = set()

    def _collect(node):
        names.add(node["name"])
        for child in node.get("children") or []:
            _collect(child)

    _collect(result.trace)
    from _common import RESULTS_DIR

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / CROSS_TRACE_ARTIFACT).write_text(
        json.dumps(
            {
                "trace_id": result.trace_id,
                "depth": depth,
                "cluster_snapshot": result.cluster_snapshot,
                "trace": result.trace,
            },
            indent=2,
            default=float,
        )
        + "\n",
        encoding="utf-8",
    )
    return {
        "cross_trace_depth": depth,
        "cross_trace_spans": sorted(names),
        "ranks_seen": result.cluster_snapshot.get("ranks_seen"),
    }


def run(smoke: bool = False) -> dict:
    # The reported overhead stays ms-scale even in smoke mode (n=3000,
    # about a second in all): 15 interleaved rounds of 8 calls each.
    n_overhead, repeat, inner = 3000, 15, 8
    if smoke:
        n_e2e, epochs = 300, 3
    else:
        n_e2e, epochs = 1000, 10

    disabled = _obs_footprint(enabled=False)
    control = _obs_footprint(enabled=True)
    measured = _overhead_measurements(n_overhead, repeat, inner)
    traced = _traced_end_to_end(n_e2e, epochs)
    cross = _cross_process_trace(
        n_nodes=300 if smoke else 800, epochs=2 if smoke else 4
    )

    table = Table(
        "E30: observability overhead (K-hop propagation workload)",
        ["metric", "value"],
    )
    for label, footprint in (("obs off", disabled), ("obs on (control)", control)):
        table.add_row(
            f"footprint, {label}",
            f"{footprint['spans']} spans, {footprint['registry_series']} "
            f"series, {footprint['obs_bytes']} B in repro/obs",
        )
    table.add_row("n nodes / K", f"{measured['n_nodes']} / {K_HOPS}")
    table.add_row("raw kernel loop", format_seconds(measured["raw_khop_s"]))
    table.add_row("instrumented, obs off",
                  format_seconds(measured["disabled_khop_s"]))
    table.add_row("instrumented, obs on",
                  format_seconds(measured["enabled_khop_s"]))
    table.add_row("disabled overhead",
                  f"{(measured['disabled_overhead'] - 1) * 100:+.2f}%")
    table.add_row("enabled overhead",
                  f"{(measured['enabled_overhead'] - 1) * 100:+.2f}%")
    table.add_row("e2e trace depth", traced["trace_max_depth"])
    table.add_row("e2e trace spans", traced["trace_n_spans"])
    table.add_row("cross-process trace depth", cross["cross_trace_depth"])
    table.add_row("cross-process ranks seen", cross["ranks_seen"])
    table.add_row("operator cache hit rate",
                  f"{traced['operator_cache_hit_rate']:.2f}")
    table.add_row("embedding store hit rate",
                  f"{traced['store_hit_rate']:.2f}")
    emit(table, "E30_obs_overhead")

    payload = {
        "experiment": "E30_obs_overhead",
        "smoke": smoke,
        "footprint_disabled": disabled,
        "footprint_enabled_control": control,
        **measured,
        "end_to_end": traced,
        "cross_process": cross,
        "trace_artifact": TRACE_ARTIFACT,
        "cross_trace_artifact": CROSS_TRACE_ARTIFACT,
    }
    # prometheus=True is itself a gate: emit_json raises when the
    # exposition output fails lint_prometheus.
    emit_json("E30_obs_overhead", payload, metrics=True, prometheus=True)

    assert _footprint_free(disabled), (
        f"disabled-mode observability must leave no footprint, got {disabled}"
    )
    assert not _footprint_free(control), (
        f"the obs-enabled control must fail the footprint check, got {control}"
    )
    assert traced["trace_max_depth"] >= 3, (
        f"end-to-end trace must nest >= 3 levels, got "
        f"{traced['trace_max_depth']}"
    )
    assert traced["operator_cache_hit_rate"] is not None
    assert traced["store_hit_rate"] is not None and traced["store_hit_rate"] > 0
    assert cross["cross_trace_depth"] >= 3, (
        f"cross-process trace must span coordinator -> rank -> kernel "
        f"(>= 3 levels), got {cross['cross_trace_depth']}"
    )
    assert cross["ranks_seen"] == 2
    assert "worker.round" in cross["cross_trace_spans"]
    return payload


def test_obs_overhead(benchmark):
    run(smoke=True)

    # pytest-benchmark hook: one disabled-mode propagate call.
    graph, _ = contextual_sbm(
        600, n_classes=4, homophily=0.8, avg_degree=10,
        n_features=N_FEATURES, feature_signal=1.0, seed=1,
    )
    engine = PropagationEngine(cache=OperatorCache())
    engine.operator(graph, "gcn")
    previous = obs.configure(enabled=False)
    try:
        benchmark(
            engine.propagate, graph, graph.x, K_HOPS, memoize=False
        )
    finally:
        obs.configure(enabled=previous)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI (same assertions)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    overhead = (payload["disabled_overhead"] - 1) * 100
    print(
        f"E30 ok: disabled mode leaves no footprint (control: "
        f"{payload['footprint_enabled_control']}), disabled overhead "
        f"{overhead:+.2f}% (ungated), trace depth "
        f"{payload['end_to_end']['trace_max_depth']}, cross-process "
        f"trace depth {payload['cross_process']['cross_trace_depth']} "
        f"over {payload['cross_process']['ranks_seen']:.0f} ranks"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
