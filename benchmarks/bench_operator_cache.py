"""E28 (repro.perf): operator caching and shared propagation pay off.

Claims measured here:

1. Warm :class:`repro.perf.OperatorCache` lookups are orders of magnitude
   faster than cold operator construction (>= 10x is the acceptance bar).
2. K-hop propagation through :func:`repro.perf.spmm` (scipy's product
   under the ``propagation.hop`` fault site) is bitwise the plain
   ``operator @ h`` loop and costs no more.
3. A second model asking for the same hop stack pays (near-)zero cost.

Alongside the usual text table, a machine-readable JSON summary is written
to ``benchmarks/results/E28_operator_cache.json`` so CI can track the
cache path for regressions.
"""

import time

import numpy as np
from _common import emit, emit_json

from repro.bench import Table, format_seconds
from repro.datasets import contextual_sbm
from repro.perf import OperatorCache, PropagationEngine, spmm

K_HOPS = 3
SIZES = (1000, 4000, 12000)


def _time(fn, repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_operator_cache_and_propagation(benchmark):
    table = Table(
        "E28: operator cache + shared propagation",
        ["n nodes", "cold build", "warm lookup", "speedup",
         "monolithic K-hop", "spmm K-hop", "stack reuse", "max |diff|"],
    )
    records = []
    for n in SIZES:
        graph, _ = contextual_sbm(
            n, n_classes=4, homophily=0.8, avg_degree=10, n_features=32,
            feature_signal=1.0, seed=1,
        )
        cache = OperatorCache()
        cold = _time(lambda: OperatorCache().propagation(graph, scheme="gcn"),
                     repeat=3)
        cache.propagation(graph, scheme="gcn")
        warm = _time(lambda: cache.propagation(graph, scheme="gcn"), repeat=5)
        speedup = cold / max(warm, 1e-9)

        operator = cache.propagation(graph, scheme="gcn")

        def monolithic():
            h = graph.x
            for _ in range(K_HOPS):
                h = operator @ h
            return h

        def through_spmm():
            h = graph.x
            for _ in range(K_HOPS):
                h = spmm(operator, h)
            return h

        mono_s = _time(monolithic)
        spmm_s = _time(through_spmm)
        max_diff = float(np.max(np.abs(monolithic() - through_spmm())))

        engine = PropagationEngine(cache=cache)
        engine.propagate(graph, graph.x, K_HOPS, kind="gcn")
        reuse_s = _time(
            lambda: engine.propagate(graph, graph.x, K_HOPS, kind="gcn"), repeat=5
        )

        table.add_row(
            n, format_seconds(cold), format_seconds(warm), f"{speedup:.0f}x",
            format_seconds(mono_s), format_seconds(spmm_s),
            format_seconds(reuse_s), f"{max_diff:.2e}",
        )
        records.append({
            "n_nodes": n,
            "k_hops": K_HOPS,
            "cold_build_s": cold,
            "warm_lookup_s": warm,
            "warm_speedup": speedup,
            "monolithic_khop_s": mono_s,
            "spmm_khop_s": spmm_s,
            "stack_reuse_s": reuse_s,
            "max_abs_diff": max_diff,
        })

    emit(table, "E28_operator_cache")
    payload = {"experiment": "E28_operator_cache", "records": records}
    emit_json("E28_operator_cache", payload, metrics=True)

    graph, _ = contextual_sbm(
        2000, n_classes=4, homophily=0.8, avg_degree=10, n_features=32,
        feature_signal=1.0, seed=1,
    )
    cache = OperatorCache()
    cache.propagation(graph, scheme="gcn")
    benchmark(cache.propagation, graph, scheme="gcn")

    for rec in records:
        assert rec["warm_speedup"] >= 10.0, (
            f"warm lookup must be >= 10x faster than cold build, got "
            f"{rec['warm_speedup']:.1f}x at n={rec['n_nodes']}"
        )
        assert rec["max_abs_diff"] == 0.0, "spmm must be bitwise monolithic"
        assert rec["stack_reuse_s"] < rec["spmm_khop_s"], (
            "serving a memoized stack must beat recomputing it"
        )
