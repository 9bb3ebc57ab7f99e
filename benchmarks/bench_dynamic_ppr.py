"""E19 (§3.4.2 dynamic graphs): incremental PPR under edge streams.

Claims: (a) the forward-push invariant can be restored after an edge
insertion by an O(deg) local residual correction plus a small signed push
— so maintaining a PPR embedding over a stream costs orders of magnitude
less than recomputation; (b) the maintained estimate stays within the
static push error bound of the exact PPR at every point in the stream.

The recompute baseline is timed on every ``SAMPLE_EVERY``-th update of
the stream (an evenly spaced fixed sample; the other inserts are applied
untimed), and the two strategies are compared by their per-update means.
"""

import numpy as np
from _common import emit

from repro.analytics.ppr import ppr_forward_push, ppr_power_iteration
from repro.bench import Table, format_seconds
from repro.graph import barabasi_albert_graph
from repro.graph.dynamic import DynamicGraph, IncrementalPPR
from repro.utils import Timer

N_UPDATES = 200
SAMPLE_EVERY = 10
ALPHA = 0.2
EPS = 1e-6


def _random_new_edge(dyn, rng):
    while True:
        u = int(rng.integers(dyn.n_nodes))
        v = int(rng.integers(dyn.n_nodes))
        if u != v and not dyn.has_edge(u, v):
            return u, v


def test_incremental_vs_recompute(benchmark):
    base = barabasi_albert_graph(3000, 3, seed=0)
    rng = np.random.default_rng(1)
    edges = []
    probe = DynamicGraph.from_graph(base)
    for _ in range(N_UPDATES):
        e = _random_new_edge(probe, rng)
        probe.insert_edge(*e)
        edges.append(e)

    # Incremental maintenance.
    dyn = DynamicGraph.from_graph(base)
    inc = IncrementalPPR(dyn, 0, alpha=ALPHA, epsilon=EPS)
    t_inc = Timer()
    with t_inc:
        for u, v in edges:
            inc.insert_edge(u, v)

    # Full recompute, timed on every SAMPLE_EVERY-th update of the stream.
    dyn2 = DynamicGraph.from_graph(base)
    t_full = Timer()
    n_full = 0
    for i, (u, v) in enumerate(edges, start=1):
        if i % SAMPLE_EVERY:
            dyn2.insert_edge(u, v)
            continue
        with t_full:
            dyn2.insert_edge(u, v)
            ppr_forward_push(dyn2.snapshot(), 0, alpha=ALPHA, epsilon=EPS)
        n_full += 1
    inc_per_update = t_inc.elapsed / N_UPDATES
    full_per_update = t_full.elapsed / n_full

    exact = ppr_power_iteration(dyn.snapshot(), 0, alpha=ALPHA, tol=1e-12)
    err = float(np.abs(inc.estimate - exact).max())
    bound = EPS * dyn.snapshot().degrees().max()

    table = Table(
        f"E19: {N_UPDATES} edge insertions on BA n=3000 (single-source PPR)",
        ["strategy", "updates timed", "per update", "max err vs exact"],
    )
    table.add_row(
        "incremental (correction + local push)",
        N_UPDATES,
        format_seconds(inc_per_update),
        f"{err:.2e}",
    )
    table.add_row(
        f"full push recompute (every {SAMPLE_EVERY}th update)",
        n_full,
        format_seconds(full_per_update),
        "(same bound)",
    )
    table.add_row("speedup", "-", f"{full_per_update / inc_per_update:.0f}x", "-")
    emit(table, "E19_dynamic_ppr")

    dyn3 = DynamicGraph.from_graph(base)
    inc3 = IncrementalPPR(dyn3, 0, alpha=ALPHA, epsilon=EPS)
    benchmark(lambda: inc3.insert_edge(*_random_new_edge(dyn3, rng)))

    assert inc_per_update < 0.2 * full_per_update, "maintenance ≫ cheaper"
    assert err <= bound + 1e-9, "error stays within the push bound"
    assert inc.check_invariant(), "invariant is exact, not approximate"
