"""E12 (§3.1.2 / §3.4.3): partitioners cut communication, not just edges.

Claims: (a) streaming (LDG/Fennel) and multilevel partitioners beat random
assignment on edge cut by a wide margin at comparable balance; (b) in
partition-parallel training (the in-process ``"simulated"`` backend, which
runs the process backend's halo-shard rounds) the halo communication
volume tracks the cut directly; (c) Cluster-GCN batches built from a good partition train to
full-graph-level accuracy.
"""

import numpy as np
from _common import emit

from repro.bench import Table, format_bytes
from repro.datasets import contextual_sbm
from repro.editing.partition import (
    cluster_batches,
    fennel_partition,
    ldg_partition,
    multilevel_partition,
    random_partition,
)
from repro.models import GCN
from repro.distributed import get_backend
from repro.training import train_subgraph

K = 4


def test_partition_quality_and_communication(benchmark):
    graph, split = contextual_sbm(
        1200, n_classes=4, homophily=0.9, avg_degree=12, n_features=16,
        feature_signal=1.0, seed=0,
    )
    table = Table(
        "E12: partitioners on cSBM n=1200, k=4",
        ["partitioner", "edge cut", "balance", "halo KiB/epoch", "dist. test acc"],
    )
    cuts = {}
    for name, fn in (
        ("random", random_partition),
        ("LDG", ldg_partition),
        ("Fennel", fennel_partition),
        ("multilevel", multilevel_partition),
    ):
        part = fn(graph, K, seed=0)
        dist = get_backend("simulated").run(
            graph, split, part.assignment, K, epochs=40, seed=0
        )
        cuts[name] = (part, dist)
        table.add_row(
            name, part.edge_cut, f"{part.balance:.2f}",
            format_bytes(8 * dist.halo_floats_per_epoch),
            f"{dist.test_accuracy:.3f}",
        )
    emit(table, "E12_partitioning")

    # Cluster-GCN accuracy from the best partition.
    best = min(cuts.values(), key=lambda pd: pd[0].edge_cut)[0]

    def batch_fn(rng):
        return cluster_batches(best.assignment, K, 2, seed=rng)[0]

    model = GCN(16, 32, 4, seed=0)
    cg = train_subgraph(model, graph, split, batch_fn, epochs=40, seed=0)

    table2 = Table(
        "E12b: Cluster-GCN on the best partition",
        ["training", "test acc"],
    )
    base_model = GCN(16, 32, 4, seed=0)
    from repro.training import train_full_batch

    base = train_full_batch(base_model, graph, split, epochs=60)
    table2.add_row("full-batch GCN", f"{base.test_accuracy:.3f}")
    table2.add_row("Cluster-GCN batches", f"{cg.test_accuracy:.3f}")
    emit(table2, "E12b_clustergcn")

    benchmark(ldg_partition, graph, K, 0)

    rand_cut = cuts["random"][0].edge_cut
    for name in ("LDG", "Fennel", "multilevel"):
        assert cuts[name][0].edge_cut < 0.7 * rand_cut, f"{name} must beat random"
        assert cuts[name][0].balance < 1.3
        assert (
            cuts[name][1].halo_floats_per_epoch
            < cuts["random"][1].halo_floats_per_epoch
        )
    assert cg.test_accuracy > base.test_accuracy - 0.07
