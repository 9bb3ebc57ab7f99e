"""Seeded inputs and sizes of the four macro-benchmark workloads.

The program under test receives only the arrays built here. Everything is
a function of ``(spec, seed)``: the graph, the split, the request ids, the
arrival times and the edges the writer inserts.

The generator is a degree-skewed planted partition in O(edges):
``datasets.contextual_sbm`` enumerates all node pairs (85.7 s at n=100k)
and cannot produce these sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    """Shape of one generated graph.

    ``feature_signal`` is low enough that an MLP on raw features scores far
    below a K-hop model (0.40 against 0.99 at 0.15), so the accuracy floors
    check propagation and not the features.
    """

    n_nodes: int
    avg_degree: int = 12
    n_features: int = 64
    n_classes: int = 8
    homophily: float = 0.8
    feature_signal: float = 0.15
    pareto_shape: float = 2.5
    n_train: int = 10_000
    n_eval: int = 2_500  # size of the validation and of the test split


@dataclass(frozen=True)
class Inputs:
    edges: np.ndarray  # (m, 2) int64, u < v, no duplicates
    x: np.ndarray  # (n, d) float64
    y: np.ndarray  # (n,) int64
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def generate_inputs(spec: GraphSpec, seed: int) -> Inputs:
    """Degree-skewed planted partition with class-mean Gaussian features.

    Endpoints are drawn in proportion to Pareto node weights; the second
    endpoint is drawn from the first one's class with probability
    ``homophily`` and from all nodes otherwise. Both draws are inverse-CDF
    lookups into one cumulative weight array laid out class by class.
    """
    rng = np.random.default_rng([seed, spec.n_nodes])
    n, c = spec.n_nodes, spec.n_classes
    y = rng.integers(0, c, n)
    weight = rng.pareto(spec.pareto_shape, n) + 1.0
    by_class = np.argsort(y, kind="stable")
    cum = np.concatenate([[0.0], np.cumsum(weight[by_class])])
    class_start = cum[np.searchsorted(y[by_class], np.arange(c + 1))]

    def draw(points: np.ndarray) -> np.ndarray:
        slot = np.searchsorted(cum, points, side="right") - 1
        return by_class[slot.clip(0, n - 1)]

    m = n * spec.avg_degree // 2
    src = draw(rng.random(m) * cum[-1])
    same = rng.random(m) < spec.homophily
    lo = np.where(same, class_start[y[src]], 0.0)
    hi = np.where(same, class_start[y[src] + 1], cum[-1])
    dst = draw(lo + rng.random(m) * (hi - lo))
    keep = src != dst
    key = np.unique(
        np.minimum(src, dst)[keep] * n + np.maximum(src, dst)[keep]
    )
    edges = np.stack([key // n, key % n], axis=1)

    x = rng.standard_normal((n, spec.n_features))
    x += spec.feature_signal * rng.standard_normal((c, spec.n_features))[y]
    perm = rng.permutation(n)
    a, b = spec.n_train, spec.n_train + spec.n_eval
    return Inputs(edges, x, y, perm[:a], perm[a:b], perm[b : b + spec.n_eval])


@dataclass(frozen=True)
class Traffic:
    """A seeded open-loop schedule: when each read is due and for which node."""

    due_s: np.ndarray
    node_ids: np.ndarray


def generate_traffic(
    n_nodes: int, rate: float, duration_s: float, zipf: float, seed: int
) -> Traffic:
    """Poisson arrivals; ids Zipf-ranked over a seeded permutation of nodes."""
    rng = np.random.default_rng([seed, 1])
    count = max(1, int(rate * duration_s))
    due = np.cumsum(rng.exponential(1.0 / rate, count))
    due = due[due < duration_s]
    rank_p = 1.0 / np.arange(1, n_nodes + 1) ** zipf
    ranks = rng.choice(n_nodes, size=len(due), p=rank_p / rank_p.sum())
    return Traffic(due, rng.permutation(n_nodes)[ranks])


def generate_new_edges(inputs: Inputs, count: int, seed: int) -> np.ndarray:
    """``count`` distinct node pairs that are not edges of the graph yet."""
    rng = np.random.default_rng([seed, 2])
    n = len(inputs.y)
    pairs = rng.integers(0, n, (4 * count + 16, 2))
    u, v = pairs.min(axis=1), pairs.max(axis=1)
    key = u * n + v
    existing = inputs.edges[:, 0] * n + inputs.edges[:, 1]
    fresh = (u != v) & ~np.isin(key, existing)
    _, first = np.unique(key[fresh], return_index=True)
    chosen = np.stack([u[fresh], v[fresh]], axis=1)[np.sort(first)][:count]
    if len(chosen) < count:
        raise ValueError("graph too dense to draw that many new edges")
    return chosen


@dataclass(frozen=True)
class Workload:
    """One scenario: a graph, how its model is trained, how it is served.

    Every workload runs the same chain of phases (train a first model,
    train a second one on the same graph, register, bulk reads, open-loop
    reads) so that every end-to-end metric exists on every workload; the
    sizes decide which layers do the work. Durations are shares of
    ``--seconds``.
    """

    name: str
    why: str
    graph: GraphSpec
    style: str  # "decoupled" | "sampled": how the first model is trained
    k_hops: int
    setup_repeats: int = 5  # input builds per run; setup_s is their median
    epochs: int = 3
    second_epochs: int = 3
    train_cycles: int = 4  # train cycles per run; the fastest is reported
    hidden: int = 128
    batch_size: int = 256
    fanouts: tuple[int, ...] = (10, 10)
    bulk_requests: int = 100_000
    read_rate: float = 2000.0
    read_share: float = 0.3  # open-loop duration / --seconds
    store_share: float = 0.03  # EmbeddingStore capacity / n_nodes
    zipf: float = 0.8  # with the store at 0.03 n this gives a hit ratio near 0.3
    latency_limit_ms: float = 4.0  # twice the batching max-wait; p99 of an unloaded read is 3.5 ms
    router_share: float = 0.0  # closed-loop ShardRouter duration / --seconds
    write_interval_s: float = 0.0  # 0: no writer
    replay_updates: int = 0  # traced pass: inserts replayed stage by stage
    accuracy_floors: tuple[float, float] = (0.0, 0.0)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="decoupled",
            why="large graph, precompute-once training: operator build and "
            "K SpMM hops dominate, a second model reuses the hop stack, "
            "sampling does nothing",
            graph=GraphSpec(n_nodes=300_000, n_train=60_000, n_eval=15_000),
            style="decoupled",
            k_hops=4,
            setup_repeats=3,
            # The K hops are memory-bound and this host slows them by up to
            # 1.45 for minutes at a time; at 3 epochs they were 0.75 of the
            # first call and its wall did not repeat (2.0 to 3.1 s). At 16
            # they are a third of it.
            epochs=16,
            train_cycles=3,
            accuracy_floors=(0.97, 0.95),
        ),
        Workload(
            name="sampled",
            why="neighbour-sampled GraphSAGE on the same generator: sample, "
            "compact, fetch, forward and backward dominate, propagation "
            "is idle until the second, decoupled model",
            graph=GraphSpec(n_nodes=100_000, n_train=16_000, n_eval=4_000),
            style="sampled",
            k_hops=2,
            epochs=1,
            second_epochs=10,  # as on `decoupled`: keeps the hops under half
            accuracy_floors=(0.97, 0.95),
        ),
        Workload(
            name="serve_read",
            why="read-only serving at 4000 req/s with a store sized for a "
            "0.3 hit ratio, then sharded routing: batching, store, engine, "
            "runtime and router work, training is brief",
            graph=GraphSpec(n_nodes=50_000),
            style="decoupled",
            k_hops=3,
            train_cycles=8,
            read_rate=4000.0,
            read_share=0.5,
            router_share=0.2,
            accuracy_floors=(0.97, 0.95),
        ),
        Workload(
            name="serve_update",
            why="the same read stream beside one edge insert every 2 s: "
            "reads wait on the writer lock, so snapshot, operator rebuild, "
            "stack patching and invalidation show in read goodput",
            graph=GraphSpec(n_nodes=50_000),
            style="decoupled",
            k_hops=3,
            train_cycles=8,
            read_rate=4000.0,
            read_share=1.25,
            write_interval_s=2.0,
            replay_updates=20,
            accuracy_floors=(0.97, 0.95),
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The same scenario at sizes a test can run in seconds."""
    graph = replace(
        workload.graph, n_nodes=4_000, n_train=800, n_eval=400
    )
    return replace(
        workload,
        graph=graph,
        setup_repeats=1,
        train_cycles=1,
        bulk_requests=2_000,
        read_rate=500.0,
        replay_updates=min(workload.replay_updates, 3),
        accuracy_floors=(0.5, 0.5),
    )
