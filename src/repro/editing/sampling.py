"""Graph sampling (§3.1.2, §3.3.2): node-, layer-, and subgraph-level.

The three sampling scopes the tutorial categorises (after [32]):

* **Node-level** — :class:`NeighborSampler` (GraphSAGE-style fan-outs) and
  :class:`LaborSampler` (LABOR [2]: Poisson sampling with per-source random
  variates shared across destinations, cutting the number of distinct
  sampled nodes while staying unbiased).
* **Layer-level** — :class:`LayerSampler` (FastGCN-style degree-importance
  sampling with inverse-probability reweighting).
* **Subgraph-level** — :func:`node_subgraph_sample`,
  :func:`edge_subgraph_sample`, :func:`random_walk_subgraph_sample`
  (GraphSAINT's three samplers), used directly by subgraph trainers.

:class:`HistoryCache` implements the historical-embedding variance reduction
of HDSGNN/LMC [21, 42]: stale cached values stand in for unsampled
neighbours. :func:`estimate_aggregation_variance` measures estimator
variance empirically — the quantity benchmark E10 sweeps.

Mini-batch blocks
-----------------
Samplers that feed layered models produce :class:`Block` objects: a
``(n_dst, n_src)`` sparse aggregation operator between consecutive layers,
with ``dst_ids`` always a prefix of ``src_ids`` so models can slice
self-features cheaply. Blocks are returned input-layer first.

Internally every block sampler follows the GraphBolt-style two-step
contract the streaming datapipe (:mod:`repro.training.datapipe`) chains
per hop: :meth:`BlockSampler.sample_layer` draws one layer as a
``(len(dst), n_nodes)`` CSR row block over global column ids (no dedup;
the type of the exact rows ``adj[dst]``, which
:meth:`repro.models.GraphSAGE.frontiers` compacts the same way), and
:func:`compact_layer` dedups the referenced sources into a
:class:`Block` whose ``src_ids`` seed the next layer. ``sample()`` is the
convenience loop over both. Zero-degree destinations are never dropped:
they keep a self-connection of weight 1.0, so isolated nodes retain
their own features instead of aggregating to zero.

Both steps are array-at-a-time over the graph's CSR arrays, with no Python
work per destination or per arc (a prefetch thread cannot get ahead of a
GIL-bound producer). The node-wise samplers gather whole CSR slices
through one ``repeat``/``arange`` index; :class:`NeighborSampler` draws
the ``fanout``-subsets of all high-degree rows together (Floyd's algorithm
looped over ``fanout``, not over nodes); :func:`compact_layer` dedups
without sorting and keeps each row's stored (drawn) order. The
per-element loops they replaced are the oracles in
``tests/reference_samplers.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, GraphError
from repro.graph.core import Graph
from repro.graph.traversal import append_new, neighbors_of, segment_arange
from repro.utils.rng import as_rng
from repro.utils.validation import check_int_range, check_node_ids

__all__ = [
    "Block",
    "BlockSampler",
    "compact_layer",
    "NeighborSampler",
    "LaborSampler",
    "LayerSampler",
    "HistoryCache",
    "aggregate_with_cache",
    "node_subgraph_sample",
    "edge_subgraph_sample",
    "random_walk_subgraph_sample",
    "sample_neighbor_estimate",
    "estimate_aggregation_variance",
    "aggregation_difference",
    "greedy_aggregation_sample",
]


@dataclass(frozen=True)
class Block:
    """One bipartite message-passing layer of a sampled mini-batch.

    Attributes
    ----------
    src_ids:
        Global ids of input nodes; ``dst_ids`` is always its prefix.
    dst_ids:
        Global ids of output nodes.
    matrix:
        ``(len(dst_ids), len(src_ids))`` sparse operator estimating the
        full-neighbourhood mean aggregation.
    """

    src_ids: np.ndarray
    dst_ids: np.ndarray
    matrix: sp.csr_matrix

    @property
    def n_src(self) -> int:
        return len(self.src_ids)

    @property
    def n_dst(self) -> int:
        return len(self.dst_ids)


def compact_layer(dst_ids: np.ndarray, layer: sp.csr_matrix) -> Block:
    """Dedup a raw layer's sources into a :class:`Block`.

    ``layer`` is a CSR row block over global column ids, one row per dst
    (a :meth:`~BlockSampler.sample_layer`, or exact rows ``adj[dst_ids]``).
    ``src_ids`` is ``dst_ids`` (prefix) plus every newly referenced global
    id in first-appearance order (:func:`~repro.graph.traversal.append_new`);
    columns become local indices, each row keeping its stored order. The
    cross-hop dedup step: feeding ``block.src_ids`` to the next layer's
    sampler means a node referenced by many destinations is sampled (and
    its features fetched) once.
    """
    dst_ids = np.asarray(dst_ids, dtype=np.int64)
    src_ids, local = append_new(dst_ids, layer.indices)
    matrix = sp.csr_matrix(
        (layer.data, local, layer.indptr), shape=(len(dst_ids), len(src_ids))
    )
    return Block(src_ids, dst_ids, matrix)


def _emit_layer(
    dst: np.ndarray,
    isolated: np.ndarray,
    n_out: np.ndarray,
    neighbours: np.ndarray,
    weight: np.ndarray,
    n_nodes: int,
) -> sp.csr_matrix:
    """Row ``i`` holds ``n_out[i]`` arcs of ``weight[i]`` each.

    ``neighbours`` fills the connected rows in order; an isolated one
    (``n_out`` 1, ``weight`` 1.0) keeps its own id as the only source.
    """
    cols = np.repeat(dst, n_out)
    cols[np.repeat(~isolated, n_out)] = neighbours
    indptr = np.concatenate([[0], np.cumsum(n_out)])
    return sp.csr_matrix(
        (np.repeat(weight, n_out), cols, indptr), shape=(len(dst), n_nodes)
    )


def _draw_subsets(rng: np.random.Generator, sizes: np.ndarray, k: int) -> np.ndarray:
    """``k`` distinct offsets in ``[0, sizes[i])`` for every row ``i`` at once.

    Floyd's subset algorithm, looped over ``k`` rather than over rows:
    round ``j`` draws ``t`` uniform on ``[0, size - k + j]`` and takes it,
    or the round's upper end when ``t`` was taken before. Every
    ``k``-subset is equally likely (exactly uniform without replacement).
    """
    picks = np.empty((len(sizes), k), dtype=np.int64)
    for j in range(k):
        top = sizes - k + j
        t = rng.integers(0, top + 1)
        taken = (picks[:, :j] == t[:, None]).any(axis=1)
        picks[:, j] = np.where(taken, top, t)
    return picks


class BlockSampler:
    """Base of the block samplers: the shared sample→compact layer loop.

    Subclasses implement :meth:`sample_layer` (one layer's CSR row block
    over global column ids) and expose ``n_layers``; :meth:`sample`
    interleaves sampling with :func:`compact_layer` — layer ``k+1``'s
    destinations are layer ``k``'s deduped sources. ``layer`` indexes
    *sampling order*: 0 is the output (seed-facing) layer, ``n_layers - 1``
    the input layer. The streaming datapipe chains the same two primitives
    as separate stages, so the direct ``sample()`` path and the datapipe
    path are bit-identical given the same RNG stream.
    """

    graph: Graph
    n_layers: int

    def sample_layer(self, dst: np.ndarray, layer: int) -> sp.csr_matrix:
        raise NotImplementedError

    def sample(self, seeds: np.ndarray) -> list[Block]:
        dst = check_node_ids(seeds, self.graph.n_nodes)
        blocks: list[Block] = []
        for layer in range(self.n_layers):
            raw = self.sample_layer(dst, layer)
            blocks.append(compact_layer(dst, raw))
            dst = blocks[-1].src_ids
        blocks.reverse()
        return blocks


class NeighborSampler(BlockSampler):
    """GraphSAGE-style node-wise neighbour sampling.

    For every destination node and layer, draw ``fanout`` neighbours
    uniformly without replacement (all of them when degree <= fanout) and
    average. A zero-degree destination keeps a self-connection of weight
    1.0 — isolated nodes carry their own features through every layer
    instead of silently aggregating to zero. ``sample(seeds)`` returns
    blocks input-layer first, so a model applies ``blocks[0]`` before
    ``blocks[1]``.
    """

    def __init__(self, graph: Graph, fanouts: list[int], seed=None) -> None:
        if not fanouts:
            raise ConfigError("fanouts must be non-empty")
        for f in fanouts:
            check_int_range("fanout", f, 1)
        self.graph = graph
        self.fanouts = list(fanouts)
        self._rng = as_rng(seed)

    @property
    def n_layers(self) -> int:
        return len(self.fanouts)

    def sample_layer(self, dst: np.ndarray, layer: int) -> sp.csr_matrix:
        fanout = self.fanouts[-1 - layer]
        dst = check_node_ids(dst, self.graph.n_nodes)
        start = self.graph.indptr[dst]
        deg = self.graph.indptr[dst + 1] - start
        take = np.minimum(deg, fanout)
        offset = segment_arange(take)  # the whole slice when deg <= fanout
        big = np.flatnonzero(deg > fanout)
        slots = (np.cumsum(take) - take)[big, None] + np.arange(fanout)
        offset[slots] = _draw_subsets(self._rng, deg[big], fanout)
        neighbours = self.graph.indices[np.repeat(start, take) + offset]
        n_out = np.maximum(take, 1)
        return _emit_layer(
            dst, deg == 0, n_out, neighbours, 1.0 / n_out, self.graph.n_nodes
        )


class LaborSampler(BlockSampler):
    """LABOR-style layer-neighbour sampling (Poisson, coupled variates).

    Each candidate source node ``v`` draws one uniform variate ``r_v``
    *shared by every destination in the batch*; destination ``u`` includes
    ``v`` iff ``r_v <= c_u`` with ``c_u = fanout / deg(u)``. Inclusion
    probabilities match independent sampling, so the inverse-probability
    estimator is unbiased — but sharing ``r_v`` makes the sampled source
    sets of different destinations overlap maximally, shrinking the block
    (fewer distinct nodes ⇒ less feature loading), which is LABOR's
    defusing of neighbourhood explosion.

    Variates are drawn **lazily** for the candidate sources of the current
    destination set only — O(Σ deg(dst)) work per layer, not O(n_nodes) —
    while the coupling is preserved exactly: within a layer every
    destination sees the same variate for a shared source. Zero-degree
    destinations keep a self-connection of weight 1.0.
    """

    def __init__(self, graph: Graph, fanouts: list[int], seed=None) -> None:
        if not fanouts:
            raise ConfigError("fanouts must be non-empty")
        for f in fanouts:
            check_int_range("fanout", f, 1)
        self.graph = graph
        self.fanouts = list(fanouts)
        self._rng = as_rng(seed)

    @property
    def n_layers(self) -> int:
        return len(self.fanouts)

    def sample_layer(self, dst: np.ndarray, layer: int) -> sp.csr_matrix:
        fanout = self.fanouts[-1 - layer]
        dst = check_node_ids(dst, self.graph.n_nodes)
        deg = self.graph.indptr[dst + 1] - self.graph.indptr[dst]
        connected = deg > 0
        row = np.repeat(np.arange(len(dst)), deg)
        neigh = neighbors_of(self.graph.indptr, self.graph.indices, dst)
        # One shared variate per distinct candidate source in this layer.
        candidates, which = np.unique(neigh, return_inverse=True)
        r = self._rng.random(len(candidates))[which]
        c = np.minimum(1.0, fanout / np.maximum(deg, 1))
        keep = r <= c[row]
        kept = np.bincount(row[keep], minlength=len(dst))
        starved = connected & (kept == 0)
        if starved.any():
            # Guarantee progress: keep the neighbour with the smallest
            # variate (probability-1/deg event each), the first on a tie.
            seg = (np.cumsum(deg) - deg)[connected]
            lowest = np.repeat(np.minimum.reduceat(r, seg), deg[connected])
            at = np.where(r == lowest, np.arange(len(r)), len(r))
            keep[np.minimum.reduceat(at, seg)[starved[connected]]] = True
            kept[starved] = 1
        n_out = np.where(connected, kept, 1)
        weight = 1.0 / (np.maximum(deg, 1) * c)
        return _emit_layer(
            dst, ~connected, n_out, neigh[keep], weight, self.graph.n_nodes
        )


class LayerSampler(BlockSampler):
    """FastGCN-style layer-wise importance sampling.

    Per layer, ``n_per_layer`` nodes are drawn (with replacement) with
    probability proportional to degree; the block entry for destination
    ``u`` and sampled source ``v`` is :math:`\\hat A_{uv} / (m\\, q_v)`
    (multiplicity-weighted), an unbiased estimator of the full propagation
    :math:`(\\hat A X)_u` whose cost per layer is *independent of degree*.
    """

    def __init__(self, graph: Graph, n_layers: int, n_per_layer: int, seed=None) -> None:
        check_int_range("n_layers", n_layers, 1)
        check_int_range("n_per_layer", n_per_layer, 1)
        self.graph = graph
        self.n_layers = n_layers
        self.n_per_layer = n_per_layer
        self._rng = as_rng(seed)
        from repro.graph.ops import normalized_adjacency

        self._ahat = normalized_adjacency(graph, kind="sym", self_loops=True)
        deg = graph.degrees() + 1.0
        self._q = deg / deg.sum()

    def sample_layer(self, dst: np.ndarray, layer: int) -> sp.csr_matrix:
        m = self.n_per_layer
        dst = check_node_ids(dst, self.graph.n_nodes)
        sampled = self._rng.choice(self.graph.n_nodes, size=m, p=self._q)
        uniq, counts = np.unique(sampled, return_counts=True)
        sub = self._ahat[dst][:, uniq]
        scale = counts / (m * self._q[uniq])
        return sp.csr_matrix(
            (sub.data * scale[sub.indices], uniq[sub.indices], sub.indptr),
            shape=(len(dst), self.graph.n_nodes),
        )


# --------------------------------------------------------------------- #
# Subgraph-level samplers (GraphSAINT family)
# --------------------------------------------------------------------- #


def node_subgraph_sample(
    graph: Graph, budget: int, seed=None, prob: np.ndarray | None = None
) -> tuple[np.ndarray, Graph]:
    """Induced subgraph on ``budget`` nodes sampled w.p. ∝ ``prob`` (degree
    by default, GraphSAINT-Node). Returns (sorted global node ids, subgraph)."""
    check_int_range("budget", budget, 1)
    rng = as_rng(seed)
    if prob is None:
        prob = graph.degrees() + 1.0
    prob = np.asarray(prob, dtype=np.float64)
    if prob.shape != (graph.n_nodes,):
        raise GraphError("prob must have one entry per node")
    prob = prob / prob.sum()
    budget = min(budget, graph.n_nodes)
    nodes = rng.choice(graph.n_nodes, size=budget, replace=False, p=prob)
    nodes = np.sort(nodes)
    return nodes, graph.subgraph(nodes)


def edge_subgraph_sample(
    graph: Graph, budget: int, seed=None
) -> tuple[np.ndarray, Graph]:
    """GraphSAINT-Edge: sample edges w.p. ∝ 1/d_u + 1/d_v, induce endpoints."""
    check_int_range("budget", budget, 1)
    rng = as_rng(seed)
    edges = graph.edge_array()
    mask = edges[:, 0] < edges[:, 1]
    edges = edges[mask]
    if not len(edges):
        raise GraphError("graph has no edges to sample")
    deg = np.maximum(graph.degrees(), 1.0)
    imp = 1.0 / deg[edges[:, 0]] + 1.0 / deg[edges[:, 1]]
    probs = imp / imp.sum()
    chosen = rng.choice(len(edges), size=min(budget, len(edges)), replace=False,
                        p=probs)
    nodes = np.unique(edges[chosen])
    return nodes, graph.subgraph(nodes)


def random_walk_subgraph_sample(
    graph: Graph, n_roots: int, walk_length: int, seed=None
) -> tuple[np.ndarray, Graph]:
    """GraphSAINT-RW: union of ``n_roots`` random walks of ``walk_length``."""
    check_int_range("n_roots", n_roots, 1)
    check_int_range("walk_length", walk_length, 1)
    rng = as_rng(seed)
    position = rng.integers(0, graph.n_nodes, size=n_roots)
    visited = [position.copy()]
    for _ in range(walk_length):
        # All walkers step together; one on a zero-degree node stays put.
        start = graph.indptr[position]
        deg = graph.indptr[position + 1] - start
        moving = deg > 0
        hop = rng.integers(0, deg[moving])
        position[moving] = graph.indices[start[moving] + hop]
        visited.append(position.copy())
    nodes = np.unique(np.concatenate(visited))
    return nodes, graph.subgraph(nodes)


# --------------------------------------------------------------------- #
# Historical-embedding cache (HDSGNN / LMC-style variance reduction)
# --------------------------------------------------------------------- #


class HistoryCache:
    """Per-node cache of (possibly stale) embeddings.

    Samplers combine freshly computed values for sampled neighbours with
    cached values for the rest; staleness injects bias but removes the
    sampling variance of the unsampled portion.
    """

    def __init__(self, n_nodes: int, dim: int) -> None:
        check_int_range("n_nodes", n_nodes, 1)
        check_int_range("dim", dim, 1)
        self.values = np.zeros((n_nodes, dim))
        self.filled = np.zeros(n_nodes, dtype=bool)

    def update(self, ids: np.ndarray, values: np.ndarray) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        self.values[ids] = values
        self.filled[ids] = True

    def get(self, ids: np.ndarray) -> np.ndarray:
        return self.values[np.asarray(ids, dtype=np.int64)]

    @property
    def fill_fraction(self) -> float:
        return float(self.filled.mean())


def aggregate_with_cache(
    graph: Graph,
    node: int,
    features: np.ndarray,
    cache: HistoryCache,
    n_fresh: int,
    seed=None,
) -> np.ndarray:
    """Mean-aggregate for ``node``: fresh features for ``n_fresh`` sampled
    neighbours + cached values for the rest (LMC-style compensation).

    Falls back to the plain sampled estimate for neighbours never cached.
    """
    rng = as_rng(seed)
    neigh = graph.neighbors(node)
    if len(neigh) == 0:
        raise GraphError(f"node {node} has no neighbours")
    k = min(n_fresh, len(neigh))
    fresh_idx = rng.choice(len(neigh), size=k, replace=False)
    fresh_mask = np.zeros(len(neigh), dtype=bool)
    fresh_mask[fresh_idx] = True
    fresh_nodes = neigh[fresh_mask]
    stale_nodes = neigh[~fresh_mask]
    acc = features[fresh_nodes].sum(axis=0)
    if len(stale_nodes):
        cached_mask = cache.filled[stale_nodes]
        acc = acc + cache.get(stale_nodes[cached_mask]).sum(axis=0)
        uncached = stale_nodes[~cached_mask]
        if len(uncached):
            # No history: fall back to extrapolating the fresh sample mean.
            acc = acc + len(uncached) * features[fresh_nodes].mean(axis=0)
    cache.update(fresh_nodes, features[fresh_nodes])
    return acc / len(neigh)


# --------------------------------------------------------------------- #
# Estimator variance measurement
# --------------------------------------------------------------------- #

_ESTIMATORS = ("uniform", "uniform_replace", "labor", "importance")


def sample_neighbor_estimate(
    graph: Graph,
    node: int,
    features: np.ndarray,
    k: int,
    method: str = "uniform",
    seed=None,
) -> np.ndarray:
    """One stochastic estimate of ``mean_{v in N(u)} x_v`` with budget ``k``.

    Methods: ``uniform`` (without replacement), ``uniform_replace``,
    ``labor`` (Poisson with inverse-probability weights), ``importance``
    (degree-proportional with replacement, IW-corrected).
    """
    if method not in _ESTIMATORS:
        raise ConfigError(f"method must be one of {_ESTIMATORS}, got {method!r}")
    check_int_range("k", k, 1)
    rng = as_rng(seed)
    neigh = graph.neighbors(node)
    deg = len(neigh)
    if deg == 0:
        raise GraphError(f"node {node} has no neighbours")
    if method == "uniform":
        kk = min(k, deg)
        chosen = rng.choice(neigh, size=kk, replace=False)
        return features[chosen].mean(axis=0)
    if method == "uniform_replace":
        chosen = rng.choice(neigh, size=k, replace=True)
        return features[chosen].mean(axis=0)
    if method == "labor":
        c = min(1.0, k / deg)
        variates = rng.random(deg)
        included = neigh[variates <= c]
        if len(included) == 0:
            included = neigh[[int(np.argmin(variates))]]
        return features[included].sum(axis=0) / (deg * c)
    # importance: q_v ∝ deg(v) among neighbours, with replacement.
    neighbor_deg = np.maximum(graph.degrees()[neigh], 1.0)
    q = neighbor_deg / neighbor_deg.sum()
    idx = rng.choice(deg, size=k, replace=True, p=q)
    weights = 1.0 / (deg * k * q[idx])
    return (features[neigh[idx]] * weights[:, None]).sum(axis=0)


def aggregation_difference(
    graph: Graph, node: int, features: np.ndarray, chosen: np.ndarray
) -> float:
    """ADGNN's objective: ||mean over chosen − mean over all neighbours||.

    The quantity ADGNN [43] bounds when deciding which neighbours a
    distributed worker may skip fetching.
    """
    neigh = graph.neighbors(node)
    if len(neigh) == 0:
        raise GraphError(f"node {node} has no neighbours")
    chosen = np.asarray(chosen, dtype=np.int64)
    if len(chosen) == 0:
        raise ConfigError("chosen neighbour set must be non-empty")
    exact = features[neigh].mean(axis=0)
    approx = features[chosen].mean(axis=0)
    return float(np.linalg.norm(exact - approx))


def greedy_aggregation_sample(
    graph: Graph, node: int, features: np.ndarray, k: int
) -> np.ndarray:
    """ADGNN-style deterministic neighbour selection.

    Greedily grows the sampled set, at each step adding the neighbour that
    most reduces the aggregation difference — so at equal budget the
    retained set approximates the full aggregate far better than a random
    draw (and the skipped neighbours are exactly the redundant ones whose
    features the mean already covers).
    """
    check_int_range("k", k, 1)
    neigh = graph.neighbors(node)
    deg = len(neigh)
    if deg == 0:
        raise GraphError(f"node {node} has no neighbours")
    k = min(k, deg)
    exact = features[neigh].mean(axis=0)
    chosen: list[int] = []
    acc = np.zeros_like(exact)
    remaining = list(range(deg))
    for step in range(k):
        best_idx = None
        best_err = np.inf
        for idx in remaining:
            cand = (acc + features[neigh[idx]]) / (step + 1)
            err = float(np.linalg.norm(exact - cand))
            if err < best_err:
                best_err = err
                best_idx = idx
        chosen.append(int(neigh[best_idx]))
        acc += features[neigh[best_idx]]
        remaining.remove(best_idx)
    return np.asarray(chosen, dtype=np.int64)


def estimate_aggregation_variance(
    graph: Graph,
    node: int,
    features: np.ndarray,
    k: int,
    method: str,
    n_trials: int = 200,
    seed=None,
) -> tuple[float, float]:
    """Empirical (variance, bias²) of a neighbour-mean estimator.

    Returns the trace of the covariance of the estimates and the squared
    bias against the exact neighbourhood mean — benchmark E10's quantities.
    """
    check_int_range("n_trials", n_trials, 2)
    rng = as_rng(seed)
    neigh = graph.neighbors(node)
    if len(neigh) == 0:
        raise GraphError(f"node {node} has no neighbours")
    exact = features[neigh].mean(axis=0)
    estimates = np.stack(
        [
            sample_neighbor_estimate(graph, node, features, k, method, seed=rng)
            for _ in range(n_trials)
        ]
    )
    variance = float(estimates.var(axis=0, ddof=1).sum())
    bias_sq = float(((estimates.mean(axis=0) - exact) ** 2).sum())
    return variance, bias_sq
