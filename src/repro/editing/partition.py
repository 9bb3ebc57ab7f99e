"""Graph partitioning (§3.1.2): streaming and multilevel partitioners.

Partitioning splits a large graph into device-sized parts; the objectives
the tutorial names are *balanced computation* (equal part sizes) and
*minimal communication* (small edge cut). Implemented:

* :func:`random_partition` — the baseline every partitioner must beat.
* :func:`ldg_partition` — Linear Deterministic Greedy streaming
  partitioning (Stanton & Kliot): assign each arriving node to the part
  holding most of its neighbours, damped by remaining capacity.
* :func:`fennel_partition` — Fennel streaming objective
  (neighbour gain minus a superlinear size penalty).
* :func:`multilevel_partition` — METIS-flavoured: coarsen by heavy-edge
  matching, split greedily at the coarsest level, project back and refine
  with a Kernighan–Lin-style boundary pass.

:func:`cluster_batches` turns a partition into Cluster-GCN mini-batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.core import Graph
from repro.utils.rng import as_rng
from repro.utils.validation import check_int_range


@dataclass(frozen=True)
class HaloIndex:
    """Boundary/ghost structure of one shard of a partition.

    The *halo* of shard ``part`` is everything a distributed worker that
    owns the shard must exchange with its peers: the **boundary** nodes
    it owns whose neighbourhoods leak into other parts, and the
    **ghost** nodes it does not own but whose features feed arcs into
    the shard. :func:`repro.distributed` workers and the serving-side
    :class:`repro.serving.ShardRouter` both route through this one
    structure, so training-time halo exchange and request-time halo
    gathers agree on which rows cross shards.

    Attributes
    ----------
    part:
        The shard this index describes.
    boundary:
        Sorted global ids of owned nodes incident to a cross-partition
        arc (in either direction).
    ghosts:
        Sorted global ids of non-owned sources of arcs *into* the shard
        — the rows a halo exchange must ship to this shard.
    cross_arcs_in:
        Directed arcs entering the shard (``src`` outside, ``dst``
        inside). Summed over all shards this equals the simulation's
        ``cross_partition_arcs`` cut measure.
    cross_arcs_out:
        Directed arcs leaving the shard.
    """

    part: int
    boundary: np.ndarray
    ghosts: np.ndarray
    cross_arcs_in: int
    cross_arcs_out: int


def halo(graph: Graph, assignment: np.ndarray, part: int) -> HaloIndex:
    """Boundary and ghost node index arrays for one shard.

    ``assignment`` maps each node to its part; ``part`` selects the
    shard. For an undirected graph (arcs stored in both directions) the
    boundary set equals the owned endpoints of cut edges and
    ``cross_arcs_in == cross_arcs_out``.
    """
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.n_nodes,):
        raise GraphError("assignment must have one entry per node")
    edges = graph.edge_array()
    src_part = assignment[edges[:, 0]]
    dst_part = assignment[edges[:, 1]]
    into = (dst_part == part) & (src_part != part)
    outof = (src_part == part) & (dst_part != part)
    boundary = np.union1d(edges[into, 1], edges[outof, 0])
    ghosts = np.unique(edges[into, 0])
    return HaloIndex(
        part=int(part),
        boundary=boundary.astype(np.int64),
        ghosts=ghosts.astype(np.int64),
        cross_arcs_in=int(np.sum(into)),
        cross_arcs_out=int(np.sum(outof)),
    )


@dataclass(frozen=True)
class PartitionResult:
    """Partition assignment plus its quality metrics.

    Attributes
    ----------
    assignment:
        Part id per node, in ``[0, n_parts)``.
    n_parts:
        Number of parts requested.
    edge_cut:
        Number of undirected edges crossing parts.
    balance:
        Max part size divided by ideal size (1.0 is perfect).
    """

    assignment: np.ndarray
    n_parts: int
    edge_cut: int
    balance: float

    def halo_nodes(self, graph: Graph, part: int) -> HaloIndex:
        """Convenience: :func:`halo` for one shard of this partition."""
        check_int_range("part", part, 0, self.n_parts - 1)
        return halo(graph, self.assignment, part)


def _finalize(graph: Graph, assignment: np.ndarray, k: int) -> PartitionResult:
    return PartitionResult(
        assignment=assignment,
        n_parts=k,
        edge_cut=edge_cut(graph, assignment),
        balance=partition_balance(assignment, k),
    )


def check_assignment(graph: Graph, assignment, n_parts: int) -> np.ndarray:
    """Validate a node -> part map over ``n_parts`` parts; returns it as int64.

    :class:`GraphError` unless there is exactly one entry per node;
    :class:`ConfigError` for a part id outside ``[0, n_parts)`` — such a
    node would belong to no worker of a partition-parallel run.
    """
    check_int_range("n_parts", n_parts, 1)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (graph.n_nodes,):
        raise GraphError("assignment must have one entry per node")
    if len(assignment) and (assignment.min() < 0 or assignment.max() >= n_parts):
        raise ConfigError("assignment contains part ids outside [0, n_parts)")
    return assignment


def edge_cut(graph: Graph, assignment: np.ndarray) -> int:
    """Number of undirected edges with endpoints in different parts."""
    assignment = np.asarray(assignment)
    if assignment.shape != (graph.n_nodes,):
        raise GraphError("assignment must have one entry per node")
    edges = graph.edge_array()
    mask = edges[:, 0] < edges[:, 1]
    e = edges[mask]
    return int(np.sum(assignment[e[:, 0]] != assignment[e[:, 1]]))


def partition_balance(assignment: np.ndarray, k: int) -> float:
    """Max part size over ideal size n/k (>= 1; closer to 1 is better)."""
    counts = np.bincount(assignment, minlength=k)
    ideal = len(assignment) / k
    return float(counts.max() / ideal)


def random_partition(graph: Graph, k: int, seed=None) -> PartitionResult:
    """Uniform random balanced assignment — the edge-cut baseline."""
    check_int_range("k", k, 1, graph.n_nodes)
    rng = as_rng(seed)
    assignment = np.tile(np.arange(k), graph.n_nodes // k + 1)[: graph.n_nodes]
    rng.shuffle(assignment)
    return _finalize(graph, assignment, k)


def ldg_partition(graph: Graph, k: int, seed=None, capacity_slack: float = 1.1) -> PartitionResult:
    """Linear Deterministic Greedy streaming partitioning.

    Nodes arrive in random order; node ``v`` goes to
    :math:`\\arg\\max_i |N(v) \\cap P_i| (1 - |P_i| / C)` with capacity
    :math:`C = \\text{slack} \\cdot n / k`.
    """
    check_int_range("k", k, 1, graph.n_nodes)
    if capacity_slack < 1.0:
        raise ConfigError(f"capacity_slack must be >= 1, got {capacity_slack}")
    rng = as_rng(seed)
    n = graph.n_nodes
    capacity = capacity_slack * n / k
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k)
    order = rng.permutation(n)
    for v in order:
        neigh = graph.neighbors(int(v))
        placed = assignment[neigh]
        placed = placed[placed >= 0]
        gains = np.bincount(placed, minlength=k).astype(np.float64)
        scores = gains * np.maximum(1.0 - sizes / capacity, 0.0)
        # Break score ties toward the emptiest part for balance.
        best = np.lexsort((sizes, -scores))[0]
        assignment[v] = best
        sizes[best] += 1
    return _finalize(graph, assignment, k)


def fennel_partition(
    graph: Graph, k: int, gamma: float = 1.5, seed=None
) -> PartitionResult:
    """Fennel streaming partitioning (Tsourakakis et al.).

    Score of placing ``v`` in part ``i``:
    :math:`|N(v) \\cap P_i| - \\alpha \\gamma |P_i|^{\\gamma - 1}` with the
    paper's default :math:`\\alpha = m k^{\\gamma-1} / n^{\\gamma}`.
    A hard capacity of ``1.1 n/k`` guards balance.
    """
    check_int_range("k", k, 1, graph.n_nodes)
    if gamma <= 1.0:
        raise ConfigError(f"gamma must be > 1, got {gamma}")
    rng = as_rng(seed)
    n = graph.n_nodes
    m = graph.n_undirected_edges if not graph.directed else graph.n_edges
    alpha = m * (k ** (gamma - 1)) / (n**gamma) if n else 0.0
    capacity = 1.1 * n / k
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(k)
    order = rng.permutation(n)
    for v in order:
        neigh = graph.neighbors(int(v))
        placed = assignment[neigh]
        placed = placed[placed >= 0]
        gains = np.bincount(placed, minlength=k).astype(np.float64)
        penalty = alpha * gamma * np.power(sizes, gamma - 1.0)
        scores = np.where(sizes < capacity, gains - penalty, -np.inf)
        best = np.lexsort((sizes, -scores))[0]
        assignment[v] = best
        sizes[best] += 1
    return _finalize(graph, assignment, k)


def multilevel_partition(
    graph: Graph, k: int, coarsen_to: int | None = None, seed=None,
    refine_passes: int = 4,
) -> PartitionResult:
    """METIS-flavoured multilevel partitioning.

    1. Coarsen by repeated heavy-edge matching until ``coarsen_to`` nodes
       (default ``max(8k, 64)``).
    2. Partition the coarsest graph with LDG.
    3. Uncoarsen, refining after each projection with a KL-style pass that
       moves boundary nodes to the neighbouring part with the largest cut
       gain, subject to balance.
    """
    from repro.editing.coarsen import heavy_edge_matching_level

    check_int_range("k", k, 1, graph.n_nodes)
    rng = as_rng(seed)
    if coarsen_to is None:
        coarsen_to = max(8 * k, 64)
    levels: list[tuple[Graph, np.ndarray]] = []
    current = graph
    while current.n_nodes > coarsen_to:
        coarse, membership = heavy_edge_matching_level(current, seed=rng)
        if coarse.n_nodes >= current.n_nodes:
            break  # no matching progress (e.g. empty graph)
        levels.append((current, membership))
        current = coarse
    assignment = ldg_partition(current, k, seed=rng).assignment
    for fine_graph, membership in reversed(levels):
        assignment = assignment[membership]
        assignment = _kl_refine(fine_graph, assignment, k, refine_passes)
    return _finalize(graph, assignment, k)


def _kl_refine(
    graph: Graph, assignment: np.ndarray, k: int, passes: int
) -> np.ndarray:
    """Greedy boundary refinement: move nodes to the best neighbouring part."""
    assignment = assignment.copy()
    capacity = 1.1 * graph.n_nodes / k
    sizes = np.bincount(assignment, minlength=k).astype(np.float64)
    for _ in range(passes):
        moved = 0
        for v in range(graph.n_nodes):
            neigh = graph.neighbors(v)
            if len(neigh) == 0:
                continue
            here = assignment[v]
            counts = np.bincount(assignment[neigh], minlength=k)
            target = int(np.argmax(counts))
            gain = counts[target] - counts[here]
            if target != here and gain > 0 and sizes[target] + 1 <= capacity:
                assignment[v] = target
                sizes[here] -= 1
                sizes[target] += 1
                moved += 1
        if moved == 0:
            break
    return assignment


def cluster_batches(
    assignment: np.ndarray, n_parts: int, parts_per_batch: int, seed=None
) -> list[np.ndarray]:
    """Cluster-GCN batches: random groups of parts, as node-id arrays.

    Combining several small parts per batch (stochastic multiple
    partitions) restores some of the cross-part edges a single-part batch
    would lose.
    """
    check_int_range("parts_per_batch", parts_per_batch, 1, n_parts)
    rng = as_rng(seed)
    order = rng.permutation(n_parts)
    batches: list[np.ndarray] = []
    for start in range(0, n_parts, parts_per_batch):
        group = order[start : start + parts_per_batch]
        nodes = np.flatnonzero(np.isin(assignment, group))
        if len(nodes):
            batches.append(nodes)
    return batches
