"""Classic graph traversal: BFS, connected components, k-hop neighbourhoods.

These routines double as (a) substrates for samplers and subgraph extraction
and (b) the exact baselines that indexes such as hub labeling are benchmarked
against.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import GraphError
from repro.graph.core import Graph
from repro.utils.validation import check_node_ids

UNREACHED = -1


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distance from ``source`` to every node (-1 when unreachable)."""
    if not 0 <= source < graph.n_nodes:
        raise GraphError(f"source {source} outside [0, {graph.n_nodes})")
    dist = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        neigh = np.unique(neighbors_of(graph.indptr, graph.indices, frontier))
        fresh = neigh[dist[neigh] == UNREACHED]
        dist[fresh] = level
        frontier = fresh
    return dist


def shortest_path_distance(graph: Graph, source: int, target: int) -> int:
    """Exact hop distance between two nodes via bidirectional BFS.

    Returns -1 when disconnected. This is the baseline that hub labeling
    (§3.2.2) accelerates.
    """
    if source == target:
        return 0
    seen_s = {source: 0}
    seen_t = {target: 0}
    front_s, front_t = deque([source]), deque([target])
    dist_s, dist_t = 0, 0
    while front_s and front_t:
        # Expand the smaller frontier.
        if len(front_s) <= len(front_t):
            dist_s += 1
            best = _expand(graph, front_s, seen_s, seen_t, dist_s)
        else:
            dist_t += 1
            best = _expand(graph, front_t, seen_t, seen_s, dist_t)
        if best is not None:
            return best
    return UNREACHED


def _expand(graph, frontier, seen_self, seen_other, depth) -> int | None:
    best: int | None = None
    for _ in range(len(frontier)):
        u = frontier.popleft()
        for v in graph.neighbors(u):
            v = int(v)
            if v in seen_self:
                continue
            seen_self[v] = depth
            if v in seen_other:
                total = depth + seen_other[v]
                best = total if best is None else min(best, total)
            frontier.append(v)
    return best


def bfs_tree(graph: Graph, source: int) -> np.ndarray:
    """BFS parent array (parent of the source is itself; -1 unreachable)."""
    parent = np.full(graph.n_nodes, UNREACHED, dtype=np.int64)
    parent[source] = source
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            v = int(v)
            if parent[v] == UNREACHED:
                parent[v] = u
                queue.append(v)
    return parent


def connected_components(graph: Graph) -> np.ndarray:
    """Component id per node (directed graphs use weak connectivity)."""
    g = graph.to_undirected() if graph.directed else graph
    comp = np.full(g.n_nodes, UNREACHED, dtype=np.int64)
    cid = 0
    for start in range(g.n_nodes):
        if comp[start] != UNREACHED:
            continue
        comp[start] = cid
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in g.neighbors(u):
                v = int(v)
                if comp[v] == UNREACHED:
                    comp[v] = cid
                    queue.append(v)
        cid += 1
    return comp


def segment_arange(counts: np.ndarray) -> np.ndarray:
    """Each element's offset in its segment: ``[0..c_0), [0..c_1), ...``."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def neighbors_of(indptr: np.ndarray, indices: np.ndarray, nodes) -> np.ndarray:
    """The CSR rows of ``nodes`` concatenated, in one vectorised gather."""
    nodes = np.asarray(nodes, dtype=np.int64)
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    return indices[np.repeat(starts, lengths) + segment_arange(lengths)]


def append_new(known: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``known`` + the new ``ids`` (first seen first), and each id's position.

    Sort-free and stateless (a prefetch thread runs it): positions are
    scattered into an id-indexed table allocated per call. NumPy applies
    the repeated indices of one assignment in order, the last value
    staying, so scattering in reverse leaves each id's *first* position.
    Negative ids (which would wrap) raise :class:`GraphError`.
    """
    known, ids = np.asarray(known, np.int64), np.asarray(ids, np.int64)
    if min(known.min(initial=0), ids.min(initial=0)) < 0:
        raise GraphError("node ids must be non-negative")
    n_known, at = len(known), np.arange(len(ids))
    table = np.empty(max(known.max(initial=-1), ids.max(initial=-1)) + 1, np.int64)
    table[ids[::-1]] = n_known + at[::-1]
    table[known] = np.arange(n_known)
    # A known id now maps to its index, any other to n_known + first position.
    new = ids[table[ids] == n_known + at]
    table[new] = n_known + np.arange(len(new))
    return np.concatenate([known, new]), table[ids]


def expand(indptr: np.ndarray, indices: np.ndarray, seeds, k: int) -> list[np.ndarray]:
    """``k + 1`` hop levels, each a prefix of the next.

    Level 0 is ``seeds`` as given; level ``j`` appends the ids first
    reached at hop ``j``, in order of first appearance in the CSR rows of
    hop ``j - 1``'s new ids, so ``set(level j)`` is every node within
    ``j`` hops of a seed.
    """
    levels = [np.asarray(seeds, dtype=np.int64)]
    frontier = levels[0]
    for _ in range(k):
        level, _ = append_new(levels[-1], neighbors_of(indptr, indices, frontier))
        frontier = level[len(levels[-1]):]
        levels.append(level)
    return levels


def k_hop_neighborhood(
    graph: Graph, seeds: np.ndarray | list[int], k: int
) -> np.ndarray:
    """All nodes within ``k`` hops of any seed (seeds included), sorted.

    The size of this set as a function of ``k`` is exactly the
    "neighborhood explosion" quantity of §3.1.3. Seeds must be a 1-D
    integer array of ids in ``[0, n_nodes)``, else :class:`GraphError`.
    """
    seeds = np.unique(check_node_ids(seeds, graph.n_nodes))
    return np.sort(expand(graph.indptr, graph.indices, seeds, k)[-1])
