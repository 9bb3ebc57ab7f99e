"""Per-element reference implementations of the sampling hot loops.

Test-only oracles: the loops ``repro.editing.sampling`` ran before it went
array-at-a-time, kept verbatim so the vectorised code stays pinned to them
(bitwise for :func:`compact_layer` and :func:`labor_sample_layer`,
structurally and in distribution for :func:`neighbor_sample_layer`, whose
draw stream legitimately differs), and the per-node BFS of
:func:`k_hop_neighborhood` that ``repro.graph.traversal.expand`` replaced.
Layers are CSR row blocks over global column ids; only the matrix assembly
follows the stored-order rule (each row keeps its arcs' order, duplicates
are not summed). Never imported from ``src/``.
"""

import numpy as np
import scipy.sparse as sp

from repro.editing.sampling import Block


def _layer(rows, cols, vals, shape) -> sp.csr_matrix:
    """Arcs grouped by row (``rows`` non-decreasing) as a CSR row block."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(
        np.asarray(rows, dtype=np.int64), minlength=shape[0]))])
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.float64), np.asarray(cols, dtype=np.int64),
         indptr),
        shape=shape,
    )


def compact_layer(dst_ids: np.ndarray, layer: sp.csr_matrix) -> Block:
    dst_ids = np.asarray(dst_ids, dtype=np.int64)
    pos: dict[int, int] = {int(v): i for i, v in enumerate(dst_ids)}
    src_list = list(dst_ids)
    cols: list[int] = []
    for g in map(int, layer.indices):
        idx = pos.get(g)
        if idx is None:
            idx = len(src_list)
            pos[g] = idx
            src_list.append(g)
        cols.append(idx)
    # Each row keeps the layer's stored order (no sort, no duplicate sum).
    matrix = sp.csr_matrix(
        (layer.data, cols, layer.indptr), shape=(len(dst_ids), len(src_list))
    )
    return Block(np.asarray(src_list, dtype=np.int64), dst_ids, matrix)


def neighbor_sample_layer(graph, dst, fanout: int, rng) -> sp.csr_matrix:
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, u in enumerate(dst):
        neigh = graph.neighbors(int(u))
        if len(neigh) == 0:
            # Isolated destination: self-connection, weight 1.0.
            rows.append(i)
            cols.append(int(u))
            vals.append(1.0)
            continue
        if len(neigh) > fanout:
            chosen = rng.choice(neigh, size=fanout, replace=False)
        else:
            chosen = neigh
        share = 1.0 / len(chosen)
        for v in chosen:
            rows.append(i)
            cols.append(int(v))
            vals.append(share)
    return _layer(rows, cols, vals, (len(dst), graph.n_nodes))


def labor_sample_layer(graph, dst, fanout: int, rng) -> sp.csr_matrix:
    neighborhoods = [graph.neighbors(int(u)) for u in dst]
    nonempty = [n for n in neighborhoods if len(n)]
    if nonempty:
        candidates = np.unique(np.concatenate(nonempty))
        variates = rng.random(len(candidates))
    else:
        candidates = np.empty(0, dtype=np.int64)
        variates = np.empty(0, dtype=np.float64)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i, (u, neigh) in enumerate(zip(dst, neighborhoods)):
        deg = len(neigh)
        if deg == 0:
            rows.append(i)
            cols.append(int(u))
            vals.append(1.0)
            continue
        c_u = min(1.0, fanout / deg)
        # candidates is sorted-unique, so searchsorted is an exact
        # index lookup: one shared variate per source in this layer.
        r = variates[np.searchsorted(candidates, neigh)]
        included = neigh[r <= c_u]
        if len(included) == 0:
            # Guarantee progress: keep the neighbour with the
            # smallest variate (probability-1/deg event each).
            included = neigh[[int(np.argmin(r))]]
        weight = 1.0 / (deg * c_u)
        for v in included:
            rows.append(i)
            cols.append(int(v))
            vals.append(weight)
    return _layer(rows, cols, vals, (len(dst), graph.n_nodes))


def nodes_within_hops(graph, roots, n_hops: int) -> np.ndarray:
    """Every node within ``n_hops`` hops of a root (BFS closure)."""
    reached = set(map(int, roots))
    frontier = set(reached)
    for _ in range(n_hops):
        frontier = {
            int(v) for u in frontier for v in graph.neighbors(u)
        } - reached
        reached |= frontier
    return np.asarray(sorted(reached), dtype=np.int64)


def k_hop_neighborhood(graph, seeds, k: int) -> np.ndarray:
    """The per-node BFS ``repro.graph.traversal.k_hop_neighborhood`` ran
    before it became :func:`repro.graph.traversal.expand`."""
    seeds = np.asarray(seeds, dtype=np.int64)
    reached = np.zeros(graph.n_nodes, dtype=bool)
    reached[seeds] = True
    frontier = np.unique(seeds)
    for _ in range(k):
        if not len(frontier):
            break
        neigh = np.concatenate([graph.neighbors(u) for u in frontier])
        neigh = np.unique(neigh)
        fresh = neigh[~reached[neigh]]
        reached[fresh] = True
        frontier = fresh
    return np.flatnonzero(reached)
