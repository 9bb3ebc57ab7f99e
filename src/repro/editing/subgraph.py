"""Subgraph extraction and storage (§3.3.3).

Two contrasting pipelines, mirroring the systems the tutorial cites:

* :func:`ego_subgraph` — per-query k-hop extraction: simple, but every
  query pays BFS + induction cost from scratch.
* :class:`WalkSetStorage` — SUREL-style [52, 53] walk sets: a one-time
  sampling pass stores, per node, a compact set of random walks plus
  *relative positional encodings* (landing counts per step). A pair query
  (e.g. for link prediction) is then a cheap join of two stored sets — the
  reuse that makes subgraph-based representation learning scale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NotFittedError
from repro.graph.core import Graph
from repro.graph.traversal import k_hop_neighborhood
from repro.utils.rng import as_rng
from repro.utils.validation import check_int_range


def ego_subgraph(graph: Graph, node: int, k: int) -> tuple[np.ndarray, Graph]:
    """The induced ``k``-hop ego network of ``node``.

    Returns ``(global node ids, induced subgraph)``; the centre node is
    always included. A bad ``node`` id (float, bool, out of range) is a
    :class:`~repro.errors.GraphError`.
    """
    check_int_range("k", k, 0)
    nodes = k_hop_neighborhood(graph, [node], k)
    return nodes, graph.subgraph(nodes)


def relative_position_encoding(
    walks: np.ndarray, node_set: np.ndarray
) -> np.ndarray:
    """Landing-count RPE: how often each node appears at each walk step.

    Parameters
    ----------
    walks:
        ``(n_walks, length + 1)`` array of node ids.
    node_set:
        Nodes to encode.

    Returns an ``(len(node_set), length + 1)`` count matrix — SUREL's
    structural feature replacing expensive subgraph isomorphism tests.
    """
    walks = np.asarray(walks, dtype=np.int64)
    node_set = np.asarray(node_set, dtype=np.int64)
    n_steps = walks.shape[1]
    out = np.zeros((len(node_set), n_steps))
    index_of = {int(v): i for i, v in enumerate(node_set)}
    for step in range(n_steps):
        vals, counts = np.unique(walks[:, step], return_counts=True)
        for v, c in zip(vals, counts):
            i = index_of.get(int(v))
            if i is not None:
                out[i, step] = c
    return out


class WalkSetStorage:
    """Precomputed walk sets with join-based pair queries (SUREL-style).

    ``build`` samples ``n_walks`` walks of ``walk_length`` steps from every
    node and stores them in one dense int array (the "sparse walk storage"
    of the paper, adapted to NumPy). :meth:`query_pair` joins the two
    stored sets into the node set of a pair-induced subgraph plus RPE
    features, without touching the graph again.
    """

    def __init__(self, n_walks: int = 32, walk_length: int = 4, seed=None) -> None:
        check_int_range("n_walks", n_walks, 1)
        check_int_range("walk_length", walk_length, 1)
        self.n_walks = n_walks
        self.walk_length = walk_length
        self._rng = as_rng(seed)
        self._walks: np.ndarray | None = None  # (n, n_walks, L+1)

    def build(self, graph: Graph) -> "WalkSetStorage":
        n = graph.n_nodes
        walks = np.empty((n, self.n_walks, self.walk_length + 1), dtype=np.int64)
        walks[:, :, 0] = np.arange(n)[:, None]
        position = walks[:, :, 0].reshape(-1).copy()
        degrees = np.diff(graph.indptr)
        for step in range(1, self.walk_length + 1):
            deg = degrees[position]
            offsets = (self._rng.random(len(position)) * np.maximum(deg, 1)).astype(
                np.int64
            )
            nxt = graph.indices[graph.indptr[position] + offsets]
            nxt = np.where(deg > 0, nxt, position)
            position = nxt
            walks[:, :, step] = position.reshape(n, self.n_walks)
        self._walks = walks
        return self

    @property
    def storage_bytes(self) -> int:
        if self._walks is None:
            raise NotFittedError("call build() first")
        return self._walks.nbytes

    def walks_of(self, node: int) -> np.ndarray:
        """The stored ``(n_walks, length + 1)`` walk array of ``node``."""
        if self._walks is None:
            raise NotFittedError("call build() first")
        return self._walks[node]

    def query_node(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Walk-visited node set of ``node`` and its RPE features."""
        walks = self.walks_of(node)
        nodes = np.unique(walks)
        return nodes, relative_position_encoding(walks, nodes)

    def query_pair(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Joined subgraph node set for pair ``(u, v)`` with stacked RPEs.

        Returns ``(nodes, rpe)`` where ``rpe`` has ``2 * (length + 1)``
        columns: landing counts w.r.t. ``u`` then w.r.t. ``v``. The
        concatenation is the query-time join SUREL performs instead of
        extracting a fresh subgraph.
        """
        walks_u, walks_v = self.walks_of(u), self.walks_of(v)
        nodes = np.union1d(np.unique(walks_u), np.unique(walks_v))
        rpe_u = relative_position_encoding(walks_u, nodes)
        rpe_v = relative_position_encoding(walks_v, nodes)
        return nodes, np.concatenate([rpe_u, rpe_v], axis=1)
