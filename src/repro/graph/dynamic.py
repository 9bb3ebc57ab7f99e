"""Dynamic graphs and incremental PPR maintenance (§3.4.2).

The tutorial's dynamic-graph direction asks how streaming updates can be
accommodated by scalable GNN pipelines (GENTI [55] streams subgraph
extraction; decoupled models need their embeddings maintained). The core
primitive is *incremental PPR*: keeping a forward-push approximation valid
under edge insertions without recomputing from scratch.

Forward push maintains the exact linear invariant

.. math:: e_s = r + \\tfrac{1}{\\alpha}\\big(I - (1-\\alpha) P^\\top\\big) p,

with row-stochastic :math:`P = D^{-1}A`. An edge insertion ``(u, v)``
changes only rows ``u`` and ``v`` of :math:`P`, so the invariant is
restored *exactly* by the local residual correction

.. math:: r \\mathrel{+}= \\tfrac{1-\\alpha}{\\alpha}\\,
          p_u (P'_u - P_u) + \\tfrac{1-\\alpha}{\\alpha}\\, p_v (P'_v - P_v),

which touches only the old neighbourhoods of the two endpoints. A signed
local push then restores the accuracy guarantee. Cost per update:
:math:`O(d_u + d_v)` plus the (empirically tiny) push work — versus a full
recompute of the push from scratch.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.core import Graph
from repro.utils.validation import check_int_range, check_positive


class DynamicGraph:
    """An undirected, unweighted graph supporting edge insertions.

    Adjacency is held as CSR arrays (``indptr``/``indices``, rows sorted)
    that are never written in place: :meth:`from_graph` borrows a frozen
    graph's arrays, and :meth:`insert_edges` builds new ones. So
    :meth:`snapshot` wraps the current arrays without a copy, giving the
    same CSR :meth:`Graph.from_edges` builds for the same edge set. Node
    features and labels (which edge insertions never change) ride along
    and are carried into every snapshot, so downstream consumers —
    decoupled-model inference in particular — see a fully populated
    :class:`Graph` at each version.
    """

    def __init__(
        self,
        n_nodes: int,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
    ) -> None:
        check_int_range("n_nodes", n_nodes, 1)
        if x is not None:
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] != n_nodes:
                raise ConfigError(
                    f"x must be ({n_nodes}, d), got {x.shape}"
                )
        if y is not None:
            y = np.asarray(y)
            if y.shape != (n_nodes,):
                raise ConfigError(f"y must be ({n_nodes},), got {y.shape}")
        self._indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        self._indices = np.empty(0, dtype=np.int64)
        self._n_edges = 0
        self.x = x
        self.y = y

    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicGraph":
        """Start from ``graph``'s arrays, borrowed (O(1), no copy)."""
        if graph.directed:
            raise GraphError("DynamicGraph supports undirected graphs only")
        dyn = cls(graph.n_nodes, x=graph.x, y=graph.y)
        dyn._indptr, dyn._indices = graph.indptr, graph.indices
        dyn._n_edges = graph.n_edges // 2
        return dyn

    @property
    def n_nodes(self) -> int:
        return len(self._indptr) - 1

    @property
    def n_edges(self) -> int:
        return self._n_edges

    @property
    def indptr(self) -> np.ndarray:
        """Current CSR row pointers (never written in place)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Current CSR column ids, sorted within each row."""
        return self._indices

    def degree(self, node: int) -> int:
        return int(self._indptr[node + 1] - self._indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """The sorted neighbour ids of ``node`` (a view of its row)."""
        return self._indices[self._indptr[node]:self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if self.degree(u) > self.degree(v):
            u, v = v, u
        return bool(v in self.neighbors(u))

    def insert_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge (u, v); duplicate/self edges rejected."""
        self.insert_edges([(u, v)])

    def insert_edges(self, edges: list[tuple[int, int]]) -> None:
        """Insert a batch of undirected edges, all or none.

        The whole batch is validated before anything changes, so a
        rejected batch leaves the graph unchanged. Each edge must lie in
        ``[0, n)``, join two distinct nodes, be absent from the graph and
        appear once in the batch (``(u, v)`` and ``(v, u)`` are the same
        edge); otherwise :class:`GraphError`. The new arcs go in with one
        ``np.insert`` at their sorted positions plus an ``indptr`` shift,
        into new arrays: earlier snapshots keep theirs.
        """
        n = self.n_nodes
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside [0, {n})")
            if u == v:
                raise GraphError("self-loops are not supported")
            if self.has_edge(u, v):
                raise GraphError(f"edge ({u}, {v}) already present")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"edge ({u}, {v}) repeated in the batch")
            seen.add(key)
        if not edges:
            return
        pairs = np.asarray(edges, dtype=np.int64)
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        # Row-major, then column order: arcs landing in one gap of one row
        # go in ascending, since np.insert keeps the order of equal slots.
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        slots = np.array([
            self._indptr[s] + np.searchsorted(self.neighbors(s), d)
            for s, d in zip(src.tolist(), dst.tolist())
        ], dtype=np.int64)
        shift = np.zeros(n + 1, dtype=np.int64)
        shift[1:] = np.cumsum(np.bincount(src, minlength=n))
        self._indices = np.insert(self._indices, slots, dst)
        self._indptr = self._indptr + shift
        self._n_edges += len(edges)

    def snapshot(self) -> Graph:
        """The current state as an immutable :class:`Graph` (features and
        labels kept), wrapping the current arrays without a copy."""
        return Graph(
            self._indptr, self._indices, x=self.x, y=self.y,
            directed=False, validate=False,
        )


class IncrementalPPR:
    """Single-source PPR maintained under edge insertions.

    Parameters
    ----------
    dynamic:
        The evolving graph; this object inserts edges *through*
        :meth:`insert_edge` so estimate and graph stay in sync.
    source:
        PPR source node.
    alpha, epsilon:
        Teleport probability and push tolerance (|r_u| <= eps * d_u at
        rest, exactly as static forward push).
    """

    def __init__(
        self,
        dynamic: DynamicGraph,
        source: int,
        alpha: float = 0.15,
        epsilon: float = 1e-5,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
        check_positive("epsilon", epsilon)
        if not 0 <= source < dynamic.n_nodes:
            raise GraphError(f"source {source} outside [0, {dynamic.n_nodes})")
        self.graph = dynamic
        self.source = source
        self.alpha = alpha
        self.epsilon = epsilon
        self.estimate = np.zeros(dynamic.n_nodes)
        self.residual = np.zeros(dynamic.n_nodes)
        self.residual[source] = 1.0
        self.last_push_count = 0
        self._push()

    # ------------------------------------------------------------------ #

    def _push(self) -> None:
        """Signed local push until |r_u| <= eps * d_u everywhere."""
        alpha, eps = self.alpha, self.epsilon
        indptr, indices = self.graph.indptr, self.graph.indices
        residual = self.residual
        deg = np.diff(indptr)
        active = np.flatnonzero((deg > 0) & (np.abs(residual) > eps * deg))
        queue: deque[int] = deque(active.tolist())
        in_queue = np.zeros(len(deg), dtype=bool)
        in_queue[active] = True
        degree = deg.tolist()
        pushes = 0
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            d_u = degree[u]
            if d_u == 0 or abs(residual[u]) <= eps * d_u:
                continue
            mass = residual[u]
            self.estimate[u] += alpha * mass
            residual[u] = 0.0
            share = (1.0 - alpha) * mass / d_u
            pushes += 1
            for v in indices[indptr[u]:indptr[u + 1]].tolist():
                residual[v] += share
                if not in_queue[v] and abs(residual[v]) > eps * degree[v]:
                    queue.append(v)
                    in_queue[v] = True
        self.last_push_count = pushes

    def _row_correction(self, u: int, new_neighbor: int) -> None:
        """Restore the invariant for endpoint ``u`` gaining ``new_neighbor``.

        Must be called *before* the edge is inserted (uses the old
        neighbour list and degree).
        """
        p_u = self.estimate[u]
        if p_u == 0.0:
            return
        d_old = self.graph.degree(u)
        scale = (1.0 - self.alpha) / self.alpha * p_u
        self.residual[new_neighbor] += scale / (d_old + 1)
        if d_old > 0:
            self.residual[self.graph.neighbors(u)] -= scale / (d_old * (d_old + 1))

    def insert_edge(self, u: int, v: int) -> None:
        """Insert (u, v), restore the invariant locally, and re-push."""
        self._row_correction(u, v)
        self._row_correction(v, u)
        self.graph.insert_edge(u, v)
        self._push()

    # ------------------------------------------------------------------ #

    def check_invariant(self, atol: float = 1e-9) -> bool:
        """Dense verification of the push invariant (testing aid, O(n^2))."""
        snap = self.graph.snapshot()
        deg = np.maximum(snap.degrees(), 1.0)
        p_rw = snap.adjacency().multiply(1.0 / deg[:, None]).tocsr()
        lhs = np.zeros(snap.n_nodes)
        lhs[self.source] = 1.0
        rhs = self.residual + (
            self.estimate - (1.0 - self.alpha) * (p_rw.T @ self.estimate)
        ) / self.alpha
        return bool(np.allclose(lhs, rhs, atol=atol))
