"""Per-node reference implementation of the dynamic graph and incremental PPR.

Test-only oracles: :class:`DynamicGraph` (per-node sorted Python lists)
and :class:`IncrementalPPR` as ``repro.graph.dynamic`` had them before
adjacency moved to CSR arrays, kept verbatim so the array version stays
pinned to them bitwise (estimate and residual after every insert). Never
imported from ``src/``.
"""

from bisect import insort
from collections import deque

import numpy as np

from repro.errors import ConfigError, GraphError
from repro.graph.core import Graph
from repro.utils.validation import check_int_range, check_positive


class DynamicGraph:
    """An undirected, unweighted graph supporting edge insertions.

    Adjacency is stored as per-node sorted Python lists, so
    :meth:`snapshot` materialises an immutable CSR :class:`Graph` with
    sorted rows — the same arrays :meth:`Graph.from_edges` builds for the
    same edge set — for use with the static algorithms. Node features and
    labels (which edge insertions never change) ride along and are carried into every
    snapshot, so downstream consumers — decoupled-model inference in
    particular — see a fully populated :class:`Graph` at each version.
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
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self._n_edges = 0
        self.x = x
        self.y = y

    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicGraph":
        if graph.directed:
            raise GraphError("DynamicGraph supports undirected graphs only")
        dyn = cls(graph.n_nodes, x=graph.x, y=graph.y)
        for u in range(graph.n_nodes):
            dyn._adj[u] = [int(v) for v in graph.neighbors(u)]
        dyn._n_edges = graph.n_edges // 2
        return dyn

    @property
    def n_nodes(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def degree(self, node: int) -> int:
        return len(self._adj[node])

    def neighbors(self, node: int) -> list[int]:
        return self._adj[node]

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj[u] if len(self._adj[u]) <= len(self._adj[v]) else self._adj[v]
        other = v if a is self._adj[u] else u
        return other in a

    def insert_edge(self, u: int, v: int) -> None:
        """Insert the undirected edge (u, v); duplicate/self edges rejected."""
        self.insert_edges([(u, v)])

    def insert_edges(self, edges: list[tuple[int, int]]) -> None:
        """Insert a batch of undirected edges, all or none.

        The whole batch is validated before the first insert, so a
        rejected batch leaves the graph unchanged. Each edge must lie in
        ``[0, n)``, join two distinct nodes, be absent from the graph and
        appear once in the batch (``(u, v)`` and ``(v, u)`` are the same
        edge); otherwise :class:`GraphError`.
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
        for u, v in edges:
            insort(self._adj[u], v)
            insort(self._adj[v], u)
        self._n_edges += len(edges)

    def snapshot(self) -> Graph:
        """An immutable CSR copy of the current state (features/labels kept)."""
        degrees = [len(a) for a in self._adj]
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        indices = np.fromiter(
            (v for adj in self._adj for v in adj), dtype=np.int64,
            count=int(indptr[-1]),
        )
        return Graph(
            indptr, indices, x=self.x, y=self.y, directed=False, validate=False
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
        adj = self.graph
        queue: deque[int] = deque(
            u for u in range(adj.n_nodes)
            if adj.degree(u) > 0 and abs(self.residual[u]) > eps * adj.degree(u)
        )
        in_queue = np.zeros(adj.n_nodes, dtype=bool)
        in_queue[list(queue)] = True
        pushes = 0
        while queue:
            u = queue.popleft()
            in_queue[u] = False
            deg = adj.degree(u)
            if deg == 0 or abs(self.residual[u]) <= eps * deg:
                continue
            mass = self.residual[u]
            self.estimate[u] += alpha * mass
            self.residual[u] = 0.0
            share = (1.0 - alpha) * mass / deg
            pushes += 1
            for v in adj.neighbors(u):
                self.residual[v] += share
                dv = adj.degree(v)
                if not in_queue[v] and abs(self.residual[v]) > eps * dv:
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
            drop = scale / (d_old * (d_old + 1))
            for w in self.graph.neighbors(u):
                self.residual[w] -= drop

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
