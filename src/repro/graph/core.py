"""The immutable CSR :class:`Graph`, the storage substrate of the library.

Design notes
------------
* Adjacency is stored as CSR (``indptr``/``indices``/``weights``) of
  *directed arcs*. An undirected graph stores each edge in both directions
  and reports ``directed=False``; :attr:`Graph.n_edges` counts stored arcs,
  while :attr:`Graph.n_undirected_edges` counts unordered pairs.
* Node features (``x``) and labels (``y``) ride along as optional NumPy
  arrays so that datasets, samplers and trainers can pass a single object.
* Instances are immutable: the underlying arrays are flagged non-writeable
  at construction, and every "editing" operation returns a fresh graph.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphError, ShapeError


class Graph:
    """An immutable graph in CSR form with optional features and labels.

    Parameters
    ----------
    indptr, indices:
        Standard CSR row pointers and column indices of the (directed)
        adjacency structure.
    weights:
        Optional per-arc weights; defaults to all-ones. Must be finite
        (checked when ``validate`` is on).
    n_nodes:
        Number of nodes; inferred as ``len(indptr) - 1``.
    x:
        Optional ``(n_nodes, d)`` float feature matrix.
    y:
        Optional ``(n_nodes,)`` label vector of non-negative integral
        class ids (integer, bool, or integral float dtype).
    directed:
        Whether the arc set should be interpreted as directed. Undirected
        graphs must store both arc directions; this is validated.
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "x",
        "y",
        "directed",
        "_n_nodes",
        "_csr",
        "_fingerprint",
        "_feature_fingerprint",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
        directed: bool = False,
        validate: bool = True,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ShapeError("indptr and indices must be one-dimensional")
        if len(indptr) == 0:
            raise GraphError("indptr must have at least one entry")
        n_nodes = len(indptr) - 1
        if weights is None:
            weights = np.ones(len(indices), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise ShapeError(
                    f"weights shape {weights.shape} != indices shape {indices.shape}"
                )
        if validate:
            self._validate_structure(indptr, indices, n_nodes)
            if not np.isfinite(weights).all():
                raise GraphError("edge weights must be finite (no NaN or inf)")
        if x is not None:
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] != n_nodes:
                raise ShapeError(
                    f"x must be (n_nodes, d) = ({n_nodes}, d), got {x.shape}"
                )
        if y is not None:
            y = np.asarray(y)
            if y.shape != (n_nodes,):
                raise ShapeError(f"y must be ({n_nodes},), got {y.shape}")
            self._validate_labels(y)
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.x = x
        self.y = y
        self.directed = bool(directed)
        self._n_nodes = n_nodes
        self._csr: sp.csr_matrix | None = None
        self._fingerprint: str | None = None
        self._feature_fingerprint: str | None = None
        for arr in (self.indptr, self.indices, self.weights, self.x, self.y):
            if arr is not None:
                arr.setflags(write=False)
        if validate and not directed:
            self._validate_symmetry()

    @staticmethod
    def _validate_structure(indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise GraphError("indices contain node ids outside [0, n_nodes)")

    @staticmethod
    def _validate_labels(y: np.ndarray) -> None:
        """Labels are class ids: integral and non-negative (``n_classes``
        is ``max + 1``, so a fractional or negative id would miscount)."""
        if y.dtype.kind == "b":
            return
        if y.dtype.kind not in "iu" and not (
            y.dtype.kind == "f" and np.isfinite(y).all()
            and np.array_equal(y, np.trunc(y))
        ):
            raise GraphError(f"labels must be integral class ids, got {y.dtype}")
        if y.size and y.min() < 0:
            raise GraphError(f"labels must be non-negative, got {y.min()}")

    def _validate_symmetry(self) -> None:
        adj = self.adjacency()
        diff = adj - adj.T
        if diff.nnz and np.max(np.abs(diff.data)) > 1e-9:
            raise GraphError(
                "undirected graph must store symmetric arcs; "
                "pass directed=True or symmetrise the edge list"
            )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        n_nodes: int,
        weights: np.ndarray | None = None,
        *,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
        directed: bool = False,
    ) -> "Graph":
        """Build a graph from an edge list.

        For undirected graphs each edge ``(u, v)`` is stored in both
        directions; duplicate arcs are merged by summing weights.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if weights is None:
            weights = np.ones(len(edges), dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (len(edges),):
                raise ShapeError("weights must have one entry per edge")
        rows, cols = edges[:, 0], edges[:, 1]
        if not directed:
            loop = rows == cols
            rows, cols = (
                np.concatenate([rows, cols[~loop]]),
                np.concatenate([cols, rows[~loop]]),
            )
            weights = np.concatenate([weights, weights[~loop]])
        mat = sp.csr_matrix(
            (weights, (rows, cols)), shape=(n_nodes, n_nodes), dtype=np.float64
        )
        mat.sum_duplicates()
        return cls(
            mat.indptr.astype(np.int64),
            mat.indices.astype(np.int64),
            mat.data,
            x=x,
            y=y,
            directed=directed,
        )

    @classmethod
    def from_scipy(
        cls,
        matrix: sp.spmatrix,
        *,
        x: np.ndarray | None = None,
        y: np.ndarray | None = None,
        directed: bool = False,
    ) -> "Graph":
        """Build a graph from any SciPy sparse adjacency matrix."""
        mat = sp.csr_matrix(matrix, dtype=np.float64)
        if mat.shape[0] != mat.shape[1]:
            raise GraphError(f"adjacency must be square, got {mat.shape}")
        mat.sum_duplicates()
        return cls(
            mat.indptr.astype(np.int64),
            mat.indices.astype(np.int64),
            mat.data,
            x=x,
            y=y,
            directed=directed,
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def n_edges(self) -> int:
        """Number of stored directed arcs."""
        return len(self.indices)

    @property
    def n_undirected_edges(self) -> int:
        """Number of unordered edges (self-loops count once)."""
        if self.directed:
            raise GraphError("n_undirected_edges is undefined for directed graphs")
        loops = int(np.sum(self.edge_sources() == self.indices))
        return (self.n_edges - loops) // 2 + loops

    @property
    def n_features(self) -> int:
        if self.x is None:
            raise GraphError("graph has no feature matrix")
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        if self.y is None:
            raise GraphError("graph has no labels")
        return int(self.y.max()) + 1

    def degrees(self, weighted: bool = False) -> np.ndarray:
        """Out-degree of each node (arc count, or summed weight)."""
        if weighted:
            return np.bincount(
                self.edge_sources(), weights=self.weights, minlength=self.n_nodes
            )
        return np.diff(self.indptr).astype(np.float64)

    def neighbors(self, node: int) -> np.ndarray:
        """Out-neighbour ids of ``node`` (a read-only view)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def neighbor_weights(self, node: int) -> np.ndarray:
        return self.weights[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isin(v, self.neighbors(u)).item())

    def edge_sources(self) -> np.ndarray:
        """Source node of every stored arc, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))

    def edge_array(self) -> np.ndarray:
        """All stored arcs as an ``(n_edges, 2)`` array of (src, dst)."""
        return np.column_stack([self.edge_sources(), self.indices])

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield stored arcs as ``(src, dst, weight)`` tuples."""
        src = self.edge_sources()
        for s, d, w in zip(src, self.indices, self.weights):
            yield int(s), int(d), float(w)

    # ------------------------------------------------------------------ #
    # Matrix views
    # ------------------------------------------------------------------ #

    def adjacency(self) -> sp.csr_matrix:
        """The (weighted) adjacency matrix as a SciPy CSR matrix.

        The matrix is built once and cached on the instance (the graph is
        immutable, and the CSR shares the graph's read-only arrays).
        Callers that need to mutate the result must ``copy()`` it first.
        """
        if self._csr is None:
            self._csr = sp.csr_matrix(
                (self.weights, self.indices, self.indptr),
                shape=(self.n_nodes, self.n_nodes),
            )
        return self._csr

    @property
    def fingerprint(self) -> str:
        """Lazy content hash of the CSR arrays (see :mod:`repro.perf`).

        Computed once per instance; identical graphs (same ``indptr`` /
        ``indices`` / ``weights`` / ``directed``) share the same digest
        even across separately constructed instances, which is what lets
        :class:`repro.perf.OperatorCache` reuse operators between them.
        """
        if self._fingerprint is None:
            from repro.perf.fingerprint import graph_fingerprint

            self._fingerprint = graph_fingerprint(self)
        return self._fingerprint

    @property
    def feature_fingerprint(self) -> str | None:
        """Lazy content hash of ``x`` (``None`` without features).

        ``array_fingerprint(graph.x)``, computed once per instance like
        :attr:`fingerprint`: the propagation engine keys hop stacks of
        ``graph.x`` by it, so clearing the engine does not re-hash the
        feature matrix.
        """
        if self._feature_fingerprint is None and self.x is not None:
            from repro.perf.fingerprint import array_fingerprint

            self._feature_fingerprint = array_fingerprint(self.x)
        return self._feature_fingerprint

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def with_data(
        self, x: np.ndarray | None = None, y: np.ndarray | None = None
    ) -> "Graph":
        """Return a copy of this graph with features/labels attached."""
        return Graph(
            self.indptr,
            self.indices,
            self.weights,
            x=self.x if x is None else x,
            y=self.y if y is None else y,
            directed=self.directed,
            validate=False,
        )

    def add_self_loops(self, weight: float = 1.0) -> "Graph":
        """Return a graph with a self-loop (of ``weight``) on every node.

        Existing self-loops are replaced rather than accumulated, matching
        the GCN renormalisation trick.
        """
        adj = self.adjacency()
        correction = np.full(self.n_nodes, float(weight)) - adj.diagonal()
        out = (adj + sp.diags(correction)).tocsr()
        out.eliminate_zeros()
        return Graph.from_scipy(out, x=self.x, y=self.y, directed=self.directed)

    def remove_self_loops(self) -> "Graph":
        adj = self.adjacency()
        diag = adj.diagonal()
        out = (adj - sp.diags(diag)).tocsr() if diag.any() else adj.copy()
        out.eliminate_zeros()
        return Graph.from_scipy(out, x=self.x, y=self.y, directed=self.directed)

    def to_undirected(self) -> "Graph":
        """Symmetrise a directed graph by taking max(w(u,v), w(v,u))."""
        if not self.directed:
            return self
        adj = self.adjacency()
        sym = adj.maximum(adj.T)
        return Graph.from_scipy(sym, x=self.x, y=self.y, directed=False)

    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Induce the subgraph on ``nodes`` (relabelled to 0..len-1).

        Features and labels are sliced along. Node ``i`` of the result
        corresponds to ``nodes[i]`` of this graph.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= self.n_nodes):
            raise GraphError("subgraph nodes outside [0, n_nodes)")
        if len(np.unique(nodes)) != len(nodes):
            raise GraphError("subgraph nodes must be unique")
        adj = self.adjacency()[nodes][:, nodes].tocsr()
        return Graph.from_scipy(
            adj,
            x=None if self.x is None else self.x[nodes],
            y=None if self.y is None else self.y[nodes],
            directed=self.directed,
        )

    def reweighted(self, weights: np.ndarray) -> "Graph":
        """Return a copy with arc weights replaced (same sparsity pattern)."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.indices.shape:
            raise ShapeError("weights must align with the stored arcs")
        return Graph(
            self.indptr,
            self.indices,
            weights,
            x=self.x,
            y=self.y,
            directed=self.directed,
            validate=False,
        )

    # ------------------------------------------------------------------ #
    # Dunder
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "directed" if self.directed else "undirected"
        extras = []
        if self.x is not None:
            extras.append(f"d={self.x.shape[1]}")
        if self.y is not None:
            extras.append(f"classes={self.n_classes}")
        suffix = (", " + ", ".join(extras)) if extras else ""
        return f"Graph(n={self.n_nodes}, arcs={self.n_edges}, {kind}{suffix})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.n_nodes, self.n_edges, self.directed))
