"""Matrix operators derived from a graph: normalised adjacency, Laplacians.

These are the building blocks of every propagation scheme in the tutorial:
the GCN operator ``D^{-1/2} (A + I) D^{-1/2}``, random-walk transition
matrices for PPR, and normalised Laplacians for spectral filtering.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, GraphError
from repro.graph.core import Graph

_NORMALIZATIONS = ("sym", "rw", "col", "none")
_LAPLACIANS = ("sym", "rw", "comb")


def _kept_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` as sorted unique int64 ids (no sort when already so)."""
    rows = np.asarray(rows, dtype=np.int64)
    if np.any(rows[1:] <= rows[:-1]):
        rows = np.unique(rows)
    return rows


def _select(matrix: sp.csr_matrix, rows: np.ndarray | None) -> sp.csr_matrix:
    """``matrix`` with every row outside ``rows`` emptied (same shape).

    ``rows=None`` returns ``matrix`` itself. The kept rows are copied
    verbatim (same column order and values), so any row-local arithmetic
    applied afterwards gives those rows exactly what it gives them in the
    whole matrix.
    """
    if rows is None:
        return matrix
    rows = _kept_rows(rows)
    if len(rows) and (rows[0] < 0 or rows[-1] >= matrix.shape[0]):
        raise GraphError(f"rows outside [0, {matrix.shape[0]})")
    kept = matrix[rows]
    indptr = np.zeros(matrix.shape[0] + 1, dtype=np.int64)
    indptr[rows + 1] = np.diff(kept.indptr)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((kept.data, kept.indices, indptr), shape=matrix.shape)


def _identity(n: int, rows: np.ndarray | None) -> sp.csr_matrix:
    return _select(sp.identity(n, format="csr"), rows)


def adjacency_matrix(
    graph: Graph, self_loops: bool = False, rows: np.ndarray | None = None
) -> sp.csr_matrix:
    """Adjacency of ``graph``, optionally with unit self-loops added.

    With ``self_loops`` this is the renormalisation-trick operator
    :math:`A + I`, built as a single CSR addition (no ``tolil`` round
    trip). Without it, the graph's cached CSR is returned directly —
    ``copy()`` before mutating. ``rows`` keeps only those rows (the others
    stay empty), as on every operator function in this module.
    """
    adj = _select(graph.adjacency(), rows)
    if self_loops:
        adj = (adj + _identity(graph.n_nodes, rows)).tocsr()
    return adj


def _degrees(graph: Graph, self_loops: bool = False) -> np.ndarray:
    """Row sums of ``A`` (+ the unit loop weight) over the whole graph.

    Taken from the graph's adjacency, never from a row-restricted one, so a
    row-restricted operator scales its rows and columns by exactly the
    degrees the full operator uses.
    """
    deg = np.asarray(graph.adjacency().sum(axis=1)).ravel()
    return deg + 1.0 if self_loops else deg


def _degree_power(graph: Graph, self_loops: bool, power: float) -> sp.dia_matrix:
    deg = _degrees(graph, self_loops)
    scaled = np.zeros_like(deg)
    np.power(deg, power, where=deg > 0, out=scaled)
    return sp.diags(scaled)


def normalized_adjacency(
    graph: Graph,
    kind: str = "sym",
    self_loops: bool = True,
    rows: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Normalised adjacency operator.

    ``kind`` selects the normalisation:

    - ``"sym"``: :math:`D^{-1/2} A D^{-1/2}` (GCN operator; spectrum in [-1, 1])
    - ``"rw"``: :math:`D^{-1} A` (row-stochastic random-walk operator)
    - ``"col"``: :math:`A D^{-1}` (column-stochastic; PPR push convention)
    - ``"none"``: plain :math:`A`

    With ``rows``, only those rows are materialised (an ``(n, n)`` matrix
    whose other rows are empty), through the same diagonal products and
    whole-graph degrees: each kept row is bitwise the full operator's. The
    sparse products then cost O(n) plus the kept rows' non-zeros; only the
    degree vector still reads every arc, in one vectorised row sum.
    """
    if kind not in _NORMALIZATIONS:
        raise ConfigError(f"kind must be one of {_NORMALIZATIONS}, got {kind!r}")
    adj = adjacency_matrix(graph, self_loops=self_loops, rows=rows)
    if kind == "none":
        return adj
    if kind == "sym":
        d = _degree_power(graph, self_loops, -0.5)
        return (d @ adj @ d).tocsr()
    if kind == "rw":
        return (_degree_power(graph, self_loops, -1.0) @ adj).tocsr()
    return (adj @ _degree_power(graph, self_loops, -1.0)).tocsr()


def laplacian_matrix(
    graph: Graph, kind: str = "sym", rows: np.ndarray | None = None
) -> sp.csr_matrix:
    """Graph Laplacian.

    - ``"comb"``: combinatorial :math:`L = D - A`
    - ``"sym"``: symmetric-normalised :math:`I - D^{-1/2} A D^{-1/2}`
      (eigenvalues in [0, 2])
    - ``"rw"``: random-walk :math:`I - D^{-1} A`

    ``rows`` restricts the result as in :func:`normalized_adjacency`.
    """
    if kind not in _LAPLACIANS:
        raise ConfigError(f"kind must be one of {_LAPLACIANS}, got {kind!r}")
    adj = _select(graph.adjacency(), rows)
    if kind == "comb":
        deg = sp.diags(_degrees(graph), format="csr")
        return (_select(deg, rows) - adj).tocsr()
    norm = "sym" if kind == "sym" else "rw"
    return (
        _identity(graph.n_nodes, rows)
        - normalized_adjacency(graph, kind=norm, self_loops=False, rows=rows)
    ).tocsr()


def propagation_matrix(
    graph: Graph,
    scheme: str = "gcn",
    alpha: float | None = None,
    rows: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Named propagation operators used across the model zoo.

    - ``"gcn"``: renormalised GCN operator :math:`\\hat D^{-1/2} \\hat A \\hat D^{-1/2}`
      with :math:`\\hat A = A + I`.
    - ``"rw"``: random-walk operator :math:`D^{-1} A` without self-loops.
    - ``"lazy"``: lazy walk :math:`(1-\\alpha) I + \\alpha D^{-1} A`
      (requires ``alpha``).

    ``rows`` restricts the result as in :func:`normalized_adjacency`.
    """
    if scheme == "gcn":
        return normalized_adjacency(graph, kind="sym", self_loops=True, rows=rows)
    if scheme == "rw":
        return normalized_adjacency(graph, kind="rw", self_loops=False, rows=rows)
    if scheme == "lazy":
        if alpha is None or not 0.0 < alpha <= 1.0:
            raise ConfigError("lazy walk requires alpha in (0, 1]")
        rw = normalized_adjacency(graph, kind="rw", self_loops=False, rows=rows)
        lazy = ((1.0 - alpha) * _identity(graph.n_nodes, rows) + alpha * rw).tocsr()
        # scipy merges a sum in column order only when every row of both
        # operands is sorted, a whole-matrix property that a row-restricted
        # build need not share; sorting gives both builds one order.
        lazy.sort_indices()
        return lazy
    raise ConfigError(f"unknown propagation scheme {scheme!r}")
