"""GraphSAGE: mean-aggregator convolutions over sampled blocks.

The canonical node-level-sampling model (§3.1.2/§3.3.2). Each layer
computes ``W_self · h_u + W_neigh · mean_{v in sampled N(u)} h_v``; during
training the neighbourhood mean comes from a sampler's
:class:`~repro.editing.sampling.Block` operator, during inference from the
full row-normalised adjacency. The same weights serve both paths, so a
model trained with any block sampler (uniform, LABOR, layer-wise) is
evaluated exactly.

Inference for a subset of nodes costs what their L-hop neighbourhood
costs, not what the graph costs: :meth:`GraphSAGE.forward_full` with
``rows=`` multiplies only the rows of each layer's dependency frontier
and returns logits bitwise equal to the full forward's rows.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, ShapeError
from repro.editing.sampling import Block, compact_layer
from repro.graph.core import Graph
from repro.graph.ops import normalized_adjacency
from repro.tensor import functional as F
from repro.tensor.autograd import Tensor, spmm
from repro.tensor.nn import Dropout, Linear, Module
from repro.utils.rng import as_rng
from repro.utils.validation import check_node_ids

# Rows per GEMM call in exact inference. BLAS picks its kernel, thread
# split and tail handling from the operand shapes, so ``(x @ w)[r]`` is not
# bitwise ``x[r] @ w`` in general (a single row even takes gemv). Feeding
# every product as fixed ``(_ROW_BLOCK, k)`` blocks, the last one
# zero-padded, makes a row's bits independent of how many rows share it.
_ROW_BLOCK = 1024


def _blocked_matmul(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` through equal-shape GEMM calls (see ``_ROW_BLOCK``)."""
    a = np.ascontiguousarray(a)
    out = np.empty((a.shape[0], w.shape[1]))
    full = a.shape[0] - a.shape[0] % _ROW_BLOCK
    for start in range(0, full, _ROW_BLOCK):
        np.matmul(a[start:start + _ROW_BLOCK], w, out=out[start:start + _ROW_BLOCK])
    if full < a.shape[0]:
        tail = np.zeros((_ROW_BLOCK, a.shape[1]))
        tail[: a.shape[0] - full] = a[full:]
        out[full:] = (tail @ w)[: a.shape[0] - full]
    return out


def _linear_rows(linear: Linear, x: Tensor) -> Tensor:
    """``linear(x)`` whose every output row depends only on its input row."""
    weight = linear.weight

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ grad)

    out = Tensor._make(_blocked_matmul(x.data, weight.data), (x, weight), backward)
    return out if linear.bias is None else out + linear.bias


class SAGEConv(Module):
    """One GraphSAGE layer with a (sampled) mean aggregator."""

    def __init__(self, in_features: int, out_features: int, seed=None) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.self_linear = Linear(in_features, out_features, seed=rng)
        self.neigh_linear = Linear(in_features, out_features, bias=False, seed=rng)

    def forward(self, operator: sp.spmatrix, x_src: Tensor, n_dst: int) -> Tensor:
        """``operator`` maps src rows to dst aggregates; dst = src[:n_dst]."""
        if operator.shape[1] != x_src.shape[0]:
            raise ShapeError(
                f"operator columns {operator.shape[1]} != src rows {x_src.shape[0]}"
            )
        x_dst = x_src.head_rows(n_dst)
        return self.self_linear(x_dst) + self.neigh_linear(spmm(operator, x_src))

    def infer(self, operator: sp.spmatrix, x_src: Tensor, x_dst: Tensor) -> Tensor:
        """:meth:`forward` with the dst rows given, each output row
        computed independently of the others (exact inference)."""
        return _linear_rows(self.self_linear, x_dst) + _linear_rows(
            self.neigh_linear, spmm(operator, x_src)
        )


class GraphSAGE(Module):
    """Multi-layer GraphSAGE usable with blocks or the full graph.

    ``forward_blocks(blocks, x_src)`` consumes the output of any block
    sampler (blocks input-layer first); ``forward_full(adj_rw, x)`` runs
    exact inference with the row-normalised adjacency, and
    ``forward_full(adj_rw, x, rows)`` the same inference for ``rows`` only,
    over their L-hop dependency frontier (see :meth:`frontiers`).
    """

    def __init__(
        self,
        in_features: int,
        hidden: int,
        n_classes: int,
        n_layers: int = 2,
        dropout: float = 0.5,
        seed=None,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
        rng = as_rng(seed)
        dims = [in_features] + [hidden] * (n_layers - 1) + [n_classes]
        self.convs = [
            SAGEConv(dims[i], dims[i + 1], seed=rng) for i in range(n_layers)
        ]
        self.dropout = Dropout(dropout, seed=rng) if dropout > 0 else None

    @staticmethod
    def prepare(graph: Graph) -> sp.csr_matrix:
        """Full-inference operator: the row-normalised adjacency."""
        return normalized_adjacency(graph, kind="rw", self_loops=False)

    def forward_blocks(self, blocks: list[Block], x_src: np.ndarray) -> Tensor:
        """Logits for the seed nodes of a sampled mini-batch.

        ``x_src`` holds input features for ``blocks[0].src_ids`` (global
        gather done by the caller/trainer).
        """
        if len(blocks) != len(self.convs):
            raise ConfigError(
                f"model has {len(self.convs)} layers but got {len(blocks)} blocks"
            )
        x = Tensor(x_src)
        for i, (conv, block) in enumerate(zip(self.convs, blocks)):
            if self.dropout is not None:
                x = self.dropout(x)
            x = conv(block.matrix, x, block.n_dst)
            if i < len(self.convs) - 1:
                x = F.relu(x)
        return x

    def frontiers(self, adj_rw: sp.spmatrix, rows) -> list[np.ndarray]:
        """Each layer's destination node ids for an exact forward of
        ``rows``, input layer first.

        The last layer's set is ``rows``; each earlier set is the next one
        followed by its in-neighbours (columns of ``adj_rw``) not already
        in it, in first-appearance order: a prefix of the one before it.
        Invalid ``rows`` raise :class:`~repro.errors.GraphError`.
        """
        adj = adj_rw.tocsr()
        plan = self._plan(adj, check_node_ids(rows, adj.shape[0]))
        return [dst for dst, _ in plan]

    def _plan(
        self, adj: sp.csr_matrix, rows: np.ndarray
    ) -> list[tuple[np.ndarray, sp.csr_matrix]]:
        """``(dst ids, operator)`` per layer, input layer first.

        A layer's operator is :func:`compact_layer` of its rows
        ``adj[dst]``, exactly as for a sampled layer, and its ``src_ids``
        (first appearance order) are the previous layer's dst set; the
        input layer keeps the row slice over global columns. Both keep
        every row's stored order, so each aggregate sums the same terms in
        the same order as the full product.
        """
        dst, plan = rows, []
        for _ in self.convs[1:]:
            block = compact_layer(dst, adj[dst])
            plan.append((dst, block.matrix))
            dst = block.src_ids
        plan.append((dst, adj[dst]))
        plan.reverse()
        return plan

    def forward_full(
        self, adj_rw: sp.spmatrix, x: np.ndarray | Tensor, rows=None
    ) -> Tensor:
        """Exact full-neighbourhood forward.

        ``rows=None`` returns every node's logits. Otherwise only the
        logits of ``rows`` (any order, duplicates allowed), computed over
        their dependency frontier: layer l multiplies ``len(frontier_l)``
        operator rows instead of ``n``, and the result is bitwise equal to
        ``forward_full(adj_rw, x).data[rows]``. Layer 1 multiplies its row
        slice against the global ``x`` (no gather); later layers read the
        previous layer's frontier rows.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        adj = adj_rw.tocsr()
        n = adj.shape[0]
        if x.shape[0] != n:
            raise ShapeError(f"operator columns {n} != src rows {x.shape[0]}")
        if rows is None:
            plan = [(None, adj)] * len(self.convs)
        else:
            plan = self._plan(adj, check_node_ids(rows, n))
        for i, (conv, (dst, operator)) in enumerate(zip(self.convs, plan)):
            if self.dropout is not None:
                x = self.dropout(x)
            if i == 0 and dst is not None:
                x_dst = x.gather_rows(dst)
            else:
                x_dst = x.head_rows(operator.shape[0])
            x = conv.infer(operator, x, x_dst)
            if i < len(self.convs) - 1:
                x = F.relu(x)
        return x
