"""GraphSAGE: mean-aggregator convolutions over sampled blocks.

The canonical node-level-sampling model (§3.1.2/§3.3.2). Each layer
computes ``W_self · h_u + W_neigh · mean_{v in sampled N(u)} h_v``; during
training the neighbourhood mean comes from a sampler's
:class:`~repro.editing.sampling.Block` operator, during inference from the
full row-normalised adjacency. The same weights serve both paths, so a
model trained with any block sampler (uniform, LABOR, layer-wise) is
evaluated exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, ShapeError
from repro.editing.sampling import Block
from repro.graph.core import Graph
from repro.graph.ops import normalized_adjacency
from repro.tensor import functional as F
from repro.tensor.autograd import Tensor, spmm
from repro.tensor.nn import Dropout, Linear, Module
from repro.utils.rng import as_rng


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


class GraphSAGE(Module):
    """Multi-layer GraphSAGE usable with blocks or the full graph.

    ``forward_blocks(blocks, x_src)`` consumes the output of any block
    sampler (blocks input-layer first); ``forward_full(adj_rw, x)`` runs
    exact inference with the row-normalised adjacency.
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

    def forward_full(self, adj_rw: sp.spmatrix, x: np.ndarray | Tensor) -> Tensor:
        """Exact full-graph forward (identity blocks over all nodes)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        n = adj_rw.shape[0]
        for i, conv in enumerate(self.convs):
            if self.dropout is not None:
                x = self.dropout(x)
            x = conv(adj_rw, x, n)
            if i < len(self.convs) - 1:
                x = F.relu(x)
        return x
