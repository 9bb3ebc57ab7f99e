"""Shard construction: per-worker local graphs and halo exchange maps.

One shard per partition part. A worker's *local world* is the
halo-augmented subgraph of its part:

* **owned** nodes (the part itself) come first in local id order, so
  ``local id < n_owned`` ⇔ the node is owned — loss masks and result
  slicing are range checks;
* **ghost** nodes (the shard's :func:`repro.editing.partition.halo`
  ghosts — external sources of arcs into the part) follow. Ghosts carry
  features only: arcs *between* ghosts are dropped, because a ghost's
  own aggregation belongs to the worker that owns it;
* the retained arc set is exactly {arcs with at least one owned
  endpoint, both endpoints local}. Owned nodes keep their full
  neighbourhood, so row-normalised (``"rw"``) first-hop aggregation over
  the local graph is *identical* to the global graph's — the property
  the router's exactness test pins down.

The halo exchange maps are **per-arc**, matching the analytic
accounting (``cross-partition arcs × feature dim`` floats per epoch):
for each ordered shard pair ``p → q`` with cross arcs,
``send[q]`` on shard ``p`` lists the local row of the source of every
arc, and ``recv[p]`` on shard ``q`` lists the ghost slot each shipped
row lands in — same arc order on both sides, so the exchange is a
gather on one side and a scatter on the other, one row per arc.
Training ships none of these rows: input features never change, so a
worker's one-time local gather already holds every ghost row. The maps
are the data plane for rows that *do* change between rounds, such as
hop-j rows in a sharded multi-hop precompute, and
:meth:`ShardPlan.halo_floats_per_epoch` models what a system that
exchanged boundary features every epoch would move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.editing.partition import check_assignment, halo
from repro.errors import ConfigError
from repro.graph.core import Graph


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the global graph (index arrays only).

    All ids are global unless suffixed ``_local``. ``indptr`` /
    ``indices`` / ``weights`` describe the halo-augmented local CSR over
    ``n_owned + n_ghosts`` nodes (owned first).
    """

    part: int
    owned: np.ndarray
    ghosts: np.ndarray
    boundary: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    cross_arcs_in: int
    cross_arcs_out: int
    directed: bool
    #: peer part -> local *owned* row per outgoing cross arc (gather side)
    send: dict[int, np.ndarray] = field(default_factory=dict)
    #: peer part -> local *ghost* slot per incoming cross arc (scatter side)
    recv: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_local(self) -> int:
        return len(self.owned) + len(self.ghosts)

    @property
    def local_nodes(self) -> np.ndarray:
        """Global ids of all local nodes, owned first then ghosts."""
        return np.concatenate([self.owned, self.ghosts])

    def local_graph(
        self, x: np.ndarray | None = None, y: np.ndarray | None = None
    ) -> Graph:
        """Materialise the local :class:`Graph`.

        ``x``/``y`` are *local* arrays (``n_local`` rows) when given —
        gather them from the global matrices with :attr:`local_nodes`.
        Validation is skipped: the builder produced a consistent CSR.
        """
        return Graph(
            self.indptr, self.indices, self.weights,
            x=x, y=y, directed=self.directed, validate=False,
        )


@dataclass(frozen=True)
class ShardPlan:
    """The full cluster layout for one partitioned training run."""

    n_parts: int
    assignment: np.ndarray
    shards: list[Shard]
    cross_arcs_total: int

    def halo_floats_per_epoch(self, feature_dim: int) -> int:
        """Modelled per-epoch halo volume of a system that exchanges one
        boundary feature row per cross arc: arcs × feature dim (no
        backend here ships it)."""
        return self.cross_arcs_total * int(feature_dim)


def build_shard(graph: Graph, assignment: np.ndarray, part: int) -> Shard:
    """Build one shard's local CSR and halo index (no features copied)."""
    assignment = np.asarray(assignment, dtype=np.int64)
    hx = halo(graph, assignment, part)
    owned = np.flatnonzero(assignment == part)
    if len(owned) == 0:
        raise ConfigError(f"part {part} owns no nodes")
    local_nodes = np.concatenate([owned, hx.ghosts])
    g2l = np.full(graph.n_nodes, -1, dtype=np.int64)
    g2l[local_nodes] = np.arange(len(local_nodes))

    edges = graph.edge_array()
    src, dst = edges[:, 0], edges[:, 1]
    src_owned = assignment[src] == part
    dst_owned = assignment[dst] == part
    # At least one owned endpoint, both endpoints local (ghost-ghost and
    # fully-foreign arcs are dropped; a dangling directed arc whose other
    # endpoint is not a ghost of this part is dropped too).
    keep = (src_owned | dst_owned) & (g2l[src] >= 0) & (g2l[dst] >= 0)
    n_local = len(local_nodes)
    local = sp.csr_matrix(
        (graph.weights[keep], (g2l[src[keep]], g2l[dst[keep]])),
        shape=(n_local, n_local),
    )
    local.sum_duplicates()
    return Shard(
        part=int(part),
        owned=owned,
        ghosts=hx.ghosts,
        boundary=hx.boundary,
        indptr=local.indptr.astype(np.int64),
        indices=local.indices.astype(np.int64),
        weights=local.data.astype(np.float64),
        cross_arcs_in=hx.cross_arcs_in,
        cross_arcs_out=hx.cross_arcs_out,
        # The keep predicate is symmetric in (src, dst), so an undirected
        # input yields a symmetric local arc set — the flag carries over.
        directed=graph.directed,
    )


def build_shard_plan(
    graph: Graph, assignment: np.ndarray, n_parts: int
) -> ShardPlan:
    """Shards for every part plus aligned pairwise halo exchange maps."""
    assignment = check_assignment(graph, assignment, n_parts)
    shards = [build_shard(graph, assignment, p) for p in range(n_parts)]
    g2l = [np.full(graph.n_nodes, -1, dtype=np.int64) for _ in range(n_parts)]
    for p, shard in enumerate(shards):
        g2l[p][shard.local_nodes] = np.arange(shard.n_local)

    edges = graph.edge_array()
    src_part = assignment[edges[:, 0]]
    dst_part = assignment[edges[:, 1]]
    cross = src_part != dst_part
    cross_edges = edges[cross]
    cross_src_part = src_part[cross]
    cross_dst_part = dst_part[cross]
    for p in range(n_parts):
        for q in range(n_parts):
            if p == q:
                continue
            pair = (cross_src_part == p) & (cross_dst_part == q)
            if not np.any(pair):
                continue
            sources = cross_edges[pair, 0]
            # Same arc order on both sides: sender gathers its owned
            # rows, receiver scatters into its ghost slots.
            shards[p].send[q] = g2l[p][sources]
            shards[q].recv[p] = g2l[q][sources]
    return ShardPlan(
        n_parts=int(n_parts),
        assignment=assignment,
        shards=shards,
        cross_arcs_total=int(np.sum(cross)),
    )
