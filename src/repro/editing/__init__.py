"""Graph editing (§3.3): techniques that modify the graph to shrink compute.

Sparsification removes edges, sampling draws stochastic mini-batches,
partitioning splits the graph for clustered/distributed training, coarsening
contracts nodes into supernodes, and subgraph extraction materialises local
structures for reuse. Each editing operation returns new graphs / batch
objects; originals are never mutated.
"""

from repro.editing.coarsen import (
    CoarseningResult,
    coarse_node_batches,
    eigenbasis_matching_condense,
    lift_to_original,
    multilevel_coarsen,
    project_to_coarse,
    spectral_coarsening_distance,
)
from repro.editing.partition import (
    HaloIndex,
    PartitionResult,
    cluster_batches,
    edge_cut,
    fennel_partition,
    halo,
    ldg_partition,
    multilevel_partition,
    partition_balance,
    random_partition,
)
from repro.editing.sampling import (
    Block,
    BlockSampler,
    LaborSampler,
    LayerSampler,
    NeighborSampler,
    compact_layer,
    aggregate_with_cache,
    aggregation_difference,
    edge_subgraph_sample,
    estimate_aggregation_variance,
    greedy_aggregation_sample,
    HistoryCache,
    node_subgraph_sample,
    random_walk_subgraph_sample,
)
from repro.editing.sparsify import (
    SparsifyResult,
    effective_resistance_sparsify,
    random_spectral_sparsify,
    spectral_distance,
    threshold_sparsify,
    topk_sparsify,
    unifews_layer_operators,
)
from repro.editing.subgraph import (
    WalkSetStorage,
    ego_subgraph,
    relative_position_encoding,
)

__all__ = [
    "SparsifyResult",
    "threshold_sparsify",
    "topk_sparsify",
    "random_spectral_sparsify",
    "effective_resistance_sparsify",
    "spectral_distance",
    "unifews_layer_operators",
    "Block",
    "BlockSampler",
    "compact_layer",
    "NeighborSampler",
    "LayerSampler",
    "LaborSampler",
    "HistoryCache",
    "aggregate_with_cache",
    "node_subgraph_sample",
    "edge_subgraph_sample",
    "random_walk_subgraph_sample",
    "estimate_aggregation_variance",
    "aggregation_difference",
    "greedy_aggregation_sample",
    "PartitionResult",
    "HaloIndex",
    "halo",
    "random_partition",
    "ldg_partition",
    "fennel_partition",
    "multilevel_partition",
    "edge_cut",
    "partition_balance",
    "cluster_batches",
    "CoarseningResult",
    "multilevel_coarsen",
    "project_to_coarse",
    "lift_to_original",
    "eigenbasis_matching_condense",
    "spectral_coarsening_distance",
    "coarse_node_batches",
    "WalkSetStorage",
    "ego_subgraph",
    "relative_position_encoding",
]
