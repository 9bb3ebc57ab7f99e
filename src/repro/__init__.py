"""repro — a scalable-GNN toolkit from the graph-data-management perspective.

This library reproduces, as a working system, the catalogue of techniques
surveyed in the SIGMOD-Companion 2025 tutorial *"Advances in Designing
Scalable Graph Neural Networks: The Perspective of Graph Data Management"*:

* :mod:`repro.graph` — CSR graph substrate, generators, operators.
* :mod:`repro.tensor` — NumPy reverse-mode autograd and neural-net layers.
* :mod:`repro.analytics` — graph analytics & querying (§3.2): PPR, spectral
  filters, SimRank, hub labeling, similarity/rewiring, centrality.
* :mod:`repro.editing` — graph editing (§3.3): sparsification, sampling,
  partitioning, coarsening/condensation, subgraph extraction.
* :mod:`repro.models` — the scalable-GNN zoo (§3.1–3.3) built on the above.
* :mod:`repro.perf` — operator caching and the shared chunked propagation
  engine: precomputation reuse across every decoupled model.
* :mod:`repro.serving` — online inference: micro-batched request serving,
  content-keyed embedding store, incremental dirty-set invalidation.
* :mod:`repro.training` — trainers, metrics, the minibatch datapipe.
* :mod:`repro.distributed` — partition-parallel training over halo shards,
  in one process or in spawned workers (one algorithm, bitwise equal).
* :mod:`repro.obs` — unified observability: nested-span tracing, metrics
  registry + stats-source snapshots, ``repro.*`` logging (off by default).
* :mod:`repro.resilience` — fault injection, checksummed checkpoints,
  circuit breakers, retry/backoff: failure as a testable input.
* :mod:`repro.datasets` — synthetic node-classification workloads.
* :mod:`repro.bench` — timing/memory accounting and table formatting.
* :mod:`repro.taxonomy` — machine-readable Figure 1 of the paper.
"""

from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    ConvergenceError,
    DistributedError,
    DivergenceError,
    FaultError,
    GraphError,
    LoadSheddingError,
    NotFittedError,
    ReproError,
    ServingError,
    ShapeError,
    TransientError,
)
from repro.graph import Graph

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "ReproError",
    "GraphError",
    "ShapeError",
    "ConvergenceError",
    "NotFittedError",
    "ConfigError",
    "ServingError",
    "LoadSheddingError",
    "TransientError",
    "FaultError",
    "CheckpointError",
    "DivergenceError",
    "DistributedError",
    "CircuitOpenError",
    "__version__",
]
