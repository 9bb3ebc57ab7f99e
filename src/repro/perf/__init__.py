"""Precomputation reuse: operator caching and shared K-hop propagation.

The paper's data-management thesis is that scalable GNNs win by *reusing
precomputation*: decoupled models consume the same normalized-adjacency
operators and K-hop propagated features, so building them once and sharing
them across models dominates repeated construction. This subpackage makes
that reuse concrete:

* :mod:`repro.perf.fingerprint` — content hashing of immutable graphs and
  arrays, the cache keys.
* :mod:`repro.perf.bounded_cache` — :class:`BoundedCache`, the one
  LRU-bounded, locked, hit/miss-counted memo every cache below is built
  on.
* :mod:`repro.perf.operator_cache` — :class:`OperatorCache`, LRU-bounded
  memoization of adjacency / normalized adjacency / Laplacian /
  propagation operators (and their value-dtype variants) with hit/miss
  accounting.
* :mod:`repro.perf.arena` — :class:`BufferArena`, a shape/dtype-keyed
  pool of dense scratch buffers rented by the serving batch workers.
* :mod:`repro.perf.propagation` — :class:`PropagationEngine`, K-hop SpMM
  with memoized hop stacks, the shared ``propagate(graph, X, K, kind)``
  entry point of every decoupled model; ``spmm`` (scipy's CSR kernel
  over nnz-balanced row bands, :mod:`repro.utils.bands`) and
  ``rows_spmm`` wrap the product in the ``propagation.hop`` fault site, and
  ``row_operator`` builds chosen rows of an engine operator uncached.
"""

from repro.perf.arena import (
    BufferArena,
    get_default_arena,
    set_default_arena,
)
from repro.perf.bounded_cache import BoundedCache
from repro.perf.fingerprint import array_fingerprint, graph_fingerprint
from repro.perf.operator_cache import (
    OperatorCache,
    cached_adjacency,
    cached_laplacian,
    cached_normalized_adjacency,
    cached_propagation_matrix,
    get_default_cache,
    set_default_cache,
)
from repro.perf.propagation import (
    PropagationEngine,
    get_default_engine,
    propagate,
    row_operator,
    rows_spmm,
    set_default_engine,
    spmm,
)

__all__ = [
    "array_fingerprint",
    "graph_fingerprint",
    "BoundedCache",
    "OperatorCache",
    "get_default_cache",
    "set_default_cache",
    "cached_adjacency",
    "cached_normalized_adjacency",
    "cached_laplacian",
    "cached_propagation_matrix",
    "BufferArena",
    "get_default_arena",
    "set_default_arena",
    "PropagationEngine",
    "spmm",
    "rows_spmm",
    "row_operator",
    "propagate",
    "get_default_engine",
    "set_default_engine",
]
