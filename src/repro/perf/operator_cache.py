"""Memoized construction of derived graph operators.

Every decoupled model in the zoo (SGC/SIGN, GAMLP, SCARA, LD2, spectral
filters, APPNP's propagation step, ...) consumes the same handful of
operators — normalized adjacencies, Laplacians, the renormalised GCN
operator — derived deterministically from an *immutable* graph. Rebuilding
them per model call is pure waste: the data-management argument of the
paper is that precomputation should be shared. :class:`OperatorCache`
memoizes operator construction keyed by the graph's content fingerprint,
with LRU bounds and hit/miss/eviction accounting (a
:class:`~repro.perf.bounded_cache.BoundedCache`).

Cached matrices are returned *shared* between callers, with their
underlying buffers flagged read-only so an accidental in-place mutation
raises instead of silently corrupting every other consumer. Call
``.copy()`` on a result before mutating it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.errors import ConfigError
from repro.graph import ops as graph_ops
from repro.graph.core import Graph
from repro.perf.bounded_cache import BoundedCache
from repro.storage.feature_cache import CacheStats


def _freeze(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Mark a CSR matrix's buffers read-only (shared-cache safety).

    All three CSR arrays are frozen — ``data`` *and* the
    ``indices``/``indptr`` structure — so a caller mutating a cached
    operator's values or topology raises instead of silently corrupting
    every sharer.
    """
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


def _cast_shared(matrix: sp.csr_matrix, dtype: np.dtype) -> sp.csr_matrix:
    """A value-dtype variant of a frozen CSR sharing its index structure.

    Only ``data`` is re-allocated (cast); ``indices``/``indptr`` are the
    *same* frozen arrays as the canonical operator, so a float32 variant
    costs nnz × 4 bytes, not a full matrix copy.
    """
    cast = sp.csr_matrix(matrix.shape, dtype=dtype)
    # Assigned directly (not via the constructor, which copies the index
    # arrays on recent scipy) so the variant really does alias the frozen
    # canonical structure.
    cast.data = matrix.data.astype(dtype)
    cast.indices = matrix.indices
    cast.indptr = matrix.indptr
    cast.has_sorted_indices = matrix.has_sorted_indices
    return cast


class _Entry:
    """One cached operator, built and frozen on a miss."""

    __slots__ = ("matrix",)

    def __init__(self, key: tuple, builder: Callable[[], sp.spmatrix]) -> None:
        with obs.span("perf.operator_build", op=key[1], kind=str(key[2])) as span:
            self.matrix = _freeze(builder().tocsr())
            if span:
                span.set(nnz=int(self.matrix.nnz), n_rows=int(self.matrix.shape[0]))


class OperatorCache:
    """LRU-bounded memoization of graph operators keyed by content.

    Entries are keyed by ``(graph.fingerprint, op, kind, self_loops,
    alpha)``; because the fingerprint hashes the CSR arrays themselves, a
    rebuilt-but-identical graph hits the cache while any structural or
    weight change misses. Value-dtype variants (``dtype=`` on the
    accessors, e.g. a float32 operator for the reduced-precision
    propagation mode) are cached under the canonical key extended with a
    dtype token and share the canonical entry's frozen index structure.
    Results are shared and frozen — copy before mutating.

    Parameters
    ----------
    max_entries:
        Maximum number of cached operators; least-recently-used entries
        are evicted beyond this bound.

    Lookups, evictions and builds run under one reentrant lock, so
    concurrent serving workers share one cache and never build the same
    operator twice; builds are registration-time events, not per-request
    work.
    """

    def __init__(self, max_entries: int = 64) -> None:
        self._store = BoundedCache(max_entries)
        self.max_entries = max_entries

    # ------------------------------------------------------------------ #
    # Core lookup
    # ------------------------------------------------------------------ #

    def _entry(
        self, key: tuple, builder: Callable[[], sp.spmatrix], dtype=None
    ) -> _Entry:
        """The canonical operator's entry, or its value-dtype variant's.

        ``dtype=None`` (and a dtype matching the canonical data) return
        the canonical entry — zero extra cost on the default path. Other
        dtypes are cached under the canonical key extended with the
        dtype token, built by casting ``data`` while sharing the frozen
        ``indices``/``indptr`` (and frozen themselves by the lookup).
        """
        entry = self._store.get_or_build(key, lambda: _Entry(key, builder))
        if dtype is None or entry.matrix.data.dtype == np.dtype(dtype):
            return entry
        dt, base = np.dtype(dtype), entry.matrix
        return self._entry(key + (dt.str,), lambda: _cast_shared(base, dt))

    # ------------------------------------------------------------------ #
    # Operator accessors (mirror repro.graph.ops)
    # ------------------------------------------------------------------ #

    def adjacency(
        self, graph: Graph, self_loops: bool = False, dtype=None
    ) -> sp.csr_matrix:
        """Cached :func:`repro.graph.ops.adjacency_matrix`."""
        key = (graph.fingerprint, "adjacency", None, bool(self_loops), None)
        return self._entry(
            key,
            lambda: graph_ops.adjacency_matrix(graph, self_loops=self_loops),
            dtype,
        ).matrix

    def normalized_adjacency(
        self, graph: Graph, kind: str = "sym", self_loops: bool = True, dtype=None
    ) -> sp.csr_matrix:
        """Cached :func:`repro.graph.ops.normalized_adjacency`."""
        key = (graph.fingerprint, "norm_adj", kind, bool(self_loops), None)
        return self._entry(
            key,
            lambda: graph_ops.normalized_adjacency(
                graph, kind=kind, self_loops=self_loops
            ),
            dtype,
        ).matrix

    def laplacian(
        self, graph: Graph, kind: str = "sym", dtype=None
    ) -> sp.csr_matrix:
        """Cached :func:`repro.graph.ops.laplacian_matrix`."""
        key = (graph.fingerprint, "laplacian", kind, None, None)
        return self._entry(
            key, lambda: graph_ops.laplacian_matrix(graph, kind=kind), dtype
        ).matrix

    def propagation(
        self,
        graph: Graph,
        scheme: str = "gcn",
        alpha: float | None = None,
        dtype=None,
    ) -> sp.csr_matrix:
        """Cached :func:`repro.graph.ops.propagation_matrix`."""
        key = (
            graph.fingerprint,
            "propagation",
            scheme,
            None,
            None if alpha is None else float(alpha),
        )
        return self._entry(
            key,
            lambda: graph_ops.propagation_matrix(graph, scheme=scheme, alpha=alpha),
            dtype,
        ).matrix

    # ------------------------------------------------------------------ #
    # Introspection / management
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction accounting since construction (or clear)."""
        return self._store.stats

    @property
    def nbytes(self) -> int:
        """Total bytes held by cached operator buffers."""
        return sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
            for m in (e.matrix for e in self._store.values())
        )

    def snapshot(self) -> dict[str, float]:
        """Flat counter/rate dict (:class:`repro.obs.StatsSource`)."""
        with self._store.lock:
            return {**self._store.snapshot(), "nbytes": self.nbytes}

    def reset(self) -> None:
        """Zero the counters; cached operators stay resident
        (:meth:`clear` is the destructive variant)."""
        self._store.reset()

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"OperatorCache(entries={len(self)}/{self.max_entries}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )


# --------------------------------------------------------------------- #
# Process-wide default cache
# --------------------------------------------------------------------- #

_default_cache = OperatorCache()


def get_default_cache() -> OperatorCache:
    """The process-wide cache shared by models and trainers."""
    return _default_cache


def set_default_cache(cache: OperatorCache) -> OperatorCache:
    """Swap the process-wide cache; returns the previous one."""
    global _default_cache
    if not isinstance(cache, OperatorCache):
        raise ConfigError("set_default_cache expects an OperatorCache")
    previous = _default_cache
    _default_cache = cache
    return previous


def cached_adjacency(
    graph: Graph, self_loops: bool = False, cache: OperatorCache | None = None
) -> sp.csr_matrix:
    """Adjacency (optionally ``A + I``) served from the operator cache."""
    return (cache if cache is not None else _default_cache).adjacency(
        graph, self_loops=self_loops
    )


def cached_normalized_adjacency(
    graph: Graph,
    kind: str = "sym",
    self_loops: bool = True,
    cache: OperatorCache | None = None,
) -> sp.csr_matrix:
    """Normalized adjacency served from the operator cache."""
    return (cache if cache is not None else _default_cache).normalized_adjacency(
        graph, kind=kind, self_loops=self_loops
    )


def cached_laplacian(
    graph: Graph, kind: str = "sym", cache: OperatorCache | None = None
) -> sp.csr_matrix:
    """Graph Laplacian served from the operator cache."""
    return (cache if cache is not None else _default_cache).laplacian(graph, kind=kind)


def cached_propagation_matrix(
    graph: Graph,
    scheme: str = "gcn",
    alpha: float | None = None,
    cache: OperatorCache | None = None,
) -> sp.csr_matrix:
    """Named propagation operator served from the operator cache."""
    return (cache if cache is not None else _default_cache).propagation(
        graph, scheme=scheme, alpha=alpha
    )
