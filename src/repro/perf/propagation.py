"""Row-chunked K-hop propagation with memoized hop-feature stacks.

The single graph-touching step of every decoupled model is the K-hop
stack :math:`[X, PX, \\ldots, P^K X]` for some propagation operator
:math:`P`. :class:`PropagationEngine` computes that stack *once* per
``(graph, features, operator)`` combination and serves it to every model
that asks — SGC, SIGN, GAMLP, LD2, KRR and the spectral filters all go
through :meth:`PropagationEngine.propagate`, so repeat experiments on the
same graph pay zero additional SpMM cost.

The SpMM itself is *row-chunked* (:func:`chunked_spmm`): the operator is
applied ``chunk_rows`` rows at a time, so the transient working set stays
bounded regardless of graph size — the bounded-peak-memory discipline of
out-of-core systems (Ginex et al.), applied to in-memory precompute.

``chunked_spmm`` / ``rows_spmm`` are thin *dispatchers*: they own the
``propagation.hop`` fault-injection site and the fallback semantics,
and route eligible operands to the hand-rolled CSR kernels of
:mod:`repro.perf.kernels` (zero-copy row walk, L2-tiled column
blocking, decoded row bands). Unsupported dtypes or operator formats
take the per-chunk scipy slice path. For the ``gcn``/``sym`` engines
the per-hop multiply runs through a
:class:`~repro.perf.kernels.FusedOperator` — normalization applied on
the fly, the normalized operator never materialized — with scratch
rented from :mod:`repro.perf.arena`; the operator cache keeps the
wrapper in the entry of the adjacency it wraps.

The engine is dtype-aware end to end: ``PropagationEngine(dtype=...)``
(or a per-call ``propagate(..., dtype=...)`` override) selects float32
or float64 for the whole hop stack. The default stays float64, matching
the historical behaviour of upcasting every input; float32 halves the
memory traffic of this memory-bound kernel.

Memoized stacks grow on demand: asking for ``K=4`` after ``K=2`` extends
the cached stack by two hops instead of recomputing from scratch, and a
shorter request is served as a prefix slice.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.errors import ConfigError
from repro.graph.core import Graph
from repro.obs import OBS
from repro.perf import kernels
from repro.perf.arena import BufferArena
from repro.perf.bounded_cache import BoundedCache
from repro.perf.fingerprint import array_fingerprint
from repro.perf.operator_cache import OperatorCache, get_default_cache
from repro.resilience.faults import FAULTS
from repro.storage.feature_cache import CacheStats
from repro.utils.validation import check_int_range

DEFAULT_CHUNK_ROWS = 16384

_ENGINE_KINDS = ("gcn", "rw", "lazy", "col", "sym", "lap")


def _fire_hop_fault():
    """Arm the ``propagation.hop`` fault site; returns ``(injector, action)``.

    Decided before the SpMM so transient crashes and injected stragglers
    cost no compute; corrupt/drop act on the hop output via
    :func:`_apply_hop_fault`. One attribute check when chaos is off; the
    injector is loaded into a local exactly once because a concurrent
    clear_injector() may null FAULTS.injector mid-call.
    """
    inj = FAULTS.injector if FAULTS.active else None
    action = inj.fire("propagation.hop") if inj is not None else None
    return inj, action


def _apply_hop_fault(inj, action, out: np.ndarray) -> np.ndarray:
    if action == "corrupt":
        return inj.corrupt(out)
    if action == "drop":
        # A dropped hop result models a lost partial aggregation.
        return np.zeros_like(out)
    return out


def chunked_spmm(
    operator: sp.spmatrix,
    dense: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    l2_budget: int = kernels.DEFAULT_L2_BUDGET,
) -> np.ndarray:
    """``operator @ dense`` computed ``chunk_rows`` rows at a time.

    Numerically identical to the monolithic product (bitwise, for a
    sorted-indices CSR operator), with the transient working set bounded
    regardless of graph size. Operand pairs the hand-rolled kernels
    accept (:func:`~repro.perf.kernels.kernel_supported`) run through
    :func:`~repro.perf.kernels.blocked_spmm` — column-blocked via a
    cached :class:`~repro.perf.kernels.SpmmPlan` for frozen operators
    whose dense operand overflows ``l2_budget``, zero-copy row walk
    otherwise. Everything else (CSC or integer operators, mixed dtypes,
    non-contiguous dense operands) takes the per-chunk scipy
    ``operator[start:stop] @ dense`` slice path.
    """
    check_int_range("chunk_rows", chunk_rows, 1)
    inj, action = _fire_hop_fault()
    dense = np.asarray(dense)
    if kernels.kernel_supported(operator, dense):
        out = kernels.blocked_spmm(operator, dense, chunk_rows, l2_budget=l2_budget)
    else:
        n_rows = operator.shape[0]
        if n_rows <= chunk_rows:
            out = operator @ dense
        else:
            operator = operator.tocsr()
            out_shape = (n_rows,) if dense.ndim == 1 else (n_rows, dense.shape[1])
            out = np.empty(
                out_shape, dtype=np.result_type(operator.dtype, dense.dtype)
            )
            for start in range(0, n_rows, chunk_rows):
                stop = min(start + chunk_rows, n_rows)
                out[start:stop] = operator[start:stop] @ dense
    return _apply_hop_fault(inj, action, out)


def fused_spmm(
    operator: kernels.FusedOperator,
    dense: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    l2_budget: int = kernels.DEFAULT_L2_BUDGET,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """One fused normalize+propagate hop, under the ``propagation.hop``
    fault site (the fused analogue of :func:`chunked_spmm`)."""
    check_int_range("chunk_rows", chunk_rows, 1)
    inj, action = _fire_hop_fault()
    out = operator.matmul(
        np.asarray(dense), chunk_rows, l2_budget=l2_budget, arena=arena
    )
    return _apply_hop_fault(inj, action, out)


def _rows_product(operator, rows, dense, chunk_rows, band):
    """The fault-free core of :func:`rows_spmm` (dispatch + chunking)."""
    if (
        band is not None
        and kernels.HAVE_SPARSETOOLS
        and band.dtype == dense.dtype
        and dense.flags.c_contiguous
        and band.matches(rows)
    ):
        return band.matmul(dense)
    csr = operator.tocsr()
    if len(rows) and kernels.kernel_supported(csr, dense):
        out = np.empty((len(rows),) + dense.shape[1:], dtype=dense.dtype)
        for start in range(0, len(rows), chunk_rows):
            stop = min(start + chunk_rows, len(rows))
            kernels.RowBand(csr, rows[start:stop]).matmul(
                dense, out=out[start:stop]
            )
        return out
    if len(rows) <= chunk_rows:
        return csr[rows] @ dense
    out = np.empty(
        (len(rows),) + dense.shape[1:],
        dtype=np.result_type(csr.dtype, dense.dtype),
    )
    for start in range(0, len(rows), chunk_rows):
        stop = min(start + chunk_rows, len(rows))
        out[start:stop] = csr[rows[start:stop]] @ dense
    return out


def rows_spmm(
    operator: sp.spmatrix,
    rows: np.ndarray,
    dense: np.ndarray,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    band: kernels.RowBand | None = None,
) -> np.ndarray:
    """``(operator @ dense)[rows]`` without computing the full product.

    Multiplies only the band of the selected rows — cost proportional to
    their non-zeros, not the whole graph. The localized-recompute kernel
    of incremental serving: after an edge insertion only the dirty K-hop
    rows of a hop stack are re-derived this way.

    The selection is processed ``chunk_rows`` rows at a time, so a dirty
    frontier covering most of the graph still observes the same peak
    transient memory bound as :func:`chunked_spmm`. Eligible operands
    decode each chunk into a :class:`~repro.perf.kernels.RowBand`
    (vectorized index gather, no scipy fancy-index slice); a caller that
    applies the *same* row set repeatedly may pass a pre-decoded
    ``band`` to skip the decode entirely (it is used only when it
    matches ``rows`` and the dense dtype).
    """
    check_int_range("chunk_rows", chunk_rows, 1)
    inj, action = _fire_hop_fault()
    rows = np.asarray(rows, dtype=np.int64)
    dense = np.asarray(dense)
    out = _rows_product(operator, rows, dense, chunk_rows, band)
    return _apply_hop_fault(inj, action, out)


def rows_spmm_multi(
    operator: sp.spmatrix,
    rows: np.ndarray,
    denses: list[np.ndarray],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
) -> list[np.ndarray]:
    """``[(operator @ D)[rows] for D in denses]`` with one index decode.

    The multi-RHS batched form of :func:`rows_spmm`: each ``chunk_rows``
    window of the selection is decoded into a
    :class:`~repro.perf.kernels.RowBand` once and applied to every
    stacked right-hand side, amortizing the index arithmetic that
    otherwise dominates when the dense operands are narrow. One
    ``propagation.hop`` fault decision covers the whole batch (it is a
    single logical recompute).
    """
    check_int_range("chunk_rows", chunk_rows, 1)
    inj, action = _fire_hop_fault()
    rows = np.asarray(rows, dtype=np.int64)
    denses = [np.asarray(d) for d in denses]
    csr = operator.tocsr() if denses else operator
    if denses and all(
        d.dtype == denses[0].dtype and kernels.kernel_supported(csr, d)
        for d in denses
    ):
        outs = [
            np.empty((len(rows),) + d.shape[1:], dtype=d.dtype) for d in denses
        ]
        for start in range(0, len(rows), chunk_rows):
            stop = min(start + chunk_rows, len(rows))
            band = kernels.RowBand(csr, rows[start:stop])
            for dense, out in zip(denses, outs):
                band.matmul(dense, out=out[start:stop])
    else:
        outs = [
            _rows_product(csr, rows, dense, chunk_rows, None) for dense in denses
        ]
    return [_apply_hop_fault(inj, action, out) for out in outs]


class PropagationEngine:
    """Shared K-hop propagation: chunked SpMM + memoized hop stacks.

    Parameters
    ----------
    cache:
        Operator cache used to build/reuse the propagation operators; when
        ``None`` the process-wide default cache is consulted at call time.
    chunk_rows:
        Row-chunk size for :func:`chunked_spmm`.
    max_stacks:
        LRU bound on memoized hop stacks (each stack holds ``K+1`` dense
        ``(n, d)`` arrays, so this is the dominant memory knob).
    dtype:
        Element type of every propagated stack: ``float64`` (default,
        the historical behaviour) or ``float32``, which halves the
        memory traffic of the memory-bound SpMM. Overridable per call
        via ``propagate(..., dtype=...)``.
    fused:
        Run ``gcn``/``sym`` hops through the fused normalize+propagate
        kernel (:class:`repro.perf.kernels.FusedOperator`) instead of
        materializing the normalized operator (default on; agreement is
        to rounding error, ~1e-15 relative for float64).
    l2_budget:
        Dense-tile cache budget handed to the blocked kernels.
    arena:
        Buffer arena the fused kernel rents scratch from; ``None`` uses
        the process-wide default arena.

    Memoized propagation is serialized under the stack memo's reentrant
    lock. Stack construction is a registration-time event, not
    per-request work, so serializing concurrent builders is the correct
    trade — two threads racing the same key would otherwise both pay the
    full K-hop SpMM and tear the LRU bookkeeping.
    """

    def __init__(
        self,
        cache: OperatorCache | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        max_stacks: int = 8,
        dtype=np.float64,
        fused: bool = True,
        l2_budget: int = kernels.DEFAULT_L2_BUDGET,
        arena: BufferArena | None = None,
    ) -> None:
        check_int_range("chunk_rows", chunk_rows, 1)
        check_int_range("max_stacks", max_stacks, 1)
        check_int_range("l2_budget", l2_budget, 1)
        self._cache = cache
        self.chunk_rows = chunk_rows
        self.max_stacks = max_stacks
        self.dtype = self._check_dtype(dtype)
        self.fused = bool(fused)
        self.l2_budget = l2_budget
        self._arena = arena
        self._stacks = BoundedCache(max_stacks)
        self._feature_hashes = BoundedCache(4 * max_stacks)

    @staticmethod
    def _check_dtype(dtype) -> np.dtype:
        dt = np.dtype(dtype)
        if dt not in kernels.SUPPORTED_DTYPES:
            raise ConfigError(
                f"propagation dtype must be float32 or float64, got {dt}"
            )
        return dt

    @property
    def cache(self) -> OperatorCache:
        """The operator cache this engine builds operators through."""
        return self._cache if self._cache is not None else get_default_cache()

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #

    def operator(
        self,
        graph: Graph,
        kind: str = "gcn",
        alpha: float | None = None,
        dtype=None,
    ) -> sp.csr_matrix:
        """The cached propagation operator for ``kind``.

        - ``"gcn"`` / ``"rw"`` / ``"lazy"``: the schemes of
          :func:`repro.graph.ops.propagation_matrix` (``lazy`` needs
          ``alpha``).
        - ``"col"``: column-stochastic :math:`A D^{-1}` (PPR push).
        - ``"sym"``: :math:`D^{-1/2} A D^{-1/2}` without self-loops.
        - ``"lap"``: symmetric-normalised Laplacian (high-pass filters).

        ``dtype`` selects a value-dtype variant (cached alongside the
        canonical operator, sharing its frozen index structure).
        """
        if kind in ("gcn", "rw", "lazy"):
            return self.cache.propagation(graph, scheme=kind, alpha=alpha,
                                          dtype=dtype)
        if kind == "col":
            return self.cache.normalized_adjacency(
                graph, kind="col", self_loops=False, dtype=dtype
            )
        if kind == "sym":
            return self.cache.normalized_adjacency(
                graph, kind="sym", self_loops=False, dtype=dtype
            )
        if kind == "lap":
            return self.cache.laplacian(graph, kind="sym", dtype=dtype)
        raise ConfigError(f"kind must be one of {_ENGINE_KINDS}, got {kind!r}")

    def _hop_operator(self, graph: Graph, kind: str, alpha, dtype: np.dtype):
        """What one hop multiplies by: a fused wrapper for the
        symmetric-normalized kinds, else the cached materialized operator."""
        if self.fused and kind in ("gcn", "sym") and kernels.HAVE_SPARSETOOLS:
            return self.cache.fused_adjacency(
                graph, self_loops=(kind == "gcn"), dtype=dtype
            )
        return self.operator(graph, kind, alpha, dtype=dtype)

    def _apply_hop(self, operator, dense: np.ndarray) -> np.ndarray:
        """One hop through the matching dispatcher (fault site included)."""
        if isinstance(operator, kernels.FusedOperator):
            return fused_spmm(
                operator, dense, self.chunk_rows,
                l2_budget=self.l2_budget, arena=self._arena,
            )
        return chunked_spmm(
            operator, dense, self.chunk_rows, l2_budget=self.l2_budget
        )

    def _feature_fingerprint(self, features: np.ndarray) -> str:
        """Content hash of a feature matrix, memoized by identity.

        Read-only arrays (e.g. ``graph.x``, or a previously served hop)
        cannot change content, so their digest is cached keyed by object
        identity — repeat lookups of a warm stack cost O(1) instead of a
        full re-hash. Writable arrays are always re-hashed.
        """
        if features.flags.writeable:
            return array_fingerprint(features)
        return self._feature_hashes.get_or_build_for(
            features, lambda: array_fingerprint(features)
        )

    def _hop(self, operator, dense: np.ndarray, hop: int) -> np.ndarray:
        """One hop of SpMM, under a ``perf.spmm`` kernel span when
        observability is enabled (a single ``OBS.enabled`` check when it
        is not)."""
        if not OBS.enabled:
            return self._apply_hop(operator, dense)
        with OBS.tracer.span(
            "perf.spmm", hop=hop, nnz=int(operator.nnz),
            chunk_rows=self.chunk_rows,
            fused=isinstance(operator, kernels.FusedOperator),
        ) as span:
            out = self._apply_hop(operator, dense)
            span.set(out_bytes=int(out.nbytes))
        return out

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #

    def propagate(
        self,
        graph: Graph,
        features: np.ndarray,
        k: int,
        kind: str = "gcn",
        alpha: float | None = None,
        memoize: bool = True,
        dtype=None,
    ) -> list[np.ndarray]:
        """The hop stack ``[X, PX, ..., P^K X]`` (``K+1`` arrays).

        Served from the stack cache when the same ``(graph, features,
        kind, dtype)`` combination was propagated before: shorter
        requests return a prefix, longer ones extend the cached stack in
        place. Returned arrays are read-only and shared — copy before
        mutating. Pass ``memoize=False`` for one-off inputs (e.g.
        randomly corrupted views) that should not occupy cache slots.
        ``dtype`` overrides the engine's configured stack dtype for this
        call (float32 or float64); features are cast up front so the
        whole stack — and every SpMM — runs in that precision.
        """
        check_int_range("k", k, 0)
        eff_dtype = self.dtype if dtype is None else self._check_dtype(dtype)
        features = np.asarray(features, dtype=eff_dtype)
        if features.shape[0] != graph.n_nodes:
            raise ConfigError(
                f"features must have one row per node "
                f"({graph.n_nodes}), got {features.shape[0]}"
            )
        if not memoize:
            with obs.span(
                "perf.propagate", n_nodes=graph.n_nodes, k=k, kind=kind,
                memoize=False, dtype=eff_dtype.name,
            ):
                operator = self._hop_operator(graph, kind, alpha, eff_dtype)
                stack = [features]
                for _ in range(k):
                    stack.append(self._hop(operator, stack[-1], len(stack)))
            return stack
        # Memoized path: the whole lookup-or-build runs under the stack
        # memo's lock so concurrent callers never duplicate a build or
        # tear the LRU order.
        with self._stacks.lock:
            return self._propagate_memoized(
                graph, features, k, kind, alpha, eff_dtype
            )

    def _propagate_memoized(
        self,
        graph: Graph,
        features: np.ndarray,
        k: int,
        kind: str,
        alpha: float | None,
        eff_dtype: np.dtype,
    ) -> list[np.ndarray]:
        key = (
            graph.fingerprint,
            self._feature_fingerprint(features),
            kind,
            None if alpha is None else float(alpha),
            eff_dtype.str,
        )
        stack = self._stacks.get(key)
        if stack is not None and len(stack) > k:
            self._stacks.hits += 1
            with obs.span(
                "perf.propagate", n_nodes=graph.n_nodes, k=k, kind=kind,
                cache_hit=True,
            ):
                return list(stack[: k + 1])
        self._stacks.misses += 1
        if stack is None:
            base = features if not features.flags.writeable else features.copy()
            base.setflags(write=False)
            stack = [base]
        if len(stack) <= k:
            with obs.span(
                "perf.propagate", n_nodes=graph.n_nodes, k=k, kind=kind,
                cached_hops=len(stack) - 1, dtype=eff_dtype.name,
            ) as span:
                operator = self._hop_operator(graph, kind, alpha, eff_dtype)
                while len(stack) <= k:
                    nxt = self._hop(operator, stack[-1], len(stack))
                    nxt.setflags(write=False)
                    stack.append(nxt)
                if span:
                    span.set(
                        nnz=int(operator.nnz),
                        stack_bytes=int(sum(arr.nbytes for arr in stack)),
                    )
        self._stacks.put(key, stack)
        return list(stack)

    def hop_features(
        self,
        graph: Graph,
        k: int,
        kind: str = "gcn",
        alpha: float | None = None,
        dtype=None,
    ) -> list[np.ndarray]:
        """:meth:`propagate` applied to the graph's own feature matrix."""
        if graph.x is None:
            raise ValueError("graph needs features for hop_features")
        return self.propagate(graph, graph.x, k, kind=kind, alpha=alpha,
                              dtype=dtype)

    # ------------------------------------------------------------------ #
    # Introspection / management
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        """Stack-cache hit/miss/eviction accounting."""
        return self._stacks.stats

    @property
    def nbytes(self) -> int:
        """Total bytes held by memoized hop stacks."""
        return sum(
            arr.nbytes for stack in self._stacks.values() for arr in stack
        )

    def snapshot(self) -> dict[str, float]:
        """Flat counter/rate dict (:class:`repro.obs.StatsSource`)."""
        with self._stacks.lock:
            snap = self._stacks.snapshot()
            snap["stacks"] = snap.pop("entries")
            snap["nbytes"] = self.nbytes
        return snap

    def reset(self) -> None:
        """Zero the counters; memoized stacks stay resident
        (:meth:`clear` is the destructive variant)."""
        self._stacks.reset()

    def clear(self) -> None:
        """Drop every memoized stack and reset the counters."""
        with self._stacks.lock:
            self._stacks.clear()
            self._feature_hashes.clear()

    def __len__(self) -> int:
        return len(self._stacks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"PropagationEngine(stacks={len(self)}/{self.max_stacks}, "
            f"hits={s.hits}, misses={s.misses}, chunk_rows={self.chunk_rows})"
        )


# --------------------------------------------------------------------- #
# Process-wide default engine
# --------------------------------------------------------------------- #

_default_engine = PropagationEngine()


def get_default_engine() -> PropagationEngine:
    """The process-wide engine shared by the decoupled models."""
    return _default_engine


def set_default_engine(engine: PropagationEngine) -> PropagationEngine:
    """Swap the process-wide engine; returns the previous one."""
    global _default_engine
    if not isinstance(engine, PropagationEngine):
        raise ConfigError("set_default_engine expects a PropagationEngine")
    previous = _default_engine
    _default_engine = engine
    return previous


def propagate(
    graph: Graph,
    features: np.ndarray,
    k: int,
    kind: str = "gcn",
    alpha: float | None = None,
    engine: PropagationEngine | None = None,
    dtype=None,
) -> list[np.ndarray]:
    """Shared entry point: K-hop stack via the (default) engine."""
    return (engine if engine is not None else _default_engine).propagate(
        graph, features, k, kind=kind, alpha=alpha, dtype=dtype
    )
