"""K-hop propagation with memoized hop-feature stacks.

The single graph-touching step of every decoupled model is the K-hop
stack :math:`[X, PX, \\ldots, P^K X]` for some propagation operator
:math:`P`. :class:`PropagationEngine` computes that stack *once* per
``(graph, features, operator)`` combination and serves it to every model
that asks — SGC, SIGN, GAMLP, LD2, KRR and the spectral filters all go
through :meth:`PropagationEngine.propagate`, so repeat experiments on the
same graph pay zero additional SpMM cost.

Every hop is scipy's CSR kernel on the cached, materialized operator:
aggregation is memory-bound, and the single pass over the operator's
non-zeros moves fewer bytes than any scheme that re-derives the
normalization per hop. :func:`spmm` runs that kernel through
:func:`repro.utils.bands.banded_matmul`: above
:data:`~repro.utils.bands.BAND_MIN_WORK` the operator's rows are split
into one nnz-balanced band per CPU, each band a ``csr_matvecs`` call into
its slice of one output on its own thread, bitwise ``operator @ dense``;
below it (and for non-CSR or mixed-dtype operands) the hop is
``operator @ dense`` itself. :func:`spmm` and :func:`rows_spmm` wrap the
product in the ``propagation.hop`` fault-injection site.

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
from repro.graph import ops as graph_ops
from repro.graph.core import Graph
from repro.obs import OBS
from repro.perf.bounded_cache import BoundedCache
from repro.perf.fingerprint import array_fingerprint
from repro.perf.operator_cache import (
    OperatorCache,
    _cast_shared,
    get_default_cache,
)
from repro.resilience.faults import FAULTS
from repro.storage.feature_cache import CacheStats
from repro.utils.bands import band_count, banded_matmul
from repro.utils.validation import check_int_range

#: Element types a propagated hop stack may take.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_ENGINE_KINDS = ("gcn", "rw", "lazy", "col", "sym", "lap")


def _kind_operator(kind: str, alpha: float | None):
    """How an engine ``kind`` is built: ``(OperatorCache accessor name,
    repro.graph.ops function, keyword arguments)``, one mapping for the
    cached whole-graph operator and the uncached row operator."""
    if kind in ("gcn", "rw", "lazy"):
        return ("propagation", graph_ops.propagation_matrix,
                {"scheme": kind, "alpha": alpha})
    if kind in ("col", "sym"):
        return ("normalized_adjacency", graph_ops.normalized_adjacency,
                {"kind": kind, "self_loops": False})
    if kind == "lap":
        return "laplacian", graph_ops.laplacian_matrix, {"kind": "sym"}
    raise ConfigError(f"kind must be one of {_ENGINE_KINDS}, got {kind!r}")


def row_operator(
    graph: Graph,
    rows: np.ndarray,
    kind: str = "gcn",
    alpha: float | None = None,
    dtype=None,
) -> sp.csr_matrix:
    """Rows ``rows`` of :meth:`PropagationEngine.operator`'s operator.

    An ``(n, n)`` CSR whose other rows are empty, each kept row bitwise the
    cached operator's row (``dtype`` casts the values the way the cache's
    value-dtype variants do). Built anew for ``graph``: it never
    enters an :class:`OperatorCache` and never fingerprints the graph, so
    its cost is the kept rows' non-zeros plus O(n) vector work. The
    operator incremental serving patches dirty hop-stack rows with.
    """
    _, build, kwargs = _kind_operator(kind, alpha)
    matrix = build(graph, rows=rows, **kwargs)
    if dtype is None or np.dtype(dtype) == matrix.dtype:
        return matrix
    # Not matrix.astype, which re-sorts the rows and so would change the
    # summation order of kinds whose rows are not in column order.
    return _cast_shared(matrix, np.dtype(dtype))


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


def spmm(operator: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    """``operator @ dense`` under the ``propagation.hop`` fault site.

    The one hop entry. The product is
    :func:`~repro.utils.bands.banded_matmul`: scipy's own CSR kernel over
    :func:`~repro.utils.bands.band_count` nnz-balanced row bands, bitwise
    ``operator @ dense`` (which it is, literally, below
    :data:`~repro.utils.bands.BAND_MIN_WORK`). The fault site fires once
    per hop, and ``corrupt``/``drop`` act on the whole output.
    """
    inj, action = _fire_hop_fault()
    return _apply_hop_fault(inj, action, banded_matmul(operator, np.asarray(dense)))


def rows_spmm(
    operator: sp.spmatrix, rows: np.ndarray, dense: np.ndarray
) -> np.ndarray:
    """``(operator @ dense)[rows]`` without computing the full product.

    Multiplies only the selected rows of the operator — cost proportional
    to their non-zeros, not the whole graph. The localized-recompute
    kernel of incremental serving: after an edge insertion only the dirty
    K-hop rows of a hop stack are re-derived this way.
    """
    inj, action = _fire_hop_fault()
    rows = np.asarray(rows, dtype=np.int64)
    out = operator.tocsr()[rows] @ np.asarray(dense)
    return _apply_hop_fault(inj, action, out)


class PropagationEngine:
    """Shared K-hop propagation: one SpMM per hop + memoized hop stacks.

    Parameters
    ----------
    cache:
        Operator cache used to build/reuse the propagation operators; when
        ``None`` the process-wide default cache is consulted at call time.
    max_stacks:
        LRU bound on memoized hop stacks (each stack holds ``K+1`` dense
        ``(n, d)`` arrays, so this is the dominant memory knob).
    dtype:
        Element type of every propagated stack: ``float64`` (default,
        the historical behaviour) or ``float32``, which halves the
        memory traffic of the memory-bound SpMM. Overridable per call
        via ``propagate(..., dtype=...)``.

    Memoized propagation is serialized under the stack memo's reentrant
    lock. Stack construction is a registration-time event, not
    per-request work, so serializing concurrent builders is the correct
    trade — two threads racing the same key would otherwise both pay the
    full K-hop SpMM and tear the LRU bookkeeping.
    """

    def __init__(
        self,
        cache: OperatorCache | None = None,
        max_stacks: int = 8,
        dtype=np.float64,
    ) -> None:
        check_int_range("max_stacks", max_stacks, 1)
        self._cache = cache
        self.max_stacks = max_stacks
        self.dtype = self._check_dtype(dtype)
        self._stacks = BoundedCache(max_stacks)
        self._feature_hashes = BoundedCache(4 * max_stacks)

    @staticmethod
    def _check_dtype(dtype) -> np.dtype:
        dt = np.dtype(dtype)
        if dt not in SUPPORTED_DTYPES:
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
        accessor, _, kwargs = _kind_operator(kind, alpha)
        return getattr(self.cache, accessor)(graph, dtype=dtype, **kwargs)

    def _feature_fingerprint(self, graph: Graph, features: np.ndarray) -> str:
        """Content hash of a feature matrix, memoized by identity.

        ``graph.x`` itself uses the digest memoized on the graph
        (:attr:`Graph.feature_fingerprint`), which outlives :meth:`clear`.
        Other read-only arrays (e.g. a previously served hop) cannot change
        content, so their digest is cached keyed by object identity —
        repeat lookups of a warm stack cost O(1) instead of a full re-hash.
        Writable arrays are always re-hashed.
        """
        if features is graph.x:
            return graph.feature_fingerprint
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
            return spmm(operator, dense)
        with OBS.tracer.span(
            "perf.spmm", hop=hop, nnz=int(operator.nnz),
            bands=band_count(operator, dense),
        ) as span:
            out = spmm(operator, dense)
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
                operator = self.operator(graph, kind, alpha, dtype=eff_dtype)
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
            self._feature_fingerprint(graph, features),
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
                operator = self.operator(graph, kind, alpha, dtype=eff_dtype)
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
            f"hits={s.hits}, misses={s.misses})"
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
