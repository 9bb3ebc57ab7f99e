"""Model registry: trained decoupled models with warm hop stacks.

A served model is a ``(name, version)`` pair holding the trained head, the
graph snapshot it serves, and — the part that makes single-node latency
flat — the fully precomputed hop stack ``[X, PX, ..., P^K X]`` borrowed
from :class:`repro.perf.PropagationEngine` at registration time. Serving a
node is then a row gather + MLP forward; no sparse work on the request
path. The stack is kept as private *writable* copies so incremental
updates (:mod:`repro.serving.invalidation`) can patch dirty rows in place
without corrupting the engine's shared read-only cache.

Readers never wait on a writer: :meth:`ServedModel.hop_rows` retries its
gather until the record's sequence number reads the same even value
around it, and only writers take :attr:`ServedModel.writer`.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable

import numpy as np

from repro.errors import ConfigError, ServingError
from repro.graph.core import Graph
from repro.graph.dynamic import DynamicGraph
from repro.perf.propagation import PropagationEngine, get_default_engine
from repro.serving.invalidation import write_rows


class ServedModel:
    """One registered ``(name, version)``: model + graph + warm hop stack.

    The hop stack is held as one C-contiguous ``(K+1, n, d)`` array
    (:attr:`stacked`); :attr:`stack` is the per-depth list view of it, so
    in-place row patches through either alias are visible to both. The
    single array makes :meth:`hop_rows` one batched ``np.take`` gather
    across every depth instead of K+1 separate fancy-index copies — the
    multi-RHS amortization of the serving read path.
    """

    def __init__(
        self,
        name: str,
        version: int,
        model,
        graph: Graph,
        stack: list[np.ndarray],
        kind: str,
        alpha: float | None,
    ) -> None:
        self.name = name
        self.version = version
        self.model = model
        self.graph = graph
        # np.stack copies, so the record owns private writable storage
        # regardless of the (typically frozen, engine-shared) input layers.
        self.stacked = np.stack(stack)
        self.stack = list(self.stacked)
        self.kind = kind
        self.alpha = alpha
        # Content-keyed cache namespace: a model re-registered over a
        # rebuilt-but-identical graph maps to the same namespace, so warm
        # EmbeddingStore rows survive the rebuild (and can never be served
        # across a *structurally* different registration).
        self.namespace = f"{name}@v{version}:{graph.fingerprint}"
        self.dynamic: DynamicGraph | None = None
        self.rows_recomputed = 0
        self.updates_applied = 0
        #: Even while the stack is stable, odd while :meth:`commit` writes.
        self.seq = 0
        #: Serialises updates; readers never take it.
        self.writer = threading.Lock()

    @property
    def key(self) -> str:
        return f"{self.name}@v{self.version}"

    @property
    def k_hops(self) -> int:
        return len(self.stack) - 1

    @property
    def dtype(self) -> np.dtype:
        """Element type of the served hop stack (float32 or float64)."""
        return self.stacked.dtype

    def hop_rows(
        self, nodes: np.ndarray, out: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """Depth-0..K embedding rows for ``nodes`` (gather, no propagation).

        One batched gather over the stacked ``(K+1, n, d)`` array; ``out``
        (shape ``(K+1, len(nodes), d)``, e.g. rented from a
        :class:`~repro.perf.arena.BufferArena`) receives the rows when
        given, and the returned per-depth arrays are views of it.

        All rows come from one published version: the gather is retried
        until :attr:`seq` reads the same even value before and after it.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        while True:
            seq = self.seq
            if seq % 2 == 0:
                rows = np.take(self.stacked, nodes, axis=1, out=out)
                if self.seq == seq:
                    return list(rows)
            time.sleep(0)  # let the committing writer run

    def commit(
        self, dirty: list[np.ndarray], new_rows: list[np.ndarray],
        graph: Graph, dynamic: DynamicGraph, n_edges: int,
    ) -> int:
        """Publish one update's precomputed rows and graph, with :attr:`seq`
        odd only while they are written; the caller holds :attr:`writer`.
        Returns the number of rows written."""
        self.seq += 1
        try:
            rows = write_rows(self.stack, dirty, new_rows)
            self.graph, self.dynamic = graph, dynamic
            self.rows_recomputed += rows
            self.updates_applied += n_edges
        finally:
            self.seq += 1
        return rows

    def ensure_dynamic(self) -> DynamicGraph:
        """The mutable adjacency behind this model, created on first update
        (borrowing the graph's CSR arrays, so O(1))."""
        if self.dynamic is None:
            self.dynamic = DynamicGraph.from_graph(self.graph)
        return self.dynamic

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServedModel({self.key}, n={self.graph.n_nodes}, "
            f"k={self.k_hops}, updates={self.updates_applied})"
        )


class ModelRegistry:
    """Named, versioned store of servable models with warm precompute.

    Registration is the only place propagation happens: the hop stack is
    computed once through the shared :class:`PropagationEngine` (reusing
    any operator/stack the offline pipeline already built for the same
    graph content) and pinned on the record.

    All registry operations are guarded by one reentrant lock: model
    registration/lookup is rare control-plane traffic, so a single lock
    (rather than a per-record one) keeps version auto-increment and the
    name→versions map consistent under concurrent registrations.
    """

    def __init__(self, engine: PropagationEngine | None = None) -> None:
        self._engine = engine
        self._lock = threading.RLock()
        self._models: dict[str, dict[int, ServedModel]] = {}

    @property
    def engine(self) -> PropagationEngine:
        return self._engine if self._engine is not None else get_default_engine()

    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        model,
        graph: Graph,
        kind: str = "gcn",
        alpha: float | None = None,
        version: int | None = None,
    ) -> ServedModel:
        """Register ``model`` over ``graph`` and warm its hop stack.

        ``model`` must expose ``k_hops`` and be callable on feature rows
        (the decoupled-model contract, e.g. :class:`repro.models.SGC`).
        Omitting ``version`` auto-increments per name.
        """
        if graph.x is None:
            raise ConfigError("served graphs need node features (graph.x)")
        k_hops = getattr(model, "k_hops", None)
        if not isinstance(k_hops, int) or k_hops < 0:
            raise ConfigError(
                "model must expose an integer k_hops >= 0 (decoupled contract)"
            )
        with self._lock:
            versions = self._models.setdefault(name, {})
            if version is None:
                version = max(versions) + 1 if versions else 1
            elif version in versions:
                raise ServingError(
                    f"model {name!r} version {version} already registered"
                )
            warm = self.engine.propagate(
                graph, graph.x, k_hops, kind=kind, alpha=alpha
            )
            # ServedModel stacks the layers into private writable storage,
            # so incremental updates can patch rows in place without
            # touching the engine's shared read-only cache.
            record = ServedModel(name, int(version), model, graph, warm, kind, alpha)
            versions[record.version] = record
            return record

    def get(self, name: str, version: int | None = None) -> ServedModel:
        """Resolve ``name`` / ``"name@vN"`` to a record (latest when unversioned)."""
        if version is None and "@v" in name:
            name, _, suffix = name.rpartition("@v")
            try:
                version = int(suffix)
            except ValueError:
                raise ServingError(f"malformed model key {name + '@v' + suffix!r}")
        with self._lock:
            versions = self._models.get(name)
            if not versions:
                raise ServingError(
                    f"unknown model {name!r}; "
                    f"registered: {sorted(self._models) or 'none'}"
                )
            if version is None:
                version = max(versions)
            if version not in versions:
                raise ServingError(
                    f"model {name!r} has no version {version}; "
                    f"available: {sorted(versions)}"
                )
            return versions[version]

    def unregister(self, name: str, version: int | None = None) -> None:
        """Drop one version (or every version) of ``name``."""
        with self._lock:
            if name not in self._models:
                raise ServingError(f"unknown model {name!r}")
            if version is None:
                del self._models[name]
                return
            versions = self._models[name]
            if version not in versions:
                raise ServingError(f"model {name!r} has no version {version}")
            del versions[version]
            if not versions:
                del self._models[name]

    # ------------------------------------------------------------------ #

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._models)

    def versions(self, name: str) -> list[int]:
        with self._lock:
            if name not in self._models:
                raise ServingError(f"unknown model {name!r}")
            return sorted(self._models[name])

    def records(self) -> Iterable[ServedModel]:
        with self._lock:
            snapshot = [
                record
                for versions in self._models.values()
                for record in versions.values()
            ]
        yield from snapshot

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def __len__(self) -> int:
        with self._lock:
            return sum(len(v) for v in self._models.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ModelRegistry({', '.join(r.key for r in self.records()) or 'empty'})"
