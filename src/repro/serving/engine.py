"""The serving facade: registry + micro-batching + store + early exit.

:class:`ServingEngine` is the online entry point of the library. A request
is a ``(model, node_id)`` pair; the engine answers it from, in order:

1. the :class:`~repro.serving.store.EmbeddingStore` (content-namespaced
   cached prediction — O(1), no model work);
2. a micro-batch through the :class:`~repro.serving.batching.BatchingQueue`
   — rows gathered from the registry's warm hop stack, decided by the
   NAI confidence gate (:func:`repro.models.nai.confidence_gated_predict`)
   or a single full-depth forward.

Admission control is load-shedding: when the queue is full the request is
answered immediately with ``status="shed"`` rather than queued into an
unbounded tail. Every completed request's queue-to-answer latency lands in
a :class:`repro.utils.timer.LatencyHistogram` (p50/p95/p99).

Streaming updates go through :meth:`ServingEngine.apply_update`: only the
dirty K-hop rows of the hop stack are recomputed
(:mod:`repro.serving.invalidation`), beside the readers, then committed in
one short write, and exactly those nodes are evicted from the store.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.errors import LoadSheddingError, ServingError, TransientError
from repro.graph.core import Graph
from repro.graph.dynamic import DynamicGraph
from repro.models.nai import confidence_gated_predict
from repro.obs import OBS
from repro.perf.arena import get_default_arena
from repro.perf.propagation import row_operator
from repro.resilience.faults import FAULTS
from repro.serving.batching import BatchingQueue, PredictRequest
from repro.serving.invalidation import UpdateReport, dirty_frontiers, patched_rows
from repro.serving.registry import ModelRegistry, ServedModel
from repro.serving.store import EmbeddingStore
from repro.tensor.autograd import Tensor, no_grad
from repro.utils.timer import LatencyHistogram
from repro.utils.validation import check_probability

_LOG = obs.get_logger("repro.serving.engine")


def node_index(value) -> int:
    """``value`` as an ``int`` node id (:func:`operator.index`); a float or
    any other non-integral value is a :class:`ServingError`, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ServingError(f"node ids must be integers, got {value!r}") from None


@dataclass(frozen=True)
class ServeResult:
    """The answer to one single-node request.

    ``degraded=True`` marks a stale-fallback answer: the model's circuit
    breaker was open and the runtime served a TTL-expired store row
    instead of failing the request.

    ``status="error"`` is produced only by batch front doors that
    guarantee per-request isolation (:meth:`ShardRouter.predict_many`):
    the request failed hard (open breaker with no stale row, timeout,
    executor error) but the failure is pinned to this slot instead of
    aborting the whole batch; ``prediction`` is ``-1`` and meaningless.
    """

    node_id: int
    model_key: str
    prediction: int
    status: str  # "ok" | "shed" | "error"
    cached: bool
    hops_used: int
    latency_s: float
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class ServingEngine:
    """Online inference over registered decoupled models.

    Parameters
    ----------
    registry, queue, store:
        Injectable components; sensible defaults are built when omitted.
        Pass ``store=None`` explicitly to disable prediction caching.
    threshold:
        NAI confidence gate for early exit.
    early_exit:
        When ``False`` every request is answered at full depth K with a
        single head forward (the gate is skipped entirely).
    clock:
        Shared monotonic clock for queue wait + latency accounting.
    threadsafe:
        Construct the default queue and store thread-safe, so multiple
        threads (a :class:`~repro.serving.runtime.ServingRuntime` batcher
        + worker pool) can drive one engine. Defaults to ``False``: the
        inline path's queue and store stay lock-free. Injected components
        are the caller's responsibility either way; the engine's own
        counters and latency histogram always lock.
    """

    _DEFAULT_STORE = object()  # sentinel: "build a fresh EmbeddingStore"

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        queue: BatchingQueue | None = None,
        store: EmbeddingStore | None = _DEFAULT_STORE,  # type: ignore[assignment]
        threshold: float = 0.9,
        early_exit: bool = True,
        clock: Callable[[], float] = time.monotonic,
        threadsafe: bool = False,
    ) -> None:
        check_probability("threshold", threshold)
        self.threadsafe = bool(threadsafe)
        self.registry = registry if registry is not None else ModelRegistry()
        self.queue = (
            queue if queue is not None
            else BatchingQueue(clock=clock, threadsafe=threadsafe)
        )
        if store is ServingEngine._DEFAULT_STORE:
            store = EmbeddingStore(clock=clock, threadsafe=threadsafe)
        self.store = store
        self.threshold = threshold
        self.early_exit = early_exit
        self._clock = clock
        self.latency = LatencyHistogram()
        self._lock = threading.Lock()
        # Set by ServingRuntime.attach: once a runtime's batcher thread
        # owns the queue, the inline predict path must not also drain it.
        self._runtime = None
        self.served = 0
        self.shed = 0
        self.cache_hits = 0
        # Weakly attach to the global metrics registry so one
        # obs.get_registry().snapshot() carries serving internals; the
        # most recently constructed engine owns the prefixes.
        obs.register_source("serving.engine", self)
        obs.register_source("serving.queue", self.queue)
        obs.register_source("serving.latency", self.latency)
        if self.store is not None:
            obs.register_source("serving.store", self.store)

    # ------------------------------------------------------------------ #
    # Registration / resolution
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        model,
        graph: Graph,
        kind: str = "gcn",
        alpha: float | None = None,
        version: int | None = None,
    ) -> str:
        """Register a trained decoupled model; returns its ``name@vN`` key."""
        record = self.registry.register(
            name, model, graph, kind=kind, alpha=alpha, version=version
        )
        _LOG.info(
            "registered %s (n_nodes=%d, k_hops=%d, kind=%s)",
            record.key, graph.n_nodes, record.k_hops, kind,
        )
        return record.key

    def _resolve(self, model: str | None) -> ServedModel:
        if model is not None:
            return self.registry.get(model)
        names = self.registry.names()
        if len(names) != 1:
            raise ServingError(
                "model must be named when the registry holds "
                f"{len(names)} models ({names or 'none'})"
            )
        return self.registry.get(names[0])

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    def predict(self, node_id: int, model: str | None = None) -> ServeResult:
        """Answer one single-node request (flushes its micro-batch)."""
        return self.predict_many([node_id], model=model)[0]

    def predict_many(
        self, node_ids: Sequence[int] | np.ndarray, model: str | None = None
    ) -> list[ServeResult]:
        """Stream requests through the batching queue, in arrival order.

        Batches are emitted as soon as the queue policy marks them ready
        (full batch, or the oldest request aging past ``max_wait_s``);
        whatever remains is force-flushed at the end so the call always
        returns a complete answer list aligned with ``node_ids``.
        """
        if not OBS.enabled:
            return self._predict_many(node_ids, model)
        with OBS.tracer.span(
            "serving.predict_many", n_requests=len(node_ids)
        ) as span:
            results = self._predict_many(node_ids, model)
            span.set(
                served=sum(1 for r in results if r.ok),
                shed=sum(1 for r in results if not r.ok),
                store_hits=sum(1 for r in results if r.cached),
            )
            return results

    def _count(self, served: int = 0, shed: int = 0, cache_hits: int = 0) -> None:
        with self._lock:
            self.served += served
            self.shed += shed
            self.cache_hits += cache_hits

    def try_store(
        self, record: ServedModel, node_id: int, t0: float
    ) -> ServeResult | None:
        """Answer ``node_id`` from the embedding store, or ``None`` on miss.

        The one store-hit path, shared by the inline :meth:`predict_many`
        loop and :class:`~repro.serving.runtime.ServingRuntime` submission
        (a hit never enters the batching queue in either mode).
        """
        if self.store is None:
            return None
        cached = self.store.get(record.namespace, node_id)
        if cached is None:
            return None
        self._count(served=1, cache_hits=1)
        latency = self._clock() - t0
        self.latency.record(latency)
        if OBS.enabled:
            self._obs_store_hit(node_id, cached)
        return ServeResult(
            node_id, record.key, cached.prediction, "ok", True,
            cached.hops_used, latency,
        )

    @staticmethod
    def _obs_store_hit(node_id: int, cached) -> None:
        """Trace + count one store hit (only called when OBS is enabled)."""
        with OBS.tracer.span(
            "serving.request", node_id=node_id, status="ok",
            store_hit=True, hops_used=cached.hops_used,
        ):
            pass
        OBS.registry.counter("serving.requests").inc(
            status="ok", source="store"
        )

    def record_shed(
        self, record: ServedModel, node_id: int, t0: float
    ) -> ServeResult:
        """Account one admission-control rejection and build its result."""
        self._count(shed=1)
        _LOG.debug("request for node %d shed (queue full)", node_id)
        if OBS.enabled:
            with OBS.tracer.span(
                "serving.request", node_id=node_id, status="shed",
                store_hit=False,
            ):
                pass
            OBS.registry.counter("serving.requests").inc(status="shed")
        return ServeResult(
            node_id, record.key, -1, "shed", False, 0, self._clock() - t0
        )

    def _predict_many(
        self, node_ids: Sequence[int] | np.ndarray, model: str | None
    ) -> list[ServeResult]:
        if self._runtime is not None:
            raise ServingError(
                "engine is attached to a ServingRuntime whose batcher "
                "thread owns the queue; submit through the runtime "
                "(predict/predict_async) instead of the inline engine path"
            )
        record = self._resolve(model)
        n = record.graph.n_nodes
        slots: list[ServeResult | int] = []
        by_id: dict[int, ServeResult] = {}
        for node_id in node_ids:
            node_id = node_index(node_id)
            if not 0 <= node_id < n:
                raise ServingError(f"node {node_id} outside [0, {n})")
            t0 = self._clock()
            hit = self.try_store(record, node_id, t0)
            if hit is not None:
                slots.append(hit)
                continue
            try:
                request = self.queue.submit(node_id, record.key)
            except LoadSheddingError:
                slots.append(self.record_shed(record, node_id, t0))
                continue
            slots.append(request.request_id)
            while self.queue.ready():
                self._process_batch(self.queue.next_batch(), by_id)
        for batch in self.queue.drain():
            self._process_batch(batch, by_id)
        return [
            slot if isinstance(slot, ServeResult) else by_id[slot]
            for slot in slots
        ]

    def run_batch(self, batch: list[PredictRequest]) -> dict[int, ServeResult]:
        """Execute one already-formed micro-batch; results by request id.

        The worker-pool entry point of
        :class:`~repro.serving.runtime.ServingRuntime` — gathers rows,
        runs the gated/full forward, writes the store, and accounts
        latency, exactly like the inline path."""
        # Single local load: clear_injector() may null FAULTS.injector
        # between the active check and the fire, concurrently.
        inj = FAULTS.injector if FAULTS.active else None
        if inj is not None:
            # Fault site "serving.batch": transient/permanent/delay are
            # handled by fire(); drop and corrupt both surface as a
            # retryable loss — the batch executed but its result never
            # arrived intact, which is how the runtime's retry loop and
            # circuit breaker observe infrastructure failures.
            action = inj.fire("serving.batch")
            if action == "drop":
                raise TransientError(
                    "serving batch result dropped by fault injection"
                )
            if action == "corrupt":
                raise TransientError(
                    "serving batch result corrupted in transit "
                    "(fault injection)"
                )
        out: dict[int, ServeResult] = {}
        self._process_batch(batch, out)
        return out

    def _process_batch(
        self, batch: list[PredictRequest], out: dict[int, ServeResult]
    ) -> None:
        if not batch:
            return
        with obs.span(
            "serving.batch", model=batch[0].model_key, batch_size=len(batch)
        ):
            self._run_batch(batch, out)

    def _run_batch(
        self, batch: list[PredictRequest], out: dict[int, ServeResult]
    ) -> None:
        t_start = self._clock()
        record = self.registry.get(batch[0].model_key)
        nodes = np.fromiter((r.node_id for r in batch), dtype=np.int64)
        unique, inverse = np.unique(nodes, return_inverse=True)
        # The per-batch gather buffer is rented from the process arena:
        # steady-state workers recycle the same pages batch after batch
        # instead of allocating a fresh (K+1, m, d) block per micro-batch.
        # Safe to release after inference — the gate/forward take copies
        # of the rows they keep (predictions/hops_used are fresh arrays).
        arena = get_default_arena()
        gather_buf = arena.rent(
            (record.k_hops + 1, len(unique), record.stacked.shape[2]),
            record.dtype,
        )
        try:
            with obs.span("serving.gather", rows=len(unique), hops=record.k_hops):
                # Read before the gather: if it still reads the same after
                # the store write below, no update committed in between.
                seq = record.seq
                hop_rows = record.hop_rows(unique, out=gather_buf)
            predictions, hops_used = self._infer(record, hop_rows, unique)
        finally:
            arena.release(gather_buf)
        if self.store is not None:
            self.store.put_many(
                record.namespace,
                (
                    (int(node), int(predictions[i]), int(hops_used[i]))
                    for i, node in enumerate(unique)
                ),
            )
            # An update committed since the gather may already have dropped
            # these rows: drop them again rather than resurrect stale answers.
            if record.seq != seq:
                self.store.invalidate(record.namespace, unique)
        now = self._clock()
        recording = OBS.enabled
        latencies: list[float] = []
        for pos, request in enumerate(batch):
            i = inverse[pos]
            latency = now - request.enqueued_at
            latencies.append(latency)
            out[request.request_id] = ServeResult(
                request.node_id, record.key, int(predictions[i]), "ok",
                False, int(hops_used[i]), latency,
            )
            if recording:
                with OBS.tracer.span(
                    "serving.request", node_id=request.node_id, status="ok",
                    store_hit=False, batch_size=len(batch),
                    queue_wait_s=t_start - request.enqueued_at,
                    hops_used=int(hops_used[i]),
                ):
                    pass
                OBS.registry.counter("serving.requests").inc(
                    status="ok", source="batch"
                )
                OBS.registry.histogram("serving.queue_wait_s").observe(
                    max(t_start - request.enqueued_at, 0.0)
                )
        # One lock round-trip for the whole batch, not one per request.
        self.latency.record_many(latencies)
        self._count(served=len(batch))

    def _infer(
        self, record: ServedModel, hop_rows: list[np.ndarray], unique: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gate or full-depth forward over gathered rows; returns fresh
        ``(predictions, hops_used)`` arrays (no views of ``hop_rows``)."""
        if self.early_exit:
            with obs.span(
                "serving.infer", mode="early_exit", threshold=self.threshold
            ) as span:
                predictions, hops_used = confidence_gated_predict(
                    record.model, hop_rows, self.threshold
                )
                if span:
                    span.set(mean_exit_hop=float(hops_used.mean()))
        else:
            with obs.span("serving.infer", mode="full_depth"):
                record.model.eval()
                with no_grad():
                    logits = record.model(Tensor(hop_rows[-1])).data
                predictions = logits.argmax(axis=1).astype(np.int64)
                hops_used = np.full(len(unique), record.k_hops, dtype=np.int64)
        return predictions, hops_used

    # ------------------------------------------------------------------ #
    # Streaming updates
    # ------------------------------------------------------------------ #

    def apply_update(
        self, u: int, v: int, model: str | None = None
    ) -> UpdateReport:
        """Insert edge ``(u, v)`` and restore the model incrementally.

        Only the K-hop dirty rows of the hop stack are recomputed (exact —
        see :mod:`repro.serving.invalidation`) and only the dirty nodes'
        cached predictions are evicted from the store. Of the new
        snapshot's propagation operator only the dirty rows are built
        (:func:`repro.perf.row_operator`), outside the operator cache and
        without fingerprinting the snapshot.
        """
        return self.apply_updates([(u, v)], model=model)

    def apply_updates(
        self,
        edges: Iterable[tuple[int, int]],
        model: str | None = None,
    ) -> UpdateReport:
        """Apply a batch of edge insertions with one shared patch pass.

        Under the model's writer mutex, the new rows are computed beside
        the readers on a private copy of the adjacency (a failure there
        changes nothing), then published by ``record.commit``; the store
        is invalidated after the commit.
        """
        record = self._resolve(model)
        try:
            edges = [(node_index(u), node_index(v)) for u, v in edges]
        except (TypeError, ValueError):
            raise ServingError("edges must be (u, v) pairs of node ids") from None
        if not edges:
            raise ServingError("apply_updates needs at least one edge")
        with obs.span(
            "serving.update", model=record.key, edges=len(edges)
        ) as span:
            with record.writer:
                # O(1): borrows the arrays, which inserts never write.
                dynamic = DynamicGraph.from_graph(record.graph)
                dynamic.insert_edges(edges)
                seeds = [node for edge in edges for node in edge]
                dirty = dirty_frontiers(dynamic, seeds, record.k_hops)
                new_graph = dynamic.snapshot()
                new_rows = []
                if dirty:
                    # patched_rows reads only rows D_j of the operator, and
                    # D_1 ⊆ … ⊆ D_K. dtype-matched: a float32 stack is
                    # patched with float32 products (no silent upcast).
                    rows_op = row_operator(
                        new_graph, dirty[-1], record.kind, record.alpha,
                        dtype=record.dtype,
                    )
                    with obs.span("serving.patch_stack", depths=len(dirty)):
                        new_rows = patched_rows(record.stack, rows_op, dirty)
                rows = record.commit(
                    dirty, new_rows, new_graph, dynamic, len(edges)
                )
            invalidated = 0
            if self.store is not None and dirty:
                invalidated = self.store.invalidate(record.namespace, dirty[-1])
            if span:
                span.set(rows_recomputed=rows, store_invalidated=invalidated)
        if OBS.enabled:
            OBS.registry.counter("serving.updates_applied").inc(len(edges))
            OBS.registry.counter("serving.rows_patched").inc(rows)
        _LOG.debug(
            "applied %d edge(s) to %s: %d rows patched, %d store entries "
            "invalidated", len(edges), record.key, rows, invalidated,
        )
        return UpdateReport(
            edges=tuple(edges),
            dirty_per_depth=tuple(dirty),
            rows_recomputed=rows,
            rows_full=record.k_hops * record.graph.n_nodes,
            store_invalidated=invalidated,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, float]:
        """Engine-level counters (:class:`repro.obs.StatsSource`); the
        queue/store/latency components publish their own snapshots under
        their own registry prefixes."""
        with self._lock:
            served, shed, hits = self.served, self.shed, self.cache_hits
        return {
            "served": served,
            "shed": shed,
            "cache_hits": hits,
            "models": len(self.registry),
        }

    def reset(self) -> None:
        """Zero the engine counters and its latency histogram."""
        with self._lock:
            self.served = self.shed = self.cache_hits = 0
        self.latency.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingEngine(models={len(self.registry)}, served={self.served}, "
            f"shed={self.shed}, p99={self.latency.p99:.2e}s)"
        )
