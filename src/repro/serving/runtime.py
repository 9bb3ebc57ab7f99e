"""Concurrent serving runtime: batcher thread + worker pool + futures.

:class:`ServingRuntime` turns the single-threaded
:class:`~repro.serving.engine.ServingEngine` into a concurrent service.
Producer threads submit requests through :meth:`ServingRuntime.predict`
or :meth:`ServingRuntime.predict_async`; a dedicated *batcher* thread
drains the engine's :class:`~repro.serving.batching.BatchingQueue` under
the existing max-batch/max-wait policy and dispatches each micro-batch
to a bounded worker pool, which executes it through
:meth:`~repro.serving.engine.ServingEngine.run_batch` and resolves the
per-request :class:`concurrent.futures.Future` objects.

The division of labour:

* **admission** happens synchronously on the caller's thread — a store
  hit is answered immediately without entering the queue, and a full
  queue raises :class:`~repro.errors.LoadSheddingError` at submit time;
* **batching** is owned by exactly one thread, so the queue's FIFO
  seniority and the max-wait deadline are enforced in one place (the
  batcher sleeps precisely until the oldest request's deadline, not on
  a polling interval);
* **execution** overlaps across the pool: per-batch model forwards and
  store writes from different micro-batches proceed concurrently, which
  is where throughput scaling comes from when per-batch service time is
  dominated by lock-releasing work (BLAS kernels, I/O waits);
* **failure** is bounded *and classified*: a batch that raises a
  transient error (:func:`repro.resilience.classify_error`) is retried
  under the runtime's :class:`~repro.resilience.RetryPolicy` (capped
  exponential backoff with jitter); a permanent error fails every future
  in the batch immediately with zero retries. Outcomes feed a per-model
  :class:`~repro.resilience.CircuitBreaker` — when a model's breaker
  opens, new requests for it are answered from TTL-expired store rows
  (``degraded=True``) when possible and rejected with
  :class:`~repro.errors.CircuitOpenError` otherwise.

The wrapped engine must be constructed ``threadsafe=True`` (the runtime
builds one that way by default); its inline ``predict``/``predict_many``
path is disabled while attached, because two drainers on one queue would
steal each other's batches.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Sequence

import numpy as np

from repro import obs
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    LoadSheddingError,
    ServingError,
    ServingTimeoutError,
)
from repro.resilience.breaker import CLOSED, STATE_CODES, CircuitBreaker
from repro.resilience.retry import PERMANENT, RetryPolicy, classify_error
from repro.serving.batching import PredictRequest
from repro.serving.engine import ServeResult, ServingEngine, node_index
from repro.serving.registry import ServedModel
from repro.utils.validation import check_int_range

_LOG = obs.get_logger("repro.serving.runtime")


class ServingRuntime:
    """Thread-safe façade over a :class:`ServingEngine`.

    Parameters
    ----------
    engine:
        The engine to serve through; when omitted a fresh
        ``ServingEngine(threadsafe=True, **engine_kwargs)`` is built.
        An injected engine must have been constructed thread-safe.
    n_workers:
        Worker threads executing micro-batches concurrently.
    max_retries:
        How many times a failed batch is re-executed before its
        requests fail. ``0`` disables retry. Only *transient* failures
        are retried at all — permanent errors fail fast regardless.
    default_timeout_s:
        Deadline applied by :meth:`predict`/:meth:`predict_many` when
        the call doesn't pass its own; ``None`` waits indefinitely.
    retry_policy:
        Backoff schedule for transient retries. When omitted a seeded
        :class:`~repro.resilience.RetryPolicy` is built from
        ``max_retries`` with short delays suited to micro-batch serving;
        when given, its ``max_retries`` takes precedence.
    breaker_factory:
        Zero/keyword-arg callable building one per-model
        :class:`~repro.resilience.CircuitBreaker` lazily on first use.
        Pass ``None`` to disable circuit breaking entirely.
    breaker_kwargs:
        Keyword arguments for ``breaker_factory``.
    stale_fallback:
        While a model's breaker is open, answer from TTL-expired store
        rows (``degraded=True``) instead of rejecting, when a stale row
        exists. ``False`` always rejects with
        :class:`~repro.errors.CircuitOpenError`.
    source_prefix:
        The :mod:`repro.obs` stats-source prefix this runtime registers
        under. Give each runtime of a multi-runtime deployment (e.g. the
        per-shard runtimes of a
        :class:`~repro.serving.router.ShardRouter`) its own prefix, or
        they all clobber one ``serving.runtime`` slot.
    """

    def __init__(
        self,
        engine: ServingEngine | None = None,
        n_workers: int = 2,
        max_retries: int = 1,
        default_timeout_s: float | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_factory=CircuitBreaker,
        breaker_kwargs: dict | None = None,
        stale_fallback: bool = True,
        source_prefix: str = "serving.runtime",
        **engine_kwargs,
    ) -> None:
        check_int_range("n_workers", n_workers, 1)
        check_int_range("max_retries", max_retries, 0)
        if engine is None:
            engine = ServingEngine(threadsafe=True, **engine_kwargs)
        elif engine_kwargs:
            raise ConfigError(
                "engine_kwargs are only used when the runtime builds its "
                f"own engine; got both an engine and {sorted(engine_kwargs)}"
            )
        if not engine.threadsafe:
            raise ConfigError(
                "ServingRuntime needs an engine constructed threadsafe=True"
            )
        if engine._runtime is not None:
            raise ServingError("engine is already attached to a ServingRuntime")
        self.engine = engine
        self.n_workers = int(n_workers)
        if retry_policy is None:
            retry_policy = RetryPolicy(
                max_retries=max_retries,
                base_delay_s=0.002,
                max_delay_s=0.1,
                jitter=0.5,
                seed=0,
            )
        self.retry_policy = retry_policy
        self.max_retries = int(retry_policy.max_retries)
        self.default_timeout_s = default_timeout_s
        self.stale_fallback = bool(stale_fallback)
        self._breaker_factory = breaker_factory
        self._breaker_kwargs = dict(breaker_kwargs or {})
        self._breakers: dict[str, CircuitBreaker] = {}
        # One-attribute-check guard for the submit hot path: False until
        # any breaker leaves the closed state, so healthy serving never
        # pays a breaker lock per request (mirrors FAULTS.active).
        self._tripped = False
        self._cond = threading.Condition()
        self._futures: dict[int, Future] = {}
        # request_id -> absolute deadline (engine clock), recorded at
        # submit so the retry loop can stop backing off once no pending
        # request in the batch could still be answered in time.
        self._deadlines: dict[int, float] = {}
        self._closing = False
        self._closed = False
        self.batches_executed = 0
        self.retries = 0
        self.degraded = 0
        self.failed_fast = 0
        self._stats_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-serve"
        )
        self._batcher = threading.Thread(
            target=self._batcher_loop, name="repro-batcher", daemon=True
        )
        self.source_prefix = str(source_prefix)
        engine._runtime = self
        obs.register_source(self.source_prefix, self)
        self._batcher.start()

    # ------------------------------------------------------------------ #
    # Circuit breakers / degradation
    # ------------------------------------------------------------------ #

    def breaker(self, model_key: str) -> CircuitBreaker | None:
        """The model's breaker (created lazily), or ``None`` if disabled."""
        if self._breaker_factory is None:
            return None
        with self._stats_lock:
            breaker = self._breakers.get(model_key)
            if breaker is None:
                breaker = self._breaker_factory(**self._breaker_kwargs)
                self._breakers[model_key] = breaker
            return breaker

    def _publish_breaker(self, model_key: str, breaker: CircuitBreaker) -> None:
        if obs.OBS.enabled:
            obs.OBS.registry.gauge("breaker.state").set(
                STATE_CODES[breaker.state], model=model_key
            )

    def _stale_result(
        self, record: ServedModel, node_id: int, t0: float
    ) -> ServeResult | None:
        """A degraded answer from a resident (possibly expired) store row,
        or ``None`` when no row exists / fallback is disabled."""
        if not self.stale_fallback or self.engine.store is None:
            return None
        cached = self.engine.store.get_stale(record.namespace, node_id)
        if cached is None:
            return None
        with self._stats_lock:
            self.degraded += 1
        latency = self.engine._clock() - t0
        self.engine.latency.record(latency)
        if obs.OBS.enabled:
            obs.OBS.registry.counter("serving.degraded_responses").inc(
                model=record.key
            )
        _LOG.debug(
            "degraded answer for node %d (%s breaker open)",
            node_id, record.key,
        )
        return ServeResult(
            node_id, record.key, cached.prediction, "ok", True,
            cached.hops_used, latency, degraded=True,
        )

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def _submit(
        self,
        record: ServedModel,
        node_id: int,
        deadline: float | None = None,
    ) -> tuple[str, ServeResult | Future]:
        """Admit one request: ``("hit", result)`` | ``("shed", result)``
        | ``("degraded", result)`` | ``("queued", future)``. Runs on the
        caller's thread; raises :class:`~repro.errors.CircuitOpenError`
        when the model's breaker is open and no stale row is resident."""
        node_id = node_index(node_id)
        n = record.graph.n_nodes
        if not 0 <= node_id < n:
            raise ServingError(f"node {node_id} outside [0, {n})")
        # Unlocked pre-check so store hits are refused too (monotonic
        # False->True flag; the queued path re-checks under the lock).
        if self._closing:
            raise ServingError("runtime is closed; no new requests accepted")
        t0 = self.engine._clock()
        # Breaker gate FIRST, and only once some breaker has tripped (the
        # `_tripped` flag keeps healthy serving at one attribute check).
        # Ordering matters: a regular store ``get`` *evicts* TTL-expired
        # rows, which would destroy the very copy the stale fallback is
        # about to serve — so while the breaker is open we read through
        # ``get_stale`` (which serves live and expired rows alike and
        # leaves residency untouched) instead of the normal hit path.
        gated: CircuitBreaker | None = None
        if self._tripped:
            breaker = self.breaker(record.key)
            if breaker is not None:
                if not breaker.allow():
                    result = self._stale_result(record, node_id, t0)
                    if result is not None:
                        return ("degraded", result)
                    raise CircuitOpenError(
                        f"circuit for model {record.key!r} is open and no "
                        f"stale prediction for node {node_id} is resident"
                    )
                # Admitted — possibly holding a half-open probe slot. Any
                # resolution below that never reaches _execute_batch
                # (store hit, shed, aborted submit) says nothing about
                # backend health and must hand the slot back, or a
                # 1-probe breaker would stay wedged half-open forever.
                gated = breaker
        try:
            hit = self.engine.try_store(record, node_id, t0)
            if hit is not None:
                return ("hit", hit)
            with self._cond:
                if self._closing:
                    raise ServingError(
                        "runtime is closed; no new requests accepted"
                    )
                try:
                    request = self.engine.queue.submit(node_id, record.key)
                except LoadSheddingError:
                    shed = self.engine.record_shed(record, node_id, t0)
                    return ("shed", shed)
                future: Future = Future()
                self._futures[request.request_id] = future
                if deadline is not None:
                    self._deadlines[request.request_id] = deadline
                self._cond.notify_all()
            # Queued: _execute_batch records the probe's actual verdict.
            gated = None
            return ("queued", future)
        finally:
            if gated is not None:
                gated.release_probe()

    def predict_async(
        self, node_id: int, model: str | None = None
    ) -> Future:
        """Submit one request; returns a future resolving to a
        :class:`~repro.serving.engine.ServeResult`.

        A store hit resolves immediately; a full queue raises
        :class:`~repro.errors.LoadSheddingError` here, synchronously —
        admission control answers at submit time, not on the future. An
        open circuit breaker resolves immediately with a stale
        ``degraded=True`` answer when one is resident, and raises
        :class:`~repro.errors.CircuitOpenError` otherwise.
        """
        record = self.engine._resolve(model)
        kind, payload = self._submit(record, node_id)
        if kind == "queued":
            return payload
        future: Future = Future()
        if kind in ("hit", "degraded"):
            future.set_result(payload)
            return future
        # Shed: account for it, then surface the typed error.
        raise LoadSheddingError(
            f"queue full ({self.engine.queue.max_queue} pending); request "
            f"for node {payload.node_id} shed"
        )

    def predict(
        self,
        node_id: int,
        model: str | None = None,
        timeout_s: float | None = None,
    ) -> ServeResult:
        """Blocking single-request API with a per-call deadline.

        Raises :class:`~repro.errors.ServingTimeoutError` when the
        deadline elapses (the batch may still complete in the
        background) and :class:`~repro.errors.LoadSheddingError` when
        admission control rejects the request.

        The deadline is recorded at submit time, so the batch executor's
        retry loop stops backing off (and never sleeps) once the next
        worst-case backoff could not finish before it.
        """
        record = self.engine._resolve(model)
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        deadline = (
            None if timeout is None else self.engine._clock() + timeout
        )
        kind, payload = self._submit(record, node_id, deadline=deadline)
        if kind in ("hit", "degraded"):
            return payload
        if kind == "shed":
            raise LoadSheddingError(
                f"queue full ({self.engine.queue.max_queue} pending); "
                f"request for node {payload.node_id} shed"
            )
        try:
            return payload.result(timeout)
        except FutureTimeoutError:
            raise ServingTimeoutError(
                f"request for node {node_id} exceeded its {timeout}s deadline"
            ) from None

    def predict_many(
        self,
        node_ids: Sequence[int] | np.ndarray,
        model: str | None = None,
        timeout_s: float | None = None,
    ) -> list[ServeResult]:
        """Submit a stream of requests and wait for every answer.

        Mirrors the engine's inline semantics: shed requests come back
        as ``status="shed"`` results (not exceptions) so the returned
        list always aligns with ``node_ids``. The timeout bounds the
        total wait across the whole call.
        """
        record = self.engine._resolve(model)
        timeout = timeout_s if timeout_s is not None else self.default_timeout_s
        deadline = (
            None if timeout is None else self.engine._clock() + timeout
        )
        slots: list[ServeResult | Future] = [
            payload for payload in (
                self._submit(record, node_id, deadline=deadline)[1]
                for node_id in node_ids
            )
        ]
        results: list[ServeResult] = []
        for node_id, slot in zip(node_ids, slots):
            if isinstance(slot, ServeResult):
                results.append(slot)
                continue
            remaining = (
                None if deadline is None
                else max(deadline - self.engine._clock(), 0.0)
            )
            try:
                results.append(slot.result(remaining))
            except FutureTimeoutError:
                raise ServingTimeoutError(
                    f"request for node {int(node_id)} exceeded the "
                    f"{timeout}s batch deadline"
                ) from None
        return results

    # ------------------------------------------------------------------ #
    # Batcher thread
    # ------------------------------------------------------------------ #

    def _batcher_loop(self) -> None:
        queue = self.engine.queue
        while True:
            with self._cond:
                while not self._closing and not queue.ready():
                    age = queue.oldest_age()
                    if age is None:
                        self._cond.wait()
                    else:
                        # Sleep exactly until the head request's max-wait
                        # deadline; an earlier submit re-notifies us.
                        self._cond.wait(max(queue.max_wait_s - age, 0.0))
                if self._closing and len(queue) == 0:
                    return
            batch = queue.next_batch(force=self._closing)
            if batch:
                self._pool.submit(self._execute_batch, batch)

    def _execute_batch(self, batch: list[PredictRequest]) -> None:
        model_key = batch[0].model_key
        breaker = self.breaker(model_key)
        retries_done = 0
        while True:
            try:
                results = self.engine.run_batch(batch)
                break
            except Exception as exc:  # noqa: BLE001 - classified below
                if breaker is not None:
                    breaker.record_failure()
                    if breaker.state != CLOSED:
                        # Cold path (a batch just failed): raise the flag
                        # under the stats lock, matching how it is
                        # cleared below. _submit reads it lock-free by
                        # design — worst case one request slips past the
                        # gate at the trip instant, which the breaker's
                        # own allow() still arbitrates.
                        with self._stats_lock:
                            self._tripped = True
                    self._publish_breaker(model_key, breaker)
                remaining = self._batch_remaining_s(batch)
                if not self.retry_policy.should_retry(
                    exc, retries_done, remaining_s=remaining
                ):
                    if classify_error(exc) == PERMANENT:
                        # Fail fast: a deterministic failure (bad model,
                        # shape bug) never earns a retry.
                        with self._stats_lock:
                            self.failed_fast += 1
                        _LOG.warning(
                            "batch of %d failed permanently "
                            "(%s, no retry): %s",
                            len(batch), type(exc).__name__, exc,
                        )
                    else:
                        _LOG.warning(
                            "batch of %d failed after %d retry(ies): %s",
                            len(batch), retries_done, exc,
                        )
                    self._resolve_futures(batch, None, exc)
                    return
                retries_done += 1
                with self._stats_lock:
                    self.retries += 1
                _LOG.debug(
                    "retrying batch of %d (retry %d/%d) after %s",
                    len(batch), retries_done, self.max_retries, exc,
                )
                self.retry_policy.backoff(retries_done, remaining_s=remaining)
                if breaker is not None and not breaker.allow():
                    # The breaker opened while we were backing off —
                    # stop hammering and surface the last failure.
                    self._resolve_futures(batch, None, exc)
                    return
        if breaker is not None:
            breaker.record_success()
            self._publish_breaker(model_key, breaker)
            if self._tripped:
                # Drop the submit-path guard once every breaker is closed
                # again (cold path: only runs while degraded).
                with self._stats_lock:
                    self._tripped = any(
                        b.state != CLOSED for b in self._breakers.values()
                    )
        with self._stats_lock:
            self.batches_executed += 1
        self._resolve_futures(batch, results, None)

    def _batch_remaining_s(self, batch: list[PredictRequest]) -> float | None:
        """Time left before the *earliest* deadline in the batch, or
        ``None`` when no request in the batch carries one.

        The tightest deadline governs the retry budget: once it cannot
        absorb the next worst-case backoff, retrying only delays the
        timeout every waiter is already guaranteed to hit.
        """
        with self._cond:
            deadlines = [
                self._deadlines[request.request_id]
                for request in batch
                if request.request_id in self._deadlines
            ]
        if not deadlines:
            return None
        return min(deadlines) - self.engine._clock()

    def _resolve_futures(
        self,
        batch: list[PredictRequest],
        results: dict[int, ServeResult] | None,
        error: Exception | None,
    ) -> None:
        with self._cond:
            futures = [
                (request, self._futures.pop(request.request_id, None))
                for request in batch
            ]
            for request in batch:
                self._deadlines.pop(request.request_id, None)
        # Resolve outside the condition: a future's callbacks (or a
        # waiter waking immediately) must never run under our lock.
        for request, future in futures:
            if future is None:
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(results[request.request_id])

    # ------------------------------------------------------------------ #
    # Updates / lifecycle
    # ------------------------------------------------------------------ #

    def apply_update(self, u: int, v: int, model: str | None = None):
        """Thread-safe passthrough to :meth:`ServingEngine.apply_update`."""
        return self.engine.apply_update(u, v, model=model)

    def apply_updates(self, edges, model: str | None = None):
        """Thread-safe passthrough to :meth:`ServingEngine.apply_updates`."""
        return self.engine.apply_updates(edges, model=model)

    def register(self, *args, **kwargs) -> str:
        """Passthrough to :meth:`ServingEngine.register`."""
        return self.engine.register(*args, **kwargs)

    def close(self, timeout_s: float | None = None) -> None:
        """Drain and shut down: stop admissions, flush the queue, join
        the batcher, wait for in-flight batches, fail leftover futures.

        Idempotent; after it returns the engine is detached and usable
        inline again.
        """
        with self._cond:
            if self._closed:
                return
            self._closing = True
            self._cond.notify_all()
        self._batcher.join(timeout_s)
        self._pool.shutdown(wait=True)
        with self._cond:
            leftovers = list(self._futures.values())
            self._futures.clear()
            self._deadlines.clear()
            self._closed = True
        for future in leftovers:  # defensive: drain should have emptied these
            future.set_exception(
                ServingError("runtime closed before the request was answered")
            )
        self.engine._runtime = None
        _LOG.info(
            "runtime closed: %d batches executed, %d retries",
            self.batches_executed, self.retries,
        )

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    def snapshot(self) -> dict[str, float]:
        """Flat counter dict (:class:`repro.obs.StatsSource`).

        Includes the live queue depth and each lazily-created breaker's
        state code (0 closed / 1 half-open / 2 open), labelled by model,
        so a coordinator-side snapshot shows every shard's admission
        pressure and circuit health in one read.
        """
        with self._stats_lock:
            executed, retries = self.batches_executed, self.retries
            degraded, failed_fast = self.degraded, self.failed_fast
            breakers = dict(self._breakers)
        open_breakers = sum(
            1 for b in breakers.values() if b.state != "closed"
        )
        with self._cond:
            pending = len(self._futures)
        out = {
            "n_workers": self.n_workers,
            "batches_executed": executed,
            "retries": retries,
            "degraded_responses": degraded,
            "failed_fast": failed_fast,
            "breakers": len(breakers),
            "breakers_open": open_breakers,
            "pending_futures": pending,
            "queue_depth": float(len(self.engine.queue)),
            "closed": float(self._closed),
        }
        for model_key, breaker in breakers.items():
            out[f"breaker_state{{model={model_key}}}"] = float(
                STATE_CODES[breaker.state]
            )
        return out

    def reset(self) -> None:
        """Zero the runtime counters (in-flight state is untouched)."""
        with self._stats_lock:
            self.batches_executed = 0
            self.retries = 0
            self.degraded = 0
            self.failed_fast = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServingRuntime(workers={self.n_workers}, "
            f"batches={self.batches_executed}, retries={self.retries}, "
            f"closed={self._closed})"
        )
