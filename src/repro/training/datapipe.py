"""GraphBolt-style streaming minibatch datapipe (§3.1.2, §3.3.2).

Minibatch GNN training is bottlenecked by the sample → compact →
feature-fetch pipeline, not the matmuls. This module turns that pipeline
into **chainable stages**, each an iterable of :class:`MiniBatch` objects
that wraps an upstream stage and transforms batches as they stream
through:

    SeedBatcher → [SamplePerLayer → CompactPerLayer] × L
                → FeatureFetcher → ToDevice → Prefetcher

* :class:`SeedBatcher` — lazily permutes and slices seed ids (O(1) epoch
  startup; re-iterating draws a fresh permutation from the shared RNG,
  so one pipe object serves every epoch).
* :class:`SamplePerLayer` / :class:`CompactPerLayer` — one pair per hop,
  mirroring GraphBolt's ``sample_per_layer``/``compact_per_layer``
  datapipes: the sampler stage draws the current frontier's layer as a
  CSR row block over global column ids, the compact stage dedups its
  sources into a
  :class:`~repro.editing.sampling.Block` whose ``src_ids`` become the
  next layer's frontier. ``DataPipe.sample(sampler)`` chains the pairs,
  one per fanout — bit-identical to ``sampler.sample(seeds)`` given the
  same RNG stream.
* :class:`FeatureFetcher` — gathers input-layer feature rows, either
  directly from an array (or aligned list of arrays, the multi-hop
  embedding shape) or routed through a
  :class:`repro.storage.FeatureStore` so hot rows are served from cache
  while misses hit the backing tier once per batch; an optional per-row
  cold-tier latency models slow storage. Also attaches seed labels.
* :class:`ToDevice` — the finalize stage: casts to the training dtype
  and makes arrays C-contiguous (the stand-in for a host-to-device
  copy; see DESIGN.md's substitution note).
* :class:`Prefetcher` / :class:`PrefetchIterator` — a daemon producer
  thread filling a bounded queue so sampling + feature fetch overlap
  with the consumer's compute, with clean shutdown on exhaustion,
  exception, or :meth:`PrefetchIterator.close`.

Every stage records its per-batch wall time in ``MiniBatch.stage_s``
(feeding the :func:`repro.training.pipeline.pipelined_makespan` cost
model) and, when :mod:`repro.obs` is enabled, emits
``datapipe.stage.<name>`` spans, a ``datapipe.stage_s`` histogram, the
``datapipe.prefetch.queue_depth`` gauge, and prefetch ready/wait
counters (hit ratio = batches served without blocking).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.editing.sampling import Block, compact_layer
from repro.errors import ConfigError
from repro.obs import OBS
from repro.utils.rng import as_rng
from repro.utils.validation import check_int_range

__all__ = [
    "MiniBatch",
    "DataPipe",
    "SeedBatcher",
    "iterate_batches",
    "SamplePerLayer",
    "CompactPerLayer",
    "FeatureFetcher",
    "ToDevice",
    "Prefetcher",
    "PrefetchIterator",
]


@dataclass
class MiniBatch:
    """One unit of work flowing through the datapipe.

    Attributes
    ----------
    seeds:
        Global ids of the output nodes of this batch (loss rows).
    index:
        Position of the batch within its epoch.
    blocks:
        Per-layer aggregation operators, input-layer first (filled by the
        sample/compact stages; empty for non-sampled pipes).
    x:
        Gathered input features for :attr:`input_ids` — an array, or an
        aligned list of arrays for multi-hop embedding models.
    y:
        Labels for :attr:`seeds`.
    stage_s:
        Per-stage wall seconds this batch spent in each pipeline stage.
    """

    seeds: np.ndarray
    index: int = 0
    blocks: list[Block] = field(default_factory=list)
    x: Any = None
    y: np.ndarray | None = None
    stage_s: dict[str, float] = field(default_factory=dict)
    # Layered-sampling cursor: the current destination frontier and the
    # raw layer awaiting compaction (internal to the sample/compact pair).
    _frontier: np.ndarray | None = None
    _pending: sp.csr_matrix | None = None

    @property
    def input_ids(self) -> np.ndarray:
        """Global ids whose feature rows the batch needs (block src ids,
        or the seeds themselves for non-sampled pipes)."""
        return self.blocks[0].src_ids if self.blocks else self.seeds

    @property
    def n_seeds(self) -> int:
        return len(self.seeds)


class DataPipe:
    """A chainable minibatch stage: iterate to stream transformed batches.

    Subclasses implement :meth:`_transform`; iteration pulls from
    ``source``, times the transform into ``MiniBatch.stage_s[name]``, and
    (when observability is on) emits a ``datapipe.stage.<name>`` span per
    batch plus a ``datapipe.stage_s`` histogram sample. Pipes are
    **re-iterable**: each ``iter()`` restarts from the source, which is
    how one pipe object serves every training epoch.
    """

    name = "stage"

    def __init__(self, source: "DataPipe") -> None:
        self.source = source

    # ------------------------------------------------------------------ #
    # Chaining constructors
    # ------------------------------------------------------------------ #

    def sample(self, sampler) -> "DataPipe":
        """Chain one ``SamplePerLayer → CompactPerLayer`` pair per layer
        of ``sampler`` (any :class:`repro.editing.sampling.BlockSampler`)."""
        pipe: DataPipe = self
        for layer in range(sampler.n_layers):
            pipe = SamplePerLayer(pipe, sampler, layer)
            pipe = CompactPerLayer(pipe)
        return pipe

    def fetch_features(
        self,
        features=None,
        labels: np.ndarray | None = None,
        store=None,
        namespace=None,
        io_delay_per_row_s: float = 0.0,
    ) -> "FeatureFetcher":
        """Chain a :class:`FeatureFetcher`."""
        return FeatureFetcher(
            self,
            features=features,
            labels=labels,
            store=store,
            namespace=namespace,
            io_delay_per_row_s=io_delay_per_row_s,
        )

    def to_device(self, dtype=None) -> "ToDevice":
        """Chain the :class:`ToDevice` finalize stage."""
        return ToDevice(self, dtype=dtype)

    def prefetch(self, depth: int = 2) -> "Prefetcher":
        """Chain a :class:`Prefetcher` with a bounded queue of ``depth``."""
        return Prefetcher(self, depth=depth)

    # ------------------------------------------------------------------ #

    def _transform(self, mb: MiniBatch) -> MiniBatch:
        return mb

    def __iter__(self) -> Iterator[MiniBatch]:
        for mb in self.source:
            t0 = time.perf_counter()
            if OBS.enabled:
                with OBS.tracer.span(
                    f"datapipe.stage.{self.name}", batch=mb.index
                ) as sp:
                    mb = self._transform(mb)
                    elapsed = time.perf_counter() - t0
                    sp.set(seconds=elapsed, n_seeds=mb.n_seeds)
                OBS.registry.histogram("datapipe.stage_s").observe(
                    elapsed, stage=self.name
                )
            else:
                mb = self._transform(mb)
                elapsed = time.perf_counter() - t0
            mb.stage_s[self.name] = mb.stage_s.get(self.name, 0.0) + elapsed
            yield mb


def iterate_batches(
    ids: np.ndarray, batch_size: int, rng
) -> Iterator[np.ndarray]:
    """Lazily yield shuffled ``batch_size`` slices of ``ids``.

    One ``rng.permutation`` per epoch, sliced on demand — epoch startup
    is O(1) and the stream composes with the datapipe stages. (The old
    eager list version materialized every batch up front.)
    """
    perm = rng.permutation(ids)
    for start in range(0, len(perm), batch_size):
        yield perm[start : start + batch_size]


class SeedBatcher(DataPipe):
    """Source stage: stream permuted seed-id batches as minibatches.

    ``seed`` may be an int or a shared :class:`numpy.random.Generator` —
    trainers pass their loop RNG so the batch permutation stays on the
    checkpointed stream. ``shuffle=False`` streams ``ids`` in order
    without consuming the RNG (the evaluation shape).
    """

    name = "batch"

    def __init__(
        self,
        ids: np.ndarray,
        batch_size: int,
        seed=None,
        shuffle: bool = True,
        drop_last: bool = False,
    ) -> None:
        check_int_range("batch_size", batch_size, 1)
        self.ids = np.asarray(ids, dtype=np.int64)
        if len(self.ids) == 0:
            raise ConfigError("SeedBatcher needs at least one seed id")
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = as_rng(seed)

    @property
    def n_batches(self) -> int:
        full, rem = divmod(len(self.ids), self.batch_size)
        return full + (1 if rem and not self.drop_last else 0)

    def __iter__(self) -> Iterator[MiniBatch]:
        if self.shuffle:
            batches = iterate_batches(self.ids, self.batch_size, self._rng)
        else:
            batches = (
                self.ids[s : s + self.batch_size]
                for s in range(0, len(self.ids), self.batch_size)
            )
        for index, seeds in enumerate(batches):
            if self.drop_last and len(seeds) < self.batch_size:
                break
            if OBS.enabled:
                OBS.registry.counter("datapipe.batches").inc()
            yield MiniBatch(seeds=seeds, index=index)


class SamplePerLayer(DataPipe):
    """Draw the raw edges of one layer for the current frontier.

    The frontier starts at the batch seeds and advances to each compacted
    layer's ``src_ids``; the raw CSR row block is parked on the
    minibatch for the paired :class:`CompactPerLayer` stage.
    """

    name = "sample"

    def __init__(self, source: DataPipe, sampler, layer: int) -> None:
        super().__init__(source)
        self.sampler = sampler
        self.layer = layer

    def _transform(self, mb: MiniBatch) -> MiniBatch:
        if mb._frontier is None:
            mb._frontier = mb.seeds
        mb._pending = self.sampler.sample_layer(mb._frontier, self.layer)
        return mb


class CompactPerLayer(DataPipe):
    """Dedup the pending raw layer into a block; advance the frontier.

    Blocks accumulate input-layer first (each layer inserts at the
    front), matching the ``sampler.sample()`` contract every
    ``forward_blocks`` model consumes.
    """

    name = "compact"

    def _transform(self, mb: MiniBatch) -> MiniBatch:
        if mb._pending is None or mb._frontier is None:
            raise ConfigError(
                "CompactPerLayer needs a preceding SamplePerLayer stage"
            )
        block = compact_layer(mb._frontier, mb._pending)
        mb.blocks.insert(0, block)
        mb._frontier = block.src_ids
        mb._pending = None
        return mb


def _slice_rows(features, ids: np.ndarray):
    """Row-gather an array or an aligned list of arrays (multi-hop shape).

    ``np.take`` returns the same bits as ``features[ids]`` and gathers
    faster. Each batch gets a new array: a reused ``out=`` buffer would
    overwrite a batch still waiting in a :class:`Prefetcher` queue.
    """
    if isinstance(features, list):
        return [np.take(f, ids, axis=0) for f in features]
    return np.take(features, ids, axis=0)


class FeatureFetcher(DataPipe):
    """Gather input feature rows (and seed labels) for each batch.

    Without a ``store``, rows come straight from ``features`` (an array
    or aligned list of arrays). With a :class:`repro.storage.FeatureStore`
    the gather routes through :meth:`~repro.storage.FeatureStore.gather`:
    resident rows are cache hits, the missing ids hit ``features`` once
    per batch and are inserted for the next epoch. ``namespace`` defaults
    to this fetcher instance (a private cache namespace); pass a graph or
    digest string to share rows across fetchers.

    ``io_delay_per_row_s`` models a cold storage tier: each batch sleeps
    ``delay × rows_actually_fetched`` (all rows on the direct path, only
    the misses through a store). Benchmark E35 uses it to put feature
    fetch at a realistic ≥30% of step time, the regime where overlapped
    prefetch pays.
    """

    name = "fetch"

    def __init__(
        self,
        source: DataPipe,
        features=None,
        labels: np.ndarray | None = None,
        store=None,
        namespace=None,
        io_delay_per_row_s: float = 0.0,
    ) -> None:
        super().__init__(source)
        if store is not None and features is None:
            raise ConfigError("a FeatureStore needs backing features")
        if store is not None and isinstance(features, list):
            raise ConfigError(
                "FeatureStore routing supports a single feature array"
            )
        if io_delay_per_row_s < 0:
            raise ConfigError("io_delay_per_row_s must be >= 0")
        self.features = features
        self.labels = labels
        self.store = store
        self.namespace = namespace if namespace is not None else f"datapipe-{id(self)}"
        self.io_delay_per_row_s = io_delay_per_row_s

    def _transform(self, mb: MiniBatch) -> MiniBatch:
        if self.features is not None:
            ids = mb.input_ids
            if self.store is None:
                fetched = len(ids)
                mb.x = _slice_rows(self.features, ids)
            else:
                mb.x, hits, misses = self.store.gather(
                    self.namespace, ids, lambda missing: self.features[missing]
                )
                fetched = misses
                if OBS.enabled:
                    OBS.registry.counter("datapipe.fetch.hits").inc(hits)
                    OBS.registry.counter("datapipe.fetch.misses").inc(misses)
            if self.io_delay_per_row_s and fetched:
                time.sleep(fetched * self.io_delay_per_row_s)
        if self.labels is not None:
            mb.y = self.labels[mb.seeds]
        return mb


class ToDevice(DataPipe):
    """Finalize stage: cast to the training dtype, make rows contiguous.

    The stand-in for the host-to-device copy of a GPU loader (this
    library is CPU-only; see DESIGN.md) — after it, the batch is in the
    exact memory layout the compute stage consumes, so downstream kernels
    never pay a conversion.
    """

    name = "finalize"

    def __init__(self, source: DataPipe, dtype=None) -> None:
        super().__init__(source)
        self.dtype = np.dtype(dtype) if dtype is not None else None

    def _prepare(self, rows):
        if self.dtype is not None:
            rows = np.asarray(rows, dtype=self.dtype)
        return np.ascontiguousarray(rows)

    def _transform(self, mb: MiniBatch) -> MiniBatch:
        if mb.x is not None:
            if isinstance(mb.x, list):
                mb.x = [self._prepare(r) for r in mb.x]
            else:
                mb.x = self._prepare(mb.x)
        return mb


class PrefetchIterator:
    """Bounded background prefetch over any minibatch iterable.

    A daemon producer thread drains ``source`` into a queue of at most
    ``depth`` batches so upstream sampling + feature fetch overlap with
    the consumer's compute. Exhaustion and upstream exceptions propagate
    to the consumer (the exception is re-raised from ``__next__`` after
    the thread is reaped); :meth:`close` (also via context manager or
    normal exhaustion) drains the queue, unblocks the producer, and joins
    the thread — no live thread survives, whichever exit path runs.

    Accounting: ``ready_hits`` counts batches served without blocking,
    ``waits`` batches the consumer had to wait for; ``hit_ratio`` is the
    prefetch hit ratio. With observability on, the queue depth is
    published to the ``datapipe.prefetch.queue_depth`` gauge and the
    ready/wait counters to ``datapipe.prefetch.{ready,wait}``.
    """

    _SENTINEL = object()
    _POLL_S = 0.05

    def __init__(self, source: Iterable[MiniBatch], depth: int = 2) -> None:
        check_int_range("depth", depth, 1)
        self.depth = depth
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._closed = threading.Event()
        self._exc: BaseException | None = None
        self.ready_hits = 0
        self.waits = 0
        self.batches = 0
        self.max_depth_seen = 0
        self._thread = threading.Thread(
            target=self._produce,
            args=(iter(source),),
            name="repro-datapipe-prefetch",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def _put(self, item) -> bool:
        """Put with shutdown polling; False when the iterator was closed."""
        while not self._closed.is_set():
            try:
                self._queue.put(item, timeout=self._POLL_S)
                return True
            except queue.Full:
                continue
        return False

    def _produce(self, it: Iterator[MiniBatch]) -> None:
        try:
            for item in it:
                if not self._put(item):
                    return
        except BaseException as exc:  # propagate through the queue
            self._exc = exc
        self._put(self._SENTINEL)

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #

    def __iter__(self) -> "PrefetchIterator":
        return self

    def __next__(self) -> MiniBatch:
        if self._closed.is_set():
            raise StopIteration
        try:
            item = self._queue.get_nowait()
            blocked = False
        except queue.Empty:
            blocked = True
            item = self._blocking_get()
        if item is self._SENTINEL:
            self.close()
            if self._exc is not None:
                exc, self._exc = self._exc, None
                raise exc
            raise StopIteration
        # Only real batches count toward the hit ratio (the final sentinel
        # pull is bookkeeping, not a batch the consumer waited for).
        if blocked:
            self.waits += 1
        else:
            self.ready_hits += 1
        if OBS.enabled:
            OBS.registry.counter(
                "datapipe.prefetch.wait" if blocked else "datapipe.prefetch.ready"
            ).inc()
        self.batches += 1
        depth = self._queue.qsize()
        if depth > self.max_depth_seen:
            self.max_depth_seen = depth
        if OBS.enabled:
            OBS.registry.gauge("datapipe.prefetch.queue_depth").set(depth)
        return item

    def _blocking_get(self):
        while True:
            if self._closed.is_set():
                raise StopIteration
            try:
                return self._queue.get(timeout=self._POLL_S)
            except queue.Empty:
                if not self._thread.is_alive() and self._queue.empty():
                    # Producer died without a sentinel (should not happen;
                    # defensive against interpreter-teardown races).
                    raise StopIteration

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop the producer and join its thread (idempotent)."""
        self._closed.set()
        # Drain so a producer blocked on a full queue sees the close flag.
        try:
            while True:
                self._queue.get_nowait()
        except queue.Empty:
            pass
        self._thread.join(timeout=5.0)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def hit_ratio(self) -> float:
        served = self.ready_hits + self.waits
        return self.ready_hits / max(served, 1)

    def snapshot(self) -> dict[str, float]:
        """Flat stats (:class:`repro.obs.StatsSource` protocol)."""
        return {
            "ready_hits": self.ready_hits,
            "waits": self.waits,
            "batches": self.batches,
            "hit_ratio": self.hit_ratio,
            "queue_depth": self._queue.qsize(),
            "max_depth_seen": self.max_depth_seen,
            "depth": self.depth,
            "alive": float(self.alive),
        }

    def reset(self) -> None:
        self.ready_hits = self.waits = self.batches = 0
        self.max_depth_seen = 0

    def __enter__(self) -> "PrefetchIterator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Prefetcher(DataPipe):
    """Datapipe stage wrapping each epoch in a :class:`PrefetchIterator`.

    Every ``iter()`` spawns a fresh producer thread and guarantees it is
    joined when the epoch ends — normal exhaustion, consumer ``break``,
    or an exception all run the ``finally`` close. The most recent run is
    kept on :attr:`last` so callers can read its prefetch stats after the
    epoch.
    """

    name = "prefetch"

    def __init__(self, source: DataPipe, depth: int = 2) -> None:
        super().__init__(source)
        check_int_range("depth", depth, 1)
        self.depth = depth
        self.last: PrefetchIterator | None = None

    def __iter__(self) -> Iterator[MiniBatch]:
        run = PrefetchIterator(self.source, depth=self.depth)
        self.last = run
        try:
            yield from run
        finally:
            run.close()
