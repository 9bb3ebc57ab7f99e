"""Feature-cache simulation for sample-based GNN training (Ginex [39]).

Billion-scale training keeps features on slow storage and caches hot rows
in memory; Ginex shows that, because sampling accesses are driven by node
degrees, (a) Belady's clairvoyant-optimal policy can actually be *run*
(the access trace of an epoch is known after sampling) and (b) a static
degree-ranked cache already captures most of the benefit on power-law
graphs. This module reproduces that storage argument:

* :func:`sampling_access_stream` — the feature-row access trace a neighbour
  sampler generates over an epoch.
* Three policies with one interface: :class:`LruCache` (classic dynamic),
  :class:`StaticCache` (pin the globally hottest rows, Ginex-style
  degree/frequency ranking), :class:`BeladyCache` (offline optimal —
  evicts the row reused furthest in the future).
* :func:`simulate_cache` — hit-rate accounting.
* :class:`FeatureStore` — a *live* per-node row store (LRU + optional TTL)
  keyed by graph **content fingerprint** (:mod:`repro.perf.fingerprint`)
  rather than object identity, so a graph rebuilt with identical topology
  shares warm rows while any structural change can never be served stale
  data. The base of :class:`repro.serving.EmbeddingStore`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import ConfigError
from repro.graph.core import Graph
from repro.resilience.faults import FAULTS
from repro.utils.concurrency import NULL_LOCK, make_lock
from repro.utils.rng import as_rng
from repro.utils.validation import check_int_range


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss (and optional eviction) accounting of one cache.

    Shared between the storage-tier simulations here and the live
    operator/propagation caches in :mod:`repro.perf`, so every cache in
    the library reports reuse the same way.
    """

    hits: int
    misses: int
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / max(self.accesses, 1)


class LruCache:
    """Least-recently-used eviction."""

    def __init__(self, capacity: int) -> None:
        check_int_range("capacity", capacity, 1)
        self.capacity = capacity
        self._store: OrderedDict[int, None] = OrderedDict()

    def access(self, key: int) -> bool:
        if key in self._store:
            self._store.move_to_end(key)
            return True
        if len(self._store) >= self.capacity:
            self._store.popitem(last=False)
        self._store[key] = None
        return False


class StaticCache:
    """A pinned set of keys chosen up front (Ginex's degree/frequency rank)."""

    def __init__(self, pinned: np.ndarray, capacity: int) -> None:
        check_int_range("capacity", capacity, 1)
        self.capacity = capacity
        self._pinned = set(map(int, np.asarray(pinned)[:capacity]))

    def access(self, key: int) -> bool:
        return key in self._pinned


class BeladyCache:
    """Offline-optimal eviction: needs the full trace up front."""

    def __init__(self, capacity: int, trace: np.ndarray) -> None:
        check_int_range("capacity", capacity, 1)
        self.capacity = capacity
        trace = np.asarray(trace, dtype=np.int64)
        # next_use[i] = next position where trace[i]'s key recurs (inf if never).
        last_seen: dict[int, int] = {}
        self._next_use = np.full(len(trace), np.inf)
        for i in range(len(trace) - 1, -1, -1):
            key = int(trace[i])
            self._next_use[i] = last_seen.get(key, np.inf)
            last_seen[key] = i
        self._position = 0
        self._store: dict[int, float] = {}  # key -> its next use position

    def access(self, key: int) -> bool:
        i = self._position
        self._position += 1
        hit = key in self._store
        if hit:
            self._store[key] = self._next_use[i]
            return True
        if len(self._store) >= self.capacity:
            victim = max(self._store, key=self._store.get)
            # Belady never caches a key used later than everything resident.
            if self._next_use[i] < self._store[victim]:
                del self._store[victim]
                self._store[key] = self._next_use[i]
        else:
            self._store[key] = self._next_use[i]
        return False


def sampling_access_stream(
    graph: Graph,
    seeds: np.ndarray,
    fanout: int = 10,
    n_layers: int = 2,
    batch_size: int = 64,
    seed=None,
) -> np.ndarray:
    """The feature-row access trace of one epoch of neighbour sampling.

    For each mini-batch the trace records every source node whose feature
    row must be gathered (batch nodes plus sampled multi-hop neighbours) —
    the stream a storage tier actually sees.
    """
    from repro.editing.sampling import NeighborSampler

    check_int_range("fanout", fanout, 1)
    check_int_range("batch_size", batch_size, 1)
    rng = as_rng(seed)
    sampler = NeighborSampler(graph, [fanout] * n_layers, seed=rng)
    seeds = np.asarray(seeds, dtype=np.int64)
    perm = rng.permutation(seeds)
    trace: list[np.ndarray] = []
    for start in range(0, len(perm), batch_size):
        batch = perm[start : start + batch_size]
        blocks = sampler.sample(batch)
        trace.append(blocks[0].src_ids)
    if not trace:
        raise ConfigError("empty access stream; provide at least one seed")
    return np.concatenate(trace)


def simulate_cache(cache, trace: np.ndarray) -> CacheStats:
    """Run ``trace`` through any cache exposing ``access(key) -> bool``."""
    hits = 0
    trace = np.asarray(trace, dtype=np.int64)
    for key in trace:
        if cache.access(int(key)):
            hits += 1
    return CacheStats(hits=hits, misses=len(trace) - hits)


def feature_key(graph: Graph | str) -> str:
    """The content-fingerprint namespace a graph's rows are cached under.

    Accepts a :class:`Graph` (preferring its memoized
    :attr:`~repro.graph.core.Graph.fingerprint`) or a pre-computed digest
    string. Keying by content instead of ``id(graph)`` means a graph
    rebuilt with identical topology shares warm entries, while any
    structural change yields a fresh namespace — no stale hits.
    """
    if isinstance(graph, str):
        return graph
    if isinstance(graph, Graph):
        return graph.fingerprint
    # Deferred import: repro.perf.propagation imports this module for
    # CacheStats, so the reverse dependency must resolve at call time.
    from repro.perf.fingerprint import graph_fingerprint

    return graph_fingerprint(graph)


class FeatureStore:
    """Bounded live store of per-node rows: LRU eviction + optional TTL.

    Entries are keyed ``(namespace, node_id)`` where the namespace is a
    graph content fingerprint (:func:`feature_key`) or any caller-chosen
    digest string — never object identity. Values are arbitrary (dense
    rows, logits, small records). A ``ttl_s`` bounds staleness in wall
    time; :meth:`invalidate` supports push-based dirty-set eviction, the
    hook incremental graph updates use.

    The ``clock`` is injectable (monotonic seconds) so TTL behaviour is
    deterministic under test. ``threadsafe=True`` (the default) guards
    every operation with a lock so concurrent serving workers can share
    one store; ``False`` drops it for single-threaded callers, the one
    place the library keeps a lock-free twin (see
    :mod:`repro.utils.concurrency`).
    """

    def __init__(
        self,
        capacity: int,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        threadsafe: bool = True,
    ) -> None:
        check_int_range("capacity", capacity, 1)
        if ttl_s is not None and not ttl_s > 0:
            raise ConfigError(f"ttl_s must be > 0 or None, got {ttl_s!r}")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = make_lock(threadsafe)
        self._store: OrderedDict[tuple[str, int], tuple[float, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0
        self._invalidations = 0
        self._stale_hits = 0

    # ------------------------------------------------------------------ #

    def _expired(self, inserted_at: float, now: float) -> bool:
        return self.ttl_s is not None and now - inserted_at > self.ttl_s

    def _sweep_expired(self) -> int:
        """Drop every TTL-expired entry, accounting them as expirations.

        Caller must hold the lock (if any).
        """
        if self.ttl_s is None:
            return 0
        now = self._clock()
        victims = [
            key for key, (inserted_at, _) in self._store.items()
            if self._expired(inserted_at, now)
        ]
        for key in victims:
            del self._store[key]
        self._expirations += len(victims)
        return len(victims)

    def put(self, namespace: Graph | str, node: int, value: Any) -> None:
        """Insert/overwrite the row for ``node`` under ``namespace``.

        When the store is full, TTL-expired residents are swept first
        (accounted as expirations); a live LRU row is evicted only if the
        store is still full afterwards.
        """
        key = (feature_key(namespace), int(node))
        if self._lock is None:
            self._put(key, value)
        else:
            with self._lock:
                self._put(key, value)

    def _put(self, key: tuple[str, int], value: Any) -> None:
        if key in self._store:
            self._store.move_to_end(key)
        elif len(self._store) >= self.capacity:
            self._sweep_expired()
            if len(self._store) >= self.capacity:
                self._store.popitem(last=False)
                self._evictions += 1
        self._store[key] = (self._clock(), value)

    def put_many(
        self, namespace: Graph | str, rows: Iterable[tuple[int, Any]]
    ) -> None:
        """Insert a batch of ``(node, value)`` rows under one lock/namespace
        resolution — the shape the micro-batch serving path writes in."""
        fp = feature_key(namespace)
        with self._lock or NULL_LOCK:
            for node, value in rows:
                self._put((fp, int(node)), value)

    def get(self, namespace: Graph | str, node: int) -> Any | None:
        """The cached row, or ``None`` on miss / TTL expiry.

        Fault-injection site ``"storage.get"``: under an installed
        :class:`repro.resilience.FaultInjector` a read may raise a typed
        error, be delayed, come back corrupted (float arrays only), or
        be dropped (accounted as a miss). The production path pays one
        ``FAULTS.active`` attribute check.
        """
        if FAULTS.active:
            # Load once: a concurrent clear_injector() may null
            # FAULTS.injector after the active check; fall through to
            # the plain read when it already has.
            inj = FAULTS.injector
            if inj is not None:
                return self._get_faulty(inj, namespace, node)
        key = (feature_key(namespace), int(node))
        if self._lock is None:
            return self._get(key)
        with self._lock:
            return self._get(key)

    def _get_faulty(self, inj, namespace: Graph | str, node: int) -> Any | None:
        """:meth:`get` with the fault schedule applied (chaos regime only).

        ``inj`` is the caller's locally-loaded injector (never the
        global, which a concurrent teardown may null). ``fire`` may
        raise (transient/permanent) or sleep (delay) before the lookup;
        ``"drop"`` loses the read (a miss), ``"corrupt"`` poisons a hit
        through :meth:`FaultInjector.corrupt`.
        """
        action = inj.fire("storage.get")
        key = (feature_key(namespace), int(node))
        if action == "drop":
            with self._lock or NULL_LOCK:
                self._misses += 1
            return None
        with self._lock or NULL_LOCK:
            value = self._get(key)
        if action == "corrupt" and value is not None:
            value = inj.corrupt(value)
        return value

    def gather(
        self,
        namespace: Graph | str,
        nodes: np.ndarray,
        fetch_fn: Callable[[np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, int, int]:
        """Batched row gather through the store: the datapipe's read shape.

        Resident (non-expired) rows are served from the store; the missing
        ids are fetched in **one** ``fetch_fn(missing_ids) -> rows`` call
        against the backing tier (feature matrix, mmap, remote shard) and
        inserted for the next epoch. Returns ``(rows, hits, misses)`` with
        ``rows`` stacked in input order. ``fetch_fn`` runs outside the
        lock — a slow cold tier must not block concurrent readers.
        """
        fp = feature_key(namespace)
        nodes = np.asarray(nodes, dtype=np.int64)
        if len(nodes) == 0:
            return np.asarray(fetch_fn(nodes)), 0, 0
        out: list[Any] = [None] * len(nodes)
        missing_pos: list[int] = []
        with self._lock or NULL_LOCK:
            for j, n in enumerate(nodes):
                value = self._get((fp, int(n)))
                if value is None:
                    missing_pos.append(j)
                else:
                    out[j] = value
        if missing_pos:
            fetched = np.asarray(fetch_fn(nodes[missing_pos]))
            if len(fetched) != len(missing_pos):
                raise ConfigError(
                    f"fetch_fn returned {len(fetched)} rows for "
                    f"{len(missing_pos)} missing ids"
                )
            with self._lock or NULL_LOCK:
                for j, row in zip(missing_pos, fetched):
                    self._put((fp, int(nodes[j])), row)
            for j, row in zip(missing_pos, fetched):
                out[j] = row
        return np.stack(out), len(nodes) - len(missing_pos), len(missing_pos)

    def get_stale(self, namespace: Graph | str, node: int) -> Any | None:
        """The resident row even if TTL-expired, or ``None`` when absent.

        The graceful-degradation read: when a circuit breaker is open
        the serving runtime would rather answer with a stale prediction
        than fail. Bypasses the fault-injection site, does not touch
        LRU order, and counts separately (:attr:`stale_hits`) so the
        hit-rate accounting stays honest.
        """
        key = (feature_key(namespace), int(node))
        with self._lock or NULL_LOCK:
            entry = self._store.get(key)
            if entry is None:
                return None
            self._stale_hits += 1
            return entry[1]

    def _get(self, key: tuple[str, int]) -> Any | None:
        entry = self._store.get(key)
        if entry is None:
            self._misses += 1
            return None
        inserted_at, value = entry
        # TTL test spelled out so a TTL-less store never reads the clock.
        if self.ttl_s is not None and self._clock() - inserted_at > self.ttl_s:
            del self._store[key]
            self._expirations += 1
            self._misses += 1
            return None
        self._store.move_to_end(key)
        self._hits += 1
        return value

    def invalidate(
        self, namespace: Graph | str, nodes: Iterable[int] | None = None
    ) -> int:
        """Drop entries for ``nodes`` (or the whole namespace); returns count."""
        fp = feature_key(namespace)
        with self._lock or NULL_LOCK:
            if nodes is None:
                victims = [k for k in self._store if k[0] == fp]
            else:
                victims = [
                    (fp, int(n))
                    for n in np.asarray(list(nodes), dtype=np.int64).ravel()
                    if (fp, int(n)) in self._store
                ]
            for key in victims:
                del self._store[key]
            self._invalidations += len(victims)
        return len(victims)

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating; see :meth:`reset`)."""
        with self._lock or NULL_LOCK:
            self._store.clear()

    def reset(self) -> None:
        """Zero the counters without evicting resident rows — the uniform
        :class:`repro.obs.StatsSource` protocol."""
        with self._lock or NULL_LOCK:
            self._hits = self._misses = 0
            self._evictions = self._expirations = self._invalidations = 0
            self._stale_hits = 0

    def snapshot(self) -> dict[str, float]:
        """Flat counter/rate dict (:class:`repro.obs.StatsSource`).

        ``size`` counts only live (non-expired) rows; expired residents
        that have not yet been swept are reported separately.
        """
        with self._lock or NULL_LOCK:
            s = self.stats
            now = self._clock()
            expired = sum(
                1 for inserted_at, _ in self._store.values()
                if self._expired(inserted_at, now)
            )
            return {
                "hits": s.hits,
                "misses": s.misses,
                "evictions": s.evictions,
                "accesses": s.accesses,
                "hit_rate": s.hit_rate,
                "expirations": self._expirations,
                "invalidations": self._invalidations,
                "stale_hits": self._stale_hits,
                "size": len(self._store) - expired,
                "expired_resident": expired,
                "capacity": self.capacity,
            }

    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction accounting.

        ``evictions`` counts only capacity-pressure LRU drops; TTL
        expiries are tracked separately (:attr:`expirations`) — a row
        aging out is not a sign of the store being undersized.
        """
        with self._lock or NULL_LOCK:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )

    @property
    def expirations(self) -> int:
        return self._expirations

    @property
    def invalidations(self) -> int:
        return self._invalidations

    @property
    def stale_hits(self) -> int:
        return self._stale_hits

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: tuple[Graph | str, int]) -> bool:
        namespace, node = key
        return (feature_key(namespace), int(node)) in self._store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"FeatureStore(size={len(self)}/{self.capacity}, ttl={self.ttl_s}, "
            f"hits={s.hits}, misses={s.misses})"
        )
