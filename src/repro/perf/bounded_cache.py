"""One LRU-bounded memo for the object caches of :mod:`repro.perf`.

The operator cache and the propagation engine's hop-stack and
feature-hash memos all need the same map: a
bounded number of entries, least-recently-used eviction, a build that
runs under a lock (two threads asking for one missing entry must not
both build it), and hit/miss/eviction counters. :class:`BoundedCache`
is that map. A plain ``dict``'s insertion order is the recency order: a
lookup re-inserts its key at the end, an eviction drops the first key.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Hashable

from repro.obs import cache_stats_dict
from repro.storage.feature_cache import CacheStats
from repro.utils.validation import check_int_range

_MISSING = object()


class BoundedCache:
    """LRU map of at most ``max_entries`` entries under one reentrant lock.

    :meth:`get_or_build` is the memo: a miss calls ``build()`` while
    holding :attr:`lock`. :meth:`get_or_build_for` keys an entry by an
    object's identity instead of its value. :meth:`get` / :meth:`put`
    are the uncounted pair for owners that decide hit or miss themselves;
    they bump :attr:`hits` / :attr:`misses` while holding :attr:`lock`.
    """

    def __init__(self, max_entries: int) -> None:
        check_int_range("max_entries", max_entries, 1)
        self.max_entries = max_entries
        self.lock = threading.RLock()
        self._entries: dict[Hashable, Any] = {}
        self.hits = self.misses = self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The value under ``key``, now the most recent, else ``default``."""
        with self.lock:
            value = self._entries.pop(key, _MISSING)
            if value is _MISSING:
                return default
            self._entries[key] = value
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` as the most recent entry, evicting past the bound."""
        with self.lock:
            self._entries.pop(key, None)
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                del self._entries[next(iter(self._entries))]
                self.evictions += 1

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value under ``key``, built by ``build()`` on a miss."""
        with self.lock:
            value = self.get(key, _MISSING)
            if value is not _MISSING:
                self.hits += 1
                return value
            self.misses += 1
            value = build()
            self.put(key, value)
            return value

    def get_or_build_for(
        self, obj: Any, build: Callable[[], Any], *key: Hashable
    ) -> Any:
        """:meth:`get_or_build` keyed by ``id(obj)`` plus ``key``.

        The entry holds a strong reference to ``obj``, so that ``id``
        cannot be recycled while the entry lives, and an entry is only
        returned for the very object it was built for.
        """
        full_key = (id(obj),) + key
        with self.lock:
            entry = self.get(full_key)
            if entry is not None and entry[0] is obj:
                self.hits += 1
                return entry[1]
            self.misses += 1
            value = build()
            self.put(full_key, (obj, value))
            return value

    def values(self) -> list:
        """The cached values, least recent first."""
        with self.lock:
            return list(self._entries.values())

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction accounting since construction (or clear)."""
        with self.lock:
            return CacheStats(self.hits, self.misses, self.evictions)

    def snapshot(self) -> dict[str, float]:
        """The counters and hit rate, plus the entry count."""
        with self.lock:
            return {**cache_stats_dict(self.stats), "entries": len(self._entries)}

    def reset(self) -> None:
        """Zero the counters; entries stay resident."""
        with self.lock:
            self.hits = self.misses = self.evictions = 0

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self.lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)
