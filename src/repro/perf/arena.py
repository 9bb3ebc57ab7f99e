"""Preallocated buffer arena: rent/release dense scratch buffers.

Serving allocates the same dense shapes over and over — the
per-micro-batch hop-row gather of every batch worker. Each ``np.empty``
of a tens-of-megabytes array is a round trip through the allocator
(and, for fresh pages, through the kernel's zero-page machinery) on a
path that is otherwise pure memory bandwidth. :class:`BufferArena` keeps released buffers pooled by
``(shape, dtype)`` so steady-state loops reuse the same physical pages
instead of churning new ones.

Renting is explicit and the arena never tracks outstanding buffers: a
rented array is owned by the caller until (and unless) it is handed
back with :meth:`BufferArena.release`. Buffers escape the pool simply
by never being released — correct-by-default for results that outlive
the loop (e.g. memoized hop stacks). Rented buffers contain stale
bytes unless ``zero=True`` is requested.

The process-wide default arena (:func:`get_default_arena`) is
registered as an ``obs`` stats source, so reuse rates and resident
bytes show up in ``obs.get_registry().snapshot()`` next to the
operator-cache and propagation counters.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.errors import ConfigError
from repro.storage.feature_cache import CacheStats
from repro.utils.validation import check_int_range

DEFAULT_MAX_BYTES = 256 << 20  # 256 MiB of pooled (idle) buffers


class BufferArena:
    """Shape/dtype-keyed pool of reusable dense scratch buffers.

    Parameters
    ----------
    max_bytes:
        Upper bound on *idle* pooled bytes. A release that would exceed
        the bound discards the buffer instead of pooling it (counted in
        ``discards``), so the arena can never hold more than
        ``max_bytes`` of unused memory.
    per_key:
        Maximum pooled buffers per ``(shape, dtype)`` key — bounds the
        damage of a loop that releases many identical buffers before
        renting any back.

    The pool is guarded by one lock, so serving workers and the training
    thread share one arena.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES, per_key: int = 4) -> None:
        check_int_range("max_bytes", max_bytes, 0)
        check_int_range("per_key", per_key, 1)
        self.max_bytes = max_bytes
        self.per_key = per_key
        self._lock = threading.RLock()
        self._pool: dict[tuple, list[np.ndarray]] = {}
        self._pooled_bytes = 0
        self._rents = 0
        self._reuses = 0
        self._allocations = 0
        self._releases = 0
        self._discards = 0

    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    # ------------------------------------------------------------------ #
    # Rent / release
    # ------------------------------------------------------------------ #

    def rent(self, shape, dtype=np.float64, zero: bool = False) -> np.ndarray:
        """A writable ``(shape, dtype)`` buffer — pooled if available.

        The buffer holds stale bytes from its previous life unless
        ``zero=True``. The caller owns it until :meth:`release`.
        """
        key = self._key(shape, dtype)
        buf = None
        with self._lock:
            self._rents += 1
            bucket = self._pool.get(key)
            if bucket:
                buf = bucket.pop()
                self._pooled_bytes -= buf.nbytes
                self._reuses += 1
            else:
                self._allocations += 1
        if buf is None:
            buf = np.empty(key[0], dtype=np.dtype(dtype))
        if zero:
            buf.fill(0)
        return buf

    def release(self, *arrays: np.ndarray) -> None:
        """Hand buffers back to the pool for reuse.

        Only exact ``(shape, dtype)`` matches are ever re-rented, so any
        writable C-contiguous array may be released here, not just ones
        that were rented. Releasing a buffer the caller still reads or
        writes is a use-after-free bug — the next renter scribbles over
        it.
        """
        with self._lock:
            for arr in arrays:
                self._releases += 1
                if (
                    not arr.flags.writeable
                    or not arr.flags.c_contiguous
                    or arr.base is not None
                    or self._pooled_bytes + arr.nbytes > self.max_bytes
                ):
                    self._discards += 1
                    continue
                bucket = self._pool.setdefault(self._key(arr.shape, arr.dtype), [])
                if len(bucket) >= self.per_key:
                    self._discards += 1
                    continue
                bucket.append(arr)
                self._pooled_bytes += arr.nbytes

    @contextmanager
    def borrow(self, shape, dtype=np.float64, zero: bool = False):
        """Context-managed :meth:`rent`; released on exit, even on error."""
        buf = self.rent(shape, dtype, zero=zero)
        try:
            yield buf
        finally:
            self.release(buf)

    # ------------------------------------------------------------------ #
    # Introspection / management
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> CacheStats:
        """Reuse accounting: hits = pool reuses, misses = fresh allocations."""
        with self._lock:
            return CacheStats(self._reuses, self._allocations, self._discards)

    @property
    def nbytes(self) -> int:
        """Bytes currently held by idle pooled buffers."""
        with self._lock:
            return self._pooled_bytes

    def snapshot(self) -> dict[str, float]:
        """Flat counter/rate dict (:class:`repro.obs.StatsSource`)."""
        with self._lock:
            rents = self._rents
            reuses = self._reuses
            return {
                "rents": rents,
                "reuses": reuses,
                "allocations": self._allocations,
                "releases": self._releases,
                "discards": self._discards,
                "reuse_rate": reuses / rents if rents else 0.0,
                "pooled_buffers": sum(len(b) for b in self._pool.values()),
                "pooled_bytes": self._pooled_bytes,
            }

    def reset(self) -> None:
        """Zero the counters; pooled buffers stay resident
        (:meth:`clear` is the destructive variant)."""
        with self._lock:
            self._rents = self._reuses = self._allocations = 0
            self._releases = self._discards = 0

    def clear(self) -> None:
        """Drop every pooled buffer and reset the counters."""
        with self._lock:
            self._pool.clear()
            self._pooled_bytes = 0
            self._rents = self._reuses = self._allocations = 0
            self._releases = self._discards = 0

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._pool.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats
        return (
            f"BufferArena(pooled={len(self)}, bytes={self.nbytes}, "
            f"reuses={s.hits}, allocations={s.misses})"
        )


# --------------------------------------------------------------------- #
# Process-wide default arena
# --------------------------------------------------------------------- #

_default_arena = BufferArena()


def get_default_arena() -> BufferArena:
    """The process-wide arena shared by the serving workers."""
    return _default_arena


def set_default_arena(arena: BufferArena) -> BufferArena:
    """Swap the process-wide arena; returns the previous one."""
    global _default_arena
    if not isinstance(arena, BufferArena):
        raise ConfigError("set_default_arena expects a BufferArena")
    previous = _default_arena
    _default_arena = arena
    return previous
