"""Thread-safety primitives shared by the concurrent serving stack.

:class:`repro.serving.runtime.ServingRuntime` runs the serving stack
from a batcher thread plus a worker pool. The rule is one sentence:
**everything always locks, except the store and the queue.**

* Every shared component — ``perf.OperatorCache``,
  ``perf.PropagationEngine``, ``perf.BufferArena``,
  ``resilience.CircuitBreaker``, ``LatencyHistogram`` and the
  ``ServingEngine``'s own counters — holds a plain lock on every
  operation and takes no switch.
* ``FeatureStore`` / ``EmbeddingStore`` and ``BatchingQueue`` keep
  ``threadsafe=`` (``ServingEngine`` forwards it to the ones it builds):
  the inline engine runs them lock-free while the runtime needs them
  locked, and the macro benchmark measures that gap
  (``storage.get_hit_us`` against ``storage.get_hit_locked_us``).
  :func:`make_lock` returns a :class:`threading.RLock` or ``None``; the
  per-request calls branch on ``if self._lock is None``, and cold paths
  write ``with self._lock or NULL_LOCK:`` (:data:`NULL_LOCK` is a shared
  no-op context manager).
* :class:`RWLock` is a writer-preferring readers–writer lock for state
  with many concurrent readers and rare exclusive writers — the served
  hop stacks, which micro-batch workers gather from while streaming
  edge updates patch rows in place.
"""

from __future__ import annotations

import threading


class NullLock:
    """No-op stand-in for a lock: ``with``, ``acquire`` and ``release``
    all do nothing. Falsy, so ``self._lock or NULL_LOCK`` composes."""

    __slots__ = ()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        return True

    def release(self) -> None:
        pass

    def __enter__(self) -> "NullLock":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullLock()"


NULL_LOCK = NullLock()


def make_lock(threadsafe: bool = True):
    """A reentrant lock, or ``None`` for the unlocked fast path.

    Returning ``None`` (rather than a no-op lock) is deliberate: a
    Python-level no-op context manager costs nearly as much as a real
    C-implemented lock, so overhead-free single-threaded operation
    requires hot paths to *branch*, not to enter a dummy lock.
    """
    return threading.RLock() if threadsafe else None


class _Guard:
    """Reusable context manager binding an acquire/release pair.

    Stateless (the lock itself holds all state), so one guard instance
    is safely shared across threads and re-entered concurrently.
    """

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire, release) -> None:
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> "_Guard":
        self._acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._release()
        return False


class RWLock:
    """Writer-preferring readers–writer lock (not reentrant).

    Any number of readers may hold the lock together; a writer holds it
    exclusively. Once a writer is waiting, new readers queue behind it,
    so a steady read stream cannot starve updates.

    Use the shared :attr:`reader` / :attr:`writer` guards::

        with lock.reader:   # concurrent with other readers
            rows = stack[nodes]
        with lock.writer:   # exclusive
            patch_stack(...)
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        self.reader = _Guard(self.acquire_read, self.release_read)
        self.writer = _Guard(self.acquire_write, self.release_write)

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RWLock(readers={self._readers}, writer={self._writer_active}, "
            f"writers_waiting={self._writers_waiting})"
        )
