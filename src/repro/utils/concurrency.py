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
* Served hop stacks take no lock on the read side: a gather retries
  until the model's sequence number (odd while an update writes its
  rows) reads the same even value around it; only writers take the
  model's mutex (:class:`repro.serving.registry.ServedModel`).
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
