"""Circuit breaker: stop hammering a failing model, probe, recover.

The classic three-state machine, tuned for the serving path:

* **closed** — requests flow; outcomes land in a sliding window of the
  last ``window`` calls. When the window holds at least ``min_calls``
  outcomes and the failure rate reaches ``failure_threshold``, the
  breaker *opens*.
* **open** — :meth:`CircuitBreaker.allow` answers ``False`` (the runtime
  serves a stale fallback or rejects with
  :class:`repro.errors.CircuitOpenError`) until ``cooldown_s`` elapses.
* **half-open** — after the cooldown, up to ``half_open_probes`` calls
  are let through as probes. One recorded success closes the breaker
  and clears the window; one recorded failure reopens it and restarts
  the cooldown.

All transitions happen inside :meth:`allow` / :meth:`record_success` /
:meth:`record_failure` under one lock; the injectable ``clock`` makes
the cooldown deterministic under test.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable

from repro import obs
from repro.utils.validation import check_fraction, check_int_range, check_positive

_LOG = obs.get_logger("repro.resilience.breaker")

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric encoding for the ``breaker.state`` gauge.
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Sliding-window failure-rate breaker with half-open probing.

    Parameters
    ----------
    failure_threshold:
        Failure rate in ``(0, 1]`` that opens the breaker.
    window:
        Number of most-recent outcomes the rate is computed over.
    min_calls:
        Outcomes required in the window before the rate is trusted
        (prevents one early failure from opening a cold breaker).
    cooldown_s:
        Seconds the breaker stays open before probing.
    half_open_probes:
        Concurrent probe budget while half-open.
    """

    def __init__(
        self,
        failure_threshold: float = 0.5,
        window: int = 20,
        min_calls: int = 5,
        cooldown_s: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_fraction("failure_threshold", failure_threshold)
        check_int_range("window", window, 1)
        check_int_range("min_calls", min_calls, 1)
        check_positive("cooldown_s", cooldown_s)
        check_int_range("half_open_probes", half_open_probes, 1)
        self.failure_threshold = failure_threshold
        self.window = window
        self.min_calls = min_calls
        self.cooldown_s = cooldown_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._outcomes: deque[bool] = deque(maxlen=window)  # True = failure
        self._opened_at = 0.0
        self._probes_inflight = 0
        self.rejected = 0
        self.opens = 0
        self.closes = 0

    # ------------------------------------------------------------------ #

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_state()

    def _probe_state(self) -> str:
        """Current state, promoting open→half-open when the cooldown is
        over. Caller holds the lock."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN
            self._probes_inflight = 0
            _LOG.debug("breaker half-open after %.3fs cooldown", self.cooldown_s)
        return self._state

    def _failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def allow(self) -> bool:
        """Whether a request may proceed right now.

        Half-open grants at most ``half_open_probes`` in-flight probes;
        a refused request is counted in :attr:`rejected`.
        """
        with self._lock:
            state = self._probe_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and self._probes_inflight < self.half_open_probes:
                self._probes_inflight += 1
                return True
            self.rejected += 1
            return False

    def release_probe(self) -> None:
        """Return an admitted-but-unused call slot.

        For a permitted call that resolved *without* exercising the
        backend (store hit, load shed, aborted submit): the outcome says
        nothing about backend health, so no success/failure is recorded
        — but any half-open probe slot the call consumed must be handed
        back, or a breaker with ``half_open_probes=1`` would wait
        forever for a probe verdict that can never arrive.
        """
        with self._lock:
            if self._state == HALF_OPEN and self._probes_inflight > 0:
                self._probes_inflight -= 1

    def record_success(self) -> None:
        """A permitted call completed; closes a half-open breaker."""
        with self._lock:
            state = self._probe_state()
            if state == HALF_OPEN:
                self._state = CLOSED
                self._outcomes.clear()
                self._probes_inflight = 0
                self.closes += 1
                _LOG.info("breaker closed after successful probe")
            else:
                self._outcomes.append(False)

    def record_failure(self) -> None:
        """A permitted call failed; may open (or reopen) the breaker."""
        with self._lock:
            state = self._probe_state()
            if state == HALF_OPEN:
                self._open()
                return
            self._outcomes.append(True)
            if (
                state == CLOSED
                and len(self._outcomes) >= self.min_calls
                and self._failure_rate() >= self.failure_threshold
            ):
                self._open()

    def _open(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._probes_inflight = 0
        self.opens += 1
        _LOG.warning(
            "breaker open (failure rate %.2f over %d calls)",
            self._failure_rate(), len(self._outcomes),
        )

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, float]:
        """Flat counter dict (:class:`repro.obs.StatsSource`); ``state``
        uses :data:`STATE_CODES` (0 closed / 1 half-open / 2 open)."""
        with self._lock:
            return {
                "state": STATE_CODES[self._probe_state()],
                "failure_rate": self._failure_rate(),
                "window_calls": len(self._outcomes),
                "rejected": self.rejected,
                "opens": self.opens,
                "closes": self.closes,
            }

    def reset(self) -> None:
        """Force-close and forget all history."""
        with self._lock:
            self._state = CLOSED
            self._outcomes.clear()
            self._probes_inflight = 0
            self.rejected = 0
            self.opens = 0
            self.closes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker(state={self.state}, "
            f"threshold={self.failure_threshold}, opens={self.opens})"
        )
