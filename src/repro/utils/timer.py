"""Wall-clock timing helpers used by trainers, serving, and benchmarks.

:class:`Timer` accumulates elapsed time; :class:`LatencyHistogram` keeps a
mergeable log-bucketed distribution of durations for percentile reporting
(p50/p95/p99), the accounting primitive of the online-serving path.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Iterable


class Timer:
    """Accumulating wall-clock timer usable as a context manager.

    Examples
    --------
    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the running interval and return its duration in seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        interval = time.perf_counter() - self._start
        self.elapsed += interval
        self._start = None
        return interval

    def reset(self) -> None:
        self.elapsed = 0.0
        self._start = None


class LatencyHistogram:
    """Log-bucketed latency distribution with percentile queries and merging.

    Durations are recorded into geometrically spaced buckets spanning
    ``[min_latency, max_latency]`` seconds (values outside the range are
    clamped into the edge buckets), so memory stays constant no matter how
    many samples arrive and two histograms with the same layout can be
    merged exactly — the shape that lets per-worker serving stats be
    aggregated into fleet-wide p50/p95/p99.

    Percentiles are resolved to the upper edge of the bucket containing the
    requested rank, i.e. they are conservative (never under-report).

    Degenerate durations are well-defined: an exactly-zero duration (a
    coarse monotonic clock ticking twice inside its resolution) clamps
    into the lowest bucket, and non-finite values are rejected with a
    clear :class:`ValueError` instead of surfacing a math domain error
    from the bucket computation.

    Every read and write holds a plain lock, so any number of threads
    may record into one histogram.
    """

    def __init__(
        self,
        min_latency: float = 1e-6,
        max_latency: float = 60.0,
        buckets_per_decade: int = 20,
    ) -> None:
        if not 0.0 < min_latency < max_latency:
            raise ValueError(
                f"need 0 < min_latency < max_latency, got "
                f"({min_latency}, {max_latency})"
            )
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.min_latency = float(min_latency)
        self.max_latency = float(max_latency)
        self.buckets_per_decade = int(buckets_per_decade)
        decades = math.log10(self.max_latency / self.min_latency)
        self._n_buckets = max(1, math.ceil(decades * self.buckets_per_decade))
        self._growth = (self.max_latency / self.min_latency) ** (1.0 / self._n_buckets)
        self._log_growth = math.log(self._growth)
        self._counts = [0] * self._n_buckets
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    # ------------------------------------------------------------------ #

    def _bucket(self, seconds: float) -> int:
        # <= (not <) so an exactly-zero duration clamps into the lowest
        # bucket instead of reaching math.log(0) below.
        if seconds <= self.min_latency:
            return 0
        if seconds >= self.max_latency:
            return self._n_buckets - 1
        idx = int(math.log(seconds / self.min_latency) / self._log_growth)
        return min(max(idx, 0), self._n_buckets - 1)

    def _bucket_upper(self, idx: int) -> float:
        return self.min_latency * self._growth ** (idx + 1)

    def record(self, seconds: float) -> None:
        """Record one duration (negative or non-finite values are rejected)."""
        seconds = float(seconds)
        if not math.isfinite(seconds) or seconds < 0:
            raise ValueError(f"latency must be finite and >= 0, got {seconds}")
        idx = self._bucket(seconds)
        with self._lock:
            self._record(idx, seconds)

    def _record(self, idx: int, seconds: float) -> None:
        self._counts[idx] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def record_many(self, durations: Iterable[float]) -> None:
        """Record a batch of durations under one lock acquisition.

        The micro-batch serving path records one latency per request; a
        batch of 64 would otherwise pay 64 lock round-trips.
        """
        pairs = []
        for seconds in durations:
            seconds = float(seconds)
            if not math.isfinite(seconds) or seconds < 0:
                raise ValueError(
                    f"latency must be finite and >= 0, got {seconds}"
                )
            pairs.append((self._bucket(seconds), seconds))
        with self._lock:
            for idx, seconds in pairs:
                self._record(idx, seconds)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``q`` in [0, 100]); 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = math.ceil(q / 100.0 * self.count)
            seen = 0
            for idx, n in enumerate(self._counts):
                seen += n
                if seen >= rank:
                    if idx == self._n_buckets - 1:
                        # Overflow bucket: its edge under-reports clamped
                        # outliers, so answer with the exactly tracked max.
                        return float(self.max)
                    # Clamp the bucket edge by the exactly tracked extremes.
                    return float(
                        min(max(self._bucket_upper(idx), self.min), self.max)
                    )
            return float(self.max)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (same layout only)."""
        if (
            other.min_latency != self.min_latency
            or other.max_latency != self.max_latency
            or other.buckets_per_decade != self.buckets_per_decade
        ):
            raise ValueError("cannot merge histograms with different bucket layouts")
        with other._lock:
            counts = list(other._counts)
            count, total = other.count, other.total
            low, high = other.min, other.max
        with self._lock:
            for idx, n in enumerate(counts):
                self._counts[idx] += n
            self.count += count
            self.total += total
            self.min = min(self.min, low)
            self.max = max(self.max, high)
        return self

    def state(self) -> dict:
        """Serializable full state: layout + raw bucket counts + extremes.

        Unlike :meth:`summary` (derived percentiles), the state is
        *mergeable without loss*: two histograms with the same layout can
        be reconstructed on another process from their states and folded
        together with exactly the result an in-process :meth:`merge`
        would produce. This is the wire format of the cross-process
        telemetry plane (:mod:`repro.obs.telemetry`).
        """
        with self._lock:
            return {
                "layout": [
                    self.min_latency, self.max_latency, self.buckets_per_decade,
                ],
                "counts": list(self._counts),
                "count": self.count,
                "total": self.total,
                # math.inf is not portable JSON; an empty histogram's
                # extremes are reconstructed from count == 0.
                "min": self.min if self.count else 0.0,
                "max": self.max,
            }

    def merge_state(self, state: dict) -> "LatencyHistogram":
        """Fold a :meth:`state` payload into this histogram (exact).

        The payload must carry the same bucket layout; a mismatch raises
        :class:`ValueError` just like :meth:`merge`.
        """
        layout = [
            float(state["layout"][0]),
            float(state["layout"][1]),
            int(state["layout"][2]),
        ]
        if layout != [self.min_latency, self.max_latency, self.buckets_per_decade]:
            raise ValueError(
                "cannot merge histogram state with a different bucket layout"
            )
        counts = [int(n) for n in state["counts"]]
        if len(counts) != self._n_buckets:
            raise ValueError(
                f"state carries {len(counts)} buckets, expected {self._n_buckets}"
            )
        count = int(state["count"])
        with self._lock:
            for idx, n in enumerate(counts):
                self._counts[idx] += n
            self.count += count
            self.total += float(state["total"])
            if count:
                self.min = min(self.min, float(state["min"]))
                self.max = max(self.max, float(state["max"]))
        return self

    @classmethod
    def from_state(cls, state: dict) -> "LatencyHistogram":
        """Reconstruct a histogram from a :meth:`state` payload."""
        min_latency, max_latency, buckets_per_decade = state["layout"]
        hist = cls(float(min_latency), float(max_latency), int(buckets_per_decade))
        hist.merge_state(state)
        return hist

    def summary(self) -> dict[str, float]:
        """``{count, mean, min, max, p50, p95, p99}`` for reports."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": 0.0 if self.count == 0 else float(self.min),
            "max": float(self.max),
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def snapshot(self) -> dict[str, float]:
        """Alias of :meth:`summary` — the uniform
        :class:`repro.obs.StatsSource` protocol (``snapshot``/``reset``)
        shared with every cache in the library."""
        return self.summary()

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * self._n_buckets
            self.count = 0
            self.total = 0.0
            self.min = math.inf
            self.max = 0.0

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LatencyHistogram(count={self.count}, p50={self.p50:.2e}, "
            f"p95={self.p95:.2e}, p99={self.p99:.2e})"
        )
