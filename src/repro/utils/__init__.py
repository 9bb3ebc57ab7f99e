"""Shared utilities: RNG handling, timers, concurrency primitives, and
argument validation."""

from repro.utils.concurrency import NULL_LOCK, NullLock, make_lock
from repro.utils.rng import as_rng
from repro.utils.timer import LatencyHistogram, Timer
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability,
)

__all__ = [
    "as_rng",
    "Timer",
    "LatencyHistogram",
    "NullLock",
    "NULL_LOCK",
    "make_lock",
    "check_fraction",
    "check_positive",
    "check_probability",
]
