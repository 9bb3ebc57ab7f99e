"""repro.resilience — fault injection, checkpoints, and degradation.

The production-readiness layer: every other subsystem assumes a
failure-free world, this one makes failure a first-class, *testable*
input. Four cooperating pieces:

* :mod:`repro.resilience.faults` — seeded, deterministic chaos: a
  declarative :class:`FaultPlan` executed by a :class:`FaultInjector`
  at named sites inside the feature store, the propagation kernels, the
  serving batch executor, and the distributed training ranks.
* :mod:`repro.resilience.checkpoint` — :class:`Checkpointer`: atomic
  temp-file + rename writes with a content SHA-256, so a training run
  killed mid-epoch resumes bit-identically and a corrupt file is
  detected (:class:`repro.errors.CheckpointError`) instead of silently
  poisoning the resumed run.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`: the
  closed/open/half-open machine that stops a failing model from
  consuming the worker pool, with stale-fallback degradation wired into
  :class:`repro.serving.ServingRuntime`.
* :mod:`repro.resilience.retry` — :func:`classify_error` (transient vs
  permanent) and :class:`RetryPolicy` (capped exponential backoff with
  seeded jitter): transient failures are retried with spacing,
  deterministic failures fail fast.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, STATE_CODES, CircuitBreaker
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULTS,
    KNOWN_SITES,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    clear_injector,
    inject,
    install_injector,
)
from repro.resilience.retry import PERMANENT, TRANSIENT, RetryPolicy, classify_error

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FAULTS",
    "FAULT_KINDS",
    "KNOWN_SITES",
    "inject",
    "install_injector",
    "clear_injector",
    "Checkpointer",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "STATE_CODES",
    "RetryPolicy",
    "classify_error",
    "TRANSIENT",
    "PERMANENT",
]
