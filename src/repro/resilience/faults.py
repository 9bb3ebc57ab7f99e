"""Deterministic fault injection: seeded chaos for every layer.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries —
*where* (a named injection site), *what* (raise a transient or permanent
error, delay the caller, corrupt an array, or drop a result), and *how
often* (a per-call probability, an optional warm-up offset, an optional
fire budget). A :class:`FaultInjector` executes the plan from a seed, and
the schedule is a pure function of ``(seed, spec index, site, call
index)`` — the *n*-th call at a site receives the same decision no matter
how threads interleave, so chaos tests are bit-reproducible.

Injection sites threaded through the library (one ``FAULTS.active``
attribute check on the hot path, everything else behind it):

======================  ====================================================
site                    instrumented code
======================  ====================================================
``storage.get``         :meth:`repro.storage.FeatureStore.get`
``propagation.hop``     :func:`repro.perf.spmm` /
                        :func:`repro.perf.rows_spmm` (every hop application)
``serving.batch``       :meth:`repro.serving.ServingEngine.run_batch`
``training.worker_step``  :meth:`repro.distributed.worker.ShardStep.train_round`,
                        once per rank and round in both distributed
                        backends (each rank's own injector, seeded
                        ``fault_seed + rank``, not the global one)
======================  ====================================================

Fault kinds and their site semantics:

* ``"transient"`` — raise :class:`repro.errors.TransientError` (retried
  by :class:`repro.resilience.RetryPolicy`).
* ``"permanent"`` — raise :class:`repro.errors.FaultError` (fails fast).
* ``"delay"`` — sleep ``delay_s`` on the caller (straggler model).
* ``"corrupt"`` — the site passes its result array through
  :meth:`FaultInjector.corrupt` (seeded NaN poisoning); non-array
  results pass through unchanged.
* ``"drop"`` — the result is discarded: a store read becomes a miss, a
  batch or worker step becomes a transient failure.

Activate with the :func:`inject` context manager (or
:func:`install_injector` / :func:`clear_injector` for manual control)::

    plan = FaultPlan([
        FaultSpec("storage.get", "transient", rate=0.05),
        FaultSpec("serving.batch", "delay", rate=0.1, delay_s=0.005),
    ])
    with inject(plan, seed=7) as injector:
        ...  # chaos
    injector.snapshot()  # what actually fired
"""

from __future__ import annotations

import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import obs
from repro.errors import ConfigError, FaultError, TransientError
from repro.utils.validation import (
    check_int_range,
    check_positive,
    check_probability,
)

FAULT_KINDS = ("transient", "permanent", "delay", "corrupt", "drop")

KNOWN_SITES = (
    "storage.get",
    "propagation.hop",
    "serving.batch",
    "training.worker_step",
)

_LOG = obs.get_logger("repro.resilience.faults")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: where, what, and how often.

    Attributes
    ----------
    site:
        Injection-site name (see :data:`KNOWN_SITES`); any string is
        accepted so applications can register their own sites.
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Per-call fire probability in ``[0, 1]``.
    after:
        Skip the first ``after`` calls at the site (warm-up grace).
    max_fires:
        Stop firing after this many hits (``None`` = unbounded). The
        budget is shared state, so schedules using it are deterministic
        only under a single thread.
    delay_s:
        Sleep duration for ``kind="delay"``.
    """

    site: str
    kind: str
    rate: float = 1.0
    after: int = 0
    max_fires: int | None = None
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        check_probability("rate", self.rate)
        if self.after < 0:
            raise ConfigError(f"after must be >= 0, got {self.after}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.kind == "delay":
            check_positive("delay_s", self.delay_s)


class FaultPlan:
    """An ordered collection of :class:`FaultSpec` entries.

    Order matters: the first spec that fires on a call decides the
    action (raise kinds abort the call immediately).
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs = list(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(
                    f"FaultPlan takes FaultSpec entries, got {type(spec).__name__}"
                )

    def add(
        self, site: str, kind: str, rate: float = 1.0, **kwargs
    ) -> "FaultPlan":
        """Append a spec; returns ``self`` for chaining."""
        self.specs.append(FaultSpec(site, kind, rate=rate, **kwargs))
        return self

    def sites(self) -> list[str]:
        return sorted({spec.site for spec in self.specs})

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultPlan({self.specs!r})"


class FaultInjector:
    """Executes a :class:`FaultPlan` deterministically from a seed.

    The fire decision for spec ``i`` at the ``n``-th call to ``site`` is
    drawn from ``default_rng([seed, i, crc32(site), n])`` — stateless, so
    it does not depend on thread interleaving or on calls at other
    sites. Call counters and fire budgets are kept under a lock.

    ``sleep`` is injectable so delay faults are testable without wall
    time.
    """

    def __init__(
        self,
        plan: FaultPlan | Iterable[FaultSpec],
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        corrupt_fraction: float = 0.05,
    ) -> None:
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        check_probability("corrupt_fraction", corrupt_fraction)
        self.plan = plan
        self.seed = int(seed)
        self.corrupt_fraction = corrupt_fraction
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._fires: list[int] = [0] * len(plan)
        self._by_kind: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.faults_injected = 0

    # ------------------------------------------------------------------ #

    def _decide(self, site: str) -> tuple[int, FaultSpec] | None:
        """Pick the firing spec for this call, or ``None``. Holds the lock
        only for the counter bump and budget check — the probability draw
        itself is stateless."""
        with self._lock:
            n = self._calls.get(site, 0)
            self._calls[site] = n + 1
            candidates = [
                (i, spec) for i, spec in enumerate(self.plan)
                if spec.site == site
                and n >= spec.after
                and (spec.max_fires is None or self._fires[i] < spec.max_fires)
            ]
        site_tag = zlib.crc32(site.encode("utf-8"))
        for i, spec in candidates:
            if spec.rate >= 1.0:
                fired = True
            else:
                draw = np.random.default_rng(
                    [self.seed, i, site_tag, n]
                ).random()
                fired = draw < spec.rate
            if fired:
                with self._lock:
                    self._fires[i] += 1
                    self._by_kind[spec.kind] += 1
                    self.faults_injected += 1
                return i, spec
        return None

    def fire(self, site: str) -> str | None:
        """Consult the schedule for one call at ``site``.

        Raises for ``transient``/``permanent`` faults, sleeps for
        ``delay`` faults, and returns the action name (``"delay"``,
        ``"corrupt"``, ``"drop"``) or ``None`` so the site can apply
        result-shaped faults itself.
        """
        hit = self._decide(site)
        if hit is None:
            return None
        i, spec = hit
        if obs.OBS.enabled:
            obs.OBS.registry.counter("resilience.faults_injected").inc(
                site=site, kind=spec.kind
            )
        _LOG.debug("fault %s fired at %s (spec %d)", spec.kind, site, i)
        if spec.kind == "transient":
            raise TransientError(f"injected transient fault at {site}")
        if spec.kind == "permanent":
            raise FaultError(f"injected permanent fault at {site}")
        if spec.kind == "delay":
            self._sleep(spec.delay_s)
        return spec.kind

    def corrupt(self, value):
        """Poison a seeded fraction of an array's entries with NaN.

        Returns a corrupted *copy*; non-float arrays and non-array
        values pass through untouched (corruption must be detectable,
        and NaN is the detector every consumer already has).
        """
        if not isinstance(value, np.ndarray) or value.size == 0:
            return value
        if not np.issubdtype(value.dtype, np.floating):
            return value
        with self._lock:
            n_corrupt = self.faults_injected  # varies the victim set per fire
        rng = np.random.default_rng([self.seed, 0x3FA11, n_corrupt])
        out = np.array(value, copy=True)
        flat = out.reshape(-1)
        k = max(1, int(flat.size * self.corrupt_fraction))
        flat[rng.choice(flat.size, size=k, replace=False)] = np.nan
        return out

    # ------------------------------------------------------------------ #

    # ------------------------------------------------------------------ #
    # Pickling: ship the schedule, rebuild the machinery locally.
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> dict:
        """Picklable schedule: ``(plan, seed, corrupt_fraction)`` only.

        The fire schedule is a pure function of those three values, so a
        worker process that unpickles an injector replays the *identical*
        per-call decisions the parent would make — which is what lets a
        chaos plan be built once and delivered to every
        :mod:`repro.distributed` worker. Runtime state (lock, call
        counters, fire budgets, an injected ``sleep``) is deliberately
        dropped: the rebuilt injector starts at call index 0 with
        ``time.sleep``.
        """
        return {
            "plan": self.plan,
            "seed": self.seed,
            "corrupt_fraction": self.corrupt_fraction,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["plan"],
            seed=state["seed"],
            corrupt_fraction=state["corrupt_fraction"],
        )

    def call_counts(self) -> dict[str, int]:
        """Per-site call counters — the injector's schedule *position*.

        Together with ``(plan, seed)`` this fully determines every
        future decision; it is what a respawned
        :mod:`repro.distributed` worker checkpoints so its rebuilt
        injector can :meth:`fast_forward` to the exact same point.
        """
        with self._lock:
            return dict(self._calls)

    def fast_forward(self, call_counts: dict[str, int]) -> None:
        """Replay the schedule to ``call_counts`` without side effects.

        Re-runs :meth:`_decide` for each recorded call, which restores
        the call indices, per-spec fire budgets, and the
        ``faults_injected`` counter (the seed of :meth:`corrupt`'s
        victim selection) to exactly what a continuously running
        injector would hold — but never raises, sleeps, or corrupts.
        Only meaningful on a freshly built injector (call index 0).
        """
        if self.calls() != 0:
            raise ConfigError(
                "fast_forward needs a fresh injector (no calls recorded)"
            )
        for site, count in call_counts.items():
            check_int_range("count", int(count), 0)
            for _ in range(int(count)):
                self._decide(site)

    def calls(self, site: str | None = None) -> int:
        """Instrumented calls observed (at one site, or in total)."""
        with self._lock:
            if site is not None:
                return self._calls.get(site, 0)
            return sum(self._calls.values())

    def snapshot(self) -> dict[str, float]:
        """Flat counter dict (:class:`repro.obs.StatsSource`)."""
        with self._lock:
            out = {
                "faults_injected": self.faults_injected,
                "calls": sum(self._calls.values()),
            }
            out.update({kind: self._by_kind[kind] for kind in FAULT_KINDS})
            return out

    def reset(self) -> None:
        """Zero the counters and call indices (restarts the schedule)."""
        with self._lock:
            self._calls.clear()
            self._fires = [0] * len(self.plan)
            self._by_kind = {kind: 0 for kind in FAULT_KINDS}
            self.faults_injected = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(specs={len(self.plan)}, seed={self.seed}, "
            f"injected={self.faults_injected})"
        )


class _FaultState:
    """Process-global injection switch; ``FAULTS`` is its only instance.

    Instrumented sites cache the module-level ``FAULTS`` reference and
    branch on ``FAULTS.active`` — one attribute load when chaos is off,
    which is the only cost production paths ever pay.

    Teardown contract: :func:`clear_injector` may run concurrently with
    instrumented calls (it drops ``active`` before ``injector``), so a
    site must load ``FAULTS.injector`` into a local **exactly once**
    and null-check it — ``inj = FAULTS.injector if FAULTS.active else
    None`` — never dereference ``FAULTS.injector`` twice. A site that
    observes ``None`` mid-teardown simply skips injection.
    """

    __slots__ = ("active", "injector")

    def __init__(self) -> None:
        self.active = False
        self.injector: FaultInjector | None = None


FAULTS = _FaultState()


def install_injector(injector: FaultInjector) -> None:
    """Activate ``injector`` at every instrumented site (process-wide)."""
    if not isinstance(injector, FaultInjector):
        raise ConfigError("install_injector expects a FaultInjector")
    if FAULTS.active:
        raise ConfigError(
            "a FaultInjector is already installed; clear_injector() first"
        )
    FAULTS.injector = injector
    FAULTS.active = True
    obs.register_source("resilience.faults", injector)
    _LOG.info(
        "fault injection active: %d spec(s) over sites %s (seed %d)",
        len(injector.plan), injector.plan.sites(), injector.seed,
    )


def clear_injector() -> FaultInjector | None:
    """Deactivate fault injection; returns the removed injector."""
    injector = FAULTS.injector
    FAULTS.active = False
    FAULTS.injector = None
    if injector is not None:
        obs.get_registry().unregister_source("resilience.faults")
        _LOG.info("fault injection cleared: %s", injector.snapshot())
    return injector


@contextmanager
def inject(
    plan: FaultPlan | Iterable[FaultSpec], seed: int = 0, **kwargs
) -> Iterator[FaultInjector]:
    """Scoped fault injection: install a fresh injector, always clear it."""
    injector = FaultInjector(plan, seed=seed, **kwargs)
    install_injector(injector)
    try:
        yield injector
    finally:
        clear_injector()
