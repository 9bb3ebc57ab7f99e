"""repro.obs — unified tracing, metrics, and logging for the whole pipeline.

The tutorial's thesis is that scalable-GNN cost lives in the
graph-data-management stages — propagation precompute, batch assembly,
cache reuse, request-time inference. This subpackage is how those costs
become *visible* through one substrate instead of scattered ad-hoc
channels:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`: nested timed
  regions with attributes, JSON export, and a text tree view.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of
  :class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments plus
  registered :class:`StatsSource` adapters, flattened by one
  ``snapshot()`` call.
* :mod:`repro.obs.sources` — the uniform ``snapshot()/reset()`` protocol
  spoken by every cache, queue, and histogram in the library.
* :mod:`repro.obs.logs` — ``repro.*`` logger hierarchy helpers.
* :mod:`repro.obs.telemetry` — the cross-process plane: distributed
  trace propagation, rank-aggregated metrics over shared memory, and
  Prometheus/JSON exporters (loaded lazily — see below).

Everything is off by default. :func:`configure` flips the process-global
switch; instrumented hot paths guard on a **single attribute check**
(``OBS.enabled``) so the disabled-mode overhead is one pointer load per
instrumented region (benchmark E30 bounds it under 2% on the E28
propagation workload):

>>> from repro import obs
>>> obs.configure(enabled=True)
False
>>> with obs.span("stage", n_nodes=100) as sp:
...     _ = sp.set(nnz=400)
>>> obs.get_tracer().roots()[0].name
'stage'
>>> obs.configure(enabled=False)
True
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.obs.logs import ROOT_LOGGER_NAME, get_logger, setup_logging
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sources import StatsSource, cache_stats_dict
from repro.obs.trace import NULL_SPAN, NullSpan, Span, Tracer


class _ObsState:
    """Process-global observability state; ``OBS`` is its only instance.

    Hot paths cache the module-level ``OBS`` reference and branch on
    ``OBS.enabled`` — :func:`configure` mutates this object in place, so
    the binding never goes stale.
    """

    __slots__ = ("enabled", "tracer", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = MetricsRegistry()


OBS = _ObsState()

_defaults_registered = False


def _register_default_sources(registry: MetricsRegistry) -> None:
    """Attach the process-default perf caches as snapshot providers.

    Providers (zero-arg callables) rather than objects, so swapping the
    default cache/engine via :func:`repro.perf.set_default_cache` is
    reflected in the next snapshot. Imported lazily — :mod:`repro.perf`
    imports this package for its hot-path guards.
    """
    from repro.perf import (
        get_default_arena,
        get_default_cache,
        get_default_engine,
    )

    registry.register_source("perf.operator_cache", get_default_cache)
    registry.register_source("perf.propagation", get_default_engine)
    registry.register_source("perf.arena", get_default_arena)


def configure(
    enabled: bool | None = None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    register_default_sources: bool = True,
) -> bool:
    """Reconfigure the process-global observability state.

    Any argument left ``None`` keeps its current value. Returns the
    *previous* enabled flag so callers can restore it. When
    ``register_default_sources`` is true the default operator cache and
    propagation engine are (re-)attached to the active registry, so a
    bare ``configure(enabled=True)`` already yields cache hit rates in
    ``get_registry().snapshot()``.
    """
    global _defaults_registered
    previous = OBS.enabled
    if tracer is not None:
        if not isinstance(tracer, Tracer):
            raise TypeError("configure expects a repro.obs.Tracer")
        OBS.tracer = tracer
    if registry is not None:
        if not isinstance(registry, MetricsRegistry):
            raise TypeError("configure expects a repro.obs.MetricsRegistry")
        OBS.registry = registry
        _defaults_registered = False
    if enabled is not None:
        OBS.enabled = bool(enabled)
    if register_default_sources and not _defaults_registered:
        _register_default_sources(OBS.registry)
        _defaults_registered = True
    return previous


def enabled() -> bool:
    """Whether observability is currently on."""
    return OBS.enabled


def get_tracer() -> Tracer:
    """The process-global tracer (collects spans only while enabled)."""
    return OBS.tracer


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry (default sources attached)."""
    global _defaults_registered
    if not _defaults_registered:
        _register_default_sources(OBS.registry)
        _defaults_registered = True
    return OBS.registry


def register_source(prefix: str, source) -> None:
    """Attach a stats source to the global registry under ``prefix``."""
    OBS.registry.register_source(prefix, source)


def span(name: str, **attributes: Any):
    """A span on the global tracer, or the shared no-op when disabled.

    The convenience entry point for warm-but-not-scorching paths::

        with obs.span("train.stage.precompute") as sp:
            out = fn()
            sp.set(rows=len(out))

    Hot kernels should instead guard explicitly on ``OBS.enabled`` so the
    disabled cost stays at one attribute check.
    """
    if not OBS.enabled:
        return NULL_SPAN
    return OBS.tracer.span(name, **attributes)


def trace(name: str | Callable | None = None, **attributes: Any):
    """Decorator tracing calls through the global tracer when enabled.

    Usable bare (``@obs.trace``) or parameterized
    (``@obs.trace("serving.batch", kind="gcn")``); the span name defaults
    to the function's qualified name. The enabled check happens per call,
    so decorated functions stay no-op-cheap while observability is off.
    """

    def decorate(fn: Callable):
        label = fn.__qualname__ if name is None or callable(name) else name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return fn(*args, **kwargs)
            with OBS.tracer.span(label, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    if callable(name):
        return decorate(name)
    return decorate


def reset() -> None:
    """Clear the global tracer and zero the registry's instruments."""
    OBS.tracer.reset()
    OBS.registry.reset()


# Lazy attributes (PEP 562): the telemetry plane is sizeable and pulls in
# numpy/json machinery a tracing-only process never needs, so it
# materializes on first attribute access instead of at
# `import repro.obs` time — keeping the disabled-path cost at the single
# OBS.enabled check E30 bounds.
_LAZY_ATTRS = {
    "telemetry": ("repro.obs.telemetry", None),
    "TraceContext": ("repro.obs.telemetry", "TraceContext"),
    "ClusterMetrics": ("repro.obs.telemetry", "ClusterMetrics"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY_ATTRS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    return module if attr is None else getattr(module, attr)


__all__ = [
    "OBS",
    "configure",
    "enabled",
    "get_tracer",
    "get_registry",
    "register_source",
    "span",
    "trace",
    "reset",
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "StatsSource",
    "cache_stats_dict",
    "setup_logging",
    "get_logger",
    "ROOT_LOGGER_NAME",
    # lazy (PEP 562)
    "telemetry",
    "TraceContext",
    "ClusterMetrics",
]
