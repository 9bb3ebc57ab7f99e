"""Named instruments + registry: the counting pillar of :mod:`repro.obs`.

Three instrument kinds with label support — :class:`Counter` (monotone
accumulation: requests served, rows patched), :class:`Gauge` (last-value:
epoch loss, bytes resident), :class:`Histogram` (distributions backed by
the same log-bucketed layout as :class:`repro.utils.timer.LatencyHistogram`,
so per-worker histograms merge exactly). A :class:`MetricsRegistry` owns
instruments by name and additionally aggregates *stats sources* — any
object with the ``snapshot()/reset()`` protocol of
:class:`repro.obs.sources.StatsSource` (operator caches, feature stores,
batching queues, latency histograms) — so one :meth:`MetricsRegistry.snapshot`
call returns every cache hit rate, shed count, and latency percentile in a
single flat dict ready to be embedded in benchmark JSON artifacts.

Sources are held by weak reference (a registry never keeps a dead serving
engine's store alive); passing a zero-arg callable instead registers a
*provider* resolved at snapshot time, which is how the process-default
operator cache/propagation engine stay current even when swapped.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any, Callable

from repro.errors import ConfigError
from repro.utils.timer import LatencyHistogram


def _label_key(labels: dict[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _merge_labels(
    key: tuple[tuple[str, str], ...], extra: dict[str, Any]
) -> dict[str, str]:
    """A series' labels as a dict, with ``extra`` labels folded in.

    Extra labels win on collision — a coordinator re-labelling a rank's
    series with ``rank=3`` must not be spoofable by the rank publishing
    its own ``rank`` label.
    """
    labels = dict(key)
    labels.update({str(k): str(v) for k, v in extra.items()})
    return labels


def _flat_name(name: str, key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class _Instrument:
    """Shared naming/label plumbing for the three instrument kinds.

    Every instrument carries its own lock: label-series updates are
    read-modify-write on a plain dict, so concurrent ``inc``/``observe``
    calls from serving workers would otherwise lose counts.
    """

    kind = "instrument"

    def __init__(self, name: str, description: str = "") -> None:
        if not name or not isinstance(name, str):
            raise ConfigError(f"instrument name must be a non-empty str, got {name!r}")
        self.name = name
        self.description = description
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class Counter(_Instrument):
    """Monotonically increasing count, one series per label set."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ConfigError(f"counters only go up; got inc({amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label series."""
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {_flat_name(self.name, k): v for k, v in self._values.items()}

    def dump(self) -> list[list]:
        """Serializable series list ``[[labels_dict, value], ...]``."""
        with self._lock:
            return [[dict(k), v] for k, v in self._values.items()]

    def merge_dump(self, series: list, **extra_labels: Any) -> None:
        """Fold a :meth:`dump` payload in, re-labelled with ``extra_labels``."""
        for labels, value in series:
            self.inc(float(value), **_merge_labels(_label_key(labels), extra_labels))

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Instrument):
    """Last-written value, one series per label set."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {_flat_name(self.name, k): v for k, v in self._values.items()}

    def dump(self) -> list[list]:
        """Serializable series list ``[[labels_dict, value], ...]``."""
        with self._lock:
            return [[dict(k), v] for k, v in self._values.items()]

    def merge_dump(self, series: list, **extra_labels: Any) -> None:
        """Fold a :meth:`dump` payload in, re-labelled with ``extra_labels``.

        Gauges are last-value instruments — a blind merge across ranks
        would be a data race on meaning, so each rank's series stays its
        own (the re-label keeps them distinct).
        """
        for labels, value in series:
            self.set(float(value), **_merge_labels(_label_key(labels), extra_labels))

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Histogram(_Instrument):
    """Log-bucketed distribution per label set, mergeable exactly.

    Each label series is backed by a
    :class:`~repro.utils.timer.LatencyHistogram` with this instrument's
    bucket layout, so two :class:`Histogram` instances with the same
    layout merge without approximation error beyond the shared bucketing.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        min_value: float = 1e-6,
        max_value: float = 60.0,
        buckets_per_decade: int = 20,
    ) -> None:
        super().__init__(name, description)
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.buckets_per_decade = int(buckets_per_decade)
        self._series: dict[tuple, LatencyHistogram] = {}

    def _hist(self, key: tuple) -> LatencyHistogram:
        """Get-or-create the series for ``key`` — write paths only.

        Reads (:meth:`percentile`, :meth:`count`, :meth:`series`) must
        never allocate: a typo'd label set would otherwise leave a
        permanent empty series polluting every later :meth:`snapshot`.
        """
        with self._lock:
            hist = self._series.get(key)
            if hist is None:
                hist = LatencyHistogram(
                    self.min_value, self.max_value, self.buckets_per_decade
                )
                self._series[key] = hist
            return hist

    def observe(self, value: float, **labels: Any) -> None:
        self._hist(_label_key(labels)).record(float(value))

    def percentile(self, q: float, **labels: Any) -> float:
        """The series percentile; 0.0 for a label set never observed
        (no empty series is allocated — mirror of :meth:`count`)."""
        hist = self._series.get(_label_key(labels))
        return 0.0 if hist is None else hist.percentile(q)

    def count(self, **labels: Any) -> int:
        hist = self._series.get(_label_key(labels))
        return 0 if hist is None else hist.count

    def series(self, **labels: Any) -> LatencyHistogram:
        """The backing histogram for one observed label set.

        Raises :class:`KeyError` for a label set with no observations
        rather than allocating an empty series on a read.
        """
        key = _label_key(labels)
        hist = self._series.get(key)
        if hist is None:
            raise KeyError(
                f"histogram {self.name!r} has no series {_flat_name(self.name, key)!r}"
            )
        return hist

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold every series of ``other`` into this instrument (exact)."""
        with other._lock:
            pairs = list(other._series.items())
        for key, hist in pairs:
            self._hist(key).merge(hist)
        return self

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            pairs = list(self._series.items())
        out: dict[str, float] = {}
        for key, hist in pairs:
            base = _flat_name(self.name, key)
            summary = hist.summary()
            for stat in ("count", "mean", "p50", "p95", "p99", "max"):
                out[f"{base}.{stat}"] = summary[stat]
        return out

    def dump(self) -> dict:
        """Serializable layout + per-series bucket state (lossless).

        Unlike :meth:`snapshot` (derived percentiles), the dump carries
        raw bucket counts so another process can rebuild each series and
        :meth:`merge_dump` them *exactly* — cluster-wide p99 is computed
        from merged buckets, never averaged from per-rank percentiles.
        """
        with self._lock:
            pairs = list(self._series.items())
        return {
            "layout": [self.min_value, self.max_value, self.buckets_per_decade],
            "series": [[dict(k), hist.state()] for k, hist in pairs],
        }

    def merge_dump(self, payload: dict, **extra_labels: Any) -> None:
        """Fold a :meth:`dump` payload in, re-labelled with ``extra_labels``."""
        for labels, state in payload.get("series", ()):
            key = _label_key(_merge_labels(_label_key(labels), extra_labels))
            self._hist(key).merge_state(state)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Named instruments + weakly-held stats sources, one flat snapshot.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the same instrument (a name collision across
    kinds raises). :meth:`register_source` attaches any
    ``snapshot()/reset()`` object under a dotted prefix; its keys appear
    in :meth:`snapshot` as ``prefix.key``.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: dict[str, _Instrument] = {}
        # prefix -> weakref to a source, or a zero-arg provider callable.
        self._sources: dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    # Instruments
    # ------------------------------------------------------------------ #

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ConfigError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            instrument = cls(name, description, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        min_value: float = 1e-6,
        max_value: float = 60.0,
        buckets_per_decade: int = 20,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, description,
            min_value=min_value, max_value=max_value,
            buckets_per_decade=buckets_per_decade,
        )

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    # ------------------------------------------------------------------ #
    # Stats sources
    # ------------------------------------------------------------------ #

    def register_source(self, prefix: str, source) -> None:
        """Attach a stats source (or zero-arg provider) under ``prefix``.

        Objects are held weakly: a garbage-collected source silently drops
        out of future snapshots. Re-registering a prefix replaces the
        previous source (latest engine wins).
        """
        if not prefix or not isinstance(prefix, str):
            raise ConfigError(f"source prefix must be a non-empty str, got {prefix!r}")
        if callable(source) and not hasattr(source, "snapshot"):
            with self._lock:
                self._sources[prefix] = source
            return
        if not hasattr(source, "snapshot"):
            raise ConfigError(
                f"source for {prefix!r} must expose snapshot() "
                f"(see repro.obs.StatsSource)"
            )
        try:
            entry = weakref.ref(source)
        except TypeError:  # not weakref-able: hold strongly
            entry = source
        with self._lock:
            self._sources[prefix] = entry

    def unregister_source(self, prefix: str) -> None:
        with self._lock:
            self._sources.pop(prefix, None)

    def _resolve_source(self, entry):
        if isinstance(entry, weakref.ref):
            return entry()
        if callable(entry) and not hasattr(entry, "snapshot"):
            return entry()
        return entry

    def sources(self) -> dict[str, Any]:
        """Currently resolvable sources by prefix (dead refs skipped)."""
        with self._lock:
            entries = list(self._sources.items())
        out = {}
        for prefix, entry in entries:
            source = self._resolve_source(entry)
            if source is not None:
                out[prefix] = source
        return out

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, float]:
        """Every instrument and live source flattened into one dict.

        Keys are ``name`` / ``name{label=value}`` for instruments and
        ``prefix.key`` for sources; values are plain scalars, ready for
        ``json.dumps``.
        """
        out: dict[str, float] = {}
        for instrument in self.instruments():
            out.update(instrument.snapshot())
        for prefix, source in self.sources().items():
            for key, value in source.snapshot().items():
                out[f"{prefix}.{key}"] = value
        return out

    def dump(self, include_sources: bool = True) -> dict:
        """Serializable, *mergeable* registry state — the telemetry wire
        format.

        Instruments are dumped losslessly (histograms with raw bucket
        counts); live stats sources are flattened to their scalar
        snapshots under ``"sources"``. :meth:`merge_dump` on another
        process's registry reconstructs counters by summation, keeps
        gauges per-origin, and folds histogram buckets exactly.
        """
        counters: dict[str, list] = {}
        gauges: dict[str, list] = {}
        histograms: dict[str, dict] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Counter):
                counters[instrument.name] = instrument.dump()
            elif isinstance(instrument, Gauge):
                gauges[instrument.name] = instrument.dump()
            elif isinstance(instrument, Histogram):
                histograms[instrument.name] = instrument.dump()
        payload = {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        if include_sources:
            sources: dict[str, float] = {}
            for prefix, source in self.sources().items():
                for key, value in source.snapshot().items():
                    sources[f"{prefix}.{key}"] = value
            payload["sources"] = sources
        return payload

    def merge_dump(self, payload: dict, **extra_labels: Any) -> None:
        """Fold another registry's :meth:`dump` into this one.

        ``extra_labels`` (typically ``rank=<r>`` or ``shard=<s>``) are
        stamped onto every merged series so the origins stay separable —
        a :class:`Counter`'s cross-series ``total`` still reports the
        cluster-wide sum. Source scalars (cache hit rates, queue depths)
        are re-published as labelled gauges: they are point-in-time
        readings of a remote object, not mergeable streams.
        """
        for name, series in payload.get("counters", {}).items():
            self.counter(name).merge_dump(series, **extra_labels)
        for name, series in payload.get("gauges", {}).items():
            self.gauge(name).merge_dump(series, **extra_labels)
        for name, hist_payload in payload.get("histograms", {}).items():
            layout = hist_payload.get("layout")
            if layout:
                hist = self.histogram(
                    name,
                    min_value=float(layout[0]),
                    max_value=float(layout[1]),
                    buckets_per_decade=int(layout[2]),
                )
            else:
                hist = self.histogram(name)
            hist.merge_dump(hist_payload, **extra_labels)
        for key, value in payload.get("sources", {}).items():
            self.gauge(key).set(float(value), **extra_labels)

    def reset(self, include_sources: bool = False) -> None:
        """Zero every instrument; optionally reset the live sources too."""
        for instrument in self.instruments():
            instrument.reset()
        if include_sources:
            for source in self.sources().values():
                reset = getattr(source, "reset", None)
                if callable(reset):
                    reset()

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MetricsRegistry(instruments={len(self)}, "
            f"sources={sorted(self._sources)})"
        )
