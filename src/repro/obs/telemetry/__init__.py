"""Cross-process telemetry plane: traces, rank metrics, exporters.

Everything in-process observability (:mod:`repro.obs`) measures stops at
a process boundary; this subpackage is the part that crosses it:

* :mod:`~repro.obs.telemetry.context` — the picklable
  :class:`TraceContext` a coordinator ships to workers so per-rank span
  trees stitch into one trace;
* :mod:`~repro.obs.telemetry.spanlog` — per-rank JSONL span rings
  (:class:`SpanLogWriter`) and coordinator-side :func:`assemble_trace`;
* :mod:`~repro.obs.telemetry.aggregate` — kill-safe shared-memory
  metrics publication (:func:`publish_blob` / :func:`read_blob`) and the
  :class:`ClusterMetrics` merged view;
* :mod:`~repro.obs.telemetry.export` — Prometheus text exposition and
  structured-JSON exporters (+ the CI :func:`lint_prometheus` gate).

The subpackage is imported explicitly (``import repro.obs.telemetry``);
:mod:`repro.obs` deliberately does not pull it in at import time so the
single ``OBS.enabled`` hot-path check stays the only cost a process that
never exports telemetry ever pays.
"""

from repro.obs.telemetry.aggregate import (
    META_CELLS,
    METRICS_SEGMENT_BYTES,
    ClusterMetrics,
    decode_payload,
    encode_registry,
    publish_blob,
    read_blob,
)
from repro.obs.telemetry.context import (
    TraceContext,
    new_trace_id,
    process_labels,
    qualified_span_id,
)
from repro.obs.telemetry.export import (
    lint_prometheus,
    parse_snapshot_key,
    to_json,
    to_prometheus,
)
from repro.obs.telemetry.spanlog import (
    SpanLogWriter,
    assemble_trace,
    read_span_log,
)

__all__ = [
    "META_CELLS",
    "METRICS_SEGMENT_BYTES",
    "ClusterMetrics",
    "SpanLogWriter",
    "TraceContext",
    "assemble_trace",
    "decode_payload",
    "encode_registry",
    "lint_prometheus",
    "new_trace_id",
    "parse_snapshot_key",
    "process_labels",
    "publish_blob",
    "qualified_span_id",
    "read_blob",
    "read_span_log",
    "to_json",
    "to_prometheus",
]
