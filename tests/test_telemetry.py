"""Tests for repro.obs.telemetry: cross-process trace propagation,
kill-safe rank-aggregated metrics, and exporters.

The cross-process tests use the explicit ``spawn`` start method through
:class:`repro.distributed.ProcessBackend` with ``telemetry=True`` and
bounded timeouts, mirroring tests/test_distributed.py.
"""

import json
import pickle

import numpy as np
import pytest

from repro import obs
from repro.datasets import contextual_sbm
from repro.editing import ldg_partition
from repro.errors import ConfigError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.telemetry import (
    ClusterMetrics,
    METRICS_SEGMENT_BYTES,
    SpanLogWriter,
    TraceContext,
    assemble_trace,
    decode_payload,
    encode_registry,
    lint_prometheus,
    parse_snapshot_key,
    publish_blob,
    qualified_span_id,
    read_blob,
    read_span_log,
    to_json,
    to_prometheus,
)
from repro.utils.timer import LatencyHistogram

RUN_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def dataset():
    return contextual_sbm(
        240, n_classes=3, homophily=0.85, avg_degree=8,
        n_features=12, feature_signal=1.5, seed=5,
    )


@pytest.fixture
def enabled_obs():
    previous = obs.configure(
        enabled=True, tracer=Tracer(), registry=MetricsRegistry()
    )
    yield
    obs.configure(
        enabled=previous, tracer=Tracer(), registry=MetricsRegistry()
    )


# ---------------------------------------------------------------------- #
# Trace context propagation
# ---------------------------------------------------------------------- #


class TestTraceContext:
    def test_pickle_round_trip(self):
        ctx = TraceContext.root(job="train").child(rank="3")
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
        assert clone.trace_id == ctx.trace_id
        assert clone.label_dict == {"job": "train", "rank": "3"}

    def test_dict_round_trip(self):
        ctx = TraceContext("abc123", "s9", (("rank", "1"),))
        clone = TraceContext.from_dict(ctx.to_dict())
        assert clone == ctx
        # to_dict is JSON-suitable — the pickle-free propagation path.
        assert TraceContext.from_dict(
            json.loads(json.dumps(ctx.to_dict()))
        ) == ctx

    def test_child_extends_but_never_rewrites(self):
        ctx = TraceContext.root(tenant="a")
        child = ctx.child(rank="2", tenant="SPOOFED")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == ctx.parent_span_id
        # Existing labels win on collision: a worker cannot rewrite the
        # coordinator's origin labels.
        assert child.label_dict == {"tenant": "a", "rank": "2"}

    def test_from_span_takes_the_attach_point(self, enabled_obs):
        with obs.span("coordinator.launch") as span:
            ctx = TraceContext.from_span(span, job="j1")
        assert ctx.parent_span_id == span.span_id
        with pytest.raises(ConfigError):
            TraceContext.from_span("not a span")

    def test_qualified_ids_never_alias_across_ranks(self):
        ids = {
            qualified_span_id(rank, span)
            for rank in range(3)
            for span in range(4)
        }
        assert len(ids) == 12
        assert qualified_span_id(3, 17) == "r3s17"


# ---------------------------------------------------------------------- #
# Span logs + assembly
# ---------------------------------------------------------------------- #


def _run_rank_spans():
    """Two nested finished spans on the current tracer."""
    with obs.span("worker.round", round=0):
        with obs.span("worker.spmm", hop=1):
            pass


class TestSpanLog:
    def test_flush_and_read_round_trip(self, enabled_obs, tmp_path):
        ctx = TraceContext("t1", "coord7", (("rank", "0"),))
        writer = SpanLogWriter(tmp_path / "rank0.jsonl", ctx, rank=0)
        _run_rank_spans()
        assert writer.flush(obs.get_tracer()) == 2
        # A second flush with no new roots writes nothing.
        assert writer.flush(obs.get_tracer()) == 0
        records = read_span_log(tmp_path / "rank0.jsonl")
        assert [r["name"] for r in records] == ["worker.round", "worker.spmm"]
        root, child = records
        assert root["trace_id"] == child["trace_id"] == "t1"
        # Rank-root parent is the coordinator's span id; the nested
        # span's parent is the qualified rank-local id.
        assert root["parent_id"] == "coord7"
        assert child["parent_id"] == root["span_id"]
        assert root["span_id"].startswith("r0s")
        # Context labels survive into every record's attributes.
        assert root["attributes"]["rank"] == "0"
        assert child["attributes"]["rank"] == "0"
        assert child["attributes"]["hop"] == 1

    def test_corrupt_trailing_line_skipped(self, enabled_obs, tmp_path):
        path = tmp_path / "rank0.jsonl"
        ctx = TraceContext("t1", None)
        writer = SpanLogWriter(path, ctx, rank=0)
        _run_rank_spans()
        writer.flush(obs.get_tracer())
        # Simulate a kill mid-write: append a truncated record.
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"trace_id": "t1", "span_id": "r0s99", "na')
        records = read_span_log(path)
        assert [r["name"] for r in records] == ["worker.round", "worker.spmm"]

    def test_ring_compaction_keeps_newest(self, enabled_obs, tmp_path):
        path = tmp_path / "ring.jsonl"
        writer = SpanLogWriter(
            path, TraceContext("t1", None), rank=0, max_records=4
        )
        for i in range(10):
            with obs.span("worker.round", round=i):
                pass
            writer.flush(obs.get_tracer())
        records = read_span_log(path)
        assert len(records) <= 2 * 4
        assert writer.records_dropped > 0
        rounds = [r["attributes"]["round"] for r in records]
        assert rounds == sorted(rounds)
        assert rounds[-1] == 9  # newest records always survive

    def test_assemble_grafts_under_named_coordinator_span(
        self, enabled_obs, tmp_path
    ):
        with obs.span("distributed.run") as run_span:
            with obs.span("distributed.publish"):
                pass
            ctx = TraceContext.from_span(run_span)
        path = tmp_path / "rank0.jsonl"
        writer = SpanLogWriter(path, ctx.child(rank="0"), rank=0)
        _run_rank_spans()
        writer.flush(obs.get_tracer())

        assembled = assemble_trace(run_span, [path], trace_id=ctx.trace_id)
        names = {s.name for s in assembled.walk()}
        assert {"distributed.run", "distributed.publish",
                "worker.round", "worker.spmm"} <= names
        round_span = next(
            s for s in assembled.walk() if s.name == "worker.round"
        )
        assert round_span.parent_id == run_span.span_id
        assert round_span.children[0].name == "worker.spmm"
        # Tree spans coordinator -> rank root -> rank child: 3 levels.
        def depth(span):
            return 1 + max((depth(c) for c in span.children), default=0)

        assert depth(assembled) >= 3

    def test_orphans_reattach_under_root(self, enabled_obs, tmp_path):
        # Context names a coordinator span that no longer exists (aged
        # out of the tracer FIFO): the rank tree still lands, flagged.
        ctx = TraceContext("t1", "gone-span-id")
        path = tmp_path / "rank0.jsonl"
        writer = SpanLogWriter(path, ctx, rank=0)
        _run_rank_spans()
        writer.flush(obs.get_tracer())
        with obs.span("distributed.run") as root:
            pass
        assembled = assemble_trace(root, [path], trace_id="t1")
        rank_root = next(
            s for s in assembled.walk() if s.name == "worker.round"
        )
        assert rank_root.attributes.get("reattached") is True
        assert rank_root.parent_id == root.span_id

    def test_trace_id_filter(self, enabled_obs, tmp_path):
        path = tmp_path / "rank0.jsonl"
        writer = SpanLogWriter(path, TraceContext("old", None), rank=0)
        _run_rank_spans()
        writer.flush(obs.get_tracer())
        with obs.span("distributed.run") as root:
            pass
        assembled = assemble_trace(root, [path], trace_id="different")
        assert [s.name for s in assembled.walk()] == ["distributed.run"]


# ---------------------------------------------------------------------- #
# Kill-safe metrics publication + cluster merge
# ---------------------------------------------------------------------- #


def _cell():
    return (
        np.zeros(METRICS_SEGMENT_BYTES, dtype=np.uint8),
        np.array([-1, 0], dtype=np.int64),
    )


class TestBlobProtocol:
    def test_publish_read_round_trip(self):
        buf, meta = _cell()
        registry = MetricsRegistry()
        registry.counter("worker.steps").inc(5.0)
        assert publish_blob(buf, meta, encode_registry(registry, rank=2), 1)
        seq, blob = read_blob(buf, meta)
        assert seq == 1
        payload = decode_payload(blob)
        assert payload["rank"] == 2
        assert payload["counters"]["worker.steps"] == [[{}, 5.0]]

    def test_empty_cell_reads_none(self):
        buf, meta = _cell()
        seq, blob = read_blob(buf, meta)
        assert seq < 0 and blob is None

    def test_oversize_payload_leaves_cell_untouched(self):
        buf, meta = _cell()
        assert publish_blob(buf, meta, b"x" * 10, 1)
        # Too big: rejected without advancing seq — a reader still sees
        # the previous complete snapshot.
        assert not publish_blob(buf, meta, b"y" * (buf.size + 1), 2)
        seq, blob = read_blob(buf, meta)
        assert seq == 1 and blob == b"x" * 10

    def test_corrupt_payload_decodes_none(self):
        assert decode_payload(b"\xff\xfe not json") is None
        assert decode_payload(b"[1, 2]") is None  # non-dict


class TestClusterMetrics:
    def _rank_payload(self, steps: float, latencies) -> dict:
        registry = MetricsRegistry()
        registry.counter("worker.steps").inc(steps)
        registry.gauge("worker.round").set(3.0)
        hist = registry.histogram("worker.round_s")
        for value in latencies:
            hist.observe(value)
        return json.loads(encode_registry(registry).decode())

    def test_counters_sum_and_gauges_stay_attributable(self):
        cluster = ClusterMetrics()
        cluster.ingest(0, self._rank_payload(4.0, [0.1]))
        cluster.ingest(1, self._rank_payload(8.0, [0.2]))
        merged = cluster.merged()
        assert merged.counter("worker.steps").total == 12.0
        assert merged.counter("worker.steps").value(rank="1") == 8.0
        assert merged.gauge("worker.round").value(rank="0") == 3.0
        assert merged.gauge("worker.round").value(rank="1") == 3.0

    def test_histograms_merge_exactly_from_buckets(self):
        rng = np.random.default_rng(0)
        lat0 = rng.uniform(0.001, 0.1, size=200)
        lat1 = rng.uniform(0.05, 2.0, size=300)
        cluster = ClusterMetrics()
        cluster.ingest(0, self._rank_payload(1.0, lat0))
        cluster.ingest(1, self._rank_payload(1.0, lat1))
        # Reference: one histogram fed every observation directly.
        reference = LatencyHistogram()
        reference.record_many(np.concatenate([lat0, lat1]))
        merged = cluster.merged().histogram("worker.round_s")
        folded = LatencyHistogram()
        folded.merge(merged.series(rank="0")).merge(merged.series(rank="1"))
        assert folded.count == reference.count
        for q in (50.0, 95.0, 99.0):
            # Bucket-exact: identical to feeding one histogram directly,
            # NOT an average of per-rank percentiles.
            assert folded.percentile(q) == reference.percentile(q)

    def test_stale_seq_ignored_and_dead_rank_retained(self):
        cluster = ClusterMetrics()
        assert cluster.ingest(0, self._rank_payload(2.0, []), seq=5)
        assert not cluster.ingest(0, self._rank_payload(99.0, []), seq=3)
        cluster.mark_dead(0)
        snap = cluster.snapshot()
        assert snap["ranks_seen"] == 1.0
        assert snap["ranks_live"] == 0.0
        # The dead rank's last published counters survive in the merge.
        assert cluster.merged().counter("worker.steps").total == 2.0

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ConfigError):
            ClusterMetrics().ingest(0, [1, 2, 3])


# ---------------------------------------------------------------------- #
# Exporters
# ---------------------------------------------------------------------- #


class TestExporters:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("router.requests").inc(7.0, shard="2")
        registry.gauge("training.test_accuracy").set(0.84)
        registry.histogram("serve.latency_s").observe(0.005)
        return registry.snapshot()

    def test_parse_snapshot_key(self):
        assert parse_snapshot_key("a.b") == ("a.b", {})
        assert parse_snapshot_key("router.requests{shard=2}") == (
            "router.requests", {"shard": "2"}
        )
        name, labels = parse_snapshot_key(
            "serve.latency_s{model=m@v1,shard=0}.p99"
        )
        assert name == "serve.latency_s.p99"
        assert labels == {"model": "m@v1", "shard": "0"}

    def test_prometheus_output_lints_clean(self):
        text = to_prometheus(self._snapshot(), extra_labels={"job": "t"})
        assert lint_prometheus(text) == []
        lines = text.splitlines()
        sample = next(
            line for line in lines if line.startswith("repro_router_requests{")
        )
        assert 'shard="2"' in sample and 'job="t"' in sample
        assert sample.endswith(" 7.0")
        # Every metric name is namespaced and TYPE-declared.
        assert any(
            line == "# TYPE repro_router_requests gauge" for line in lines
        )

    def test_lint_catches_malformed_exposition(self):
        assert lint_prometheus("9bad_name 1.0\n") != []
        assert lint_prometheus('ok_name{bad-label="x"} 1.0\n') != []
        assert lint_prometheus("ok_name not_a_number\n") != []
        # A sample before its # TYPE declaration is flagged.
        assert lint_prometheus(
            "repro_x 1.0\n# TYPE repro_x gauge\n"
        ) != []

    def test_json_document_format(self):
        doc = json.loads(to_json(self._snapshot(), meta={"run": "r1"}))
        assert doc["format"] == "repro.telemetry.v1"
        assert doc["meta"] == {"run": "r1"}
        by_name = {
            (s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in doc["samples"]
        }
        assert by_name[("router.requests", (("shard", "2"),))] == 7.0
        assert by_name[("training.test_accuracy", ())] == 0.84


# ---------------------------------------------------------------------- #
# Cross-process: spawn workers, assemble one trace, survive a kill
# ---------------------------------------------------------------------- #


def _span_index(trace: dict) -> list[dict]:
    flat = []

    def walk(node):
        flat.append(node)
        for child in node.get("children", []):
            walk(child)

    walk(trace)
    return flat


def _depth(node: dict) -> int:
    return 1 + max(
        (_depth(c) for c in node.get("children", [])), default=0
    )


class TestCrossProcessTrace:
    def test_two_worker_trace_assembles_three_levels(self, dataset, tmp_path):
        from repro.distributed import get_backend

        graph, split = dataset
        pr = ldg_partition(graph, 2, seed=0)
        res = get_backend("process").run(
            graph, split, pr.assignment, 2,
            epochs=3, seed=0, timeout_s=RUN_TIMEOUT_S,
            telemetry=True, telemetry_dir=tmp_path,
        )
        assert res.workers_lost == 0
        assert res.trace_id and res.trace is not None
        spans = _span_index(res.trace)
        names = {s["name"] for s in spans}
        # Coordinator -> per-round worker root -> kernel span.
        assert {"distributed.run", "worker.round", "worker.spmm"} <= names
        assert _depth(res.trace) >= 3
        assert res.trace["name"] == "distributed.run"

        # Parentage survives the pickle/JSONL round trip: every
        # worker.round span hangs off the coordinator root, and its
        # children are rank-local.
        by_id = {s["span_id"]: s for s in spans}
        run_id = res.trace["span_id"]
        round_spans = [s for s in spans if s["name"] == "worker.round"]
        assert len(round_spans) == 2 * 3  # one per rank per round
        for span in round_spans:
            assert span["parent_id"] == run_id
            assert span["attributes"]["rank"] in ("0", "1")
        step_spans = [s for s in spans if s["name"] == "worker.step"]
        for span in step_spans:
            parent = by_id[span["parent_id"]]
            assert parent["name"] == "worker.round"
            assert parent["attributes"]["rank"] == span["attributes"]["rank"]

        # Both ranks' span logs exist where we pointed telemetry_dir.
        assert sorted(p.name for p in tmp_path.glob("rank*.jsonl")) == [
            "rank0.jsonl", "rank1.jsonl",
        ]

        # Rank-aggregated metrics: both ranks published, counters sum.
        assert sorted(res.rank_metrics) == ["0", "1"]
        assert res.cluster_snapshot["ranks_seen"] == 2.0
        assert res.cluster_snapshot["ranks_live"] == 2.0
        steps = [
            v for k, v in res.cluster_snapshot.items()
            if k.startswith("worker.steps{")
        ]
        assert len(steps) == 2 and sum(steps) == 2 * 3

    def test_chaos_kill_preserves_flushed_telemetry(self, dataset, tmp_path):
        from repro.distributed import get_backend

        graph, split = dataset
        pr = ldg_partition(graph, 3, seed=0)
        killed = []

        def hook(round_no, processes):
            if round_no == 2 and not killed:
                processes[1].kill()
                killed.append(1)

        res = get_backend("process").run(
            graph, split, pr.assignment, 3,
            epochs=6, seed=0, timeout_s=RUN_TIMEOUT_S, round_hook=hook,
            telemetry=True, telemetry_dir=tmp_path,
        )
        assert res.workers_lost == 1
        # The dead rank's last published counters survive in the merge,
        # and the liveness gauges expose the gap.
        assert res.cluster_snapshot["ranks_seen"] == 3.0
        assert res.cluster_snapshot["ranks_live"] == 2.0
        assert "1" in res.rank_metrics
        dead_steps = [
            v for k, v in res.cluster_snapshot.items()
            if k.startswith("worker.steps{") and "rank=1" in k
        ]
        assert dead_steps and dead_steps[0] >= 1.0

        # Rounds rank 1 flushed before the kill are in the tree, with
        # parentage and labels intact.
        spans = _span_index(res.trace)
        dead_rounds = [
            s for s in spans
            if s["name"] == "worker.round"
            and s["attributes"].get("rank") == "1"
        ]
        assert dead_rounds
        assert all(
            s["parent_id"] == res.trace["span_id"] for s in dead_rounds
        )
        assert _depth(res.trace) >= 3


# ---------------------------------------------------------------------- #
# Per-shard serving sources
# ---------------------------------------------------------------------- #


class TestShardedServingSources:
    def test_router_and_shards_share_one_snapshot(self, enabled_obs, dataset):
        from repro.models import SGC
        from repro.serving import ShardRouter

        graph, _ = dataset
        pr = ldg_partition(graph, 2, seed=3)
        model = SGC(graph.n_features, graph.n_classes, k_hops=1, seed=0)
        with ShardRouter(
            model, graph, pr.assignment, 2, kind="rw"
        ) as router:
            for node in range(6):
                router.predict(node)
            snap = obs.get_registry().snapshot()
        # One coordinator snapshot carries the router and both shard
        # runtimes side by side — no slot clobbering.
        assert snap["serving.router.requests"] == 6.0
        for part in (0, 1):
            assert f"serving.shard{part}.queue_depth" in snap
            state_keys = [
                k for k in snap
                if k.startswith(f"serving.shard{part}.breaker_state")
            ]
            assert state_keys and all(snap[k] == 0.0 for k in state_keys)
        per_shard_requests = {
            k: v for k, v in snap.items()
            if k.startswith("serving.router.requests{shard=")
        }
        assert len(per_shard_requests) == 2
        assert sum(per_shard_requests.values()) == 6.0
