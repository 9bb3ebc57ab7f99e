"""Every metric the macro benchmark reports, declared once.

``BENCHMARK.json`` carries the name, unit, direction and bound of each
metric and nothing else (its format allows no more), so what each metric
means, which workloads make it interesting and which end-to-end metric a
layer metric should move live here. ``manifest()`` is ``BENCHMARK.json``;
``test_macro.py`` checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from workloads import WORKLOADS

COMMAND = ["python3", "benchmarks/macro/run.py"]
PATHS = ["benchmarks/macro"]
RUN_SECONDS = 12

TRAINING = ("decoupled", "sampled")
SERVING = ("serve_read", "serve_update")
ALL = TRAINING + SERVING


@dataclass(frozen=True)
class EndToEnd:
    """A number a user of the system sees, produced on every workload.

    ``stressed`` names the workloads sized to make the metric's layers do
    most of the work; elsewhere the phase behind it is short and the
    prediction for a change to those layers is *no change*.
    """

    name: str
    unit: str
    better: str
    bound: float
    stressed: tuple[str, ...]
    definition: str


@dataclass(frozen=True)
class Layer:
    """A number of one layer (``src/repro`` module), taken from outside.

    ``moves`` is the end-to-end metric it should move and ``on`` where;
    ``moves=None`` marks context that predicts nothing.
    """

    name: str
    unit: str
    better: str
    how: str
    moves: str | None = None
    on: tuple[str, ...] = ()


END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25, ALL,
        "input generation + Graph.from_edges + split, median of several builds",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.15, ALL,
        "VmHWM of the process when the workload ends",
    ),
    EndToEnd(
        "time_to_model_s", "s", "lower", 0.25, TRAINING,
        "wall of the first train_* call: precompute or prepare, the epoch "
        "loop and its evaluations, caches cold; fastest of the run's cycles",
    ),
    EndToEnd(
        "reuse_time_to_model_s", "s", "lower", 0.25, ("decoupled",),
        "wall of the second train_decoupled call on the same graph; warm "
        "operator and hop stack except on `sampled`, whose first model "
        "leaves nothing to reuse; fastest of the run's cycles",
    ),
    EndToEnd(
        "train_seeds_per_s", "seeds/s", "higher", 0.25, TRAINING,
        "seeds x epochs / TrainResult.train_time of the first model; "
        "fastest of the run's cycles",
    ),
    EndToEnd(
        "bulk_req_per_s", "req/s", "higher", 0.25, ("serve_read",),
        "ServingEngine.predict_many over uniform ids, inline lock-free "
        "path: requests / wall of the fastest of 40 chunks",
    ),
    EndToEnd(
        "read_p50_ms", "ms", "lower", 0.25, SERVING,
        "open-loop Poisson reads through ServingRuntime, latency from each "
        "request's due time to its future's done-callback, median over "
        "all requests sent",
    ),
    EndToEnd(
        "read_goodput_frac", "share", "higher", 0.2, SERVING,
        "requests answered ok within the latency limit of their due time "
        "/ requests sent",
    ),
)

LAYERS = (
    Layer("graph.from_edges_s", "s", "lower",
          "timing Graph.from_edges", "setup_s", ALL),
    Layer("graph.dynamic_snapshot_s", "s", "lower",
          "per-write DynamicGraph.snapshot() in the update replay",
          "read_goodput_frac", ("serve_update",)),
    Layer("perf.operator_build_s", "s", "lower",
          "the cached adjacency the fused hop multiplies by, built cold",
          "time_to_model_s", ("decoupled",)),
    Layer("perf.propagate_s", "s", "lower",
          "PropagationEngine.hop_features cold, K hops",
          "time_to_model_s", ("decoupled",)),
    Layer("perf.spmm_flops", "flop", "lower",
          "computed, not measured: 2 x nnz x d x K"),
    Layer("perf.spmm_bytes_moved", "B", "lower",
          "computed, not measured: per hop nnz x (index + value) + "
          "2 x rows x d x itemsize"),
    Layer("perf.warm_lookup_s", "s", "lower",
          "hop_features on a memoised stack",
          "reuse_time_to_model_s", ("decoupled",)),
    Layer("perf.stack_hit_ratio", "share", "higher",
          "get_default_engine().snapshot()",
          "reuse_time_to_model_s", ("decoupled",)),
    Layer("perf.opcache_hit_ratio", "share", "higher",
          "get_default_cache().snapshot()",
          "reuse_time_to_model_s", ("decoupled",)),
    Layer("perf.operator_rebuild_s", "s", "lower",
          "per-write engine.operator(new_graph) in the update replay",
          "read_goodput_frac", ("serve_update",)),
    Layer("perf.patch_stack_s", "s", "lower",
          "per-write patch_stack in the update replay",
          "read_goodput_frac", ("serve_update",)),
    Layer("perf.arena_reuse_ratio", "share", "higher",
          "get_default_arena().snapshot()",
          "bulk_req_per_s", ("serve_read",)),
    Layer("editing.sample_s", "s", "lower",
          "sum of MiniBatch.stage_s['sample'] in the stage loop",
          "train_seeds_per_s", ("sampled",)),
    Layer("editing.compact_s", "s", "lower",
          "sum of MiniBatch.stage_s['compact'] in the stage loop",
          "train_seeds_per_s", ("sampled",)),
    Layer("editing.input_nodes_per_batch", "count", "lower",
          "mean len(blocks[0].src_ids)"),
    Layer("editing.sampled_arcs_per_seed", "count", "lower",
          "sum of block nnz / seeds"),
    Layer("editing.partition_s", "s", "lower",
          "ldg_partition(graph, 2)"),
    Layer("editing.edge_cut_frac", "share", "lower",
          "edge_cut / edges"),
    Layer("datapipe.fetch_s", "s", "lower",
          "sum of MiniBatch.stage_s['fetch'] in the stage loop",
          "train_seeds_per_s", TRAINING),
    Layer("datapipe.batches", "count", "lower",
          "batches pulled in the stage loop"),
    Layer("datapipe.prefetch_speedup", "ratio", "higher",
          "one extra epoch with .prefetch(depth=2): sync epoch wall / "
          "prefetch epoch wall; below 1 it is a slowdown",
          "train_seeds_per_s", ("sampled",)),
    Layer("datapipe.prefetch_hit_ratio", "share", "higher",
          "pipe.last.hit_ratio of that epoch"),
    Layer("tensor.forward_s", "s", "lower",
          "forward + loss in the stage loop",
          "train_seeds_per_s", TRAINING),
    Layer("tensor.backward_s", "s", "lower",
          "loss.backward() in the stage loop",
          "train_seeds_per_s", TRAINING),
    Layer("tensor.optim_s", "s", "lower",
          "Adam.step() in the stage loop",
          "train_seeds_per_s", TRAINING),
    Layer("models.forward_full_s", "s", "lower",
          "GraphSAGE.prepare + forward_full evaluations",
          "time_to_model_s", ("sampled",)),
    Layer("models.eval_s", "s", "lower",
          "decoupled validation and test forward",
          "time_to_model_s", ("decoupled",)),
    Layer("storage.hit_ratio", "share", "higher",
          "EmbeddingStore.stats over the open loop",
          "read_p50_ms", SERVING),
    Layer("storage.invalidated_per_update", "count", "lower",
          "mean UpdateReport.store_invalidated",
          "read_p50_ms", ("serve_update",)),
    Layer("storage.get_hit_us", "us", "lower",
          "100k store.get calls on resident keys, threadsafe off",
          "bulk_req_per_s", ("serve_read",)),
    Layer("storage.get_hit_locked_us", "us", "lower",
          "the same with threadsafe on",
          "read_p50_ms", SERVING),
    Layer("serving.register_s", "s", "lower",
          "register: builds the warm hop stack"),
    Layer("serving.submit_us", "us", "lower",
          "median time inside predict_async on the generator thread",
          "read_p50_ms", SERVING),
    Layer("serving.run_batch_us", "us", "lower",
          "ServingEngine.run_batch on prepared 64-request batches, median",
          "bulk_req_per_s", ("serve_read",)),
    Layer("serving.mean_batch_size", "count", "higher",
          "queue.snapshot() after the open loop"),
    Layer("serving.batches", "count", "lower",
          "runtime.snapshot() batches_executed"),
    Layer("serving.shed", "count", "lower",
          "requests refused by admission control",
          "read_goodput_frac", SERVING),
    Layer("serving.errors", "count", "lower",
          "requests whose future raised or never resolved",
          "read_goodput_frac", SERVING),
    Layer("serving.retries", "count", "lower",
          "runtime.snapshot() retries"),
    Layer("serving.read_p95_ms", "ms", "lower",
          "open-loop samples, 95th percentile; end to end it swings on "
          "`serve_update`, where a handful of writer stalls set it"),
    Layer("serving.read_p99_ms", "ms", "lower",
          "open-loop samples, 99th percentile"),
    Layer("serving.gen_late_p99_ms", "ms", "lower",
          "how late the generator sent, 99th percentile: validity of the "
          "open loop"),
    Layer("serving.update_p50_ms", "ms", "lower",
          "write due time to apply_update returning, median",
          "read_goodput_frac", ("serve_update",)),
    Layer("serving.dirty_frontier_s", "s", "lower",
          "per-write dirty_frontiers in the update replay",
          "read_goodput_frac", ("serve_update",)),
    Layer("serving.store_invalidate_s", "s", "lower",
          "per-write store.invalidate in the update replay",
          "read_p50_ms", ("serve_update",)),
    Layer("serving.rows_patched_per_update", "count", "lower",
          "mean UpdateReport.rows_recomputed"),
    Layer("serving.rows_saved_frac", "share", "higher",
          "mean UpdateReport.rows_saved_fraction"),
    Layer("serving.writer_busy_frac", "share", "lower",
          "sum of apply_update durations / open-loop duration",
          "read_goodput_frac", ("serve_update",)),
    Layer("distributed.shard_plan_s", "s", "lower",
          "build_shard_plan(graph, assignment, 2)"),
    Layer("router.build_s", "s", "lower",
          "ShardRouter(...) constructor wall"),
    Layer("router.req_per_s", "req/s", "higher",
          "closed loop, one caller: ShardRouter.predict_many requests "
          "completed / wall; only `serve_read` has a router, so it cannot "
          "be an end-to-end metric of every workload"),
    Layer("router.boundary_frac", "share", "lower",
          "router.snapshot() boundary_requests / requests"),
    Layer("router.halo_rows_per_request", "count", "lower",
          "router.snapshot() halo_rows_copied / requests"),
    Layer("router.halo_gathers", "count", "lower",
          "router.snapshot() halo_gathers"),
    Layer("obs.trace_overhead_frac", "share", "lower",
          "(traced wall - untraced wall) / untraced wall of the same run"),
    Layer("obs.unattributed_frac", "share", "lower",
          "self time of the workload's root span / its duration; must "
          "stay <= 0.10 on `decoupled` and `sampled`"),
)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in LAYERS
        ],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(manifest(), indent=2))
