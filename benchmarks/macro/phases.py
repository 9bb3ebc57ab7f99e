"""The phases every workload chains, driven through user-facing entry points.

Untraced, a phase calls ``train_decoupled`` / ``train_sampled`` /
``ServingEngine`` / ``ServingRuntime`` / ``ShardRouter`` as a user would
and checks what comes back against an oracle. Traced, training is replaced
by a stage loop built only from public calls, whose losses must equal the
trainer's bit for bit, and the serving phases gain probes that time single
layers from outside. ``repro.obs`` stays disabled throughout.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from functools import partial

import numpy as np

from repro.datasets.synthetic import Split
from repro.distributed.shards import build_shard_plan
from repro.editing.partition import edge_cut, ldg_partition
from repro.editing.sampling import NeighborSampler
from repro.errors import LoadSheddingError
from repro.graph.core import Graph
from repro.models import SGC, GraphSAGE, SIGNModel
from repro.perf import (
    OperatorCache,
    PropagationEngine,
    get_default_arena,
    get_default_cache,
    get_default_engine,
)
from repro.serving import (
    BatchingQueue,
    EmbeddingStore,
    ModelRegistry,
    PredictRequest,
    ServingEngine,
    ServingRuntime,
    ShardRouter,
    dirty_frontiers,
    patch_stack,
)
from repro.tensor import functional as F
from repro.tensor.autograd import no_grad
from repro.tensor.optim import Adam
from repro.training import train_decoupled, train_sampled
from repro.training.datapipe import SeedBatcher
from repro.training.metrics import accuracy

from tracing import Trace
from workloads import (
    Inputs,
    Workload,
    generate_inputs,
    generate_new_edges,
    generate_traffic,
)

BULK_CHUNKS = 40
KIND = "gcn"  # the scheme SGC/SIGN precompute with and the registry's default
PROBE_GETS = 100_000
PROBE_BATCHES = 200
DRAIN_TIMEOUT_S = 30.0
PENDING, OK, SHED, ERRORED = 0, 1, 2, 3  # outcome of one open-loop request

_PULL_STAGES = {
    "sample": "editing.sample",
    "compact": "editing.compact",
    "fetch": "datapipe.fetch",
}


class Run:
    """What one workload run accumulates: metric values, operations, checks."""

    def __init__(
        self, workload: Workload, seed: int, seconds: float, trace: Trace
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.values: dict[str, tuple[float, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = (float(value), int(samples))

    def count(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += int(attempted)
        if failed:
            self.failed += int(failed)
            self.failures.append(f"{what}: {int(failed)} of {int(attempted)}")

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #


def build(run: Run) -> tuple[Inputs, Graph, Split]:
    trace = run.trace
    with trace.span("bench.generate"):
        inputs = generate_inputs(run.workload.graph, run.seed)
    with trace.span("graph.from_edges"):
        graph = Graph.from_edges(
            inputs.edges, len(inputs.y), x=inputs.x, y=inputs.y
        )
    return inputs, graph, Split(inputs.train, inputs.val, inputs.test)


def setup(run: Run) -> tuple[Inputs, Graph, Split]:
    """Build the inputs several times; ``setup_s`` is the median wall."""
    walls = []
    for _ in range(run.workload.setup_repeats):
        built = None  # drop the previous graph before building the next
        t0 = time.perf_counter()
        built = build(run)
        walls.append(time.perf_counter() - t0)
    run.put("setup_s", statistics.median(walls), len(walls))
    return built


def clear_caches() -> None:
    """Make the next model pay for its operator and hop stack again."""
    get_default_engine().clear()
    get_default_cache().clear()


# --------------------------------------------------------------------- #
# Training
# --------------------------------------------------------------------- #


def make_models(run: Run, graph: Graph):
    """``(first, second, served)``: the served model is always the SGC."""
    w, d, c = run.workload, graph.n_features, run.workload.graph.n_classes
    sgc = SGC(d, c, k_hops=w.k_hops, hidden=w.hidden, seed=run.seed)
    if w.style == "sampled":
        sage = GraphSAGE(
            d, w.hidden, c, n_layers=len(w.fanouts), dropout=0.0, seed=run.seed
        )
        return sage, sgc, sgc
    sign = SIGNModel(d, c, k_hops=w.k_hops, hidden=w.hidden, seed=run.seed + 1)
    return sgc, sign, sgc


def make_sampler(run: Run, model, graph: Graph):
    if not isinstance(model, GraphSAGE):
        return None
    return NeighborSampler(graph, list(run.workload.fanouts), seed=run.seed)


def call_trainer(run: Run, model, graph: Graph, split: Split, epochs: int):
    """One user-facing ``train_*`` call; returns ``(TrainResult, wall)``."""
    w = run.workload
    sampler = make_sampler(run, model, graph)
    common = dict(
        epochs=epochs, batch_size=w.batch_size, patience=epochs, seed=run.seed
    )
    t0 = time.perf_counter()
    if sampler is None:
        result = train_decoupled(model, graph, split, **common)
    else:
        result = train_sampled(
            model, graph, split, sampler, prefetch_depth=0, **common
        )
    wall = time.perf_counter() - t0
    steps = epochs * -(-len(split.train) // w.batch_size)
    run.count(steps, 0 if len(result.train_losses) == epochs else steps,
              "train steps")
    return result, wall


def train_untraced(run: Run, graph: Graph, split: Split):
    """Train both models through the trainers, caches cold each cycle.

    The cycle is repeated ``train_cycles`` times and the fastest wall of
    each call reported: what the host adds to a run (a neighbour's memory
    traffic, a heap that is still growing on the first cycle) only ever
    slows a cycle down, for seconds at a time, so the fastest cycle
    repeats across runs where the median does not. Returns the served
    model, both loss histories of the last cycle and that cycle's wall.
    """
    w = run.workload
    walls1, walls2, rates = [], [], []
    for _ in range(w.train_cycles):
        first, second, served = make_models(run, graph)
        clear_caches()
        res1, wall1 = call_trainer(run, first, graph, split, w.epochs)
        res2, wall2 = call_trainer(run, second, graph, split, w.second_epochs)
        walls1.append(wall1)
        walls2.append(wall2)
        rates.append(len(split.train) * w.epochs / res1.train_time)
        for result, floor, which in zip((res1, res2), w.accuracy_floors,
                                        ("first", "second")):
            run.check(
                result.test_accuracy >= floor,
                f"{which} model test accuracy {result.test_accuracy:.4f} "
                f"below its floor {floor}",
            )
        if w.style == "decoupled":
            run.check(
                res2.operator_cache_misses == 0,
                f"second model rebuilt {res2.operator_cache_misses} operator(s)",
            )
    run.put("time_to_model_s", min(walls1), w.train_cycles)
    run.put("reuse_time_to_model_s", min(walls2), w.train_cycles)
    run.put("train_seeds_per_s", max(rates), w.train_cycles)
    return served, (res1.train_losses, res2.train_losses), wall1 + wall2


def _traced_precompute(run: Run, model, graph: Graph):
    """``model.precompute`` split into operator build, hops and assembly."""
    trace, engine = run.trace, get_default_engine()
    misses = engine.stats.misses
    with trace.span("perf.operator_build"):
        # What the fused gcn hop multiplies by (PropagationEngine._hop_operator).
        engine.cache.adjacency(graph, self_loops=True)
    t0 = time.perf_counter()
    engine.hop_features(graph, model.k_hops, kind=KIND)
    t1 = time.perf_counter()
    cold = engine.stats.misses > misses
    trace.add("perf.propagate" if cold else "perf.warm_lookup", t0, t1)
    with trace.span("models.precompute"):
        return model.precompute(graph)


def _record_pull(
    trace: Trace, mb, t0: float, t1: float, stats: dict, inline: bool
) -> None:
    """One pull from the loader; its stages laid end to end inside it.

    The datapipe times its own stages (``MiniBatch.stage_s``); only their
    durations are real, their positions inside the pull are not. Behind a
    prefetcher the stages ran on another thread, not inside the pull.
    """
    pull = trace.add("datapipe.pull", t0, t1)
    cursor = t0
    for stage, name in _PULL_STAGES.items():
        spent = mb.stage_s.get(stage, 0.0)
        if spent and inline:
            trace.add(name, cursor, cursor + spent, parent=pull)
            cursor += spent
    stats["batches"] += 1
    if mb.blocks:
        stats["input_nodes"] += len(mb.blocks[0].src_ids)
        stats["arcs"] += sum(block.matrix.nnz for block in mb.blocks)


def stage_loop(
    run: Run, model, graph: Graph, split: Split, epochs: int, stats: dict,
    prefetch_depth: int = 0,
) -> tuple[list[float], list[float]]:
    """``train_decoupled`` / ``train_sampled`` rebuilt from public calls.

    Same seeds, same order of RNG draws, same arithmetic: the per-epoch
    mean losses equal the trainer's bit for bit, which is what licenses
    reading this loop's stage shares as the trainer's. Returns the losses
    and the wall of each epoch's training part.
    """
    w, trace, y = run.workload, run.trace, graph.y
    rng = np.random.default_rng(run.seed)
    sampler = make_sampler(run, model, graph)
    if sampler is None:
        features = _traced_precompute(run, model, graph)
    else:
        with trace.span("models.forward_full"):
            full_op = model.prepare(graph)
        features = graph.x
    opt = Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    pipe = SeedBatcher(split.train, w.batch_size, seed=rng)
    if sampler is not None:
        pipe = pipe.sample(sampler)
    loader = pipe.fetch_features(features=features, labels=y)
    if prefetch_depth:
        loader = loader.prefetch(depth=prefetch_depth)
    if sampler is None:
        with trace.span("models.eval"):
            held_out = {"val": features[split.val], "test": features[split.test]}

    def evaluate(which: str) -> float:
        ids = getattr(split, which)
        model.eval()
        with no_grad():
            if sampler is None:
                with trace.span("models.eval"):
                    logits = model(held_out[which]).data
            else:
                with trace.span("models.forward_full"):
                    logits = model.forward_full(full_op, graph.x).data[ids]
        return accuracy(logits.argmax(axis=1), y[ids])

    losses, walls = [], []
    for _ in range(epochs):
        model.train()
        epoch_loss = 0.0
        epoch_start = time.perf_counter()
        batches = iter(loader)
        while True:
            t0 = time.perf_counter()
            mb = next(batches, None)
            t1 = time.perf_counter()
            if mb is None:
                trace.add("datapipe.pull", t0, t1)
                break
            opt.zero_grad()
            if sampler is None:
                logits = model(mb.x)
            else:
                logits = model.forward_blocks(mb.blocks, mb.x)
            loss = F.cross_entropy(logits, mb.y)
            t2 = time.perf_counter()
            loss.backward()
            t3 = time.perf_counter()
            opt.step()
            t4 = time.perf_counter()
            epoch_loss += loss.item() * mb.n_seeds
            _record_pull(trace, mb, t0, t1, stats, inline=not prefetch_depth)
            trace.add("tensor.forward", t1, t2)
            trace.add("tensor.backward", t2, t3)
            trace.add("tensor.optim", t3, t4)
        walls.append(time.perf_counter() - epoch_start)
        losses.append(epoch_loss / len(split.train))
        evaluate("val")
    evaluate("test")
    if prefetch_depth:
        stats["prefetch_hit_ratio"] = loader.last.hit_ratio
    return losses, walls


def train_traced(run: Run, graph: Graph, split: Split, expected_losses) -> None:
    """Both models again through the stage loop, caches cold, with spans."""
    w, trace = run.workload, run.trace
    first, second, _ = make_models(run, graph)
    clear_caches()
    stats = {"batches": 0, "input_nodes": 0, "arcs": 0}
    losses1, walls1 = stage_loop(run, first, graph, split, w.epochs, stats)
    sampled_batches = stats["batches"] if w.style == "sampled" else 0
    losses2, _ = stage_loop(run, second, graph, split, w.second_epochs, stats)
    run.check(
        (losses1, losses2) == tuple(expected_losses),
        "stage-loop losses differ from the trainer's",
    )

    run.put("perf.operator_build_s", trace.total("perf.operator_build"))
    run.put("perf.propagate_s", trace.total("perf.propagate"))
    run.put("perf.warm_lookup_s", trace.total("perf.warm_lookup"))
    operator = get_default_engine().cache.adjacency(graph, self_loops=True)
    d, itemsize = graph.n_features, graph.x.itemsize
    k = run.workload.k_hops
    run.put("perf.spmm_flops", 2.0 * operator.nnz * d * k)
    run.put(
        "perf.spmm_bytes_moved",
        k * (operator.nnz * (operator.indices.itemsize + itemsize)
             + 2.0 * graph.n_nodes * d * itemsize),
    )
    run.put("perf.stack_hit_ratio", get_default_engine().snapshot()["hit_rate"])
    run.put("perf.opcache_hit_ratio", get_default_cache().snapshot()["hit_rate"])
    run.put("editing.sample_s", trace.total("editing.sample"), sampled_batches)
    run.put("editing.compact_s", trace.total("editing.compact"), sampled_batches)
    run.put("editing.input_nodes_per_batch",
            stats["input_nodes"] / max(sampled_batches, 1), sampled_batches)
    run.put("editing.sampled_arcs_per_seed",
            stats["arcs"] / (len(split.train) * w.epochs), sampled_batches)
    run.put("datapipe.fetch_s", trace.total("datapipe.fetch"), stats["batches"])
    run.put("datapipe.batches", stats["batches"])
    for stage in ("forward", "backward", "optim"):
        run.put(f"tensor.{stage}_s", trace.total(f"tensor.{stage}"),
                stats["batches"])
    run.put("models.forward_full_s", trace.total("models.forward_full"))
    run.put("models.eval_s", trace.total("models.eval"))

    if w.style == "sampled":
        # One more first epoch from the same state, through the prefetcher:
        # it must produce the sync epoch's loss, and its wall says what
        # overlap buys when no I/O latency is modelled.
        again, _, _ = make_models(run, graph)
        extra = dict(stats)
        with trace.span("datapipe.prefetch_epoch"):
            pre_losses, pre_walls = stage_loop(
                run, again, graph, split, 1, extra, prefetch_depth=2
            )
        run.check(pre_losses[0] == losses1[0],
                  "prefetch epoch loss differs from the sync epoch's")
        run.put("datapipe.prefetch_speedup", walls1[0] / pre_walls[0])
        run.put("datapipe.prefetch_hit_ratio", extra["prefetch_hit_ratio"])


# --------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------- #


def predictions(model, rows: np.ndarray) -> np.ndarray:
    """The offline oracle: ``argmax model(hop rows)``."""
    model.eval()
    with no_grad():
        return model(rows).data.argmax(axis=1)


def fresh_stack(graph: Graph, k: int, kind: str) -> list[np.ndarray]:
    """A full propagate that shares nothing with the served stack."""
    engine = PropagationEngine(cache=OperatorCache())
    return engine.propagate(graph, graph.x, k, kind=kind, memoize=False)


def percentile_ms(latency_s: np.ndarray, q: float) -> float:
    return float(np.percentile(latency_s, q)) * 1e3


def _sleep_until(due: float) -> None:
    # Sleeping, never spinning: a spinning generator would hold the
    # interpreter lock the batcher and the worker need.
    wait = due - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


def _writer(runtime, key, edges, interval, start, log) -> None:
    """Second generator thread: one edge insert every ``interval`` seconds."""
    for j, (u, v) in enumerate(edges.tolist()):
        due = start + (j + 1) * interval
        _sleep_until(due)
        began = time.perf_counter()
        try:
            outcome = runtime.apply_update(u, v, model=key)
        except Exception as exc:  # noqa: BLE001 - counted as a failed update
            outcome = exc
        log.append((due, began, time.perf_counter(), outcome))


def open_loop(run: Run, runtime, key, traffic, new_edges):
    """Send ``traffic`` on schedule from this thread; writes beside it.

    Returns per-request arrays: latency from due time, status (``OK``,
    ``SHED``, ``ERRORED`` or never answered), prediction, completion time,
    generator lateness, time inside ``predict_async``; and the write log.
    """
    w = run.workload
    n = len(traffic.due_s)
    done = np.zeros(n)
    status = np.zeros(n, dtype=np.int8)
    predicted = np.full(n, -1, dtype=np.int64)
    late = np.zeros(n)
    inside = np.zeros(n)
    time_submit = run.trace.enabled

    def on_done(i: int, future) -> None:
        done[i] = time.perf_counter()
        if future.exception() is not None:
            status[i] = ERRORED
        elif future.result().ok:
            status[i] = OK
            predicted[i] = future.result().prediction
        else:
            status[i] = SHED

    write_log: list = []
    # The benchmark's own heap (inputs, oracles, earlier results) would make
    # every full collection a stall of tens of milliseconds; set it aside so
    # the collector only walks what the serving stack allocates from here on.
    gc.collect()
    gc.freeze()
    start = time.perf_counter() + 0.05
    writer = None
    if len(new_edges):
        writer = threading.Thread(
            target=_writer, name="macro-writer",
            args=(runtime, key, new_edges, w.write_interval_s, start, write_log),
        )
        writer.start()
    try:
        ids = traffic.node_ids.tolist()
        dues = (start + traffic.due_s).tolist()
        for i in range(n):
            _sleep_until(dues[i])
            sent = time.perf_counter()
            late[i] = sent - dues[i]
            try:
                future = runtime.predict_async(ids[i], model=key)
            except LoadSheddingError:
                status[i], done[i] = SHED, time.perf_counter()
                continue
            except Exception:  # noqa: BLE001 - counted as an errored request
                status[i], done[i] = ERRORED, time.perf_counter()
                continue
            if time_submit:
                inside[i] = time.perf_counter() - sent
            # No future is kept: what the benchmark retains must not
            # become the collector's work while the system is being timed.
            future.add_done_callback(partial(on_done, i))
        drained = time.perf_counter() + DRAIN_TIMEOUT_S
        while not status.all() and time.perf_counter() < drained:
            time.sleep(0.001)
    finally:
        if writer is not None:
            writer.join()
        gc.unfreeze()
    status[status == PENDING] = ERRORED  # never answered
    done[done == 0.0] = time.perf_counter()
    latency = done - np.asarray(dues)
    return latency, status, predicted, done, late, inside, write_log


def serve(run: Run, model, graph: Graph, inputs: Inputs) -> None:
    """Register the model, then bulk reads, open-loop reads, routed reads."""
    w, trace, n = run.workload, run.trace, graph.n_nodes
    rng = np.random.default_rng([run.seed, 3])
    capacity = max(1, int(w.store_share * n))
    with trace.span("bench.oracle"):
        expected = predictions(
            model, get_default_engine().hop_features(graph, w.k_hops, kind=KIND)[-1]
        )

    registry = ModelRegistry()
    engine = ServingEngine(
        registry=registry, early_exit=False,
        store=EmbeddingStore(capacity=capacity),
    )
    with trace.span("serving.register"):
        key = engine.register("macro", model, graph, kind=KIND)
    run.put("serving.register_s", trace.total("serving.register"))

    # Phase A: inline, lock-free bulk reads. The rate is that of the fastest
    # chunk, for the reason `train_untraced` gives: over 40 chunks the
    # median swung between 58k and 92k req/s from run to run on this host,
    # the fastest chunk between 94k and 101k.
    get_default_arena().reset()
    ids = rng.integers(0, n, w.bulk_requests)
    got, rates = [], []
    with trace.span("serving.bulk"):
        for chunk in np.array_split(ids, BULK_CHUNKS):
            t0 = time.perf_counter()
            results = engine.predict_many(chunk)
            rates.append(len(chunk) / (time.perf_counter() - t0))
            got += [r.prediction if r.ok else -1 for r in results]
    del results
    run.count(len(ids), int(np.sum(np.asarray(got) != expected[ids])),
              "bulk reads not ok or not equal to the oracle")
    run.put("bulk_req_per_s", max(rates), len(ids))
    run.put("perf.arena_reuse_ratio", get_default_arena().snapshot()["reuse_rate"])

    # Phase B: open loop through the concurrent runtime.
    duration = w.read_share * run.seconds
    n_writes = int((duration - 1.0) / w.write_interval_s) if w.write_interval_s else 0
    with trace.span("bench.generate"):
        traffic = generate_traffic(n, w.read_rate, duration, w.zipf, run.seed)
        new_edges = generate_new_edges(inputs, n_writes + w.replay_updates, run.seed)
    runtime = ServingRuntime(
        n_workers=1, registry=registry, early_exit=False,
        queue=BatchingQueue(max_batch=64, max_wait_s=0.002, max_queue=4096,
                            threadsafe=True),
        store=EmbeddingStore(capacity=capacity, threadsafe=True),
    )
    try:
        with trace.span("serving.open_loop"):
            latency, status, predicted, done, late, inside, write_log = open_loop(
                run, runtime, key, traffic, new_edges[:n_writes]
            )
        store_stats = runtime.engine.store.stats
        queue_stats = runtime.engine.queue.snapshot()
        runtime_stats = runtime.snapshot()
    finally:
        runtime.close()
    record = registry.get(key)

    sent = len(status)
    ok = status == OK
    run.check(sent == int(ok.sum() + (status == SHED).sum() + (status == ERRORED).sum()),
              "requests sent != ok + shed + errored")
    run.count(sent, int(sent - ok.sum()), "open-loop reads shed or errored")
    limit_s = w.latency_limit_ms / 1e3
    run.put("read_p50_ms", percentile_ms(latency, 50), sent)
    run.put("read_goodput_frac", float(np.sum(ok & (latency <= limit_s))) / sent, sent)
    run.put("serving.read_p95_ms", percentile_ms(latency, 95), sent)
    run.put("serving.read_p99_ms", percentile_ms(latency, 99), sent)
    run.put("serving.gen_late_p99_ms", percentile_ms(late, 99), sent)
    run.put("serving.submit_us", float(np.median(inside)) * 1e6, sent)
    run.put("serving.shed", float((status == SHED).sum()), sent)
    run.put("serving.errors", float((status == ERRORED).sum()), sent)
    run.put("serving.retries", runtime_stats["retries"])
    run.put("serving.batches", runtime_stats["batches_executed"])
    run.put("serving.mean_batch_size", queue_stats["mean_batch_size"],
            int(queue_stats["batches_formed"]))
    run.put("storage.hit_ratio", store_stats.hit_rate, store_stats.accesses)

    # Writes: every answer given after the last one must match the final graph.
    reports = [entry[3] for entry in write_log]
    applied = [r for r in reports if not isinstance(r, Exception)]
    run.count(n_writes, n_writes - len(applied), "updates failed or not sent")
    settled = max((entry[2] for entry in write_log), default=0.0)
    if applied:
        with trace.span("bench.oracle"):
            final = fresh_stack(record.graph, w.k_hops, KIND)
            expected = predictions(model, final[-1])
            run.check(np.allclose(record.stacked, np.stack(final), rtol=0.0,
                                  atol=1e-12),
                      "patched hop stack differs from a full propagate")
        run.put("serving.update_p50_ms",
                statistics.median(e[2] - e[0] for e in write_log) * 1e3,
                len(write_log))
        run.put("serving.writer_busy_frac",
                sum(e[2] - e[1] for e in write_log) / duration, len(write_log))
    checked = ok & (done > settled)
    node_ids = traffic.node_ids
    run.count(int(checked.sum()),
              int(np.sum(predicted[checked] != expected[node_ids[checked]])),
              "open-loop answers not equal to the oracle")

    if trace.enabled:
        probe_serving(run, registry, key, capacity)
        if w.replay_updates:
            replay_updates(run, registry, key, runtime.engine.store,
                           new_edges[n_writes:], applied)

    if w.router_share:
        routed_reads(run, model, graph, rng)


def routed_reads(run: Run, model, graph: Graph, rng) -> None:
    """Phase C: closed loop, one caller, two shards behind a ``ShardRouter``."""
    w, trace = run.workload, run.trace
    with trace.span("editing.partition"):
        part = ldg_partition(graph, 2, seed=run.seed)
    run.put("editing.partition_s", trace.total("editing.partition"))
    run.put("editing.edge_cut_frac",
            edge_cut(graph, part.assignment) / (graph.n_edges // 2))
    if trace.enabled:
        with trace.span("distributed.shard_plan"):
            build_shard_plan(graph, part.assignment, 2)
        run.put("distributed.shard_plan_s", trace.total("distributed.shard_plan"))
    with trace.span("router.build"):
        router = ShardRouter(
            model, graph, part.assignment, 2,
            runtime_kwargs=dict(early_exit=False, n_workers=1),
        )
    try:
        run.put("router.build_s", trace.total("router.build"))
        with trace.span("bench.oracle"):
            # Owned rows never change after registration: each shard answers
            # from a row-normalised propagate over its halo-augmented graph.
            expected = np.full(graph.n_nodes, -1, dtype=np.int64)
            for shard in router.plan.shards:
                local = shard.local_graph(x=graph.x[shard.local_nodes])
                rows = fresh_stack(local, w.k_hops, "rw")[-1][: shard.n_owned]
                expected[shard.owned] = predictions(model, rows)
        ids = rng.integers(0, graph.n_nodes, 4096)
        answers: list = []
        with trace.span("router.closed_loop"):
            t0 = time.perf_counter()
            deadline = t0 + w.router_share * run.seconds
            while time.perf_counter() < deadline and len(answers) < len(ids):
                answers += router.predict_many(ids[len(answers):len(answers) + 4])
            wall = time.perf_counter() - t0
        stats = router.snapshot()
    finally:
        router.close()
    got = np.fromiter((r.prediction if r.ok else -1 for r in answers),
                      dtype=np.int64, count=len(answers))
    run.count(len(answers), int(np.sum(got != expected[ids[:len(answers)]])),
              "routed reads not ok or not equal to the oracle")
    requests = max(stats["requests"], 1)
    run.put("router.req_per_s", len(answers) / wall, len(answers))
    run.put("router.boundary_frac", stats["boundary_requests"] / requests)
    run.put("router.halo_rows_per_request", stats["halo_rows_copied"] / requests)
    run.put("router.halo_gathers", stats["halo_gathers"])


# --------------------------------------------------------------------- #
# Traced-pass probes: single layers timed from outside
# --------------------------------------------------------------------- #


def _store_get_us(threadsafe: bool) -> float:
    store = EmbeddingStore(capacity=4096, threadsafe=threadsafe)
    for node in range(1024):
        store.put("probe", node, 1, 1)
    keys = list(range(1024)) * (PROBE_GETS // 1024)
    get = store.get
    t0 = time.perf_counter()
    for node in keys:
        get("probe", node)
    return (time.perf_counter() - t0) / len(keys) * 1e6


def probe_serving(run: Run, registry, key: str, capacity: int) -> None:
    with run.trace.span("bench.probes"):
        run.put("storage.get_hit_us", _store_get_us(False), PROBE_GETS)
        run.put("storage.get_hit_locked_us", _store_get_us(True), PROBE_GETS)
        engine = ServingEngine(
            registry=registry, early_exit=False, threadsafe=True,
            store=EmbeddingStore(capacity=capacity, threadsafe=True),
        )
        n = registry.get(key).graph.n_nodes
        nodes = np.random.default_rng([run.seed, 4]).integers(
            0, n, (PROBE_BATCHES, 64)
        ).tolist()
        walls = []
        for b, batch_nodes in enumerate(nodes):
            batch = [
                PredictRequest(b * 64 + j, node, key, time.monotonic())
                for j, node in enumerate(batch_nodes)
            ]
            t0 = time.perf_counter()
            engine.run_batch(batch)
            walls.append(time.perf_counter() - t0)
        run.put("serving.run_batch_us", statistics.median(walls) * 1e6, len(walls))


def replay_updates(run, registry, key, store, edges, applied) -> None:
    """More inserts, applied stage by stage as ``apply_updates`` does.

    Single-threaded, after the open loop, so each stage of the writer's
    critical section gets its own time. The open loop's own reports give
    the per-update counts.
    """
    trace = run.trace
    record = registry.get(key)
    with trace.span("bench.replay"):
        for u, v in edges.tolist():
            dynamic = record.ensure_dynamic()
            dynamic.insert_edge(u, v)
            with trace.span("serving.dirty_frontier"):
                dirty = dirty_frontiers(dynamic, [u, v], record.k_hops)
            with trace.span("graph.dynamic_snapshot"):
                new_graph = dynamic.snapshot()
            with trace.span("perf.operator_rebuild"):
                operator = registry.engine.operator(
                    new_graph, record.kind, record.alpha, dtype=record.dtype
                )
            with trace.span("perf.patch_stack"):
                patch_stack(record.stack, operator, dirty)
            record.graph = new_graph
            with trace.span("serving.store_invalidate"):
                store.invalidate(record.namespace, dirty[-1])
        final = fresh_stack(record.graph, record.k_hops, KIND)
        run.check(np.allclose(record.stacked, np.stack(final), rtol=0.0,
                              atol=1e-12),
                  "replayed hop stack differs from a full propagate")
    count = len(edges)
    for name in ("graph.dynamic_snapshot", "perf.operator_rebuild",
                 "perf.patch_stack", "serving.dirty_frontier",
                 "serving.store_invalidate"):
        run.put(f"{name}_s", trace.total(name) / count, count)
    if applied:
        run.put("storage.invalidated_per_update",
                statistics.mean(r.store_invalidated for r in applied), len(applied))
        run.put("serving.rows_patched_per_update",
                statistics.mean(r.rows_recomputed for r in applied), len(applied))
        run.put("serving.rows_saved_frac",
                statistics.mean(r.rows_saved_fraction for r in applied), len(applied))
