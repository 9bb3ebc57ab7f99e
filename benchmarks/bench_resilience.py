"""E32 (repro.resilience): failure is survivable and instrumentation is free.

Claims measured here:

1. **Throughput under chaos.** A :class:`~repro.serving.ServingRuntime`
   with classified retry keeps serving when 5% of its micro-batches
   raise transient faults: every request still ends in a legal outcome
   and throughput stays within ``DEGRADED_BOUND`` (2x) of the fault-free
   run — the cost is bounded backoff, not collapse.
2. **Pay-as-you-go instrumentation.** With no injector installed the
   fault machinery costs one ``FAULTS.active`` attribute check on each
   hot path: a burst of store-hit reads makes **zero**
   ``FeatureStore._get_faulty`` calls (counted by wrapping the instance
   method), while the positive control — the same burst under a
   never-firing injector — calls it once per read. The wall overhead
   against the pre-resilience loop, reconstructed here frame-for-frame
   (the E30 idiom: the baseline is what ``FeatureStore.get`` executed
   before the injection site existed), is reported as a min/min ratio of
   interleaved timings but not gated: a ~0.4 µs read is too short for a
   single-host wall ratio to hold a 5% bound.
3. **Checkpointing is cheap and exact.** Persisting the training loop
   every 5 epochs adds bounded wall-clock overhead (reported), and an
   interrupted run resumed from its checkpoint reproduces the
   uninterrupted run bit-for-bit (``rtol=0``) — measured, not assumed.

Run directly (``python benchmarks/bench_resilience.py [--smoke]``) or
through pytest; ``--smoke`` shrinks sizes for CI.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from _common import emit, emit_json

from repro.bench import Table, format_seconds
from repro.datasets import contextual_sbm
from repro.errors import FaultError, TransientError
from repro.models import SGC
from repro.resilience import Checkpointer, FaultPlan, FaultSpec, RetryPolicy, inject
from repro.resilience.faults import FAULTS
from repro.serving import BatchingQueue, ServingRuntime
from repro.storage import FeatureStore
from repro.storage.feature_cache import feature_key
from repro.tensor.autograd import Tensor
from repro.training import train_decoupled

DEGRADED_BOUND = 2.0    # fault-free time x bound >= faulty time
FAULT_RATE = 0.05
N_FEATURES = 12
N_CLASSES = 3


class SleepingModel:
    """Decoupled head whose forward sleeps then answers (GIL-releasing
    stand-in for the accelerator call that dominates real batch cost)."""

    def __init__(self, delay_s: float):
        self.k_hops = 1
        self.delay_s = delay_s

    def eval(self):
        pass

    def __call__(self, x):
        time.sleep(self.delay_s)
        return Tensor(np.asarray(x.data)[:, :N_CLASSES])


def _make_graph(n_nodes: int, seed: int = 1):
    graph, _ = contextual_sbm(
        n_nodes, n_classes=N_CLASSES, homophily=0.8, avg_degree=8,
        n_features=N_FEATURES, feature_signal=1.0, seed=seed,
    )
    return graph


# --------------------------------------------------------------------- #
# 1. Serving throughput under transient faults
# --------------------------------------------------------------------- #


def _serve_all(graph, n_requests: int, delay_s: float) -> dict:
    """Fire ``n_requests`` through a fresh runtime; account every one."""
    rt = ServingRuntime(
        n_workers=4,
        early_exit=False,
        store=None,  # no prediction cache: every request pays a batch
        retry_policy=RetryPolicy(
            max_retries=3, base_delay_s=0.001, max_delay_s=0.01,
            jitter=0.5, seed=0,
        ),
        queue=BatchingQueue(max_batch=8, max_wait_s=0.001, threadsafe=True),
    )
    ok = failed = 0
    try:
        rt.register("sleepy", SleepingModel(delay_s), graph)
        nodes = [i % graph.n_nodes for i in range(n_requests)]
        start = time.perf_counter()
        futures = [rt.predict_async(node) for node in nodes]
        for future in futures:
            try:
                future.result(timeout=120)
                ok += 1
            except (TransientError, FaultError):
                failed += 1  # classified, typed — a legal outcome
        elapsed = time.perf_counter() - start
        retries = rt.snapshot()["retries"]
    finally:
        rt.close()
    return {
        "rps": n_requests / elapsed,
        "ok": ok,
        "classified_failures": failed,
        "retries": int(retries),
    }


def _fault_throughput(n_requests: int, delay_s: float) -> dict:
    graph = _make_graph(120)
    _serve_all(graph, max(n_requests // 8, 16), delay_s)  # warm-up, untimed
    clean = _serve_all(graph, n_requests, delay_s)
    plan = FaultPlan(
        [FaultSpec("serving.batch", "transient", rate=FAULT_RATE)]
    )
    with inject(plan, seed=7) as inj:
        faulty = _serve_all(graph, n_requests, delay_s)
        faults_injected = int(inj.snapshot()["faults_injected"])
    return {
        "n_requests": n_requests,
        "batch_delay_s": delay_s,
        "fault_rate": FAULT_RATE,
        "clean_rps": clean["rps"],
        "faulty_rps": faulty["rps"],
        "slowdown": clean["rps"] / faulty["rps"],
        "faulty_ok": faulty["ok"],
        "faulty_classified_failures": faulty["classified_failures"],
        "faulty_retries": faulty["retries"],
        "faults_injected": faults_injected,
    }


# --------------------------------------------------------------------- #
# 2. Hot-path overhead with faults disabled
# --------------------------------------------------------------------- #


def _baseline_get(store: FeatureStore):
    """``FeatureStore.get`` without the ``storage.get`` injection site.

    The same call frame, ``feature_key`` resolution and ``_get`` lookup
    — minus only the ``FAULTS.active`` branch. Timing the current
    ``get`` against this isolates exactly what the fault machinery costs
    when disabled.
    """

    def old_get(namespace, node):
        key = (feature_key(namespace), int(node))
        if store._lock is None:
            return store._get(key)
        with store._lock:
            return store._get(key)

    return old_get


def _count_faulty_calls(store: FeatureStore, burst) -> int:
    """Run ``burst`` once with ``store._get_faulty`` wrapped in a counter."""
    calls = 0
    faulty = store._get_faulty

    def counted(*args):
        nonlocal calls
        calls += 1
        return faulty(*args)

    store._get_faulty = counted
    try:
        burst()
    finally:
        del store._get_faulty
    return calls


def _hotpath_overhead(repeat: int, inner: int) -> dict:
    store = FeatureStore(4096, threadsafe=False)
    n_rows = 512
    for node in range(n_rows):
        store.put("ns", node, node)
    nodes = list(range(n_rows)) * 4
    old_get = _baseline_get(store)

    def baseline_burst():
        for node in nodes:
            old_get("ns", node)

    def current_burst():
        get = store.get
        for node in nodes:
            get("ns", node)

    assert not FAULTS.active, "E32 needs the fault machinery disabled"
    disabled_calls = _count_faulty_calls(store, current_burst)
    # Positive control: an empty plan installs an injector that never
    # fires, so every read takes the injector branch and nothing else.
    with inject(FaultPlan([]), seed=0) as inj:
        control_calls = _count_faulty_calls(store, current_burst)
        control_injector_calls = inj.calls("storage.get")

    fns = {"baseline": baseline_burst, "current": current_burst}
    samples = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            samples[name].append(
                (time.perf_counter() - start) / (inner * len(nodes))
            )
    # Best-of-best ratio: scheduler interrupts only ever inflate a
    # sample, so min/min is the noise-robust estimate of the true cost.
    overhead = min(samples["current"]) / min(samples["baseline"])
    return {
        "burst_size": len(nodes),
        "repeat": repeat,
        "inner": inner,
        "baseline_per_read_s": min(samples["baseline"]),
        "current_per_read_s": min(samples["current"]),
        "disabled_overhead": overhead,
        "disabled_faulty_calls": disabled_calls,
        "control_faulty_calls": control_calls,
        "control_injector_calls": control_injector_calls,
    }


# --------------------------------------------------------------------- #
# 3. Checkpoint overhead + bit-identical resume
# --------------------------------------------------------------------- #


def _checkpoint_overhead(epochs: int, interval: int) -> dict:
    # Big enough that an epoch does real work (checkpoint cost is fsync
    # dominated; against a trivial epoch it would look artificially huge).
    graph, split = contextual_sbm(
        400, n_classes=N_CLASSES, homophily=0.8, avg_degree=8,
        n_features=N_FEATURES, feature_signal=1.0, seed=5,
    )

    def fresh():
        return SGC(
            graph.n_features, graph.n_classes, k_hops=2, hidden=32, seed=11
        )

    kwargs = dict(epochs=epochs, batch_size=64, patience=10 * epochs, seed=3)
    start = time.perf_counter()
    plain = train_decoupled(fresh(), graph, split, **kwargs)
    plain_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        ck = Checkpointer(Path(tmp) / "bench")
        start = time.perf_counter()
        ckpt_run = train_decoupled(
            fresh(), graph, split, **kwargs,
            checkpointer=ck, checkpoint_every=interval,
        )
        ckpt_s = time.perf_counter() - start
        ckpt_bytes = ck.latest().stat().st_size

        # Kill/resume: half the epochs, then a fresh model resumed from
        # the newest checkpoint must replay the back half bit-for-bit.
        ck2 = Checkpointer(Path(tmp) / "resume")
        train_decoupled(
            fresh(), graph, split, **{**kwargs, "epochs": epochs // 2},
            checkpointer=ck2, checkpoint_every=interval,
        )
        resumed = train_decoupled(
            fresh(), graph, split, **kwargs,
            checkpointer=ck2, checkpoint_every=interval, resume=True,
        )
    resume_identical = bool(
        np.array_equal(plain.train_losses, resumed.train_losses)
        and np.array_equal(plain.val_accuracies, resumed.val_accuracies)
        and plain.test_accuracy == resumed.test_accuracy
    )
    n_saves = epochs // interval
    return {
        "epochs": epochs,
        "checkpoint_every": interval,
        "plain_epoch_s": plain_s / epochs,
        "checkpointed_epoch_s": ckpt_s / epochs,
        "checkpoint_overhead": ckpt_s / plain_s,
        "checkpoint_save_s": (ckpt_s - plain_s) / max(n_saves, 1),
        "checkpoint_bytes": int(ckpt_bytes),
        "resume_identical": resume_identical,
        "ckpt_test_accuracy": ckpt_run.test_accuracy,
    }


# --------------------------------------------------------------------- #


def run(smoke: bool = False) -> dict:
    if smoke:
        n_requests, delay_s = 160, 0.003
        ov_repeat, ov_inner = 7, 3
        epochs, interval = 10, 5
    else:
        n_requests, delay_s = 480, 0.004
        ov_repeat, ov_inner = 9, 5
        epochs, interval = 20, 5

    chaos = _fault_throughput(n_requests, delay_s)
    hotpath = _hotpath_overhead(ov_repeat, ov_inner)
    ckpt = _checkpoint_overhead(epochs, interval)

    table = Table(
        "E32: resilience (chaos throughput, disabled-cost, checkpoints)",
        ["metric", "value"],
    )
    table.add_row("requests / fault rate",
                  f"{chaos['n_requests']} / {chaos['fault_rate']:.0%}")
    table.add_row("fault-free throughput", f"{chaos['clean_rps']:.0f} req/s")
    table.add_row("faulty throughput", f"{chaos['faulty_rps']:.0f} req/s")
    table.add_row("slowdown under faults", f"{chaos['slowdown']:.2f}x")
    table.add_row("bound (slowdown)", f"<= {DEGRADED_BOUND:.1f}x")
    table.add_row("faults injected / retries",
                  f"{chaos['faults_injected']} / {chaos['faulty_retries']}")
    table.add_row("requests answered ok",
                  f"{chaos['faulty_ok']}/{chaos['n_requests']}")
    table.add_row("store read, pre-resilience loop",
                  format_seconds(hotpath["baseline_per_read_s"]))
    table.add_row("store read, current (faults disabled)",
                  format_seconds(hotpath["current_per_read_s"]))
    table.add_row("disabled-fault overhead (reported, not gated)",
                  f"{(hotpath['disabled_overhead'] - 1) * 100:+.2f}%")
    table.add_row("injector-branch calls, faults disabled",
                  f"{hotpath['disabled_faulty_calls']}/{hotpath['burst_size']}")
    table.add_row("injector-branch calls, never-firing injector",
                  f"{hotpath['control_faulty_calls']}/{hotpath['burst_size']}")
    table.add_row("epoch cost, no checkpoints",
                  format_seconds(ckpt["plain_epoch_s"]))
    table.add_row(f"epoch cost, checkpoint every {ckpt['checkpoint_every']}",
                  format_seconds(ckpt["checkpointed_epoch_s"]))
    table.add_row("checkpoint overhead",
                  f"{(ckpt['checkpoint_overhead'] - 1) * 100:+.2f}%")
    table.add_row("cost per checkpoint (atomic write + fsync)",
                  format_seconds(ckpt["checkpoint_save_s"]))
    table.add_row("checkpoint size",
                  f"{ckpt['checkpoint_bytes'] / 1024:.1f} KiB")
    table.add_row("kill/resume bit-identical",
                  str(ckpt["resume_identical"]))
    emit(table, "E32_resilience")

    payload = {
        "experiment": "E32_resilience",
        "smoke": smoke,
        "degraded_bound": DEGRADED_BOUND,
        **chaos,
        **hotpath,
        **ckpt,
    }
    emit_json("E32_resilience", payload, metrics=True)

    accounted = chaos["faulty_ok"] + chaos["faulty_classified_failures"]
    assert accounted == chaos["n_requests"], (
        f"every request must end in a legal outcome: "
        f"{accounted}/{chaos['n_requests']} accounted"
    )
    assert chaos["slowdown"] <= DEGRADED_BOUND, (
        f"{FAULT_RATE:.0%} transient faults must cost <= "
        f"{DEGRADED_BOUND:.1f}x throughput, measured "
        f"{chaos['slowdown']:.2f}x"
    )
    assert hotpath["disabled_faulty_calls"] == 0, (
        "with FAULTS.active False a store read must not enter the injector "
        f"branch: {hotpath['disabled_faulty_calls']} calls in a burst of "
        f"{hotpath['burst_size']}"
    )
    reads = hotpath["burst_size"]
    assert (hotpath["control_faulty_calls"]
            == hotpath["control_injector_calls"] == reads), (
        "a never-firing injector must be consulted once per read: "
        f"{hotpath['control_faulty_calls']} branch / "
        f"{hotpath['control_injector_calls']} injector calls for {reads} reads"
    )
    assert ckpt["resume_identical"], (
        "kill/resume must reproduce the uninterrupted run bit-for-bit"
    )
    return payload


def test_resilience(benchmark):
    run(smoke=True)

    # pytest-benchmark hook: one warm store read with faults disabled
    # (the hot path the call-count gate protects).
    store = FeatureStore(64, threadsafe=False)
    store.put("ns", 0, 0)
    benchmark(store.get, "ns", 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI (same assertions)",
    )
    args = parser.parse_args(argv)
    payload = run(smoke=args.smoke)
    print(
        f"E32 ok: slowdown under {FAULT_RATE:.0%} faults "
        f"{payload['slowdown']:.2f}x (bound <= {DEGRADED_BOUND:.1f}x), "
        f"disabled path {payload['disabled_faulty_calls']} injector calls "
        f"(overhead {(payload['disabled_overhead'] - 1) * 100:+.2f}%, "
        f"not gated), "
        f"resume bit-identical: {payload['resume_identical']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
