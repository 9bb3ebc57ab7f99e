"""Resilience suite: seeded fault injection, checksummed checkpoints,
circuit breaking, classified retry, degraded serving, and the chaos
hammer — failure as a first-class, testable input.

The chaos test is the capstone: 8 threads fire >=1000 requests at a
ServingRuntime while the injector drops store reads, delays and fails
serving batches, and occasionally raises a permanent fault. The audit
demands that *every* request ends in exactly one legal outcome — a
correct answer, a typed shed, or a classified failure — with zero hangs
and zero wrong answers.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.datasets import contextual_sbm
from repro.distributed import get_backend
from repro.errors import (
    CheckpointError,
    CircuitOpenError,
    ConfigError,
    DivergenceError,
    FaultError,
    GraphError,
    LoadSheddingError,
    ServingError,
    ServingTimeoutError,
    TransientError,
)
from repro.graph import io as gio
from repro.models import GCN, SGC
from repro.resilience import (
    CircuitBreaker,
    Checkpointer,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    classify_error,
    clear_injector,
    inject,
    install_injector,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.resilience.retry import PERMANENT, TRANSIENT
from repro.serving import EmbeddingStore, ServingRuntime
from repro.storage import FeatureStore
from repro.tensor.autograd import Tensor
from repro.training import (
    TrainingPipeline,
    train_decoupled,
    train_full_batch,
)


@pytest.fixture(autouse=True)
def _no_leftover_injector():
    """Every test starts and ends with fault injection disabled."""
    clear_injector()
    yield
    clear_injector()


def _serving_graph(n_nodes=120, seed=7):
    graph, _ = contextual_sbm(
        n_nodes, n_classes=3, homophily=0.8, avg_degree=8,
        n_features=12, feature_signal=1.0, seed=seed,
    )
    return graph


def _train_world(n_nodes=120, seed=7):
    return contextual_sbm(
        n_nodes, n_classes=3, homophily=0.8, avg_degree=8,
        n_features=12, feature_signal=1.0, seed=seed,
    )


class StubModel:
    """Decoupled head returning a deterministic slice of its input."""

    def __init__(self, n_classes=3, fail_times=0, exc=None):
        self.k_hops = 1
        self.n_classes = n_classes
        self.fail_times = fail_times
        self.exc = exc or TransientError("stub transient failure")
        self._lock = threading.Lock()

    def eval(self):
        pass

    def __call__(self, x):
        with self._lock:
            if self.fail_times != 0:
                if self.fail_times > 0:
                    self.fail_times -= 1
                raise self.exc
        return Tensor(np.asarray(x.data)[:, : self.n_classes])


# ====================================================================== #
# FaultInjector
# ====================================================================== #


class TestFaultInjector:
    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="fault kind"):
            FaultSpec("storage.get", "explode")
        with pytest.raises(ConfigError):
            FaultSpec("storage.get", "drop", rate=1.5)
        with pytest.raises(ConfigError, match="after"):
            FaultSpec("storage.get", "drop", after=-1)
        with pytest.raises(ConfigError, match="max_fires"):
            FaultSpec("storage.get", "drop", max_fires=0)

    def test_schedule_is_deterministic(self):
        plan = FaultPlan([FaultSpec("serving.batch", "drop", rate=0.3)])
        a = FaultInjector(plan, seed=42)
        b = FaultInjector(plan, seed=42)
        seq_a = [a.fire("serving.batch") for _ in range(200)]
        seq_b = [b.fire("serving.batch") for _ in range(200)]
        assert seq_a == seq_b
        assert seq_a.count("drop") > 0
        assert seq_a.count(None) > 0
        # A different seed produces a different schedule.
        c = FaultInjector(plan, seed=43)
        assert [c.fire("serving.batch") for _ in range(200)] != seq_a

    def test_rate_is_respected(self):
        plan = FaultPlan([FaultSpec("serving.batch", "drop", rate=0.2)])
        inj = FaultInjector(plan, seed=0)
        fired = sum(
            inj.fire("serving.batch") is not None for _ in range(2000)
        )
        assert 0.12 < fired / 2000 < 0.28

    def test_after_and_max_fires(self):
        plan = FaultPlan(
            [FaultSpec("storage.get", "drop", rate=1.0, after=3, max_fires=2)]
        )
        inj = FaultInjector(plan, seed=1)
        out = [inj.fire("storage.get") for _ in range(8)]
        assert out == [None, None, None, "drop", "drop", None, None, None]

    def test_transient_and_permanent_raise(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec("serving.batch", "transient")]), seed=0
        )
        with pytest.raises(TransientError):
            inj.fire("serving.batch")
        inj = FaultInjector(
            FaultPlan([FaultSpec("serving.batch", "permanent")]), seed=0
        )
        with pytest.raises(FaultError):
            inj.fire("serving.batch")

    def test_delay_sleeps_on_caller(self):
        slept = []
        inj = FaultInjector(
            FaultPlan(
                [FaultSpec("serving.batch", "delay", delay_s=0.25)]
            ),
            seed=0,
            sleep=slept.append,
        )
        assert inj.fire("serving.batch") == "delay"
        assert slept == [0.25]

    def test_corrupt_poisons_copy_not_original(self):
        inj = FaultInjector(FaultPlan([]), seed=3, corrupt_fraction=0.25)
        arr = np.ones((40, 5))
        out = inj.corrupt(arr)
        assert out is not arr
        assert np.isfinite(arr).all()
        n_nan = int(np.isnan(out).sum())
        assert 0 < n_nan < arr.size
        # Non-float payloads pass through untouched.
        assert inj.corrupt("hello") == "hello"

    def test_calls_and_snapshot_account_fires(self):
        plan = FaultPlan([FaultSpec("storage.get", "drop", rate=1.0)])
        inj = FaultInjector(plan, seed=0)
        for _ in range(5):
            inj.fire("storage.get")
        inj.fire("serving.batch")  # un-specced site still counts calls
        assert inj.calls("storage.get") == 5
        assert inj.calls() == 6
        snap = inj.snapshot()
        assert snap["faults_injected"] == 5

    def test_inject_context_manager_and_double_install(self):
        plan = FaultPlan([FaultSpec("storage.get", "drop")])
        with inject(plan, seed=0) as inj:
            with pytest.raises(ConfigError, match="already"):
                install_injector(FaultInjector(plan, seed=1))
            fs = FeatureStore(8)
            fs.put("ns", 1, 123)
            assert fs.get("ns", 1) is None  # dropped read -> miss
            assert inj.calls("storage.get") == 1
        # Cleared on exit: reads work again.
        assert fs.get("ns", 1) == 123


# ====================================================================== #
# Checkpointer
# ====================================================================== #


class TestCheckpointer:
    def _state(self):
        return {
            "model": {
                "lin.weight": np.arange(6, dtype=np.float64).reshape(2, 3),
                "lin.bias": np.zeros(3, dtype=np.float32),
            },
            "epoch": np.array([7]),
        }

    def test_round_trip_is_bit_exact(self, tmp_path):
        ck = Checkpointer(tmp_path)
        ck.save(3, self._state())
        step, state = ck.load()
        assert step == 3
        ref = self._state()
        assert np.array_equal(
            state["model"]["lin.weight"], ref["model"]["lin.weight"]
        )
        assert state["model"]["lin.weight"].dtype == np.float64
        assert state["model"]["lin.bias"].dtype == np.float32
        assert np.array_equal(state["epoch"], ref["epoch"])

    def test_latest_steps_and_pruning(self, tmp_path):
        ck = Checkpointer(tmp_path, keep=2)
        for step in (1, 2, 3):
            ck.save(step, self._state())
        assert ck.steps() == [2, 3]
        assert ck.latest() == ck.path_for(3)
        assert not ck.path_for(1).exists()
        # Atomic writes leave no temp litter behind.
        leftovers = [
            p for p in tmp_path.iterdir() if not p.name.endswith(".npz")
        ]
        assert leftovers == []

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        ck = Checkpointer(tmp_path)
        ck.save(1, self._state())
        path = ck.latest()
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError):
            ck.load()

    def test_missing_checkpoint_raises(self, tmp_path):
        ck = Checkpointer(tmp_path)
        assert ck.latest() is None
        with pytest.raises(CheckpointError):
            ck.load()
        with pytest.raises(CheckpointError):
            ck.load(tmp_path / "ckpt-00000042.npz")

    def test_separator_key_rejected(self, tmp_path):
        ck = Checkpointer(tmp_path)
        with pytest.raises(ConfigError):
            ck.save(1, {"bad/key": np.zeros(2)})


# ====================================================================== #
# Checkpoint / resume determinism
# ====================================================================== #


class TestResumeDeterminism:
    def _assert_same_result(self, full, resumed):
        assert np.array_equal(full.train_losses, resumed.train_losses)
        assert np.array_equal(full.val_accuracies, resumed.val_accuracies)
        assert full.test_accuracy == resumed.test_accuracy
        assert full.best_epoch == resumed.best_epoch

    def test_decoupled_kill_and_resume_is_bit_identical(self, tmp_path):
        graph, split = _train_world()

        def fresh():
            return SGC(
                graph.n_features, graph.n_classes, k_hops=2, seed=11
            )

        kwargs = dict(
            epochs=8, batch_size=48, lr=0.05, patience=100, seed=5
        )
        model_full = fresh()
        full = train_decoupled(model_full, graph, split, **kwargs)

        ck = Checkpointer(tmp_path / "dec")
        model_killed = fresh()
        train_decoupled(
            model_killed, graph, split,
            **{**kwargs, "epochs": 5},
            checkpointer=ck, checkpoint_every=2,
        )
        assert ck.latest() is not None

        model_resumed = fresh()  # brand-new process: fresh weights
        resumed = train_decoupled(
            model_resumed, graph, split, **kwargs,
            checkpointer=ck, checkpoint_every=2, resume=True,
        )
        self._assert_same_result(full, resumed)
        for key, ref in model_full.state_dict().items():
            assert np.array_equal(ref, model_resumed.state_dict()[key])

    def test_full_batch_kill_and_resume_is_bit_identical(self, tmp_path):
        graph, split = _train_world(n_nodes=90, seed=3)

        def fresh():
            # dropout=0: layer-local dropout RNG is not checkpointed, so
            # bit-identical resume is guaranteed for deterministic nets.
            return GCN(
                graph.n_features, 16, graph.n_classes, dropout=0.0, seed=4
            )

        kwargs = dict(epochs=6, lr=0.05, patience=100)
        full = train_full_batch(fresh(), graph, split, **kwargs)

        ck = Checkpointer(tmp_path / "fb")
        train_full_batch(
            fresh(), graph, split, **{**kwargs, "epochs": 3},
            checkpointer=ck, checkpoint_every=1,
        )
        resumed = train_full_batch(
            fresh(), graph, split, **kwargs,
            checkpointer=ck, checkpoint_every=1, resume=True,
        )
        self._assert_same_result(full, resumed)

    def test_resume_when_checkpoint_lands_on_stop_epoch(self, tmp_path):
        # Regression: the checkpoint saved on the early-stopping epoch
        # records the stop decision, so resuming trains zero extra
        # epochs instead of needing stopper.update to fire once more.
        graph, split = _train_world(n_nodes=90, seed=3)

        def fresh():
            return GCN(
                graph.n_features, 16, graph.n_classes, dropout=0.0, seed=4
            )

        ck = Checkpointer(tmp_path / "stop")
        kwargs = dict(epochs=60, lr=0.05, patience=2)
        stopped = train_full_batch(
            fresh(), graph, split, **kwargs,
            checkpointer=ck, checkpoint_every=1,
        )
        assert len(stopped.train_losses) < 60  # early stop actually fired
        resumed = train_full_batch(
            fresh(), graph, split, **kwargs,
            checkpointer=ck, checkpoint_every=1, resume=True,
        )
        assert len(resumed.train_losses) == len(stopped.train_losses)
        self._assert_same_result(stopped, resumed)

    def test_pipeline_threads_checkpointer_through(self, tmp_path):
        graph, split = _train_world(n_nodes=80, seed=9)
        ck = Checkpointer(tmp_path / "pipe")
        pipe = TrainingPipeline(
            SGC(graph.n_features, graph.n_classes, k_hops=2, seed=1),
            train_decoupled,
            epochs=4, batch_size=32, patience=100, seed=2,
            checkpointer=ck, checkpoint_every=2,
        )
        pipe.run(graph, split)
        assert ck.latest() is not None
        assert ck.steps() == [1, 3]


# ====================================================================== #
# Divergence detection
# ====================================================================== #


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestDivergenceError:
    def test_full_batch_absurd_lr_raises_with_epoch(self):
        graph, split = _train_world(n_nodes=80, seed=2)
        model = GCN(graph.n_features, 16, graph.n_classes, dropout=0.0, seed=0)
        # lr=1e200 pushes both layers to ~1e200; their product overflows
        # float64 on the next forward, so the loss goes non-finite fast.
        with pytest.raises(DivergenceError, match=r"diverged at epoch \d+"):
            train_full_batch(
                model, graph, split, epochs=60, lr=1e200, weight_decay=0.0
            )

    def test_decoupled_absurd_lr_raises(self):
        graph, split = _train_world(n_nodes=80, seed=2)
        model = SGC(
            graph.n_features, graph.n_classes, k_hops=2, hidden=16, seed=0
        )
        with pytest.raises(DivergenceError, match="diverged at epoch"):
            train_decoupled(
                model, graph, split, epochs=60, lr=1e200,
                weight_decay=0.0, seed=1,
            )


# ====================================================================== #
# CircuitBreaker
# ====================================================================== #


class TestCircuitBreaker:
    def _breaker(self, clk, **kw):
        defaults = dict(
            failure_threshold=0.5, window=4, min_calls=2,
            cooldown_s=5.0, clock=lambda: clk[0],
        )
        defaults.update(kw)
        return CircuitBreaker(**defaults)

    def test_state_machine_full_cycle(self):
        clk = [0.0]
        b = self._breaker(clk)
        assert b.state == CLOSED and b.allow()
        b.record_failure()
        assert b.state == CLOSED  # min_calls not reached
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()
        clk[0] = 6.0  # past cooldown: probes allowed
        assert b.state == HALF_OPEN
        assert b.allow()       # the single half-open probe
        assert not b.allow()   # second concurrent probe refused
        b.record_success()
        assert b.state == CLOSED
        assert b.allow()

    def test_probe_failure_reopens(self):
        clk = [0.0]
        b = self._breaker(clk)
        b.record_failure()
        b.record_failure()
        clk[0] = 6.0
        assert b.allow()
        b.record_failure()
        assert b.state == OPEN
        assert not b.allow()

    def test_release_probe_returns_half_open_slot(self):
        clk = [0.0]
        b = self._breaker(clk)
        b.record_failure()
        b.record_failure()
        clk[0] = 6.0
        assert b.allow()        # consumes the only half-open probe
        assert not b.allow()
        b.release_probe()       # admitted call never reached the backend
        assert b.allow()        # the slot is available again
        b.record_success()
        assert b.state == CLOSED
        # No-op outside half-open: the probe budget never underflows.
        b.release_probe()
        assert b.allow()

    def test_min_calls_guards_cold_start(self):
        clk = [0.0]
        b = self._breaker(clk, min_calls=10)
        for _ in range(5):
            b.record_failure()
        assert b.state == CLOSED

    def test_successes_keep_rate_below_threshold(self):
        clk = [0.0]
        b = self._breaker(clk, window=10, min_calls=4)
        for _ in range(7):
            b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED  # 2/9 < 0.5
        snap = b.snapshot()
        assert snap["window_calls"] == 9
        assert snap["state"] == 0


# ====================================================================== #
# RetryPolicy / error classification
# ====================================================================== #


class TestRetryPolicy:
    def test_classification(self):
        assert classify_error(TransientError("x")) == TRANSIENT
        assert classify_error(CircuitOpenError("x")) == TRANSIENT
        assert classify_error(RuntimeError("x")) == PERMANENT
        assert classify_error(ServingError("x")) == PERMANENT

        class Flagged(Exception):
            transient = True

        assert classify_error(Flagged()) == TRANSIENT

    def test_should_retry_bounds(self):
        pol = RetryPolicy(max_retries=2, seed=0, sleep=lambda s: None)
        err = TransientError("x")
        assert pol.should_retry(err, 0)
        assert pol.should_retry(err, 1)
        assert not pol.should_retry(err, 2)
        assert not pol.should_retry(ServingError("x"), 0)

    def test_delay_exponential_with_bounded_jitter(self):
        pol = RetryPolicy(
            max_retries=8, base_delay_s=0.01, max_delay_s=0.05,
            jitter=0.5, seed=7,
        )
        first = []
        for k in range(1, 9):
            nominal = min(0.01 * 2 ** (k - 1), 0.05)
            d = pol.delay_s(k)
            assert 0.5 * nominal <= d <= 1.5 * nominal
            first.append(d)
        # Seeded: a same-seed policy replays the exact jitter sequence
        # (each draw advances the policy's RNG, so compare fresh-to-fresh).
        again = RetryPolicy(
            max_retries=8, base_delay_s=0.01, max_delay_s=0.05,
            jitter=0.5, seed=7,
        )
        assert [again.delay_s(k) for k in range(1, 9)] == first

    def test_worst_delay_is_a_deterministic_upper_bound(self):
        pol = RetryPolicy(
            max_retries=8, base_delay_s=0.01, max_delay_s=0.05,
            jitter=0.5, seed=3,
        )
        for k in range(1, 9):
            nominal = min(0.01 * 2 ** (k - 1), 0.05)
            # Exact formula, and it never consumes jitter randomness.
            assert pol.worst_delay_s(k) == pytest.approx(nominal * 1.5)
            assert pol.delay_s(k) <= pol.worst_delay_s(k)
        # Interleaving worst_delay_s calls must not perturb the seeded
        # jitter schedule.
        fresh = RetryPolicy(
            max_retries=8, base_delay_s=0.01, max_delay_s=0.05,
            jitter=0.5, seed=3,
        )
        assert [fresh.delay_s(k) for k in range(1, 9)] != []

    def test_should_retry_respects_deadline(self):
        pol = RetryPolicy(
            max_retries=5, base_delay_s=0.1, max_delay_s=1.0,
            jitter=0.5, seed=0, sleep=lambda s: None,
        )
        err = TransientError("x")
        # worst_delay_s(1) = 0.15: plenty of budget -> retry.
        assert pol.should_retry(err, 0, remaining_s=10.0)
        # Budget smaller than the worst-case backoff -> give up now.
        assert not pol.should_retry(err, 0, remaining_s=0.1)
        # Deadline already blown -> never retry.
        assert not pol.should_retry(err, 0, remaining_s=0.0)
        # No deadline: old behaviour unchanged.
        assert pol.should_retry(err, 0)

    def test_backoff_never_sleeps_past_deadline(self):
        slept = []
        pol = RetryPolicy(
            max_retries=5, base_delay_s=0.2, max_delay_s=1.0,
            jitter=0.0, seed=0, sleep=slept.append,
        )
        assert pol.backoff(1, remaining_s=0.05) == 0.0
        assert slept == []  # skipped entirely, not truncated
        assert pol.backoff(1, remaining_s=10.0) == pytest.approx(0.2)
        assert slept == [pytest.approx(0.2)]


# ====================================================================== #
# ServingRuntime: fail-fast, breaker, stale fallback
# ====================================================================== #


class TestServingDegradation:
    def test_permanent_error_fails_fast_with_zero_retries(self):
        graph = _serving_graph(n_nodes=60)
        model = StubModel(fail_times=-1, exc=ServingError("bad weights"))
        rt = ServingRuntime(n_workers=1, max_retries=3, breaker_factory=None)
        rt.register("bad", model, graph)
        try:
            with pytest.raises(ServingError, match="bad weights"):
                rt.predict(0, timeout_s=10.0)
            snap = rt.snapshot()
            assert snap["retries"] == 0
            assert snap["failed_fast"] == 1
        finally:
            rt.close()

    def test_transient_errors_are_retried(self):
        graph = _serving_graph(n_nodes=60)
        model = StubModel(fail_times=2)
        rt = ServingRuntime(
            n_workers=1,
            retry_policy=RetryPolicy(
                max_retries=3, base_delay_s=0.0001, seed=0
            ),
        )
        rt.register("flaky", model, graph)
        try:
            result = rt.predict(0, timeout_s=10.0)
            assert result.ok and not result.degraded
            assert rt.snapshot()["retries"] == 2
        finally:
            rt.close()

    def test_breaker_opens_and_serves_stale_rows(self):
        graph = _serving_graph(n_nodes=60)
        model = StubModel()
        rt = ServingRuntime(
            n_workers=1,
            max_retries=0,
            breaker_kwargs=dict(
                failure_threshold=0.5, window=4, min_calls=2,
                cooldown_s=60.0,
            ),
            store=EmbeddingStore(ttl_s=0.05, threadsafe=True),
        )
        key = rt.register("m", model, graph)
        try:
            fresh = rt.predict(5, timeout_s=10.0)
            assert fresh.ok and not fresh.degraded
            time.sleep(0.1)  # the row TTL-expires but stays resident
            model.fail_times = -1  # model goes down hard
            # One failure after the earlier success hits rate 0.5 over
            # min_calls=2 -> the breaker opens immediately.
            with pytest.raises(TransientError):
                rt.predict(1, timeout_s=10.0)
            assert rt.breaker(key).state == OPEN
            # Expired row served as a flagged degraded answer.
            stale = rt.predict(5, timeout_s=10.0)
            assert stale.degraded and stale.ok and stale.cached
            assert stale.prediction == fresh.prediction
            # No resident row -> typed rejection, not a hang.
            with pytest.raises(CircuitOpenError, match="open"):
                rt.predict(40, timeout_s=10.0)
            snap = rt.snapshot()
            assert snap["degraded_responses"] == 1
            assert snap["breakers_open"] == 1
        finally:
            rt.close()

    def test_store_hit_probe_does_not_wedge_half_open_breaker(self):
        # Regression: a half-open probe slot consumed at admission by a
        # request that then resolves as a store hit must be handed back,
        # or a 1-probe breaker rejects live traffic forever even after
        # the backend recovers.
        graph = _serving_graph(n_nodes=60)
        clk = [0.0]
        model = StubModel()
        rt = ServingRuntime(
            n_workers=1,
            max_retries=0,
            breaker_kwargs=dict(
                failure_threshold=0.5, window=4, min_calls=2,
                cooldown_s=60.0, clock=lambda: clk[0],
            ),
            store=EmbeddingStore(threadsafe=True),
        )
        key = rt.register("m", model, graph)
        try:
            fresh = rt.predict(5, timeout_s=10.0)
            assert fresh.ok
            model.fail_times = -1
            with pytest.raises(TransientError):
                rt.predict(1, timeout_s=10.0)
            assert rt.breaker(key).state == OPEN
            clk[0] = 120.0  # past cooldown: half-open, one probe slot
            hit = rt.predict(5, timeout_s=10.0)  # resolves in the store
            assert hit.ok and hit.cached and not hit.degraded
            model.fail_times = 0  # backend recovered
            probe = rt.predict(2, timeout_s=10.0)  # must get the probe
            assert probe.ok and not probe.degraded
            assert rt.breaker(key).state == CLOSED
        finally:
            rt.close()

    def test_stale_fallback_can_be_disabled(self):
        graph = _serving_graph(n_nodes=60)
        model = StubModel()
        rt = ServingRuntime(
            n_workers=1,
            max_retries=0,
            breaker_kwargs=dict(
                failure_threshold=0.5, window=4, min_calls=2,
                cooldown_s=60.0,
            ),
            stale_fallback=False,
            store=EmbeddingStore(ttl_s=0.05, threadsafe=True),
        )
        rt.register("m", model, graph)
        try:
            rt.predict(5, timeout_s=10.0)
            time.sleep(0.1)
            model.fail_times = -1
            with pytest.raises(TransientError):
                rt.predict(1, timeout_s=10.0)
            with pytest.raises(CircuitOpenError):
                rt.predict(5, timeout_s=10.0)
        finally:
            rt.close()

    def test_feature_store_stale_read_semantics(self):
        clk = [0.0]
        fs = FeatureStore(8, ttl_s=10.0, clock=lambda: clk[0])
        fs.put("ns", 1, 42)
        clk[0] = 20.0
        # get_stale serves the expired-but-resident row without evicting;
        # a regular get then expires (and evicts) it.
        assert fs.get_stale("ns", 1) == 42
        assert fs.stale_hits == 1
        assert fs.get("ns", 1) is None
        assert fs.get_stale("ns", 1) is None


# ====================================================================== #
# Distributed fault tolerance
# ====================================================================== #


class TestDistributedFaults:
    """Each rank consults its own injector (``fault_seed + rank``) at
    ``training.worker_step``, once per round."""

    def _world(self):
        graph, split = _train_world(n_nodes=90, seed=5)
        assignment = np.arange(graph.n_nodes) % 2
        return graph, split, assignment

    def _run(self, plan=None, epochs=3):
        graph, split, assignment = self._world()
        return get_backend("simulated").run(
            graph, split, assignment, 2, epochs=epochs, hidden=8, seed=1,
            fault_plan=plan, fault_seed=0,
        )

    def test_reweight_survives_worker_crash(self):
        # Each rank crashes once, in round 0: that round keeps the
        # starting parameters, the next rounds train from them.
        res = self._run(FaultPlan(
            [FaultSpec("training.worker_step", "transient", max_fires=1)]
        ))
        assert res.recovery == "reweight"
        assert res.worker_failures == 2
        assert res.degraded_rounds == 1
        assert res.sync_rounds == 3
        assert 0.0 <= res.test_accuracy <= 1.0

    def test_dropped_update_counts_as_failure(self):
        res = self._run(FaultPlan(
            [FaultSpec("training.worker_step", "drop", max_fires=2)]
        ))
        assert res.worker_failures == 4
        assert res.degraded_rounds == 2

    def test_straggler_events_are_counted(self):
        # A straggler delays the barrier but loses nothing: the run
        # ends on the unfaulted run's parameters.
        res = self._run(FaultPlan(
            [
                FaultSpec(
                    "training.worker_step", "delay",
                    delay_s=0.001, max_fires=3,
                )
            ]
        ), epochs=4)
        assert res.straggler_events == 6
        assert res.worker_failures == 0 and res.degraded_rounds == 0
        assert res.param_checksum == self._run(epochs=4).param_checksum

    def test_global_injector_is_not_consulted(self):
        # Ranks fire only their own injectors, as spawned workers do; a
        # process-wide plan at the same site changes nothing.
        plan = FaultPlan([FaultSpec("training.worker_step", "transient")])
        with inject(plan, seed=0):
            res = self._run()
        assert res.worker_failures == 0
        assert res.param_checksum == self._run().param_checksum


# ====================================================================== #
# Graph IO hardening
# ====================================================================== #


class TestGraphIOHardening:
    def test_garbage_npz_names_path(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(GraphError, match="junk.npz"):
            gio.load_npz(path)

    def test_missing_arrays_named(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, indptr=np.array([0, 1]), something=np.zeros(3))
        with pytest.raises(GraphError, match="missing required arrays"):
            gio.load_npz(path)

    def test_out_of_range_edge_indices_rejected(self, tmp_path):
        path = tmp_path / "bad_edges.npz"
        np.savez(
            path,
            indptr=np.array([0, 1, 2], dtype=np.int64),
            indices=np.array([1, 99], dtype=np.int64),  # node 99 of 2
            weights=np.ones(2),
        )
        with pytest.raises(GraphError, match=r"\[0, 2\)"):
            gio.load_npz(path)

    def test_nonexistent_npz(self, tmp_path):
        with pytest.raises(GraphError, match="does not exist"):
            gio.load_npz(tmp_path / "nope.npz")

    def test_malformed_edge_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\nnot an edge\n", encoding="utf-8")
        with pytest.raises(GraphError, match=r"edges\.txt:2"):
            gio.load_edge_list(path)

    def test_edge_list_out_of_range_node(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 7\n", encoding="utf-8")
        with pytest.raises(GraphError, match="declares only 4 nodes"):
            gio.load_edge_list(path, n_nodes=4)

    def test_missing_edge_list(self, tmp_path):
        with pytest.raises(GraphError, match="cannot read"):
            gio.load_edge_list(tmp_path / "void.txt")

    def test_round_trip_still_works(self, tmp_path):
        graph = _serving_graph(n_nodes=40)
        path = tmp_path / "ok.npz"
        gio.save_npz(graph, path)
        back = gio.load_npz(path)
        assert back.n_nodes == graph.n_nodes
        assert np.array_equal(back.indices, graph.indices)


# ====================================================================== #
# Chaos hammer
# ====================================================================== #


class TestChaosHammer:
    N_THREADS = 8
    N_REQUESTS = 130  # 8 * 130 = 1040 >= 1000

    def test_every_request_ends_in_exactly_one_legal_outcome(self):
        graph = _serving_graph(n_nodes=150, seed=13)
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=3)
        rng_nodes = np.random.default_rng(0)

        # Ground truth from an identical fault-free runtime first.
        oracle = ServingRuntime(n_workers=2, early_exit=False)
        oracle.register("sgc", model, graph)
        expected = {
            node: oracle.predict(node, timeout_s=30.0).prediction
            for node in range(graph.n_nodes)
        }
        oracle.close()

        rt = ServingRuntime(
            n_workers=4,
            early_exit=False,
            retry_policy=RetryPolicy(
                max_retries=2, base_delay_s=0.0005, max_delay_s=0.005,
                jitter=0.5, seed=0,
            ),
            breaker_kwargs=dict(
                failure_threshold=0.6, window=20, min_calls=8,
                cooldown_s=0.02,
            ),
        )
        rt.register("sgc", model, graph)

        plan = FaultPlan(
            [
                FaultSpec("serving.batch", "transient", rate=0.08),
                FaultSpec("serving.batch", "delay", rate=0.05,
                          delay_s=0.001),
                FaultSpec("serving.batch", "permanent", rate=0.01),
                FaultSpec("storage.get", "drop", rate=0.05),
            ]
        )

        outcomes: list[tuple[str, int, object]] = []
        collect = threading.Lock()
        start = threading.Barrier(self.N_THREADS)

        def producer(tid):
            rng = np.random.default_rng(100 + tid)
            local = []
            start.wait()
            for _ in range(self.N_REQUESTS):
                node = int(rng.integers(0, graph.n_nodes))
                try:
                    result = rt.predict(node, timeout_s=30.0)
                    local.append(("ok", node, result))
                except LoadSheddingError:
                    local.append(("shed", node, None))
                except CircuitOpenError:
                    local.append(("rejected", node, None))
                except TransientError:
                    local.append(("transient", node, None))
                except FaultError:
                    local.append(("permanent", node, None))
                except ServingTimeoutError:  # a hang: always a bug
                    local.append(("timeout", node, None))
                except Exception as exc:  # noqa: BLE001 - audit catches
                    local.append(("unexpected", node, exc))
            with collect:
                outcomes.extend(local)

        with inject(plan, seed=99) as inj:
            threads = [
                threading.Thread(target=producer, args=(tid,))
                for tid in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads), "hung producer"
            rt.close()

        total = self.N_THREADS * self.N_REQUESTS
        assert len(outcomes) == total  # every request answered exactly once
        kinds = {}
        for kind, _, _ in outcomes:
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds.get("timeout", 0) == 0
        assert kinds.get("unexpected", 0) == 0, [
            o for o in outcomes if o[0] == "unexpected"
        ][:3]
        # Zero wrong answers: every "ok" (fresh, cached, or degraded)
        # matches the fault-free oracle — corrupt/drop faults may slow
        # or fail a request but never falsify one.
        for kind, node, result in outcomes:
            if kind == "ok":
                assert result.prediction == expected[node], (
                    f"wrong answer for node {node}"
                )
        # The chaos actually happened.
        assert inj.calls("serving.batch") > 0
        assert inj.snapshot()["faults_injected"] > 0
        snap = rt.snapshot()
        assert snap["pending_futures"] == 0
        assert snap["closed"] == 1.0
        # Sanity: most requests still succeed at these fault rates.
        assert kinds.get("ok", 0) > total * 0.5


class TestCheckpointNamespaces:
    """Concurrent writers on one checkpoint root, isolated by namespace."""

    def _state(self, tag):
        return {"model": {"w": np.full(4, float(tag))}}

    def test_two_writers_prune_only_their_own(self, tmp_path):
        w0 = Checkpointer(tmp_path, keep=2, namespace="rank0")
        w1 = Checkpointer(tmp_path, keep=2, namespace="rank1")
        # Interleaved saves, as two concurrent workers would produce.
        for step in range(1, 6):
            w0.save(step, self._state(0))
            w1.save(step, self._state(1))
        # Keep-N pruning acted per namespace, never across.
        assert w0.steps() == [4, 5]
        assert w1.steps() == [4, 5]
        for name in ("rank0", "rank1"):
            files = sorted((tmp_path / name).glob("ckpt-*.npz"))
            assert len(files) == 2
        # Nothing leaked into the shared root itself.
        assert list(tmp_path.glob("ckpt-*.npz")) == []

    def test_writers_load_their_own_state(self, tmp_path):
        root = Checkpointer(tmp_path, keep=2)
        w0 = root.scoped("rank0")
        w1 = root.scoped("rank1")
        w0.save(1, self._state(0))
        w1.save(1, self._state(1))
        step0, state0 = w0.load()
        step1, state1 = w1.load()
        assert step0 == step1 == 1
        assert np.all(state0["model"]["w"] == 0.0)
        assert np.all(state1["model"]["w"] == 1.0)
        assert w0.directory == tmp_path / "rank0"
        assert w1.directory == tmp_path / "rank1"

    def test_namespace_must_be_bare_directory_name(self, tmp_path):
        with pytest.raises(ConfigError):
            Checkpointer(tmp_path, namespace="a/b")
        with pytest.raises(ConfigError):
            Checkpointer(tmp_path, namespace="")
