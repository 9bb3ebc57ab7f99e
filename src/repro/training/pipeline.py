"""Device-acceleration simulation (§3.3.2): pipelined sampling + training.

GIDS [1], NeutronOrch [38] and DAHA [22] are systems that overlap CPU-side
sampling/feature loading with GPU-side training and plan which device runs
which stage. With no GPU here, we keep the *scheduling* substance and
simulate the hardware: each mini-batch passes through three stages —

  sample → transfer (gather + host-to-device copy) → train —

and the simulator computes makespans under serial execution vs a pipelined
schedule with a bounded prefetch queue. :func:`plan_execution` is the
DAHA-style cost-model planner: given per-device stage costs it chooses the
placement (and tells you the bottleneck stage), because on a pipeline the
makespan converges to ``n_batches * max(stage times)``.

Stage durations can be synthetic or *measured* from the real samplers and
trainers in this library (benchmark E21 does the latter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ConfigError
from repro.graph.core import Graph
from repro.obs import OBS
from repro.training.trainers import TrainResult, train_decoupled, train_full_batch
from repro.utils.timer import Timer
from repro.utils.validation import check_int_range

_LOG = obs.get_logger("repro.training.pipeline")


@dataclass(frozen=True)
class PipelinePlan:
    """A placement decision with its predicted cost.

    Attributes
    ----------
    sample_device, train_device:
        "cpu" or "gpu" placement per stage.
    predicted_makespan:
        Pipelined makespan under the cost model.
    bottleneck:
        The stage that dominates steady-state throughput.
    """

    sample_device: str
    train_device: str
    predicted_makespan: float
    bottleneck: str


def serial_makespan(stage_times: np.ndarray) -> float:
    """Total time when every batch runs sample→transfer→train serially."""
    stage_times = _check_stages(stage_times)
    return float(stage_times.sum())


def pipelined_makespan(stage_times: np.ndarray, queue_depth: int = 2) -> float:
    """Makespan of a 3-stage pipeline with a bounded prefetch queue.

    Classic list-scheduling recurrence: stage ``s`` of batch ``i`` starts
    when (a) stage ``s-1`` of batch ``i`` is done, (b) stage ``s`` of batch
    ``i-1`` is done, and (c) for the first stage, the queue has a free slot
    (i.e. batch ``i - queue_depth`` has been consumed by stage 2).
    """
    stage_times = _check_stages(stage_times)
    check_int_range("queue_depth", queue_depth, 1)
    n, n_stages = stage_times.shape
    finish = np.zeros((n, n_stages))
    for i in range(n):
        for s in range(n_stages):
            start = 0.0
            if s > 0:
                start = max(start, finish[i, s - 1])
            if i > 0:
                start = max(start, finish[i - 1, s])
            if s == 0 and i >= queue_depth:
                # Can't sample batch i until batch i-queue_depth left queue.
                start = max(start, finish[i - queue_depth, 1])
            finish[i, s] = start + stage_times[i, s]
    return float(finish[-1, -1])


def _check_stages(stage_times) -> np.ndarray:
    arr = np.asarray(stage_times, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ConfigError(
            f"stage_times must be (n_batches, 3) [sample, transfer, train], "
            f"got shape {arr.shape}"
        )
    if np.any(arr < 0):
        raise ConfigError("stage times must be non-negative")
    return arr


class TrainingPipeline:
    """One traced end-to-end training run: precompute → epochs → eval.

    The offline counterpart of :class:`repro.serving.ServingEngine`: it
    wraps any trainer from :mod:`repro.training.trainers` under a root
    ``pipeline.run`` span, so with :func:`repro.obs.configure` enabled a
    single :meth:`run` yields the full nested cost breakdown — the
    ``train.stage.precompute`` stage with its ``perf.propagate`` /
    ``perf.spmm`` kernels underneath, then one ``train.epoch`` span per
    epoch — and publishes summary gauges to the global metrics registry.

    Parameters
    ----------
    model:
        Any model accepted by the chosen trainer.
    trainer:
        A ``trainer(model, graph, split, **kwargs)`` callable; defaults to
        :func:`train_decoupled` when the model exposes ``precompute``
        (the decoupled contract) and :func:`train_full_batch` otherwise.
    checkpointer:
        A :class:`repro.resilience.Checkpointer`; with
        ``checkpoint_every > 0`` it is forwarded to every :meth:`run` so
        the epoch loop persists its state every N epochs and
        ``run(..., resume=True)`` restarts bit-identically.
    **trainer_kwargs:
        Defaults forwarded to every :meth:`run` (overridable per call).
    """

    def __init__(
        self,
        model,
        trainer: Callable[..., TrainResult] | None = None,
        checkpointer=None,
        checkpoint_every: int = 0,
        **trainer_kwargs,
    ) -> None:
        if trainer is None:
            trainer = (
                train_decoupled if hasattr(model, "precompute")
                else train_full_batch
            )
        self.model = model
        self.trainer = trainer
        self.checkpointer = checkpointer
        self.checkpoint_every = int(checkpoint_every)
        self.trainer_kwargs = dict(trainer_kwargs)
        self.result: TrainResult | None = None

    def run(self, graph: Graph, split, **overrides) -> TrainResult:
        """Train ``model`` on ``(graph, split)`` under a root span."""
        kwargs = {**self.trainer_kwargs, **overrides}
        if self.checkpointer is not None and self.checkpoint_every > 0:
            kwargs.setdefault("checkpointer", self.checkpointer)
            kwargs.setdefault("checkpoint_every", self.checkpoint_every)
        trainer_name = getattr(self.trainer, "__name__", type(self.trainer).__name__)
        with obs.span(
            "pipeline.run",
            model=type(self.model).__name__,
            trainer=trainer_name,
            n_nodes=graph.n_nodes,
        ) as span:
            result = self.trainer(self.model, graph, split, **kwargs)
            if span:
                span.set(
                    test_accuracy=result.test_accuracy,
                    best_epoch=result.best_epoch,
                    precompute_s=result.precompute_time,
                    train_s=result.train_time,
                )
        if OBS.enabled:
            registry = OBS.registry
            registry.gauge("training.test_accuracy").set(result.test_accuracy)
            registry.gauge("training.precompute_s").set(result.precompute_time)
            registry.gauge("training.train_s").set(result.train_time)
            stage_hist = registry.histogram("training.stage_s")
            stage_hist.observe(result.precompute_time, stage="precompute")
            stage_hist.observe(result.train_time, stage="train")
        _LOG.info(
            "%s/%s: test_acc=%.4f (precompute %.3fs, train %.3fs, "
            "best epoch %d)",
            type(self.model).__name__, trainer_name, result.test_accuracy,
            result.precompute_time, result.train_time, result.best_epoch,
        )
        self.result = result
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        trainer_name = getattr(self.trainer, "__name__", type(self.trainer).__name__)
        return (
            f"TrainingPipeline(model={type(self.model).__name__}, "
            f"trainer={trainer_name})"
        )


def precompute_stage_profile(
    graph: Graph,
    k_hops: int = 2,
    kind: str = "gcn",
) -> tuple[float, float]:
    """Measured (cold, warm) seconds of the decoupled precompute stage.

    Runs the shared K-hop propagation of :mod:`repro.perf` twice on a
    *fresh* engine + operator cache: the first pass pays operator
    construction and every SpMM (cold), the second is served from the
    cache (warm). Feed the numbers into :func:`plan_execution` /
    :func:`pipelined_makespan` as stage costs — with operator reuse the
    steady-state graph-side cost of a repeat run is the warm figure, which
    is why precompute-sharing systems pipeline so well.

    With :mod:`repro.obs` enabled the same attribution now falls out of
    any real run for free — the ``train.stage.precompute`` span and its
    ``perf.propagate`` children time the actual training workload instead
    of this synthetic double-run. Kept as a lightweight cost-model probe
    for :func:`plan_execution`.
    """
    from repro.perf import OperatorCache, PropagationEngine

    check_int_range("k_hops", k_hops, 0)
    if graph.x is None:
        raise ConfigError("precompute_stage_profile needs node features")
    engine = PropagationEngine(cache=OperatorCache())
    cold, warm = Timer(), Timer()
    with cold:
        engine.propagate(graph, graph.x, k_hops, kind=kind)
    with warm:
        engine.propagate(graph, graph.x, k_hops, kind=kind)
    return cold.elapsed, warm.elapsed


#: How datapipe stage names fold into the 3-stage cost model: seed
#: batching + sampling + compaction are the "sample" stage, the feature
#: gather + finalize (the host-to-device stand-in) are "transfer".
_SAMPLE_STAGES = ("batch", "sample", "compact")
_TRANSFER_STAGES = ("fetch", "finalize")


def measured_stage_times(pipe, train_fn, max_batches: int | None = None) -> np.ndarray:
    """Measure an ``(n_batches, 3)`` stage-time matrix from a real datapipe.

    Drives ``pipe`` (any :mod:`repro.training.datapipe` chain), timing
    ``train_fn(minibatch)`` as the train stage and folding the per-batch
    ``MiniBatch.stage_s`` wall times into the ``[sample, transfer,
    train]`` columns that :func:`serial_makespan`,
    :func:`pipelined_makespan` and :func:`plan_execution` consume — the
    bridge from the *measured* pipeline to the scheduling cost model.
    """
    if max_batches is not None:
        check_int_range("max_batches", max_batches, 1)
    rows = []
    it = iter(pipe)
    try:
        for i, mb in enumerate(it):
            timer = Timer()
            with timer:
                train_fn(mb)
            sample_s = sum(mb.stage_s.get(k, 0.0) for k in _SAMPLE_STAGES)
            transfer_s = sum(mb.stage_s.get(k, 0.0) for k in _TRANSFER_STAGES)
            rows.append((sample_s, transfer_s, timer.elapsed))
            if max_batches is not None and i + 1 >= max_batches:
                break
    finally:
        if hasattr(it, "close"):
            it.close()
    if not rows:
        raise ConfigError("the datapipe yielded no batches to measure")
    return np.asarray(rows, dtype=np.float64)


def plan_execution(
    sample_cost: dict[str, float],
    train_cost: dict[str, float],
    transfer_cost: float,
    n_batches: int,
) -> PipelinePlan:
    """DAHA-style cost-model placement of sampling and training.

    ``sample_cost`` / ``train_cost`` map device name → per-batch seconds.
    Co-locating both stages on one device serialises them (no overlap);
    split placements pipeline, so the steady-state batch cost is the max
    stage time plus the transfer.
    """
    check_int_range("n_batches", n_batches, 1)
    for name, costs in (("sample_cost", sample_cost), ("train_cost", train_cost)):
        if not costs:
            raise ConfigError(f"{name} must name at least one device")
    best: PipelinePlan | None = None
    for s_dev, s_time in sample_cost.items():
        for t_dev, t_time in train_cost.items():
            moved = transfer_cost if s_dev != t_dev else 0.0
            if s_dev == t_dev:
                # Same device: stages serialise.
                per_batch = s_time + t_time
                makespan = n_batches * per_batch
                bottleneck = "colocated"
            else:
                stages = {"sample": s_time, "transfer": moved, "train": t_time}
                bottleneck = max(stages, key=stages.get)
                makespan = (
                    n_batches * max(stages.values())
                    + sum(stages.values())
                    - max(stages.values())
                )
            candidate = PipelinePlan(s_dev, t_dev, makespan, bottleneck)
            if best is None or candidate.predicted_makespan < best.predicted_makespan:
                best = candidate
    return best
