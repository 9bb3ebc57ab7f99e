"""Trainers, metrics, early stopping, and the training datapipe.

One trainer per architectural family (full-batch, decoupled, sampled,
subgraph, PPRGo-style support batches) so that every model in
:mod:`repro.models` has a ready-made training loop, all reporting the same
:class:`TrainResult` for apples-to-apples benchmarking.
"""

from repro.training.compensated import train_clustergcn_compensated
from repro.training.datapipe import (
    CompactPerLayer,
    DataPipe,
    FeatureFetcher,
    MiniBatch,
    PrefetchIterator,
    Prefetcher,
    SamplePerLayer,
    SeedBatcher,
    ToDevice,
    iterate_batches,
)
from repro.training.metrics import accuracy, confusion_matrix, latency_summary, macro_f1
from repro.training.pipeline import (
    PipelinePlan,
    TrainingPipeline,
    measured_stage_times,
    pipelined_makespan,
    plan_execution,
    precompute_stage_profile,
    serial_makespan,
)
from repro.training.trainers import (
    EarlyStopping,
    TrainResult,
    train_decoupled,
    train_full_batch,
    train_pprgo,
    train_sampled,
    train_subgraph,
)

__all__ = [
    "accuracy",
    "macro_f1",
    "latency_summary",
    "confusion_matrix",
    "TrainResult",
    "EarlyStopping",
    "train_full_batch",
    "train_decoupled",
    "train_sampled",
    "train_subgraph",
    "train_pprgo",
    "train_clustergcn_compensated",
    "PipelinePlan",
    "TrainingPipeline",
    "serial_makespan",
    "pipelined_makespan",
    "plan_execution",
    "precompute_stage_profile",
    "measured_stage_times",
    "MiniBatch",
    "DataPipe",
    "SeedBatcher",
    "iterate_batches",
    "SamplePerLayer",
    "CompactPerLayer",
    "FeatureFetcher",
    "ToDevice",
    "Prefetcher",
    "PrefetchIterator",
]
