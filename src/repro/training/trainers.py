"""Training loops, one per architectural family, over one epoch protocol.

Every trainer supplies three things — its one-time precompute, a
``train_epoch(opt)`` closure running one epoch's training pass and
returning its mean loss, and a ``logits_for("val" | "test")`` closure —
and hands them to :func:`_fit`, the only epoch loop. Per epoch it runs
the training pass (timed), then validation under ``no_grad``, then
record → finite check → early-stopping update → checkpoint, and finally
restores the best weights for the test accuracy. Adam, cross-entropy on
the train split and early stopping on validation accuracy are shared.
:class:`TrainResult` separates *precompute time* (the one-time
graph-side work of decoupled models) from *training time* — the split
that makes the decoupling speedup of §3.1.2 visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.datasets.synthetic import Split
from repro.errors import ConfigError, DivergenceError
from repro.graph.core import Graph
from repro.obs import OBS
from repro.perf import get_default_cache
from repro.resilience.checkpoint import Checkpointer
from repro.tensor import functional as F
from repro.tensor.autograd import no_grad
from repro.tensor.nn import Module
from repro.tensor.optim import Adam
from repro.training.datapipe import SeedBatcher
from repro.training.metrics import accuracy
from repro.utils.rng import as_rng
from repro.utils.timer import Timer
from repro.utils.validation import check_int_range

_LOG = obs.get_logger("repro.training.trainers")


@dataclass
class TrainResult:
    """Unified training outcome.

    Attributes
    ----------
    test_accuracy, val_accuracy:
        Accuracy of the restored-best model.
    best_epoch:
        Epoch achieving the best validation accuracy.
    precompute_time:
        Seconds of one-time graph-side work (0 for iterative models).
    train_time:
        Seconds of ``model.train()`` plus each epoch's whole training
        pass (batch preparation, sampling and feature gathering when not
        prefetched, per-batch subgraph prepare, forward, backward,
        optimizer step); excludes validation and precompute.
    train_losses, val_accuracies:
        Per-epoch histories.
    operator_cache_hits, operator_cache_misses:
        Shared :class:`repro.perf.OperatorCache` traffic during the
        precompute/prepare phase — a repeat run on the same graph shows
        hits and (near-)zero operator rebuild cost.
    """

    test_accuracy: float
    val_accuracy: float
    best_epoch: int
    precompute_time: float
    train_time: float
    train_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    operator_cache_hits: int = 0
    operator_cache_misses: int = 0


class EarlyStopping:
    """Patience-based early stopping that snapshots the best state dict."""

    def __init__(self, model: Module, patience: int = 20) -> None:
        check_int_range("patience", patience, 1)
        self.model = model
        self.patience = patience
        self.best_metric = -np.inf
        self.best_epoch = -1
        self._best_state: dict | None = None
        self._bad_epochs = 0

    def update(self, metric: float, epoch: int) -> bool:
        """Record ``metric``; return True when training should stop."""
        if metric > self.best_metric:
            self.best_metric = metric
            self.best_epoch = epoch
            self._best_state = self.model.state_dict()
            self._bad_epochs = 0
        else:
            self._bad_epochs += 1
        if self._bad_epochs >= self.patience:
            _LOG.debug(
                "early stop at epoch %d (best %.4f @ epoch %d)",
                epoch, self.best_metric, self.best_epoch,
            )
            return True
        return False

    def restore(self) -> None:
        if self._best_state is not None:
            self.model.load_state_dict(self._best_state)

    def state_dict(self) -> dict:
        """Serializable stopper state (for :class:`Checkpointer`)."""
        return {
            "best_metric": float(self.best_metric),
            "best_epoch": int(self.best_epoch),
            "bad_epochs": int(self._bad_epochs),
            "has_best": self._best_state is not None,
            "best_state": dict(self._best_state or {}),
        }

    def load_state_dict(self, state: dict) -> None:
        self.best_metric = float(state["best_metric"])
        self.best_epoch = int(state["best_epoch"])
        self._bad_epochs = int(state["bad_epochs"])
        self._best_state = (
            dict(state["best_state"]) if state.get("has_best") else None
        )


def _check_inputs(graph: Graph, split: Split, features: bool = True) -> None:
    """Reject unusable inputs before any precompute runs."""
    if features and (graph.x is None or graph.y is None):
        raise ConfigError("graph needs features and labels")
    if graph.y is None:
        raise ConfigError("graph needs labels")
    if len(split.train) == 0:
        raise ConfigError("split.train is empty: there is nothing to train on")


def _slice_embeddings(emb, ids: np.ndarray):
    """Row-slice an embedding array or an aligned list of arrays."""
    if isinstance(emb, list):
        return [e[ids] for e in emb]
    return emb[ids]


def _build_loader(pipe, prefetch_depth: int):
    """Optionally wrap a datapipe in a bounded background prefetcher."""
    if prefetch_depth > 0:
        return pipe.prefetch(depth=prefetch_depth)
    return pipe


def _loader_epoch(loader, forward, n_train: int):
    """``train_epoch`` over a datapipe loader: one optimizer step per
    batch, returning the seed-weighted mean loss."""

    def train_epoch(opt: Adam) -> float:
        epoch_loss = 0.0
        for mb in loader:
            opt.zero_grad()
            loss = F.cross_entropy(forward(mb), mb.y)
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * mb.n_seeds
        return epoch_loss / n_train

    return train_epoch


def _timed_precompute(fn) -> tuple[object, TrainResult]:
    """Run the one-time graph-side step, timing it and counting the shared
    operator-cache traffic it generated. Emits a ``train.stage.precompute``
    span (the propagation engine nests its per-hop kernels underneath).
    Returns ``fn()``'s output and a :class:`TrainResult` carrying the
    precompute fields."""
    before = get_default_cache().stats
    timer = Timer()
    with obs.span("train.stage.precompute") as span:
        with timer:
            out = fn()
        after = get_default_cache().stats
        hits, misses = after.hits - before.hits, after.misses - before.misses
        if span:
            span.set(seconds=timer.elapsed, operator_hits=hits,
                     operator_misses=misses)
    return out, TrainResult(0.0, 0.0, -1, timer.elapsed, 0.0,
                            operator_cache_hits=hits,
                            operator_cache_misses=misses)


def _fit(
    model: Module,
    split: Split,
    y: np.ndarray,
    result: TrainResult,
    train_epoch: Callable[[Adam], float],
    logits_for: Callable[[str], np.ndarray],
    epochs: int,
    lr: float,
    weight_decay: float,
    patience: int,
    checkpointer: Checkpointer | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """The epoch loop every trainer runs (see the module docstring).

    Only ``model.train()`` and ``train_epoch(opt)`` are inside
    ``result.train_time``. With a ``checkpointer`` and
    ``checkpoint_every > 0`` the loop state — model parameters, optimizer
    slots, stopper, histories, the stop decision and, for mini-batch
    loops, the batch-permutation ``rng`` — is saved every N epochs, so
    ``resume=True`` restarts from the newest checkpoint bit-identically.
    """
    opt = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    stopper = EarlyStopping(model, patience=patience)
    start = 0
    if checkpointer is not None and resume and checkpointer.latest() is not None:
        step, state = checkpointer.load()
        model.load_state_dict(state["model"])
        opt.load_state_dict(state["optimizer"])
        stopper.load_state_dict(state["stopper"])
        result.train_losses = [
            float(v) for v in np.atleast_1d(state["train_losses"])
        ]
        result.val_accuracies = [
            float(v) for v in np.atleast_1d(state["val_accuracies"])
        ]
        if rng is not None and "rng_state" in state:
            rng.bit_generator.state = state["rng_state"]
        # A run that had already early-stopped skips the loop entirely:
        # the restored best state carries straight to the test.
        start = epochs if state.get("stopped") else step + 1
        _LOG.info("resumed checkpoint at epoch %d (stopped: %s)",
                  step, bool(state.get("stopped")))

    def accuracy_on(which: str) -> float:
        model.eval()
        with no_grad():
            logits = logits_for(which)
        return accuracy(logits.argmax(axis=1), y[getattr(split, which)])

    train_timer = Timer()
    for epoch in range(start, epochs):
        with obs.span("train.epoch", epoch=epoch) as span:
            with train_timer:
                model.train()
                loss = train_epoch(opt)
            val_acc = accuracy_on("val")
            if OBS.enabled:
                span.set(loss=float(loss), val_acc=float(val_acc))
                OBS.registry.counter("training.epochs").inc()
                OBS.registry.gauge("training.epoch_loss").set(float(loss))
                OBS.registry.gauge("training.val_accuracy").set(float(val_acc))
        if not np.isfinite(loss):
            raise DivergenceError(
                f"training diverged at epoch {epoch}: loss is {loss!r} "
                "(lower the learning rate or clip gradients)"
            )
        result.train_losses.append(float(loss))
        result.val_accuracies.append(val_acc)
        # Update the stopper before checkpointing so the saved state is
        # consistent through this epoch — resuming replays identically.
        stop = stopper.update(val_acc, epoch)
        if (checkpointer is not None and checkpoint_every > 0
                and (epoch + 1) % checkpoint_every == 0):
            state = {
                "model": model.state_dict(),
                "optimizer": opt.state_dict(),
                "stopper": stopper.state_dict(),
                "train_losses": np.asarray(result.train_losses, dtype=np.float64),
                "val_accuracies": np.asarray(result.val_accuracies,
                                             dtype=np.float64),
                # The stop *decision*: a checkpoint landing exactly on the
                # early-stopping epoch must resume straight to the test.
                "stopped": bool(stop),
            }
            if rng is not None:
                state["rng_state"] = rng.bit_generator.state
            checkpointer.save(epoch, state)
        if stop:
            break
    stopper.restore()
    result.test_accuracy = accuracy_on("test")
    result.val_accuracy = stopper.best_metric
    result.best_epoch = stopper.best_epoch
    result.train_time = train_timer.elapsed
    return result


# --------------------------------------------------------------------- #
# Full-batch iterative models (GCN, APPNP, Implicit*)
# --------------------------------------------------------------------- #


def train_full_batch(
    model: Module,
    graph: Graph,
    split: Split,
    epochs: int = 200,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    patience: int = 30,
    checkpointer: Checkpointer | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
) -> TrainResult:
    """Train a model with ``prepare(graph)`` + ``forward(prep, x)``.

    Every epoch runs the graph-coupled forward over all nodes — the cost
    profile the scalable families avoid. With a ``checkpointer`` and
    ``checkpoint_every > 0`` the loop state is persisted every N epochs;
    ``resume=True`` restarts from the newest checkpoint bit-identically.
    """
    _check_inputs(graph, split)
    prep, result = _timed_precompute(lambda: model.prepare(graph))
    x, y, train = graph.x, graph.y, split.train

    def train_epoch(opt: Adam) -> float:
        opt.zero_grad()
        loss = F.cross_entropy(model(prep, x).gather_rows(train), y[train])
        loss.backward()
        opt.step()
        return loss.item()

    return _fit(
        model, split, y, result, train_epoch,
        lambda which: model(prep, x).data[getattr(split, which)],
        epochs, lr, weight_decay, patience,
        checkpointer, checkpoint_every, resume,
    )


# --------------------------------------------------------------------- #
# Decoupled models (SGC, SIGN, SCARA, LD2, SIMGA, GAMLP, SpectralBasis)
# --------------------------------------------------------------------- #


def train_decoupled(
    model: Module,
    graph: Graph,
    split: Split,
    epochs: int = 200,
    batch_size: int = 256,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    patience: int = 30,
    seed=None,
    checkpointer: Checkpointer | None = None,
    checkpoint_every: int = 0,
    resume: bool = False,
    dtype=None,
    prefetch_depth: int = 0,
) -> TrainResult:
    """Precompute-once, then mini-batch MLP training over embedding rows.

    With a ``checkpointer`` and ``checkpoint_every > 0`` the loop state —
    including the batch-permutation RNG — is persisted every N epochs;
    ``resume=True`` restarts from the newest checkpoint bit-identically.
    ``dtype`` (``float32``/``float64``) selects the precision of the
    precomputed embeddings — passed through to ``model.precompute``, so a
    float32 run halves the memory traffic of the propagation step.
    Batches stream through a :mod:`repro.training.datapipe` chain
    (SeedBatcher → FeatureFetcher); ``prefetch_depth > 0`` overlaps the
    embedding-row gather with the optimizer step via a bounded background
    prefetcher — results stay bit-identical because the batch permutation
    is drawn from the same checkpointed RNG stream either way.
    """
    _check_inputs(graph, split, features=False)
    check_int_range("batch_size", batch_size, 1)
    check_int_range("prefetch_depth", prefetch_depth, 0)
    rng = as_rng(seed)
    emb, result = _timed_precompute(
        lambda: model.precompute(graph)
        if dtype is None
        else model.precompute(graph, dtype=dtype)
    )
    # One re-iterable pipe serves every epoch: each iter() draws a fresh
    # permutation from the shared (checkpointed) RNG stream.
    loader = _build_loader(
        SeedBatcher(split.train, batch_size, seed=rng)
        .fetch_features(features=emb, labels=graph.y),
        prefetch_depth,
    )
    rows = {"val": _slice_embeddings(emb, split.val),
            "test": _slice_embeddings(emb, split.test)}
    return _fit(
        model, split, graph.y, result,
        _loader_epoch(loader, lambda mb: model(mb.x), len(split.train)),
        lambda which: model(rows[which]).data,
        epochs, lr, weight_decay, patience,
        checkpointer, checkpoint_every, resume, rng,
    )


# --------------------------------------------------------------------- #
# Sampled mini-batch models (GraphSAGE with any block sampler)
# --------------------------------------------------------------------- #


def train_sampled(
    model,
    graph: Graph,
    split: Split,
    sampler,
    epochs: int = 50,
    batch_size: int = 64,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    patience: int = 15,
    seed=None,
    prefetch_depth: int = 0,
) -> TrainResult:
    """Mini-batch training over sampler blocks; exact full-neighbour eval.

    Batches stream through the shared datapipe chain — ``SeedBatcher →
    SamplePerLayer/CompactPerLayer per hop → FeatureFetcher`` — which is
    bit-identical to calling ``sampler.sample(batch)`` per batch.
    ``prefetch_depth > 0`` overlaps sampling + feature gathering with the
    model's forward/backward via a bounded background prefetcher.

    Validation and test logits come from ``model.forward_full(adj, x,
    rows=split ids)``: exact full-neighbour inference over the split's
    L-hop frontier only, bitwise equal to the whole-graph forward's rows,
    so evaluation costs what the evaluated nodes' neighbourhood costs.
    """
    _check_inputs(graph, split)
    check_int_range("prefetch_depth", prefetch_depth, 0)
    rng = as_rng(seed)
    full_op, result = _timed_precompute(lambda: model.prepare(graph))
    loader = _build_loader(
        SeedBatcher(split.train, batch_size, seed=rng)
        .sample(sampler)
        .fetch_features(features=graph.x, labels=graph.y),
        prefetch_depth,
    )
    return _fit(
        model, split, graph.y, result,
        _loader_epoch(loader, lambda mb: model.forward_blocks(mb.blocks, mb.x),
                      len(split.train)),
        lambda which: model.forward_full(
            full_op, graph.x, getattr(split, which)
        ).data,
        epochs, lr, weight_decay, patience,
    )


# --------------------------------------------------------------------- #
# Subgraph-batch training (Cluster-GCN / GraphSAINT styles)
# --------------------------------------------------------------------- #


def train_subgraph(
    model: Module,
    graph: Graph,
    split: Split,
    batch_fn: Callable[[np.random.Generator], np.ndarray],
    epochs: int = 50,
    batches_per_epoch: int = 4,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    patience: int = 15,
    seed=None,
) -> TrainResult:
    """Train a full-batch model (e.g. GCN) on sampled subgraphs.

    ``batch_fn(rng)`` returns the *global node ids* of one subgraph batch
    (Cluster-GCN partitions, GraphSAINT samples, ...). The loss is taken on
    the training nodes inside each batch; evaluation is exact on the full
    graph.
    """
    _check_inputs(graph, split)
    rng = as_rng(seed)
    full_prep, result = _timed_precompute(lambda: model.prepare(graph))
    y = graph.y
    train_mask = np.zeros(graph.n_nodes, dtype=bool)
    train_mask[split.train] = True

    def train_epoch(opt: Adam) -> float:
        epoch_loss, n_seen = 0.0, 0
        for _ in range(batches_per_epoch):
            nodes = np.asarray(batch_fn(rng), dtype=np.int64)
            local_train = np.flatnonzero(train_mask[nodes])
            if len(local_train) == 0:
                continue
            sub = graph.subgraph(nodes)
            sub_prep = model.prepare(sub)
            opt.zero_grad()
            logits = model(sub_prep, sub.x)
            loss = F.cross_entropy(
                logits.gather_rows(local_train), y[nodes[local_train]]
            )
            loss.backward()
            opt.step()
            epoch_loss += loss.item() * len(local_train)
            n_seen += len(local_train)
        return epoch_loss / max(n_seen, 1)

    return _fit(
        model, split, y, result, train_epoch,
        lambda which: model(full_prep, graph.x).data[getattr(split, which)],
        epochs, lr, weight_decay, patience,
    )


# --------------------------------------------------------------------- #
# PPRGo-style support-batch training
# --------------------------------------------------------------------- #


def train_pprgo(
    model,
    graph: Graph,
    split: Split,
    epochs: int = 100,
    batch_size: int = 128,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    patience: int = 20,
    seed=None,
    prefetch_depth: int = 0,
) -> TrainResult:
    """Train a model whose forward takes node-id batches (PPRGo).

    Seed batches stream through the shared datapipe (the model gathers
    its own PPR supports from the ids, so only labels are fetched);
    ``prefetch_depth > 0`` enables bounded background prefetch.
    """
    _check_inputs(graph, split, features=False)
    check_int_range("prefetch_depth", prefetch_depth, 0)
    rng = as_rng(seed)
    _, result = _timed_precompute(lambda: model.precompute(graph))
    loader = _build_loader(
        SeedBatcher(split.train, batch_size, seed=rng)
        .fetch_features(labels=graph.y),
        prefetch_depth,
    )
    return _fit(
        model, split, graph.y, result,
        _loader_epoch(loader, lambda mb: model(mb.seeds), len(split.train)),
        lambda which: model(getattr(split, which)).data,
        epochs, lr, weight_decay, patience,
    )
