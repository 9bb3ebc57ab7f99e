"""Simulated distributed GNN training over graph partitions (§3.4.3).

Real distributed stacks (ByteGNN, SANCUS, G3, ...) are multi-machine
systems; what the tutorial's partitioning argument actually concerns is the
*communication volume* induced by the partition quality. This simulation
preserves exactly that quantity:

* each worker owns one partition and trains a local GCN on the induced
  subgraph (cross-partition edges are unavailable locally),
* each round the workers' parameters are averaged (synchronous data
  parallelism),
* communication is accounted analytically: halo feature exchange is
  ``cross-partition arcs × feature dim`` floats per epoch (what an exact
  system would ship), parameter synchronisation is ``2 × n_params`` floats
  per worker per round.

Better partitioners ⇒ fewer cross-partition arcs ⇒ less communication —
the claim benchmark E12 measures.

:class:`repro.distributed.ProcessBackend` runs partition-parallel
training for real, but on *halo-augmented* shards (ghost rows shipped
each round) rather than induced subgraphs, so it trains a different
model. What the two share is the communication accounting above and
the averaging rule (weights = local train-node counts, renormalised
over contributors); the result type is the same
:class:`~repro.distributed.BackendResult`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datasets.synthetic import Split
from repro.distributed.backend import BackendResult
from repro.editing.partition import check_assignment
from repro.errors import ConfigError, FaultError, TransientError
from repro.graph.core import Graph
from repro.models.gcn import GCN
from repro.resilience.faults import FAULTS
from repro.tensor import functional as F
from repro.tensor.autograd import no_grad
from repro.tensor.optim import Adam
from repro.training.metrics import accuracy
from repro.utils.rng import as_rng, split_rng
from repro.utils.validation import check_int_range


def _cluster_state(averaged: dict, workers: list[dict]) -> dict:
    """Full cluster snapshot for checkpoint-restart: the averaged model
    plus each worker's optimizer slots and dropout RNG stream. Rolling
    back parameters alone would keep Adam moments (and RNG draws)
    accumulated during the discarded rounds, so the recovered trajectory
    would diverge from one that never left the checkpoint."""
    state: dict = {"model": dict(averaged)}
    for p, w in enumerate(workers):
        worker_state: dict = {"optimizer": w["opt"].state_dict()}
        dropout = w["model"].dropout
        if dropout is not None:
            worker_state["rng_state"] = dropout._rng.bit_generator.state
        state[f"worker_{p}"] = worker_state
    return state


def _restore_cluster(state: dict, workers: list[dict]) -> dict:
    """Roll every worker back to a :func:`_cluster_state` snapshot;
    returns the checkpointed averaged parameters. Model-only checkpoints
    (older format) restore parameters and leave the rest untouched."""
    averaged = state["model"]
    for p, w in enumerate(workers):
        w["model"].load_state_dict(averaged)
        worker_state = state.get(f"worker_{p}")
        if worker_state is None:
            continue
        w["opt"].load_state_dict(worker_state.get("optimizer", {}))
        dropout = w["model"].dropout
        if dropout is not None and "rng_state" in worker_state:
            dropout._rng.bit_generator.state = worker_state["rng_state"]
    return averaged


def simulate_distributed_training(
    graph: Graph,
    split: Split,
    assignment: np.ndarray,
    n_parts: int,
    epochs: int = 50,
    hidden: int = 32,
    lr: float = 0.01,
    weight_decay: float = 5e-4,
    seed=None,
    checkpointer=None,
    checkpoint_every: int = 0,
    recovery: str = "reweight",
) -> BackendResult:
    """Run synchronous partition-parallel GCN training (simulated).

    Fault tolerance: each worker's round-step passes through the
    ``"training.worker_step"`` fault site. A crash (raise/drop/corrupt)
    removes that worker's contribution for the round; a ``delay`` fault
    models a straggler (the barrier waits, the event is counted). Two
    recovery policies:

    * ``"reweight"`` — the surviving workers' parameters are averaged
      with weights renormalised over the survivors; failed workers
      rejoin from the averaged state next round.
    * ``"restart"`` — any failure rolls the whole cluster back to the
      last checkpoint (requires ``checkpointer``; falls back to
      reweighting while no checkpoint exists yet).

    With ``checkpointer`` and ``checkpoint_every > 0`` the full cluster
    state — averaged model, per-worker optimizer slots, and per-worker
    RNG streams — is persisted every N rounds, so a rollback resumes
    the exact trajectory the checkpoint froze.
    """
    if graph.x is None or graph.y is None:
        raise ConfigError("graph needs features and labels")
    check_int_range("n_parts", n_parts, 2)
    if recovery not in ("reweight", "restart"):
        raise ConfigError(
            f"recovery must be 'reweight' or 'restart', got {recovery!r}"
        )
    if recovery == "restart" and checkpointer is None:
        raise ConfigError("recovery='restart' needs a checkpointer")
    assignment = check_assignment(graph, assignment, n_parts)
    start = time.monotonic()
    rng = as_rng(seed)
    worker_rngs = split_rng(rng, n_parts)

    edges = graph.edge_array()
    cross_arcs = int(np.sum(assignment[edges[:, 0]] != assignment[edges[:, 1]]))
    feature_dim = graph.x.shape[1]

    # Build one local world per worker.
    train_mask = np.zeros(graph.n_nodes, dtype=bool)
    train_mask[split.train] = True
    workers = []
    for p in range(n_parts):
        nodes = np.flatnonzero(assignment == p)
        sub = graph.subgraph(nodes)
        local_train = np.flatnonzero(train_mask[nodes])
        model = GCN(
            feature_dim, hidden, graph.n_classes, n_layers=2,
            dropout=0.3, seed=worker_rngs[p],
        )
        workers.append(
            {
                "model": model,
                "prep": GCN.prepare(sub),
                "sub": sub,
                "train_ids": local_train,
                "opt": Adam(model.parameters(), lr=lr, weight_decay=weight_decay),
            }
        )
    n_params = workers[0]["model"].n_parameters()
    # Start all workers from identical weights.
    shared = workers[0]["model"].state_dict()
    for w in workers[1:]:
        w["model"].load_state_dict(shared)

    if not any(len(w["train_ids"]) for w in workers):
        raise ConfigError("no partition contains any training node")

    worker_failures = 0
    straggler_events = 0
    degraded_rounds = 0
    checkpoint_restores = 0
    averaged = shared
    for round_no in range(epochs):
        failed: set[int] = set()
        for p, w in enumerate(workers):
            if len(w["train_ids"]) == 0:
                continue
            # Fault site "training.worker_step": a raise models a worker
            # crash, drop/corrupt a lost or discarded update, delay a
            # straggler the synchronous barrier has already waited out.
            action = None
            # Load the injector once: a concurrent clear_injector()
            # nulls FAULTS.injector after dropping FAULTS.active.
            inj = FAULTS.injector if FAULTS.active else None
            if inj is not None:
                try:
                    action = inj.fire("training.worker_step")
                except (TransientError, FaultError):
                    worker_failures += 1
                    failed.add(p)
                    continue
            if action == "delay":
                straggler_events += 1
            model = w["model"]
            model.train()
            w["opt"].zero_grad()
            logits = model(w["prep"], w["sub"].x)
            loss = F.cross_entropy(
                logits.gather_rows(w["train_ids"]), w["sub"].y[w["train_ids"]]
            )
            loss.backward()
            w["opt"].step()
            if action in ("drop", "corrupt"):
                # The step ran but its result never reached (or failed
                # integrity checks at) the parameter server.
                worker_failures += 1
                failed.add(p)
        if failed:
            degraded_rounds += 1
            if recovery == "restart" and checkpointer.latest() is not None:
                # Synchronous rollback: the round is discarded and every
                # worker restarts from the last checkpointed cluster
                # state (parameters, optimizer slots, RNG streams).
                _, state = checkpointer.load()
                averaged = _restore_cluster(state, workers)
                checkpoint_restores += 1
                continue
        # Synchronous parameter averaging, weighted by local train-node
        # count: a worker that owns no (or few) training nodes carries
        # no (or little) gradient signal, and equal-weight averaging
        # would dilute the update under unbalanced partitions. Failed
        # workers are excluded and the weights renormalised over the
        # survivors; with no survivors the round is skipped entirely.
        states = [w["model"].state_dict() for w in workers]
        weights = np.array(
            [
                0.0 if p in failed else len(w["train_ids"])
                for p, w in enumerate(workers)
            ],
            dtype=np.float64,
        )
        total = weights.sum()
        if total == 0:
            # Every contributing worker failed this round: keep the
            # previous synchronised parameters and move on.
            for w in workers:
                w["model"].load_state_dict(averaged)
            continue
        weights /= total
        averaged = {
            key: sum(wt * s[key] for wt, s in zip(weights, states))
            for key in states[0]
        }
        for w in workers:
            w["model"].load_state_dict(averaged)
        if (
            checkpointer is not None
            and checkpoint_every > 0
            and (round_no + 1) % checkpoint_every == 0
        ):
            checkpointer.save(round_no, _cluster_state(averaged, workers))

    final = workers[0]["model"]
    final.eval()
    with no_grad():
        logits = final(GCN.prepare(graph), graph.x).data
    test_acc = accuracy(logits[split.test].argmax(axis=1), graph.y[split.test])
    return BackendResult(
        backend="simulated",
        test_accuracy=test_acc,
        epochs=int(epochs),
        n_parts=int(n_parts),
        halo_floats_per_epoch=cross_arcs * feature_dim,
        param_sync_floats_per_round=2 * n_params * n_parts,
        cross_partition_arcs=cross_arcs,
        worker_failures=worker_failures,
        straggler_events=straggler_events,
        degraded_rounds=degraded_rounds,
        checkpoint_restores=checkpoint_restores,
        wall_time_s=time.monotonic() - start,
        recovery=recovery,
    )
