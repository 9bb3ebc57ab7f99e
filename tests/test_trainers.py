"""Tests for training loops, early stopping, metrics, in-process distributed."""

import numpy as np
import pytest
import reference_trainers as reference

import repro.training as shared
from repro.datasets import Split
from repro.distributed import build_shard_plan, get_backend
from repro.editing import NeighborSampler, cluster_batches, ldg_partition, node_subgraph_sample
from repro.errors import ConfigError, ShapeError
from repro.models import GCN, SGC, GraphSAGE, PPRGo
from repro.resilience import Checkpointer
from repro.tensor.nn import MLP
from repro.training import (
    EarlyStopping,
    accuracy,
    confusion_matrix,
    macro_f1,
    train_clustergcn_compensated,
    train_decoupled,
    train_full_batch,
    train_pprgo,
    train_sampled,
    train_subgraph,
)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        cm = confusion_matrix(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        assert np.array_equal(cm, [[1, 1], [0, 1]])

    def test_macro_f1_perfect(self):
        y = np.array([0, 1, 2, 0])
        assert macro_f1(y, y) == 1.0

    def test_macro_f1_balances_classes(self):
        truth = np.array([0] * 90 + [1] * 10)
        pred = np.zeros(100, dtype=int)  # always majority
        assert macro_f1(pred, truth) < accuracy(pred, truth)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        model = MLP(2, 4, 2, seed=0)
        stopper = EarlyStopping(model, patience=3)
        assert not stopper.update(0.5, 0)
        assert not stopper.update(0.4, 1)
        assert not stopper.update(0.4, 2)
        assert stopper.update(0.4, 3)

    def test_improvement_resets(self):
        model = MLP(2, 4, 2, seed=0)
        stopper = EarlyStopping(model, patience=2)
        stopper.update(0.5, 0)
        stopper.update(0.4, 1)
        stopper.update(0.6, 2)
        assert stopper.best_epoch == 2
        assert not stopper.update(0.5, 3)

    def test_restore_recovers_best_weights(self):
        model = MLP(2, 4, 2, seed=0)
        stopper = EarlyStopping(model, patience=5)
        stopper.update(0.9, 0)
        best = model.state_dict()
        for p in model.parameters():
            p.data += 1.0
        stopper.update(0.1, 1)
        stopper.restore()
        for key, val in model.state_dict().items():
            assert np.allclose(val, best[key])


class TestTrainers:
    def test_full_batch_learns(self, csbm_dataset):
        graph, split = csbm_dataset
        model = GCN(graph.n_features, 16, graph.n_classes, seed=0)
        res = train_full_batch(model, graph, split, epochs=80)
        assert res.test_accuracy > 0.8
        assert res.train_time > 0
        assert len(res.train_losses) == len(res.val_accuracies)

    def test_full_batch_requires_labels(self, ba_graph):
        model = GCN(4, 8, 2, seed=0)
        with pytest.raises(ConfigError):
            train_full_batch(model, ba_graph, Split(np.array([0]), np.array([1]), np.array([2])))

    def test_decoupled_learns(self, csbm_dataset):
        graph, split = csbm_dataset
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, hidden=16, seed=0)
        res = train_decoupled(model, graph, split, epochs=60, seed=0)
        assert res.test_accuracy > 0.8
        assert res.precompute_time > 0

    def test_decoupled_early_stops(self, csbm_dataset):
        graph, split = csbm_dataset
        model = SGC(graph.n_features, graph.n_classes, k_hops=2, hidden=16, seed=0)
        res = train_decoupled(model, graph, split, epochs=10_000, patience=5, seed=0)
        assert len(res.val_accuracies) < 10_000

    def test_sampled_learns(self, csbm_dataset):
        graph, split = csbm_dataset
        model = GraphSAGE(graph.n_features, 16, graph.n_classes, seed=0)
        sampler = NeighborSampler(graph, [5, 5], seed=0)
        res = train_sampled(model, graph, split, sampler, epochs=25, seed=0)
        assert res.test_accuracy > 0.75

    def test_subgraph_learns_clustergcn(self, csbm_dataset):
        graph, split = csbm_dataset
        pr = ldg_partition(graph, 6, seed=0)

        def batch_fn(rng):
            return cluster_batches(pr.assignment, 6, 2, seed=rng)[0]

        model = GCN(graph.n_features, 16, graph.n_classes, seed=0)
        res = train_subgraph(model, graph, split, batch_fn, epochs=40, seed=0)
        assert res.test_accuracy > 0.75

    def test_subgraph_learns_graphsaint(self, csbm_dataset):
        graph, split = csbm_dataset

        def batch_fn(rng):
            nodes, _ = node_subgraph_sample(graph, 80, seed=rng)
            return nodes

        model = GCN(graph.n_features, 16, graph.n_classes, seed=0)
        res = train_subgraph(model, graph, split, batch_fn, epochs=40, seed=0)
        assert res.test_accuracy > 0.7

    def test_pprgo_learns(self, csbm_dataset):
        graph, split = csbm_dataset
        model = PPRGo(graph.n_features, 16, graph.n_classes, topk=16, seed=0)
        res = train_pprgo(model, graph, split, epochs=40, seed=0)
        assert res.test_accuracy > 0.75

    def test_decoupled_deterministic(self, csbm_dataset):
        graph, split = csbm_dataset
        accs = []
        for _ in range(2):
            model = SGC(graph.n_features, graph.n_classes, k_hops=2, hidden=16, seed=1)
            res = train_decoupled(model, graph, split, epochs=20, seed=1)
            accs.append(res.test_accuracy)
        assert accs[0] == accs[1]


def _simulate(graph, split, assignment, n_parts, **kwargs):
    return get_backend("simulated").run(
        graph, split, assignment, n_parts, **kwargs
    )


class TestDistributed:
    def test_runs_and_accounts_communication(self, csbm_dataset):
        graph, split = csbm_dataset
        pr = ldg_partition(graph, 4, seed=0)
        res = _simulate(graph, split, pr.assignment, 4, epochs=30, seed=0)
        assert res.test_accuracy > 0.6
        assert (res.backend, res.epochs, res.n_parts) == ("simulated", 30, 4)
        assert res.sync_rounds == 30
        assert res.wall_time_s > 0.0
        assert res.halo_floats_per_epoch == res.cross_partition_arcs * graph.n_features
        assert res.param_sync_floats_per_round > 0

    def test_better_partition_less_communication(self, csbm_dataset):
        from repro.editing import random_partition

        graph, split = csbm_dataset
        good = ldg_partition(graph, 4, seed=0)
        bad = random_partition(graph, 4, seed=0)
        res_good = _simulate(graph, split, good.assignment, 4, epochs=3, seed=0)
        res_bad = _simulate(graph, split, bad.assignment, 4, epochs=3, seed=0)
        assert res_good.halo_floats_per_epoch < res_bad.halo_floats_per_epoch

    def test_n_parts_validated(self, csbm_dataset):
        graph, split = csbm_dataset
        with pytest.raises(ConfigError):
            _simulate(graph, split, np.zeros(graph.n_nodes, dtype=int), 0)

    def test_epochs_validated(self, csbm_dataset):
        # The process backend's rule, now shared: zero rounds would
        # report an untrained model as a distributed run.
        graph, split = csbm_dataset
        with pytest.raises(ConfigError):
            _simulate(graph, split, np.zeros(graph.n_nodes, dtype=int), 1, epochs=0)

    def test_workers_without_train_nodes_do_not_dilute_average(self, csbm_dataset):
        # Regression: parameter averaging used equal weights, so a
        # pathological partition placing every train node on one worker
        # let the other worker's never-trained weights dilute each
        # round's update. Weighted by train-node count, the zero-train
        # worker contributes nothing and the run must match a
        # single-worker reference on worker 0's halo shard exactly.
        import hashlib

        from repro.distributed.worker import flatten_state
        from repro.models.gcn import GCN
        from repro.tensor import functional as F
        from repro.tensor.autograd import no_grad
        from repro.tensor.optim import Adam

        graph, split = csbm_dataset
        # Partition 1 holds only test nodes: zero local train nodes.
        assignment = np.zeros(graph.n_nodes, dtype=np.int64)
        assignment[split.test] = 1
        epochs, hidden, lr, wd = 12, 32, 0.01, 5e-4
        res = _simulate(
            graph, split, assignment, 2,
            epochs=epochs, hidden=hidden, lr=lr, weight_decay=wd, seed=0,
        )

        # Reference: rank 0 alone on its halo shard, with the backend's
        # seeding (rank model seed + 1 + rank, starting from the
        # coordinator's GCN(seed=seed) parameters).
        shard = build_shard_plan(graph, assignment, 2).shards[0]
        train_mask = np.zeros(graph.n_nodes, dtype=bool)
        train_mask[split.train] = True
        local_train = np.flatnonzero(train_mask[shard.owned])
        x, y = graph.x[shard.local_nodes], graph.y[shard.local_nodes]
        model = GCN(
            graph.n_features, hidden, graph.n_classes, n_layers=2,
            dropout=0.3, seed=1,
        )
        model.load_state_dict(GCN(
            graph.n_features, hidden, graph.n_classes, n_layers=2,
            dropout=0.3, seed=0,
        ).state_dict())
        opt = Adam(model.parameters(), lr=lr, weight_decay=wd)
        prep = GCN.prepare(shard.local_graph())
        for _ in range(epochs):
            model.train()
            opt.zero_grad()
            logits = model(prep, x)
            loss = F.cross_entropy(logits.gather_rows(local_train), y[local_train])
            loss.backward()
            opt.step()
        model.eval()
        with no_grad():
            logits = model(GCN.prepare(graph), graph.x).data
        ref_acc = accuracy(
            logits[split.test].argmax(axis=1), graph.y[split.test]
        )
        assert res.test_accuracy == ref_acc
        ref_params = flatten_state(model.state_dict())
        assert res.param_checksum == hashlib.sha256(ref_params.tobytes()).hexdigest()

    def test_no_train_nodes_anywhere_rejected(self, csbm_dataset):
        graph, _ = csbm_dataset
        empty = Split(
            train=np.array([], dtype=np.int64),
            val=np.arange(5),
            test=np.arange(5, 10),
        )
        assignment = np.zeros(graph.n_nodes, dtype=np.int64)
        assignment[: graph.n_nodes // 2] = 1
        with pytest.raises(ConfigError):
            _simulate(graph, empty, assignment, 2, epochs=1)


# --------------------------------------------------------------------- #
# The shared epoch loop against the per-trainer loops it replaced
# (tests/reference_trainers.py), bit for bit.
# --------------------------------------------------------------------- #

LONG = 300  # an epoch budget only early stopping ends


def _cluster_fn(graph):
    assignment = ldg_partition(graph, 6, seed=0).assignment
    return lambda rng: cluster_batches(assignment, 6, 2, seed=rng)[0]


_LOOPS = {
    "full_batch": lambda t, g, s: t.train_full_batch(
        GCN(g.n_features, 16, g.n_classes, seed=0), g, s, epochs=10),
    "full_batch_early_stop": lambda t, g, s: t.train_full_batch(
        GCN(g.n_features, 16, g.n_classes, seed=0), g, s, epochs=LONG,
        lr=0.05, patience=2),
    "decoupled": lambda t, g, s: t.train_decoupled(
        SGC(g.n_features, g.n_classes, k_hops=2, hidden=16, seed=0), g, s,
        epochs=10, batch_size=64, seed=0),
    "decoupled_early_stop": lambda t, g, s: t.train_decoupled(
        SGC(g.n_features, g.n_classes, k_hops=2, hidden=16, seed=0), g, s,
        epochs=LONG, batch_size=64, lr=0.05, patience=3, seed=0),
    "decoupled_prefetch": lambda t, g, s: t.train_decoupled(
        SGC(g.n_features, g.n_classes, k_hops=2, hidden=16, seed=0), g, s,
        epochs=6, batch_size=64, seed=0, prefetch_depth=2),
    "sampled": lambda t, g, s: t.train_sampled(
        GraphSAGE(g.n_features, 16, g.n_classes, seed=0), g, s,
        NeighborSampler(g, [4, 4], seed=0), epochs=3, seed=0),
    "sampled_prefetch": lambda t, g, s: t.train_sampled(
        GraphSAGE(g.n_features, 16, g.n_classes, seed=0), g, s,
        NeighborSampler(g, [4, 4], seed=0), epochs=3, seed=0,
        prefetch_depth=2),
    "subgraph": lambda t, g, s: t.train_subgraph(
        GCN(g.n_features, 16, g.n_classes, seed=0), g, s, _cluster_fn(g),
        epochs=6, seed=0),
    "pprgo": lambda t, g, s: t.train_pprgo(
        PPRGo(g.n_features, 16, g.n_classes, topk=8, seed=0), g, s,
        epochs=6, seed=0),
    "pprgo_prefetch": lambda t, g, s: t.train_pprgo(
        PPRGo(g.n_features, 16, g.n_classes, topk=8, seed=0), g, s,
        epochs=4, seed=0, prefetch_depth=2),
    "compensated": lambda t, g, s: t.train_clustergcn_compensated(
        g, s, ldg_partition(g, 4, seed=0).assignment, 4, epochs=6, seed=0),
    "compensated_early_stop": lambda t, g, s: t.train_clustergcn_compensated(
        g, s, ldg_partition(g, 4, seed=0).assignment, 4, epochs=LONG,
        lr=0.05, patience=2, seed=0),
}


def _gcn_run(t, graph, split, **kwargs):
    # dropout=0: layer-local dropout RNG is not checkpointed.
    model = GCN(graph.n_features, 16, graph.n_classes, dropout=0.0, seed=4)
    return t.train_full_batch(model, graph, split, lr=0.05, **kwargs)


def _sgc_run(t, graph, split, **kwargs):
    model = SGC(graph.n_features, graph.n_classes, k_hops=2, seed=11)
    return t.train_decoupled(
        model, graph, split, batch_size=48, lr=0.05, seed=5, **kwargs
    )


# case -> (run, full-length kwargs, epochs of the interrupted writer, every)
_RESUMES = {
    "full_batch": (_gcn_run, dict(epochs=8, patience=100), 5, 2),
    "decoupled": (_sgc_run, dict(epochs=8, patience=100), 5, 2),
    "decoupled_prefetch": (
        _sgc_run, dict(epochs=8, patience=100, prefetch_depth=2), 5, 2),
    "full_batch_stopped": (_gcn_run, dict(epochs=LONG, patience=2), LONG, 1),
}


def _assert_bitwise(expected, actual):
    assert actual.train_losses == expected.train_losses
    assert actual.val_accuracies == expected.val_accuracies
    assert actual.best_epoch == expected.best_epoch
    assert actual.test_accuracy == expected.test_accuracy


class TestSharedEpochLoop:
    @pytest.mark.parametrize("case", sorted(_LOOPS))
    def test_bitwise_equal_to_reference_loop(self, case, csbm_dataset):
        graph, split = csbm_dataset
        expected = _LOOPS[case](reference, graph, split)
        actual = _LOOPS[case](shared, graph, split)
        _assert_bitwise(expected, actual)
        if case.endswith("early_stop"):
            assert len(actual.train_losses) < LONG

    @pytest.mark.parametrize("writer", ["reference", "shared"])
    @pytest.mark.parametrize("case", sorted(_RESUMES))
    def test_resume_bitwise_equal_to_reference(
        self, case, writer, csbm_dataset, tmp_path
    ):
        # The interrupted run is written by either loop (the checkpoint
        # format is shared); the shared loop resumes it and must replay
        # the reference loop's uninterrupted run.
        graph, split = csbm_dataset
        run, kwargs, written_epochs, every = _RESUMES[case]
        expected = run(reference, graph, split, **kwargs)
        ck = Checkpointer(tmp_path)
        run({"reference": reference, "shared": shared}[writer], graph, split,
            **{**kwargs, "epochs": written_epochs},
            checkpointer=ck, checkpoint_every=every)
        assert ck.latest() is not None
        resumed = run(shared, graph, split, **kwargs,
                      checkpointer=ck, checkpoint_every=every, resume=True)
        _assert_bitwise(expected, resumed)
        if case.endswith("stopped"):
            assert len(expected.train_losses) < LONG


_NO_TRAIN = {
    "full_batch": lambda g, s: train_full_batch(
        GCN(g.n_features, 8, g.n_classes, seed=0), g, s, epochs=3),
    "decoupled": lambda g, s: train_decoupled(
        SGC(g.n_features, g.n_classes, k_hops=2, seed=0), g, s, epochs=3),
    "sampled": lambda g, s: train_sampled(
        GraphSAGE(g.n_features, 8, g.n_classes, seed=0), g, s,
        NeighborSampler(g, [3, 3], seed=0), epochs=3),
    "subgraph": lambda g, s: train_subgraph(
        GCN(g.n_features, 8, g.n_classes, seed=0), g, s,
        lambda rng: np.arange(g.n_nodes), epochs=3),
    "pprgo": lambda g, s: train_pprgo(
        PPRGo(g.n_features, 8, g.n_classes, topk=8, seed=0), g, s, epochs=3),
    "compensated": lambda g, s: train_clustergcn_compensated(
        g, s, np.zeros(g.n_nodes, dtype=np.int64), 1, epochs=2),
}


@pytest.mark.parametrize("trainer", sorted(_NO_TRAIN))
def test_empty_train_split_rejected_before_precompute(
    trainer, csbm_dataset, obs_tracer
):
    graph, split = csbm_dataset
    empty = Split(np.array([], dtype=np.int64), split.val, split.test)
    with pytest.raises(ConfigError, match="split.train is empty"):
        _NO_TRAIN[trainer](graph, empty)
    assert not obs_tracer.find("train.stage.precompute")
