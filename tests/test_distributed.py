"""Tests for repro.distributed: shm arena, shards, process backend.

Every multiprocessing test uses the explicit ``spawn`` start method and
bounded waits (backend ``timeout_s``, ``join(timeout)``) so a wedged
child can never hang the suite.
"""

import dataclasses
import glob
import multiprocessing as mp

import numpy as np
import pytest

from repro.datasets import contextual_sbm
from repro.distributed import (
    AttachedSegments,
    ShmArena,
    attach_array,
    build_shard_plan,
    get_backend,
)
from repro.distributed.worker import WorkerSpec, probe_injector_schedule
from repro.editing import edge_cut, ldg_partition
from repro.errors import ConfigError, DistributedError, GraphError
from repro.resilience import FaultInjector, FaultPlan

CTX = mp.get_context("spawn")

RUN_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def dataset():
    return contextual_sbm(
        240, n_classes=3, homophily=0.85, avg_degree=8,
        n_features=12, feature_signal=1.5, seed=5,
    )


def _leftover_segments(token: str) -> list[str]:
    return glob.glob(f"/dev/shm/{token}-*")


# ---------------------------------------------------------------------- #
# Shared-memory arena
# ---------------------------------------------------------------------- #


class TestShmArena:
    def test_publish_attach_roundtrip_zero_copy(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(50, 7))
        with ShmArena() as arena:
            handle = arena.publish("x", array)
            segs = AttachedSegments()
            view = segs.attach(handle)
            assert np.array_equal(view, array)
            assert not view.flags.owndata
            assert not view.flags.writeable
            assert segs.stats() == {
                "attaches": 1,
                "mapped_bytes": array.nbytes,
                "copied_bytes": 0,
            }
            segs.close()

    def test_writable_attach_shares_pages(self):
        with ShmArena() as arena:
            handle = arena.publish("cell", np.zeros(4, dtype=np.uint8))
            view, shm = attach_array(handle, writable=True)
            view[2] = 7
            assert arena.view("cell")[2] == 7
            del view
            shm.close()

    def test_duplicate_key_rejected(self):
        with ShmArena() as arena:
            arena.publish("x", np.arange(3))
            with pytest.raises(ConfigError):
                arena.publish("x", np.arange(3))

    def test_zero_size_array_publishes(self):
        with ShmArena() as arena:
            handle = arena.publish("empty", np.empty(0, dtype=np.int64))
            view, shm = attach_array(handle)
            assert view.shape == (0,)
            del view
            shm.close()

    def test_attach_after_unlink_raises(self):
        arena = ShmArena()
        handle = arena.publish("x", np.arange(5))
        arena.unlink()
        with pytest.raises(DistributedError):
            attach_array(handle)

    def test_unlink_idempotent_and_no_leftovers(self):
        arena = ShmArena()
        arena.publish("a", np.arange(10))
        arena.publish("b", np.eye(3))
        assert len(_leftover_segments(arena.token)) == 2
        arena.unlink()
        arena.unlink()
        assert _leftover_segments(arena.token) == []


# ---------------------------------------------------------------------- #
# Shard construction
# ---------------------------------------------------------------------- #


class TestShardPlan:
    @pytest.fixture(scope="class")
    def plan(self, dataset):
        graph, _ = dataset
        pr = ldg_partition(graph, 3, seed=0)
        return graph, pr.assignment, build_shard_plan(graph, pr.assignment, 3)

    def test_owned_nodes_first_and_partition_covered(self, plan):
        graph, assignment, sp = plan
        seen = np.concatenate([s.owned for s in sp.shards])
        assert np.array_equal(np.sort(seen), np.arange(graph.n_nodes))
        for part, shard in enumerate(sp.shards):
            assert np.all(assignment[shard.owned] == part)
            assert np.all(assignment[shard.ghosts] != part)

    def test_cross_arcs_match_edge_cut(self, plan):
        graph, assignment, sp = plan
        # Undirected graph: each cut edge is two directed cross arcs.
        assert sp.cross_arcs_total == 2 * edge_cut(graph, assignment)
        assert sum(s.cross_arcs_in for s in sp.shards) == sp.cross_arcs_total
        assert sum(s.cross_arcs_out for s in sp.shards) == sp.cross_arcs_total

    def test_owned_nodes_keep_full_neighbourhoods(self, plan):
        graph, assignment, sp = plan
        edges = graph.edge_array()
        for shard in sp.shards:
            local = shard.local_graph()
            local_nodes = shard.local_nodes
            for u in shard.owned[:20]:
                expected = set(edges[edges[:, 0] == u, 1])
                lu = int(np.flatnonzero(local_nodes == u)[0])
                got = set(
                    local_nodes[
                        local.indices[local.indptr[lu]:local.indptr[lu + 1]]
                    ]
                )
                assert got == expected

    def test_halo_maps_aligned_per_arc(self, plan):
        graph, assignment, sp = plan
        for p, shard in enumerate(sp.shards):
            for q, send_idx in shard.send.items():
                recv_idx = sp.shards[q].recv[p]
                assert len(send_idx) == len(recv_idx)
                # Sender side gathers owned rows, receiver scatters into
                # ghost slots.
                assert np.all(send_idx < shard.n_owned)
                assert np.all(recv_idx >= sp.shards[q].n_owned)
                # Same canonical arc order on both sides: shipping the
                # sender's global ids must land them in the receiver's
                # matching ghost slots.
                shipped = shard.local_nodes[send_idx]
                landed = sp.shards[q].local_nodes[recv_idx]
                assert np.array_equal(shipped, landed)

    def test_single_part_has_no_halo(self, dataset):
        graph, _ = dataset
        sp = build_shard_plan(
            graph, np.zeros(graph.n_nodes, dtype=np.int64), 1
        )
        assert sp.cross_arcs_total == 0
        assert len(sp.shards[0].ghosts) == 0
        assert sp.shards[0].send == {} and sp.shards[0].recv == {}

    def test_assignment_validated(self, dataset):
        graph, _ = dataset
        bad = np.zeros(graph.n_nodes, dtype=np.int64)
        bad[0] = 5
        with pytest.raises(ConfigError):
            build_shard_plan(graph, bad, 2)


# ---------------------------------------------------------------------- #
# Fault injector across the process boundary
# ---------------------------------------------------------------------- #


class TestInjectorAcrossProcesses:
    def test_pickled_injector_replays_identical_schedule(self):
        plan = (
            FaultPlan()
            .add("training.worker_step", "transient", rate=0.3)
            .add("training.worker_step", "drop", rate=0.2)
            .add("training.worker_step", "delay", rate=0.1, delay_s=0.001)
        )
        injector = FaultInjector(plan, seed=42)
        # Reference schedule computed in-process on a fresh clone.
        reference_q: list[list[str]] = []
        probe_injector_schedule(
            type("Q", (), {"put": reference_q.append})(),
            FaultInjector(plan, seed=42),
            "training.worker_step",
            40,
        )
        result_q = CTX.Queue()
        proc = CTX.Process(
            target=probe_injector_schedule,
            args=(result_q, injector, "training.worker_step", 40),
            daemon=True,
        )
        proc.start()
        spawned = result_q.get(timeout=60)
        proc.join(timeout=30)
        assert proc.exitcode == 0
        assert spawned == reference_q[0]
        assert any(a != "none" for a in spawned)  # schedule is non-trivial


# ---------------------------------------------------------------------- #
# Process backend
# ---------------------------------------------------------------------- #


def _gather_bytes(graph, assignment, n_parts: int) -> int:
    """The one-time local gather of every rank: float64 feature rows plus
    int64 labels of its owned and ghost nodes."""
    plan = build_shard_plan(graph, assignment, n_parts)
    return sum(s.n_local for s in plan.shards) * (graph.n_features + 1) * 8


class TestProcessBackend:
    def test_two_worker_smoke(self, dataset):
        graph, split = dataset
        pr = ldg_partition(graph, 2, seed=0)
        backend = get_backend("process")
        published: list[str] = []

        def list_segments(round_no, processes):
            if round_no == 0:
                published.extend(glob.glob("/dev/shm/repro-dist-*"))

        res = backend.run(
            graph, split, pr.assignment, 2,
            epochs=6, seed=0, timeout_s=RUN_TIMEOUT_S,
            round_hook=list_segments,
        )
        assert res.backend == "process"
        assert res.sync_rounds == 6
        assert res.workers_lost == 0
        assert res.test_accuracy > 0.5
        # Rounds ship no feature rows: no halo buffer, liveness array or
        # per-arc index map is published, and the one-time local gather
        # is the only feature traffic.
        assert published
        for name in published:
            key = name.split("-", 4)[-1]
            assert not key.startswith(("halo-", "alive")), key
            assert "-send-" not in key and "-recv-" not in key, key
        assert not {"send", "recv", "halo_out", "halo_in", "alive"} & {
            f.name for f in dataclasses.fields(WorkerSpec)
        }
        assert res.attach_stats["copied_bytes"] == _gather_bytes(
            graph, pr.assignment, 2
        )
        assert res.halo_floats_per_epoch == res.cross_partition_arcs * graph.n_features
        # Zero-copy audit: workers attached more bytes than they copied —
        # the explicit local gathers are the only duplication, and they
        # stay well under the shared pages mapped.
        assert res.attach_stats["attaches"] >= 2
        assert res.attach_stats["copied_bytes"] < res.attach_stats["mapped_bytes"]
        # Every segment was unlinked on the way out.
        assert glob.glob("/dev/shm/repro-dist-*") == []
        assert backend.snapshot()["runs"] == 1

    @pytest.mark.parametrize(
        "n_parts, fault",
        [(1, None), (2, None), (3, None), (2, "drop"), (2, "transient")],
        ids=["1 part", "2 parts", "3 parts", "2 parts drop", "2 parts transient"],
    )
    def test_simulated_backend_is_bitwise_oracle(self, dataset, n_parts, fault):
        """The in-process backend runs the process backend's algorithm:
        the same final parameters, bit for bit, fault plans included."""
        graph, split = dataset
        pr = ldg_partition(graph, n_parts, seed=0)
        kwargs = dict(epochs=5, seed=0)
        if fault is not None:
            kwargs.update(
                fault_plan=FaultPlan().add(
                    "training.worker_step", fault, rate=0.5
                ),
                fault_seed=7,
            )
        sim = get_backend("simulated").run(
            graph, split, pr.assignment, n_parts, **kwargs
        )
        proc = get_backend("process").run(
            graph, split, pr.assignment, n_parts,
            timeout_s=RUN_TIMEOUT_S, **kwargs,
        )
        assert sim.backend == "simulated" and proc.backend == "process"
        assert sim.param_checksum == proc.param_checksum
        for name in (
            "test_accuracy", "worker_failures", "degraded_rounds",
            "sync_rounds", "cross_partition_arcs", "halo_floats_per_epoch",
            "param_sync_floats_per_round",
        ):
            assert getattr(sim, name) == getattr(proc, name), name
        if fault is not None:
            assert sim.worker_failures > 0 and sim.degraded_rounds > 0
        # No process dies, so every rank's one-time local gather is
        # counted exactly once: the only feature bytes the run moves.
        assert proc.attach_stats["copied_bytes"] == _gather_bytes(
            graph, pr.assignment, n_parts
        )

    def test_fault_plan_ships_to_workers(self, dataset):
        graph, split = dataset
        pr = ldg_partition(graph, 2, seed=0)
        plan = FaultPlan().add("training.worker_step", "drop", rate=0.5)
        res = get_backend("process").run(
            graph, split, pr.assignment, 2,
            epochs=5, seed=0, fault_plan=plan, fault_seed=7,
            timeout_s=RUN_TIMEOUT_S,
        )
        assert res.worker_failures > 0
        assert res.degraded_rounds > 0
        assert res.sync_rounds == 5  # reweighted rounds still synchronise

    def test_requires_features(self, dataset):
        from repro.graph import stochastic_block_model

        _, split = dataset
        bare = stochastic_block_model(
            [20, 20], [[0.3, 0.05], [0.05, 0.3]], seed=1
        )
        with pytest.raises(ConfigError):
            get_backend("process").run(
                bare, split, np.zeros(bare.n_nodes, dtype=np.int64), 1,
                epochs=1, timeout_s=RUN_TIMEOUT_S,
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            get_backend("mpi")


def _malformed_assignment(kind: str, n_nodes: int) -> np.ndarray:
    assignment = np.arange(n_nodes) % 3
    if kind == "part owns no nodes":
        assignment = np.arange(n_nodes) % 2
    elif kind == "part id >= n_parts":
        assignment[0] = 3
    elif kind == "negative part id":
        assignment[0] = -1
    else:
        assignment = assignment[:-3]
    return assignment


class TestAssignmentValidation:
    """Both backends reject what the shard plan rejects — nodes with no
    owning worker, a worker owning no nodes, or an assignment of the
    wrong length — through one validation path that runs before any
    work (so before the process backend spawns anything)."""

    @pytest.mark.parametrize("entry", ["simulated", "process"])
    @pytest.mark.parametrize(
        "kind, error",
        [
            ("part id >= n_parts", ConfigError),
            ("negative part id", ConfigError),
            ("3 entries short", GraphError),
            ("part owns no nodes", ConfigError),
        ],
    )
    def test_malformed_assignment_rejected(self, dataset, entry, kind, error):
        graph, split = dataset
        assignment = _malformed_assignment(kind, graph.n_nodes)
        kwargs = {"timeout_s": RUN_TIMEOUT_S} if entry == "process" else {}
        with pytest.raises(error):
            get_backend(entry).run(graph, split, assignment, 3, epochs=1, **kwargs)
        assert glob.glob("/dev/shm/repro-dist-*") == []


class TestChaosKill:
    def test_survivors_reweight_after_worker_kill(self, dataset):
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
        )
        assert killed == [1]
        assert res.workers_lost == 1
        # The unsupervised run evicts through the same Supervisor path
        # as supervise=LeasePolicy(on_expiry="evict").
        assert res.evictions == 1 and res.respawns == 0
        # Every remaining round still synchronised over the survivors,
        # and the run is degraded from the kill round on.
        assert res.sync_rounds == 6
        assert res.degraded_rounds >= 1
        assert 0.0 <= res.test_accuracy <= 1.0
        # The killed rank gathered before round 2: its copies still count.
        assert res.attach_stats["copied_bytes"] == _gather_bytes(
            graph, pr.assignment, 3
        )
        # The chaos path must clean up exactly like the healthy one.
        assert glob.glob("/dev/shm/repro-dist-*") == []

    def test_all_workers_lost_raises(self, dataset):
        graph, split = dataset
        pr = ldg_partition(graph, 2, seed=0)

        def hook(round_no, processes):
            if round_no == 1:
                for proc in processes:
                    proc.kill()

        with pytest.raises(DistributedError):
            get_backend("process").run(
                graph, split, pr.assignment, 2,
                epochs=4, seed=0, timeout_s=RUN_TIMEOUT_S, round_hook=hook,
            )
        assert glob.glob("/dev/shm/repro-dist-*") == []
