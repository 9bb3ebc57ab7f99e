"""Tests for the self-healing runtime: leases, respawn, fencing.

Unit tests drive :class:`repro.distributed.Supervisor` against fake
processes and an injectable clock (no real children, no sleeps); the
integration tests kill a real worker mid-round and assert the supervised
run converges **bit-identical** to the unfaulted one.
"""

import glob
import multiprocessing as mp

import numpy as np
import pytest

from repro.datasets import contextual_sbm
from repro.distributed import LeasePolicy, Supervisor, build_shard_plan, get_backend
from repro.distributed.supervisor import (
    LEASE_CELLS,
    LEASE_ROUND,
    LEASE_SEQ,
)
from repro.editing import ldg_partition
from repro.errors import ConfigError, DistributedError
from repro.resilience import FaultInjector, FaultPlan, FaultSpec

CTX = mp.get_context("spawn")

RUN_TIMEOUT_S = 120.0


@pytest.fixture(scope="module")
def dataset():
    return contextual_sbm(
        240, n_classes=3, homophily=0.85, avg_degree=8,
        n_features=12, feature_signal=1.5, seed=5,
    )


@pytest.fixture(scope="module")
def partitioned(dataset):
    graph, _ = dataset
    return ldg_partition(graph, 3, seed=0)


@pytest.fixture(scope="module")
def baseline(dataset, partitioned):
    """One unfaulted, unsupervised epochs=6 run both bitwise tests
    compare against."""
    graph, split = dataset
    return get_backend("process").run(
        graph, split, partitioned.assignment, 3,
        epochs=6, seed=0, timeout_s=RUN_TIMEOUT_S,
    )


def _leftover_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-dist-*")


def _gather_bytes(graph, assignment, n_parts: int) -> list[int]:
    """Per rank, what one incarnation's local gather copies: float64
    feature rows plus int64 labels of its owned and ghost nodes."""
    plan = build_shard_plan(graph, assignment, n_parts)
    return [s.n_local * (graph.n_features + 1) * 8 for s in plan.shards]


# ---------------------------------------------------------------------- #
# LeasePolicy
# ---------------------------------------------------------------------- #


class TestLeasePolicy:
    def test_defaults_and_ttl(self):
        policy = LeasePolicy()
        assert policy.on_expiry == "respawn"
        assert policy.lease_ttl_s == pytest.approx(
            policy.beat_interval_s * policy.missed_beats
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            LeasePolicy(on_expiry="reboot")
        with pytest.raises(ConfigError):
            LeasePolicy(beat_interval_s=0.0)
        with pytest.raises(ConfigError):
            LeasePolicy(missed_beats=0)
        with pytest.raises(ConfigError):
            LeasePolicy(max_respawns=-1)


# ---------------------------------------------------------------------- #
# Supervisor (fake processes, fake clock)
# ---------------------------------------------------------------------- #


class _FakeProc:
    def __init__(self, alive=True):
        self._alive = alive
        self.terminated = False

    def is_alive(self):
        return self._alive

    def terminate(self):
        self.terminated = True
        self._alive = False

    def kill(self):
        self._alive = False

    def join(self, timeout=None):
        pass


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _harness(policy, n=2, with_leases=True):
    clock = _Clock()
    procs = [_FakeProc() for _ in range(n)]
    leases = (
        [np.zeros(LEASE_CELLS, dtype=np.int64) for _ in range(n)]
        if with_leases else None
    )
    if leases is not None:
        for cell in leases:
            cell[LEASE_ROUND] = -1
    spawned = []
    evicted = []

    def relaunch(rank, generation):
        spawned.append((rank, generation))
        return _FakeProc()

    sup = Supervisor(
        policy, n, processes=procs, leases=leases,
        relaunch=relaunch, on_evict=lambda r, why: evicted.append(r),
        clock=clock,
    )
    return sup, clock, procs, leases, spawned, evicted


class TestSupervisor:
    def test_beating_rank_never_expires(self):
        policy = LeasePolicy(beat_interval_s=0.1, missed_beats=3)
        sup, clock, _, leases, spawned, evicted = _harness(policy)
        for step in range(1, 20):
            clock.now += 0.2  # slower than the beat, faster than the TTL
            leases[0][LEASE_SEQ] = step
            leases[1][LEASE_SEQ] = step
            sup.poll(round_no=0)
        assert spawned == [] and evicted == []

    def test_expired_lease_respawns_with_bumped_generation(self):
        policy = LeasePolicy(
            beat_interval_s=0.1, missed_beats=3, spawn_grace_s=0.0
        )
        sup, clock, procs, leases, spawned, _ = _harness(policy)
        old_incarnation = procs[1]
        leases[0][LEASE_SEQ] = 1
        leases[1][LEASE_SEQ] = 1
        sup.poll(round_no=0)
        # Rank 1 goes silent past the TTL; rank 0 keeps beating.
        clock.now += policy.lease_ttl_s + 0.01
        leases[0][LEASE_SEQ] = 2
        sup.poll(round_no=0)
        assert spawned == [(1, 1)]
        assert old_incarnation.terminated  # old incarnation reaped first
        assert sup.generation(1) == 1
        assert sup.snapshot()["leases_expired"] == 1

    def test_dead_process_respawns_without_lease_plane(self):
        policy = LeasePolicy()
        sup, _, procs, _, spawned, _ = _harness(policy, with_leases=False)
        procs[0]._alive = False
        sup.poll(round_no=0)
        assert spawned == [(0, 1)]

    def test_fencing_flips_on_respawn(self):
        """The generation-token regression: after a respawn, the old
        incarnation's stamp is rejected and the new one accepted."""
        policy = LeasePolicy()
        sup, _, procs, _, _, _ = _harness(policy)
        assert sup.fence_accepts(0, 0)
        procs[0]._alive = False
        sup.poll(round_no=0)
        assert not sup.fence_accepts(0, 0)  # stale incarnation fenced
        assert sup.fence_accepts(0, 1)
        sup.note_fenced_write(0, 3, 0)
        sup.note_fenced_write(0, 3, 0)  # re-scan dedup
        assert sup.snapshot()["fenced_writes"] == 1

    def test_rejoin_closes_recovery_latency_window(self):
        policy = LeasePolicy()
        sup, clock, procs, _, _, _ = _harness(policy)
        procs[0]._alive = False
        sup.poll(round_no=2)
        clock.now += 1.5
        sup.note_rejoin(0, 2)
        assert sup.recovery_latencies_s == [pytest.approx(1.5)]
        sup.note_rejoin(0, 3)  # no pending respawn: no-op
        assert len(sup.recovery_latencies_s) == 1
        assert sup.snapshot()["rejoins"] == 1

    def test_respawn_budget_exhaustion_evicts(self):
        policy = LeasePolicy(max_respawns=1)
        sup, _, procs, _, spawned, evicted = _harness(policy)
        procs[0]._alive = False
        sup.poll(round_no=0)
        assert spawned == [(0, 1)]
        sup._processes[0]._alive = False
        sup.poll(round_no=0)
        assert evicted == [0]
        assert sup.snapshot()["evictions"] == 1

    def test_evict_policy_never_relaunches(self):
        policy = LeasePolicy(on_expiry="evict")
        sup, _, procs, _, spawned, evicted = _harness(policy)
        procs[1]._alive = False
        sup.poll(round_no=0)
        assert spawned == [] and evicted == [1]

    def test_continue_policy_waits_on_live_silent_rank(self):
        policy = LeasePolicy(
            on_expiry="continue", beat_interval_s=0.1, missed_beats=2,
            spawn_grace_s=0.0,
        )
        sup, clock, procs, _, spawned, evicted = _harness(policy)
        clock.now += policy.lease_ttl_s + 10.0  # silent but alive
        sup.poll(round_no=0)
        assert spawned == [] and evicted == []
        procs[0]._alive = False  # actually dead: evicted, never respawned
        sup.poll(round_no=0)
        assert spawned == [] and evicted == [0]

    def test_straggler_deadline_counts_and_acts(self):
        policy = LeasePolicy(
            beat_interval_s=0.1, missed_beats=5,
            straggler_deadline_s=1.0, spawn_grace_s=0.0,
        )
        sup, clock, _, leases, spawned, _ = _harness(policy)
        for step in range(1, 6):
            clock.now += 0.3
            leases[0][LEASE_SEQ] = step
            leases[1][LEASE_SEQ] = step
            leases[0][LEASE_ROUND] = step  # rank 0 advances, rank 1 stuck
            sup.poll(round_no=step)
        assert sup.snapshot()["stragglers"] == 1
        assert spawned == [(1, 1)]

    def test_no_lease_plane_means_no_straggler_verdict(self):
        """Regression: round progress is read only from lease cells, so
        without a lease plane it never advanced and every live rank was
        evicted as a straggler once straggler_deadline_s elapsed — the
        configuration every unsupervised run uses."""
        policy = LeasePolicy(on_expiry="evict")
        sup, clock, procs, _, spawned, evicted = _harness(
            policy, n=3, with_leases=False
        )
        for round_no in range(6):
            clock.now += 7.0
            sup.poll(round_no=round_no)
        assert spawned == [] and evicted == []
        snap = sup.snapshot()
        assert snap["stragglers"] == 0 and snap["evictions"] == 0
        procs[2]._alive = False  # a dead process is still evicted
        sup.poll(round_no=6)
        assert evicted == [2]

    def test_skip_protects_cleanly_exited_ranks(self):
        policy = LeasePolicy()
        sup, _, procs, _, spawned, evicted = _harness(policy)
        procs[0]._alive = False  # exited after its final report
        sup.poll(round_no=5, skip={0})
        assert spawned == [] and evicted == []


# ---------------------------------------------------------------------- #
# Fault-schedule fast-forward (rejoin determinism)
# ---------------------------------------------------------------------- #


class TestFaultScheduleFastForward:
    PLAN = FaultPlan([
        FaultSpec("training.worker_step", "transient", rate=0.3),
        FaultSpec("training.worker_step", "delay", rate=0.2, delay_s=0.001),
    ])

    @staticmethod
    def _drive(injector, n):
        outcomes = []
        for _ in range(n):
            try:
                outcomes.append(injector.fire("training.worker_step"))
            except Exception as exc:  # noqa: BLE001 - schedule raises
                outcomes.append(type(exc).__name__)
        return outcomes

    def test_fast_forward_replays_to_identical_future(self):
        live = FaultInjector(self.PLAN, seed=7, sleep=lambda s: None)
        self._drive(live, 10)
        resumed = FaultInjector(self.PLAN, seed=7, sleep=lambda s: None)
        resumed.fast_forward(live.call_counts())
        assert resumed.call_counts() == live.call_counts()
        assert resumed.faults_injected == live.faults_injected
        assert self._drive(resumed, 10) == self._drive(live, 10)

    def test_fast_forward_requires_fresh_injector(self):
        injector = FaultInjector(self.PLAN, seed=0, sleep=lambda s: None)
        self._drive(injector, 1)
        with pytest.raises(ConfigError):
            injector.fast_forward({"training.worker_step": 3})

    def test_fast_forward_never_raises_or_sleeps(self):
        slept = []
        injector = FaultInjector(
            self.PLAN, seed=7, sleep=lambda s: slept.append(s)
        )
        injector.fast_forward({"training.worker_step": 50})
        assert slept == []
        assert injector.calls("training.worker_step") == 50


# ---------------------------------------------------------------------- #
# Supervised runs (real workers)
# ---------------------------------------------------------------------- #


class TestSupervisedBackend:
    def test_unfaulted_supervised_matches_baseline_bitwise(
        self, dataset, partitioned, baseline
    ):
        graph, split = dataset
        sup = get_backend("process").run(
            graph, split, partitioned.assignment, 3,
            epochs=6, seed=0, timeout_s=RUN_TIMEOUT_S, supervise=True,
        )
        assert baseline.param_checksum
        assert sup.param_checksum == baseline.param_checksum
        assert sup.respawns == 0 and sup.evictions == 0
        assert sup.recovery == "supervised"
        assert not _leftover_segments()

    def test_kill_one_mid_round_respawns_bit_identical(
        self, dataset, partitioned, baseline
    ):
        """Kill a worker mid-run under supervision — the rank is
        respawned, rejoins fenced, and the final averaged parameters are
        bit-identical to the unfaulted run's (full participation, zero
        lost workers)."""
        graph, split = dataset
        killed = []

        def hook(round_no, processes):
            if round_no == 2 and not killed:
                killed.append(round_no)
                processes[1].kill()

        chaos = get_backend("process").run(
            graph, split, partitioned.assignment, 3,
            epochs=6, seed=0, timeout_s=RUN_TIMEOUT_S,
            supervise=LeasePolicy(), round_hook=hook,
        )
        assert killed == [2]
        assert chaos.respawns == 1
        assert chaos.workers_lost == 0  # full participation restored
        assert chaos.sync_rounds == 6
        assert chaos.recovery_latency_s > 0.0
        assert chaos.param_checksum == baseline.param_checksum
        assert chaos.test_accuracy == pytest.approx(baseline.test_accuracy)
        # Rank 1 gathered twice: the killed incarnation and its successor.
        gathers = _gather_bytes(graph, partitioned.assignment, 3)
        assert chaos.attach_stats["copied_bytes"] == sum(gathers) + gathers[1]
        assert not _leftover_segments()

    def test_evict_policy_renormalises_over_survivors(
        self, dataset, partitioned
    ):
        graph, split = dataset
        killed = []

        def hook(round_no, processes):
            if round_no == 2 and not killed:
                killed.append(round_no)
                processes[2].kill()

        res = get_backend("process").run(
            graph, split, partitioned.assignment, 3,
            epochs=4, seed=0, timeout_s=RUN_TIMEOUT_S,
            supervise=LeasePolicy(on_expiry="evict"), round_hook=hook,
        )
        assert res.evictions == 1
        assert res.respawns == 0
        assert res.workers_lost == 1
        # The evicted rank's one gather ran before the kill and counts.
        assert res.attach_stats["copied_bytes"] == sum(
            _gather_bytes(graph, partitioned.assignment, 3)
        )
        assert not _leftover_segments()

    def test_timeout_diagnostics_name_heartbeats_and_rounds(
        self, dataset, partitioned
    ):
        graph, split = dataset
        with pytest.raises(DistributedError) as excinfo:
            get_backend("process").run(
                graph, split, partitioned.assignment, 3,
                epochs=2, seed=0, timeout_s=1e-6, supervise=True,
            )
        message = str(excinfo.value)
        assert "rank 0" in message and "rank 2" in message
        assert "last published round" in message
        assert "heartbeat" in message
        assert "generation" in message
        assert not _leftover_segments()

    def test_timeout_diagnostics_unsupervised(self, dataset, partitioned):
        graph, split = dataset
        with pytest.raises(DistributedError) as excinfo:
            get_backend("process").run(
                graph, split, partitioned.assignment, 3,
                epochs=2, seed=0, timeout_s=1e-6,
            )
        message = str(excinfo.value)
        assert "last published round" in message
        assert "no lease plane (supervise off)" in message
        assert not _leftover_segments()

    def test_supervise_rejects_garbage(self, dataset, partitioned):
        graph, split = dataset
        with pytest.raises(ConfigError):
            get_backend("process").run(
                graph, split, partitioned.assignment, 3,
                epochs=1, seed=0, timeout_s=RUN_TIMEOUT_S,
                supervise="aggressively",
            )
