"""E36 (self-healing runtime): chaos recovery latency and availability.

Claims measured here:

1. **Supervised training survives a kill, bit-exactly.** A worker rank
   is SIGKILLed mid-round under ``supervise=LeasePolicy()``. The
   supervisor respawns it with a bumped generation (fencing) token; the
   successor restores from its per-rank resume checkpoint, fast-forwards
   the deterministic fault schedule, and rejoins. Asserted: exactly one
   respawn, zero ranks lost, and a final parameter checksum
   **bit-identical** to the unfaulted run's. Reported: the measured
   recovery latency (respawn to accepted rejoin).
2. **Replicated serving stays available through a primary kill.** A
   :class:`repro.serving.ShardRouter` with ``replication_factor=2``
   serves a request stream while the primary runtime of one shard is
   poisoned mid-stream. Asserted: ``predict_many`` never fails as a
   whole batch, the router fails over to the replica, requests on other
   shards are all answered, and availability (fraction of ``status ==
   "ok"`` answers) stays above ``AVAILABILITY_BOUND``.
3. **Membership transitions are observable.** The run executes with the
   obs plane enabled; ``supervisor.*`` counters (respawns, rejoins,
   fenced writes, failovers, readmissions) must appear in the registry
   snapshot, and the Prometheus exposition of that snapshot must pass
   :func:`repro.obs.telemetry.lint_prometheus` (enforced by
   ``emit_json(prometheus=True)``).
4. **No leaks.** Every shared-memory segment — including the lease
   plane and the killed incarnation's attachments — is unlinked.

Run directly (``python benchmarks/bench_selfhealing.py [--smoke]``) or
through pytest; ``--smoke`` shrinks sizes for CI.
"""

import argparse
import glob
import sys
import time

import numpy as np
from _common import emit, emit_json

from repro import obs
from repro.bench import Table, format_seconds
from repro.datasets import contextual_sbm
from repro.editing import ldg_partition

AVAILABILITY_BOUND = 0.90   # fraction of ok answers under primary kill


def _leftover_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-dist-*")


class _FailAfterModel:
    """Chaos hook for the serving half: serves ``healthy`` forwards
    through the real model, then fails every later call — the closest
    in-process analogue of killing the primary's backend mid-stream."""

    k_hops = 1

    def __init__(self, inner, healthy):
        self._inner = inner
        self._healthy = healthy

    def eval(self):
        return self

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, *args, **kwargs):
        if self._healthy <= 0:
            raise RuntimeError("primary shard runtime killed")
        self._healthy -= 1
        return self._inner(*args, **kwargs)


def _training_chaos(graph, split, assignment, n_parts, epochs):
    """Claim 1: kill-one-mid-round converges bit-identical under
    supervision; returns the comparison row."""
    from repro.distributed import LeasePolicy, get_backend

    backend = get_backend("process")
    base = backend.run(
        graph, split, assignment, n_parts,
        epochs=epochs, seed=0, timeout_s=600.0,
    )
    killed = []

    def hook(round_no, processes):
        if round_no == epochs // 2 and not killed:
            killed.append(round_no)
            processes[1].kill()

    start = time.perf_counter()
    chaos = backend.run(
        graph, split, assignment, n_parts,
        epochs=epochs, seed=0, timeout_s=600.0,
        supervise=LeasePolicy(), round_hook=hook,
    )
    wall = time.perf_counter() - start

    assert killed, "chaos hook never fired"
    assert chaos.respawns == 1, f"expected 1 respawn, got {chaos.respawns}"
    assert chaos.workers_lost == 0, "respawned rank did not rejoin"
    assert chaos.sync_rounds == epochs
    assert chaos.param_checksum == base.param_checksum, (
        "supervised chaos run diverged from the unfaulted run: "
        f"{chaos.param_checksum[:12]} != {base.param_checksum[:12]}"
    )
    return {
        "kill_round": killed[0],
        "epochs": epochs,
        "wall_s": wall,
        "respawns": chaos.respawns,
        "evictions": chaos.evictions,
        "fenced_writes": chaos.fenced_writes,
        "recovery_latency_s": chaos.recovery_latency_s,
        "accuracy": chaos.test_accuracy,
        "bit_identical": chaos.param_checksum == base.param_checksum,
        "param_checksum": chaos.param_checksum,
    }


def _serving_chaos(graph, assignment, n_parts, n_requests):
    """Claim 2: kill-primary under load — availability and failover."""
    from repro.models import SGC
    from repro.serving import ShardRouter

    model = SGC(graph.n_features, graph.n_classes, k_hops=1, seed=0)
    router = ShardRouter(
        model, graph, assignment, n_parts,
        kind="rw", replication_factor=2,
        runtime_kwargs=dict(
            early_exit=False, max_retries=0, stale_fallback=False,
            breaker_kwargs=dict(
                min_calls=1, window=4, failure_threshold=0.5,
                cooldown_s=60.0,
            ),
        ),
    )
    rng = np.random.default_rng(11)
    nodes = rng.choice(graph.n_nodes, size=n_requests, replace=True)
    kill_at = n_requests // 3
    start = time.perf_counter()
    with router:
        # Phase 1: healthy traffic; phase 2: primary of shard 0 dies.
        healthy = router.predict_many(
            [int(n) for n in nodes[:kill_at]], timeout_s=30.0
        )
        primary = router._replica_records[0][0]
        primary.model = _FailAfterModel(primary.model, healthy=0)
        wounded = router.predict_many(
            [int(n) for n in nodes[kill_at:]], timeout_s=30.0
        )
        wall = time.perf_counter() - start
        results = healthy + wounded
        assert len(results) == n_requests  # no whole-batch failure, ever
        statuses = [result.status for result in results]
        failovers = router.failovers
        active_after = router.active_replica(0)
        router_snapshot = router.snapshot()
    availability = statuses.count("ok") / len(statuses)
    assert failovers >= 1, "primary kill never triggered a failover"
    assert active_after == 1, "shard 0 is not being served by its replica"
    assert availability >= AVAILABILITY_BOUND, (
        f"availability {availability:.3f} < {AVAILABILITY_BOUND}"
    )
    return {
        "requests": n_requests,
        "kill_at": kill_at,
        "wall_s": wall,
        "availability": availability,
        "errors": statuses.count("error"),
        "failovers": failovers,
        "readmissions": router_snapshot["readmissions"],
        "active_replica_shard0": active_after,
    }


def run(smoke: bool = False) -> dict:
    if smoke:
        n_nodes, n_features, epochs, n_requests = 300, 12, 4, 120
    else:
        n_nodes, n_features, epochs, n_requests = 1200, 24, 8, 600
    n_parts = 3
    graph, split = contextual_sbm(
        n_nodes, n_classes=3, homophily=0.8, avg_degree=8,
        n_features=n_features, feature_signal=1.2, seed=9,
    )
    assignment = ldg_partition(graph, n_parts, seed=4).assignment

    previous = obs.configure(enabled=True)
    try:
        training = _training_chaos(
            graph, split, assignment, n_parts, epochs
        )
        serving = _serving_chaos(graph, assignment, n_parts, n_requests)
        snapshot = obs.get_registry().snapshot()
    finally:
        obs.configure(enabled=previous)

    # Claim 3: membership transitions left supervisor.* breadcrumbs.
    supervisor_metrics = sorted(
        name for name in snapshot if name.startswith("supervisor.")
    )
    assert any(
        name.startswith("supervisor.respawns") for name in supervisor_metrics
    ), f"no supervisor.respawns counter in {supervisor_metrics[:10]}"
    assert any(
        name.startswith("supervisor.failovers") for name in supervisor_metrics
    ), f"no supervisor.failovers counter in {supervisor_metrics[:10]}"

    # Claim 4: nothing stranded in /dev/shm.
    assert not _leftover_segments(), (
        f"stranded shared memory: {_leftover_segments()}"
    )

    table = Table(
        "E36: self-healing under chaos",
        ["surface", "fault", "recovery", "outcome"],
    )
    table.add_row(
        "training", f"SIGKILL rank 1 @ round {training['kill_round']}",
        format_seconds(training["recovery_latency_s"]),
        "bit-identical" if training["bit_identical"] else "DIVERGED",
    )
    table.add_row(
        "serving", f"primary dead @ request {serving['kill_at']}",
        f"{serving['failovers']} failover(s)",
        f"{serving['availability']:.1%} available",
    )
    emit(table, "E36_selfhealing")
    payload = {
        "smoke": smoke,
        "n_nodes": n_nodes,
        "n_parts": n_parts,
        "availability_bound": AVAILABILITY_BOUND,
        "training": training,
        "serving": serving,
        "supervisor_metrics": supervisor_metrics,
    }
    emit_json("E36_selfhealing", payload, metrics=True, prometheus=True)
    return payload


def test_selfhealing(benchmark):
    payload = run(smoke=True)
    assert payload["training"]["bit_identical"]
    assert payload["serving"]["availability"] >= AVAILABILITY_BOUND

    # pytest-benchmark hook: the fencing predicate + lease fold, the
    # coordinator-side hot path of the supervision loop.
    from repro.distributed import LeasePolicy, Supervisor

    class _Proc:
        def is_alive(self):
            return True

    leases = [np.zeros(4, dtype=np.int64) for _ in range(8)]
    sup = Supervisor(
        LeasePolicy(), 8, processes=[_Proc() for _ in range(8)],
        leases=leases,
    )

    def poll_once():
        for cell in leases:
            cell[0] += 1
        sup.poll(0)
        return sup.fence_accepts(0, 0)

    assert benchmark(poll_once)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI smoke runs",
    )
    args = parser.parse_args(argv)
    run(smoke=args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
