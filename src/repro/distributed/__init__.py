"""Process-parallel distributed training over shared-memory shards.

``spawn``-ed worker processes, one per partition part, attach the
coordinator-published feature matrix and per-shard CSR arrays zero-copy
from ``multiprocessing.shared_memory``, gather their owned and ghost
feature rows once, and synchronise parameters through the coordinator
with train-node-weighted averaging. A round on either backend is step →
publish state → average → load: features never change, so no round
ships a feature row, and parameters are the only per-round traffic.

:class:`SimulatedBackend` runs the same algorithm in one process: the
same shard plan, the same per-rank
:class:`~repro.distributed.worker.ShardStep` and fault injectors, the
same :func:`~repro.distributed.backend.average_params` rule. With the same
arguments it ends on the process run's ``param_checksum`` bit for bit,
so it is the process backend's oracle. Pick a backend with
:func:`get_backend`::

    from repro.distributed import get_backend

    result = get_backend("process").run(graph, split, assignment, 4,
                                        epochs=10)
    # The one-time local gather is the only feature traffic:
    # float64 rows plus int64 labels of every owned and ghost node.
    plan = build_shard_plan(graph, assignment, 4)
    assert result.attach_stats["copied_bytes"] == sum(
        s.n_local for s in plan.shards) * (graph.n_features + 1) * 8
    oracle = get_backend("simulated").run(graph, split, assignment, 4,
                                          epochs=10)
    assert oracle.param_checksum == result.param_checksum

Every process run watches its workers through one :class:`Supervisor`;
unsupervised, it evicts dead ranks and the survivors renormalise.
Passing ``supervise=True`` (or a :class:`LeasePolicy`) to
:meth:`ProcessBackend.run` adds the self-healing layer: heartbeat
leases, respawn of expired ranks, and generation-fenced bit-exact
rejoin (see :mod:`repro.distributed.supervisor`).

See ``DESIGN.md`` ("Process-parallel distributed training" and
"Membership, leases, and self-healing") for the process topology,
shared-segment lifecycle, and round/lease protocols.
"""

from repro.distributed.backend import (
    BackendResult,
    DistributedBackend,
    ProcessBackend,
    SimulatedBackend,
    get_backend,
)
from repro.distributed.supervisor import LeasePolicy, Supervisor
from repro.distributed.shards import (
    Shard,
    ShardPlan,
    build_shard,
    build_shard_plan,
)
from repro.distributed.shm import (
    AttachedSegments,
    SharedArrayHandle,
    ShmArena,
    attach_array,
)
from repro.distributed.worker import WorkerSpec, worker_main

__all__ = [
    "AttachedSegments",
    "BackendResult",
    "DistributedBackend",
    "LeasePolicy",
    "ProcessBackend",
    "Shard",
    "ShardPlan",
    "SharedArrayHandle",
    "ShmArena",
    "SimulatedBackend",
    "Supervisor",
    "WorkerSpec",
    "attach_array",
    "build_shard",
    "build_shard_plan",
    "get_backend",
    "worker_main",
]
