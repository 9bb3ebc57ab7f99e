"""Process-parallel distributed training over shared-memory shards.

``spawn``-ed worker processes, one per partition part, attach the
coordinator-published feature matrix and per-shard CSR arrays zero-copy
from ``multiprocessing.shared_memory``, exchange halo feature rows per
cross-partition arc every round, and synchronise parameters through the
coordinator with train-node-weighted averaging.

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
    assert result.halo_floats_received == \
        result.halo_floats_per_epoch * result.epochs
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
shared-segment lifecycle, and halo/lease protocols.
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
