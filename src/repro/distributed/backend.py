"""Distributed training backends: one algorithm, in-process and real.

:class:`DistributedBackend` is the common face of partition-parallel
training, and both implementations run one algorithm: the same
:func:`~repro.distributed.shards.build_shard_plan` shards, one
:class:`~repro.distributed.worker.ShardStep` per rank (a GCN seeded
``seed + 1 + rank`` that starts from ``GCN(seed=seed)``'s parameters and
takes one local step per round on its owned and ghost rows, behind the
rank's own ``training.worker_step`` fault injector), and one averaging
rule (:func:`average_params`). Both validate through one path before any
work and return a :class:`BackendResult`:

* :class:`SimulatedBackend` — the rounds in one process.
* :class:`ProcessBackend` — real ``spawn``-ed worker processes over
  shared-memory graph shards (:mod:`repro.distributed.shm`,
  :mod:`repro.distributed.shards`): the coordinator publishes the
  feature matrix and per-shard CSR arrays once, workers attach
  zero-copy, gather their owned and ghost rows once, and synchronise
  parameters each round.

A round is the same sequence on both: step → publish state → average →
load. Features never change, so no round ships a feature row: each
rank's one-time gather already holds its ghost rows. Parameters are the
only per-round traffic.

With the same arguments the two end on the same ``param_checksum``, so
the in-process backend is the process backend's bitwise oracle, fault
plans included.

Control plane (all shared memory, no queues — see
:mod:`repro.distributed.worker` for why queues cannot survive a killed
writer): each worker owns a flat ``state`` vector plus a four-cell
meta block ``(round, n_train, failed, generation)``; the coordinator
owns one flat ``params`` vector plus a round cell. A writer always
fills the payload first and advances its round cell last, so a reader
that sees round ``r`` is guaranteed a complete round-``r`` payload.

Membership has one path: a
:class:`~repro.distributed.supervisor.Supervisor` polls the workers
whenever the gather stalls. Without ``supervise=`` it runs
``LeasePolicy(on_expiry="evict")`` with no lease plane: a dead rank
is dropped from the membership and the round's average is renormalised
over the survivors. No worker waits on a peer, only on the
coordinator's parameter round cell. ``supervise=`` adds
the lease plane — per-rank heartbeat leases and per-round resume
checkpoints — so the policy can also respawn a rank, which rejoins
generation-fenced and bit-exact (see :mod:`repro.distributed.supervisor`).

Cleanup is unconditional: the arena unlink and worker terminate/kill
sweep run in a ``finally`` that covers normal completion, worker
crashes, chaos kills, and coordinator timeouts — no exit path strands
``/dev/shm`` segments or child processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing as mp
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro.distributed.shards import ShardPlan, build_shard_plan
from repro.distributed.shm import ShmArena
from repro.distributed.supervisor import (
    LEASE_CELLS,
    LEASE_ROUND,
    LeasePolicy,
    Supervisor,
)
from repro.distributed.worker import (
    DONE_FIELDS,
    META_CELLS,
    META_FAILED,
    META_GENERATION,
    META_N_TRAIN,
    META_ROUND,
    ShardStep,
    WorkerSpec,
    flatten_state,
    unflatten_state,
    worker_main,
)
from repro.errors import ConfigError, DistributedError
from repro.models.gcn import GCN
from repro.resilience.faults import FaultInjector
from repro.tensor.autograd import no_grad
from repro.training.metrics import accuracy
from repro.utils.validation import check_int_range

_LOG = obs.get_logger("repro.distributed.backend")

#: Coordinator-side spin interval while gathering worker states.
_GATHER_POLL_S = 0.005
#: How often (seconds) the stalled gather re-checks worker liveness.
_LIVENESS_EVERY_S = 0.1


@dataclass(frozen=True)
class BackendResult:
    """Outcome of one distributed run, whichever backend produced it.

    The analytic fields (``halo_floats_per_epoch``,
    ``param_sync_floats_per_round``, ``cross_partition_arcs``) mean the
    same thing for both backends. ``halo_floats_per_epoch`` is the
    modelled volume of a system that exchanges one boundary feature row
    per cross-partition arc every epoch; no backend here ships it, since
    features never change and each rank gathers its ghost rows once.
    ``attach_stats`` is only filled by the process backend: in an
    unfaulted run its ``copied_bytes`` is exactly that one-time gather,
    Σ_p n_local_p·(d+1)·8 bytes (float64 feature rows plus int64
    labels).
    """

    backend: str
    test_accuracy: float
    epochs: int
    n_parts: int
    cross_partition_arcs: int
    halo_floats_per_epoch: int
    param_sync_floats_per_round: int
    sync_rounds: int = 0
    worker_failures: int = 0
    straggler_events: int = 0
    degraded_rounds: int = 0
    workers_lost: int = 0
    # membership (the process backend's Supervisor)
    respawns: int = 0
    evictions: int = 0
    leases_expired: int = 0
    fenced_writes: int = 0
    recovery_latency_s: float = 0.0
    #: SHA-256 of the final averaged parameter vector's bytes — the
    #: bit-identity witness compared across runs and across backends.
    param_checksum: str = ""
    wall_time_s: float = 0.0
    attach_stats: dict = field(default_factory=dict)
    recovery: str = "reweight"
    # telemetry (populated only when the process backend runs with the
    # repro.obs.telemetry plane enabled)
    trace_id: str | None = None
    trace: dict | None = None
    rank_metrics: dict = field(default_factory=dict)
    cluster_snapshot: dict = field(default_factory=dict)
    span_log_dir: str | None = None


class DistributedBackend:
    """Common interface over in-process and process-parallel training."""

    name = "abstract"

    def run(self, graph, split, assignment: np.ndarray, n_parts: int,
            **kwargs) -> BackendResult:
        raise NotImplementedError


def _plan(graph, split, assignment, n_parts: int, epochs: int) -> ShardPlan:
    """Both backends' one validation path, run before any work.

    Features and labels must be present, ``n_parts >= 1``,
    ``epochs >= 1`` and ``split.train`` non-empty; the assignment is
    checked by :func:`build_shard_plan` (one entry per node, every part
    id in ``[0, n_parts)``, every part owning a node). Returns the plan.
    """
    if graph.x is None or graph.y is None:
        raise ConfigError("graph needs features and labels")
    check_int_range("n_parts", n_parts, 1)
    check_int_range("epochs", epochs, 1)
    if not len(split.train):
        raise ConfigError("split.train is empty: no rank has a training node")
    with obs.span("distributed.plan", n_parts=n_parts):
        return build_shard_plan(graph, assignment, n_parts)


def average_params(previous: np.ndarray, contributions: dict) -> np.ndarray:
    """The averaging rule of both backends.

    ``contributions`` maps rank -> ``(flat state, local train count)``,
    the state ``None`` when the rank's update was lost. Weights are the
    train counts renormalised over the contributors, summed in rank
    order: float accumulation is not commutative in rounding, and
    summing in arrival order would make the average (and every bitwise
    guarantee built on it) racy. With no weight at all the previous
    average stands.
    """
    live = [
        (vec, n_train)
        for _, (vec, n_train) in sorted(contributions.items())
        if vec is not None and n_train > 0
    ]
    total_weight = sum(n_train for _, n_train in live)
    if total_weight == 0:
        return previous
    return sum((n_train / total_weight) * vec for vec, n_train in live)


def _final_fields(graph, split, plan: ShardPlan, model: GCN,
                  averaged: np.ndarray) -> dict:
    """The :class:`BackendResult` fields both backends derive alike: test
    accuracy of the final average on the full graph, its checksum, and
    the analytic communication accounting."""
    model.load_state_dict(unflatten_state(averaged, model.state_dict()))
    model.eval()
    with obs.span("distributed.eval"), no_grad():
        logits = model(GCN.prepare(graph), graph.x).data
    test = split.test
    return dict(
        test_accuracy=accuracy(logits[test].argmax(axis=1), graph.y[test]),
        cross_partition_arcs=plan.cross_arcs_total,
        halo_floats_per_epoch=plan.halo_floats_per_epoch(graph.x.shape[1]),
        param_sync_floats_per_round=2 * model.n_parameters() * plan.n_parts,
        param_checksum=hashlib.sha256(
            np.ascontiguousarray(averaged).tobytes()
        ).hexdigest(),
    )


class SimulatedBackend(DistributedBackend):
    """The process backend's rounds, run in one process.

    Per round every rank runs its :class:`ShardStep` in rank order, and
    the contributions are averaged by :func:`average_params` — the
    process coordinator's arithmetic on the same inputs, so both backends
    end on the same ``param_checksum``. There are no processes to lose,
    so the run takes no membership, timeout or telemetry arguments.
    """

    name = "simulated"

    def run(
        self,
        graph,
        split,
        assignment: np.ndarray,
        n_parts: int,
        epochs: int = 20,
        hidden: int = 32,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        dropout: float = 0.3,
        seed: int = 0,
        fault_plan=None,
        fault_seed: int = 0,
    ) -> BackendResult:
        """Train for ``epochs`` synchronous rounds over ``n_parts`` ranks;
        the arguments mean what they mean to :meth:`ProcessBackend.run`."""
        plan = _plan(graph, split, assignment, n_parts, epochs)
        start = time.monotonic()
        model = GCN(
            graph.x.shape[1], hidden, graph.n_classes,
            n_layers=2, dropout=dropout, seed=seed,
        )
        averaged = flatten_state(model.state_dict())
        train_mask = np.zeros(graph.n_nodes, dtype=bool)
        train_mask[split.train] = True
        y = np.asarray(graph.y, dtype=np.int64)
        ranks = []
        for p, shard in enumerate(plan.shards):
            local = shard.local_nodes
            rank = ShardStep(
                shard.local_graph(), graph.x[local], y[local],
                np.flatnonzero(train_mask[shard.owned]),
                n_classes=graph.n_classes, hidden=hidden, lr=lr,
                weight_decay=weight_decay, dropout=dropout, seed=seed + 1 + p,
                injector=(
                    None if fault_plan is None
                    else FaultInjector(fault_plan, seed=fault_seed + p)
                ),
            )
            rank.load(averaged)
            ranks.append(rank)
        degraded_rounds = 0
        for round_no in range(epochs):
            contributions = {}
            for p, rank in enumerate(ranks):
                lost = rank.train_round(round_no)
                contributions[p] = (None, 0) if lost else (
                    flatten_state(rank.model.state_dict()), len(rank.train_ids)
                )
            degraded_rounds += any(
                vec is None for vec, _ in contributions.values()
            )
            averaged = average_params(averaged, contributions)
            for rank in ranks:
                rank.load(averaged)
        return BackendResult(
            backend=self.name,
            epochs=int(epochs),
            n_parts=int(n_parts),
            sync_rounds=int(epochs),
            worker_failures=sum(r.counters["failures"] for r in ranks),
            straggler_events=sum(r.counters["stragglers"] for r in ranks),
            degraded_rounds=degraded_rounds,
            wall_time_s=time.monotonic() - start,
            **_final_fields(graph, split, plan, model, averaged),
        )


def _lease_policy(supervise) -> LeasePolicy | None:
    """The lease-plane policy ``supervise=`` asks for (None: no plane)."""
    if supervise is None or supervise is False:
        return None
    if supervise is True:
        return LeasePolicy()
    if isinstance(supervise, LeasePolicy):
        return supervise
    raise ConfigError(
        "supervise takes None, a bool, or a LeasePolicy, "
        f"got {type(supervise).__name__}"
    )


class ProcessBackend(DistributedBackend):
    """Real process-parallel training over shared-memory shards.

    Instances are reusable across runs and double as an
    :class:`repro.obs` stats source (``distributed.backend.*``
    counters: runs, sync rounds, segment attaches, workers lost,
    respawns, evictions).
    """

    name = "process"

    def __init__(self) -> None:
        self._counters = dict.fromkeys((
            "runs", "sync_rounds", "attaches", "workers_lost", "respawns",
            "evictions",
        ), 0)
        #: The merged per-rank metrics view of the most recent
        #: telemetry-enabled run (a ClusterMetrics, or None).
        self.last_cluster = None
        obs.register_source("distributed.backend", self)

    # ------------------------------------------------------------------ #
    # StatsSource protocol
    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, float]:
        return dict(self._counters)

    def reset(self) -> None:
        for key in self._counters:
            self._counters[key] = 0

    # ------------------------------------------------------------------ #

    def run(
        self,
        graph,
        split,
        assignment: np.ndarray,
        n_parts: int,
        epochs: int = 20,
        hidden: int = 32,
        lr: float = 0.01,
        weight_decay: float = 5e-4,
        dropout: float = 0.3,
        seed: int = 0,
        fault_plan=None,
        fault_seed: int = 0,
        timeout_s: float = 300.0,
        round_hook=None,
        supervise=None,
        resume_dir: str | None = None,
        telemetry: bool | None = None,
        telemetry_dir: str | None = None,
    ) -> BackendResult:
        """Train for ``epochs`` synchronous rounds over ``n_parts`` workers.

        ``fault_plan`` (a picklable :class:`repro.resilience.FaultPlan`)
        is shipped to every worker and rebuilt locally with seed
        ``fault_seed + rank``. ``round_hook(round_no, processes)``, when
        given, runs in the coordinator at the top of every round — the
        chaos tests use it to kill workers mid-run. ``timeout_s`` bounds
        the whole run; exceeding it tears everything down and raises
        :class:`repro.errors.DistributedError`.

        Every run watches its workers through one
        :class:`~repro.distributed.supervisor.Supervisor`.
        ``supervise=None``/``False`` runs it under
        ``LeasePolicy(on_expiry="evict")`` with no lease plane: a dead
        rank is evicted and the survivors renormalise. ``True`` (the
        default :class:`~repro.distributed.supervisor.LeasePolicy`) or
        a ``LeasePolicy`` instance adds the lease plane: every worker
        heartbeats a lease cell and saves a per-round resume checkpoint
        under ``resume_dir`` (a per-run temporary directory when not
        given — pass a fresh directory per run, stale snapshots from an
        earlier run would poison a rejoin); a rank whose lease expires
        or whose process dies is respawned with a bumped generation
        (fencing) token and rejoins bit-exactly.

        ``telemetry`` switches the :mod:`repro.obs.telemetry` plane —
        ``None`` follows the process-global ``obs.enabled()`` flag. When
        on, a :class:`~repro.obs.telemetry.TraceContext` minted from the
        coordinator's ``distributed.run`` span rides inside every
        ``WorkerSpec``, each rank streams spans to
        ``<telemetry_dir>/rank<r>.jsonl`` and publishes its metrics
        registry through a kill-safe shm cell per round; the result then
        carries the assembled cross-process ``trace`` and the merged
        ``cluster_snapshot`` (a chaos-killed rank's last published
        counters included).
        """
        plan = _plan(graph, split, assignment, n_parts, epochs)
        return _Coordinator(
            self, graph, split, plan, int(n_parts),
            epochs=int(epochs), hidden=hidden, lr=lr,
            weight_decay=weight_decay, dropout=dropout, seed=seed,
            fault_plan=fault_plan, fault_seed=fault_seed,
            timeout_s=float(timeout_s), round_hook=round_hook,
            lease_policy=_lease_policy(supervise), resume_dir=resume_dir,
            telemetry=(
                obs.OBS.enabled if telemetry is None else bool(telemetry)
            ),
            telemetry_dir=telemetry_dir,
        ).execute()


@dataclass(eq=False)
class _Coordinator:
    """One :meth:`ProcessBackend.run`, as an explicit sequence of phases.

    publish → launch → per round: gather / fence / average → collect
    reports → evaluate → result, with the teardown in one ``finally``
    (the validated shard plan comes in from :func:`_plan`).
    ``lease_policy`` is ``None`` for an unsupervised run; the supervisor
    then runs the ``evict`` policy with no lease plane.
    """

    backend: ProcessBackend
    graph: object
    split: object
    plan: ShardPlan
    n_parts: int
    epochs: int
    hidden: int
    lr: float
    weight_decay: float
    dropout: float
    seed: int
    fault_plan: object
    fault_seed: int
    timeout_s: float
    round_hook: object
    lease_policy: LeasePolicy | None
    resume_dir: str | None
    telemetry: bool
    telemetry_dir: str | None

    # Phase outputs that stay unset when their phase is off or not
    # reached; ``tele`` holds the repro.obs.telemetry module while on.
    leases = run_cm = tele = cluster = tele_dir = trace_ctx = None
    made_resume_dir = False

    def __post_init__(self) -> None:
        self.policy = self.lease_policy or LeasePolicy(on_expiry="evict")
        self.arena = ShmArena()
        self.processes: list = []
        self.specs: list[WorkerSpec] = []
        self.metrics_views: list = []
        self.expected = set(range(self.n_parts))
        #: Run counters, named after the BackendResult fields they fill.
        self.totals = dict.fromkeys((
            "worker_failures", "straggler_events", "degraded_rounds",
            "sync_rounds", "workers_lost",
        ), 0)
        self.attach_stats = {"attaches": 0, "mapped_bytes": 0, "copied_bytes": 0}

    # ---- phases -------------------------------------------------------

    def execute(self) -> BackendResult:
        self.model = GCN(
            self.graph.x.shape[1], self.hidden, self.graph.n_classes,
            n_layers=2, dropout=self.dropout, seed=self.seed,
        )
        self.averaged = flatten_state(self.model.state_dict())
        self.start = time.monotonic()
        self.deadline = self.start + self.timeout_s
        try:
            # Resume checkpoints need a directory; a supervised run
            # without one gets a per-run tempdir, removed at teardown.
            self.resume_root = self.resume_dir
            if self.lease_policy is not None and self.resume_root is None:
                self.resume_root = tempfile.mkdtemp(prefix="repro-dist-resume-")
                self.made_resume_dir = True
            if self.telemetry:
                self._open_telemetry()
            # The run span is the coordinator anchor every rank's span
            # tree grafts under at assembly (a NullSpan while obs is off).
            self.run_cm = obs.span(
                "distributed.run", n_parts=self.n_parts,
                backend=self.backend.name,
            )
            self.run_span = self.run_cm.__enter__()
            with obs.span("distributed.publish"):
                handles = self._publish()
            self._launch(handles)
            for round_no in range(self.epochs):
                if self.round_hook is not None:
                    self.round_hook(round_no, self.processes)
                self._average(round_no, self._gather(round_no))
            self._collect_reports()
            final = _final_fields(
                self.graph, self.split, self.plan, self.model, self.averaged
            )
            self._count_run()
            return self._result(final)
        finally:
            self._teardown()

    def _open_telemetry(self) -> None:
        from repro.obs import telemetry as tele

        self.tele = tele
        if not obs.OBS.enabled:
            obs.configure(enabled=True)
        self.tele_dir = Path(
            self.telemetry_dir or tempfile.mkdtemp(prefix="repro-telemetry-")
        )
        self.tele_dir.mkdir(parents=True, exist_ok=True)
        self.cluster = tele.ClusterMetrics()
        # Strong ref on the backend: register_source keeps only a
        # weakref, and the cluster view must outlive run() so the
        # coordinator's snapshot() still answers after a chaos kill.
        self.backend.last_cluster = self.cluster
        obs.register_source("cluster", self.cluster)

    def _publish(self) -> list[dict]:
        """Publish the data + control plane once; keep coordinator views.

        Returns, per rank, every segment handle that rank attaches, keyed
        by its :class:`WorkerSpec` field name.
        """
        arena, n = self.arena, self.n_parts
        train_mask = np.zeros(self.graph.n_nodes, dtype=bool)
        train_mask[self.split.train] = True
        common = {
            "x": arena.publish("x", np.ascontiguousarray(self.graph.x)),
            "y": arena.publish("y", self.graph.y.astype(np.int64)),
            "train_mask": arena.publish("train-mask", train_mask),
            "params": arena.publish("params", self.averaged),
            "params_round": arena.publish(
                "params-round", np.full(1, -1, dtype=np.int64)
            ),
        }
        handles = []
        for p, shard in enumerate(self.plan.shards):
            handles.append(dict(
                common,
                indptr=arena.publish(f"s{p}-indptr", shard.indptr),
                indices=arena.publish(f"s{p}-indices", shard.indices),
                weights=arena.publish(f"s{p}-weights", shard.weights),
                owned=arena.publish(f"s{p}-owned", shard.owned),
                ghosts=arena.publish(f"s{p}-ghosts", shard.ghosts),
                state=arena.publish(f"state-{p}", np.zeros_like(self.averaged)),
                # [round, n_train, failed, generation]; the round cell
                # starts unpublished.
                state_meta=arena.publish(
                    f"state-meta-{p}",
                    np.array([-1] + [0] * (META_CELLS - 1), dtype=np.int64),
                ),
                done=arena.publish(
                    f"done-{p}", np.zeros(1 + len(DONE_FIELDS), dtype=np.int64)
                ),
            ))
        # Lease cells (supervised runs): written payload-first
        # sequence-last by each worker's heartbeat thread.
        if self.lease_policy is not None:
            for p in range(n):
                cell = np.zeros(LEASE_CELLS, dtype=np.int64)
                cell[LEASE_ROUND] = -1
                handles[p]["lease"] = arena.publish(f"lease-{p}", cell)
            self.leases = [arena.view(f"lease-{p}") for p in range(n)]
        # Metrics cells (telemetry): payload segment + (seq, length)
        # meta, written payload-first seq-last by the worker.
        if self.tele is not None:
            for p in range(n):
                handles[p]["metrics"] = arena.publish(
                    f"metrics-{p}",
                    np.zeros(self.tele.METRICS_SEGMENT_BYTES, dtype=np.uint8),
                )
                handles[p]["metrics_meta"] = arena.publish(
                    f"metrics-meta-{p}", np.array([-1, 0], dtype=np.int64)
                )
                self.metrics_views.append((
                    arena.view(f"metrics-{p}"), arena.view(f"metrics-meta-{p}")
                ))
        self.params = arena.view("params", writable=True)
        self.params_round = arena.view("params-round", writable=True)
        self.metas = [
            arena.view(f"state-meta-{p}", writable=True) for p in range(n)
        ]
        self.states = [arena.view(f"state-{p}") for p in range(n)]
        self.dones = [arena.view(f"done-{p}", writable=True) for p in range(n)]
        return handles

    def _launch(self, handles: list[dict]) -> None:
        """Spawn one worker per shard, then the supervisor over them."""
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        if self.tele is not None:
            self.trace_ctx = self.tele.TraceContext.from_span(
                self.run_span, backend=self.backend.name
            )
        for p, shard in enumerate(self.plan.shards):
            spec = WorkerSpec(
                rank=p,
                n_parts=self.n_parts,
                epochs=self.epochs,
                hidden=self.hidden,
                lr=self.lr,
                weight_decay=self.weight_decay,
                dropout=self.dropout,
                seed=self.seed + 1 + p,
                n_classes=self.graph.n_classes,
                directed=shard.directed,
                fault_plan=self.fault_plan,
                fault_seed=self.fault_seed,
                beat_interval_s=self.policy.beat_interval_s,
                resume_dir=self.resume_root,
                sync_timeout_s=self.timeout_s,
                package_root=package_root,
                trace_ctx=(
                    self.trace_ctx.to_dict()
                    if self.trace_ctx is not None else None
                ),
                span_log_path=(
                    str(self.tele_dir / f"rank{p}.jsonl")
                    if self.tele_dir is not None else None
                ),
                **handles[p],
            )
            self.specs.append(spec)
            self.processes.append(self._spawn(spec, f"repro-dist-w{p}"))
        self.supervisor = Supervisor(
            self.policy,
            self.n_parts,
            processes=self.processes,
            leases=self.leases,
            relaunch=self._relaunch,
            on_evict=self._mark_dead,
        )

    def _gather(self, round_no: int) -> dict[int, tuple]:
        """Collect every live rank's round-``round_no`` contribution.

        Fencing: only a rank's current incarnation may contribute — a
        stale generation's publication is discarded, never averaged in.
        """
        sup = self.supervisor
        contributions: dict[int, tuple[np.ndarray | None, int]] = {}
        next_liveness = time.monotonic()
        while self.expected - set(contributions):
            self._check_deadline(
                f"distributed run exceeded {self.timeout_s}s", round_no
            )
            progressed = False
            for rank in self.expected - set(contributions):
                meta = self.metas[rank]
                if meta[META_ROUND] != round_no:
                    continue
                generation = int(meta[META_GENERATION])
                if not sup.fence_accepts(rank, generation):
                    sup.note_fenced_write(rank, round_no, generation)
                    continue
                sup.note_rejoin(rank, round_no)
                if meta[META_FAILED]:
                    self.totals["worker_failures"] += 1
                    contributions[rank] = (None, 0)
                else:
                    # Copy now: the worker may overwrite its vector as
                    # soon as the next round opens.
                    contributions[rank] = (
                        self.states[rank].copy(), int(meta[META_N_TRAIN])
                    )
                progressed = True
            if progressed:
                continue
            if time.monotonic() >= next_liveness:
                sup.poll(round_no)
                next_liveness = time.monotonic() + _LIVENESS_EVERY_S
            time.sleep(_GATHER_POLL_S)
        if not self.expected:
            raise DistributedError(f"all workers lost by round {round_no}")
        return contributions

    def _average(self, round_no: int, contributions: dict) -> None:
        """Average the members' contributions; publish the result."""
        if len(contributions) < self.n_parts or any(
            vec is None for vec, _ in contributions.values()
        ):
            self.totals["degraded_rounds"] += 1
        self.averaged = average_params(self.averaged, {
            rank: c for rank, c in contributions.items() if rank in self.expected
        })
        self.params[:] = self.averaged
        self.params_round[0] = round_no  # publish last
        self.totals["sync_rounds"] += 1

    def _collect_reports(self) -> None:
        """Fold every surviving rank's final counter block."""
        reported: set[int] = set()
        while self.expected - reported:
            self._check_deadline(
                "timed out waiting for worker reports "
                f"({sorted(self.expected - reported)} missing)",
                self.epochs,
            )
            for rank in self.expected - reported:
                if self.dones[rank][0] != 1:
                    continue
                counters = dict(zip(DONE_FIELDS, self.dones[rank][1:]))
                self.totals["straggler_events"] += counters["stragglers"]
                self._fold_attach(rank)
                reported.add(rank)
            # A rank that died before its report is evicted (or, with a
            # lease plane, respawned: the successor resumes past every
            # completed round and reports directly). Ranks whose done
            # flag is up exited cleanly and are exempt.
            done_up = {r for r in range(self.n_parts) if self.dones[r][0] == 1}
            self.supervisor.poll(self.epochs, skip=reported | done_up)
            time.sleep(_GATHER_POLL_S)
        for proc in self.processes:
            proc.join(timeout=5.0)

    def _count_run(self) -> None:
        counters = self.backend._counters
        counters["runs"] += 1
        for key in ("sync_rounds", "workers_lost"):
            counters[key] += self.totals[key]
        counters["attaches"] += self.attach_stats["attaches"]
        sup = self.supervisor.snapshot()
        counters["respawns"] += int(sup["respawns"])
        counters["evictions"] += int(sup["evictions"])
        if obs.OBS.enabled:
            reg = obs.OBS.registry
            reg.counter("distributed.sync_rounds").inc(self.totals["sync_rounds"])
            reg.counter("distributed.attaches").inc(
                self.attach_stats["attaches"]
            )

    def _result(self, final: dict) -> BackendResult:
        telemetry_fields: dict = {}
        if self.tele is not None:
            # Close the run span first so the assembled trace's root
            # carries its end time.
            self._close_run_span()
            self._harvest_metrics()
            trace_id = self.trace_ctx.trace_id
            assembled = self.tele.assemble_trace(
                self.run_span, sorted(self.tele_dir.glob("rank*.jsonl")),
                trace_id=trace_id,
            )
            telemetry_fields = {
                "trace_id": trace_id,
                "trace": assembled.to_dict(),
                "rank_metrics": self.cluster.payloads(),
                "cluster_snapshot": self.cluster.snapshot(),
                "span_log_dir": str(self.tele_dir),
            }
        sup = self.supervisor.snapshot()
        return BackendResult(
            backend=self.backend.name,
            epochs=self.epochs,
            n_parts=self.n_parts,
            **final,
            **self.totals,
            **{
                key: int(sup[key]) for key in
                ("respawns", "evictions", "leases_expired", "fenced_writes")
            },
            recovery_latency_s=float(sup["recovery_latency_s_max"]),
            wall_time_s=time.monotonic() - self.start,
            attach_stats=dict(
                self.attach_stats, published_bytes=self.arena.published_bytes
            ),
            recovery=(
                "supervised" if self.lease_policy is not None else "reweight"
            ),
            **telemetry_fields,
        )

    def _teardown(self) -> None:
        """Unconditional: every exit path (completion, chaos kill,
        timeout, KeyboardInterrupt) unlinks the arena and reaps the
        children."""
        self._close_run_span()
        if self.tele is not None:
            # Failure paths still fold the last published rank counters
            # into the registered "cluster" source before the segments
            # are unlinked below.
            try:
                self._harvest_metrics()
            except Exception:  # pragma: no cover - defensive
                _LOG.exception("telemetry harvest failed during teardown")
        for proc in self.processes:
            if proc.is_alive():
                proc.terminate()
        for proc in self.processes:
            if proc.is_alive():
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck child
                proc.kill()
                proc.join(timeout=1.0)
        self.arena.unlink()
        if self.made_resume_dir:
            shutil.rmtree(self.resume_root, ignore_errors=True)

    # ---- supervisor callbacks and helpers -----------------------------

    def _spawn(self, spec: WorkerSpec, name: str):
        proc = mp.get_context("spawn").Process(
            target=worker_main, args=(spec,), daemon=True, name=name
        )
        proc.start()
        return proc

    def _fold_attach(self, rank: int) -> None:
        """Move ``rank``'s done-block attach counters into ``attach_stats``
        (zeroing them, so no incarnation counts twice)."""
        done = self.dones[rank]
        for key in self.attach_stats:
            slot = 1 + DONE_FIELDS.index(key)
            self.attach_stats[key] += int(done[slot])
            done[slot] = 0

    def _relaunch(self, rank: int, generation: int):
        # The previous incarnation is confirmed dead by the supervisor
        # before this runs, so wiping its round cell races nothing:
        # whatever it last published is void (its gather still counts),
        # and the successor is the segments' only writer from here on.
        self.metas[rank][META_ROUND] = -1
        self._fold_attach(rank)
        spec = dataclasses.replace(
            self.specs[rank], generation=generation, resume=True
        )
        self.specs[rank] = spec
        return self._spawn(spec, f"repro-dist-w{rank}g{generation}")

    def _mark_dead(self, rank: int, why: str) -> None:
        if rank not in self.expected:
            return
        self.expected.discard(rank)
        self.totals["workers_lost"] += 1
        self._fold_attach(rank)  # killed first by the supervisor
        if self.cluster is not None:
            self.cluster.mark_dead(rank)
        _LOG.warning("worker %d lost (%s)", rank, why)

    def _harvest_metrics(self) -> None:
        """Fold every rank's newest published registry dump into the
        cluster view — including a chaos-killed rank's last complete
        publication (the seq-last protocol guarantees it is whole)."""
        for p, (buf, meta) in enumerate(self.metrics_views):
            seq, blob = self.tele.read_blob(buf, meta)
            if blob is None:
                continue
            payload = self.tele.decode_payload(blob)
            if payload is not None:
                self.cluster.ingest(
                    p, payload, seq=seq, live=p in self.expected
                )

    def _check_deadline(self, what: str, round_no: int) -> None:
        if time.monotonic() > self.deadline:
            raise DistributedError(f"{what} {self._liveness_report(round_no)}")

    def _liveness_report(self, round_no: int) -> str:
        """Per-rank heartbeat/progress detail for timeout errors."""
        lines = []
        for diag in self.supervisor.diagnostics():
            rank = diag["rank"]
            status = "alive" if diag["alive"] else "dead"
            if self.leases is None:
                extra = ", no lease plane (supervise off)"
            else:
                age = diag["beat_age_s"]
                beat = (
                    f"last heartbeat {age:.2f}s ago"
                    if age is not None else "no heartbeat observed"
                )
                extra = f", generation {diag['generation']}, {beat}"
            lines.append(
                f"rank {rank}: {status}, last published round "
                f"{int(self.metas[rank][META_ROUND])}{extra}"
            )
        return f"at round {round_no}: " + "; ".join(lines)

    def _close_run_span(self) -> None:
        if self.run_cm is not None:
            self.run_cm.__exit__(None, None, None)
            self.run_cm = None


_BACKENDS = {
    "simulated": SimulatedBackend,
    "process": ProcessBackend,
}


def get_backend(name: str) -> DistributedBackend:
    """Instantiate a backend by name (``"simulated"`` or ``"process"``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ConfigError(
            f"unknown distributed backend {name!r}; "
            f"choose from {sorted(_BACKENDS)}"
        ) from None
    return cls()
