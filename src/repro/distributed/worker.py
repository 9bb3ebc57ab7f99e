"""The worker process: attach, step, synchronise.

This module is the ``spawn`` entry point of :mod:`repro.distributed` —
everything here must be importable from a fresh interpreter (no closures,
no lambdas in process args). One worker owns one shard and runs one
fixed sequence of phases (:func:`worker_main`):

1. **attach** — map the published feature matrix, label/train-mask
   vectors, and this shard's CSR index arrays from shared memory
   (zero-copy; the only duplication is the explicit local row gather of
   the owned and ghost feature rows and labels, which is accounted);
2. **heartbeat** (supervised runs) and **telemetry** (opt-in);
3. **resume or init** — build the local GCN over the halo-augmented
   shard, then restore the last resume checkpoint (a respawned
   incarnation) or load the coordinator's initial parameters;
4. per round: the **shard step** (:class:`ShardStep`, which the
   in-process backend runs too: the ``"training.worker_step"`` fault
   site, then one local GCN step with the loss restricted to owned
   training nodes), **parameter sync** (publish the flattened local
   state, load the coordinator's weighted average) and the **resume
   save**;
5. **report** — a final shared-memory counter block: attach accounting
   and fault counters.

Ghost rows are input features, which never change: the one-time gather
at build already holds every value a peer could ship, so rounds exchange
no feature rows. Parameters are the only per-round traffic.

Why shared memory for *control* too, not queues: a worker killed
mid-``Queue.put`` (the chaos scenario) leaves a partial pickle frame in
the pipe, and every later reader blocks forever inside ``get()`` — the
poll sees readable bytes, the body never arrives. The protocol here is
kill-safe by construction: every channel is a preallocated segment plus
a monotonically advancing *round cell* written last, so the only
failure mode a dead peer can leave behind is an un-advanced counter,
which the coordinator's supervisor detects and acts on (the average is
renormalised over the survivors, or the rank is respawned).

Publication ordering: a writer fills the payload buffer first and
advances the round cell last; a reader checks the round cell first and
copies the payload immediately after. Lockstep round structure makes
the buffer quiescent while read (a worker cannot publish round ``r+1``
until the coordinator has averaged, and so read, every round-``r``
state).
"""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.distributed.shm import AttachedSegments, SharedArrayHandle
from repro.distributed.supervisor import (
    LEASE_GENERATION,
    LEASE_PID,
    LEASE_ROUND,
    LEASE_SEQ,
)
from repro.errors import DistributedError, FaultError, TransientError
from repro.graph.core import Graph
from repro.models.gcn import GCN
from repro.resilience.checkpoint import Checkpointer
from repro.resilience.faults import FaultInjector
from repro.tensor import functional as F
from repro.tensor.optim import Adam

#: Spin-wait interval (seconds) on a round cell.
_POLL_S = 0.002
#: Rounds between two telemetry publications (span flush + metrics cell).
TELEMETRY_EVERY = 1

#: Counter slots in a worker's "done" block, after the leading done flag.
DONE_FIELDS = (
    "steps",
    "failures",
    "stragglers",
    "sync_rounds",
    "resume_saves",
    "restored_round",
    "attaches",
    "mapped_bytes",
    "copied_bytes",
)

#: state-meta cell indices: ``[round, n_train, failed, generation]``.
#: The generation cell carries the incarnation's fencing token and is
#: written with the payload, before the round cell advances.
META_ROUND, META_N_TRAIN, META_FAILED, META_GENERATION = 0, 1, 2, 3
#: int64 cells in one rank's state-meta block.
META_CELLS = 4


def flatten_state(state: dict, out: np.ndarray | None = None) -> np.ndarray:
    """Concatenate a model state dict into one float64 vector.

    Keys are visited in sorted order, so any two processes holding the
    same architecture agree on the layout — the property that lets the
    coordinator average flat vectors without shipping key names.
    """
    parts = [np.asarray(state[key], dtype=np.float64).ravel()
             for key in sorted(state)]
    flat = np.concatenate(parts) if parts else np.empty(0)
    if out is None:
        return flat
    out[:] = flat
    return out


def unflatten_state(vec: np.ndarray, template: dict) -> dict:
    """Rebuild a state dict with ``template``'s keys/shapes from a vector."""
    state = {}
    offset = 0
    for key in sorted(template):
        ref = np.asarray(template[key])
        size = ref.size
        state[key] = vec[offset:offset + size].reshape(ref.shape).copy()
        offset += size
    return state


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs, picklable and small.

    Large arrays travel as :class:`SharedArrayHandle` descriptors — the
    pages themselves never cross the process boundary.
    """

    rank: int
    n_parts: int
    epochs: int
    hidden: int
    lr: float
    weight_decay: float
    dropout: float
    seed: int
    n_classes: int
    directed: bool
    # shared data plane
    x: SharedArrayHandle
    y: SharedArrayHandle
    train_mask: SharedArrayHandle
    indptr: SharedArrayHandle
    indices: SharedArrayHandle
    weights: SharedArrayHandle
    owned: SharedArrayHandle
    ghosts: SharedArrayHandle
    # shared control plane
    params: SharedArrayHandle | None = None
    params_round: SharedArrayHandle | None = None
    state: SharedArrayHandle | None = None
    state_meta: SharedArrayHandle | None = None
    done: SharedArrayHandle | None = None
    # chaos
    fault_plan: object | None = None
    fault_seed: int = 0
    # self-healing membership (repro.distributed.supervisor) — defaults
    # keep the spec picklable and the unsupervised hot path untouched.
    generation: int = 0
    lease: SharedArrayHandle | None = None
    beat_interval_s: float = 0.05
    resume: bool = False
    resume_dir: str | None = None
    # telemetry (repro.obs.telemetry) — all None means "off", which
    # keeps the spec picklable and the worker hot path untouched.
    trace_ctx: dict | None = None
    span_log_path: str | None = None
    metrics: SharedArrayHandle | None = None
    metrics_meta: SharedArrayHandle | None = None
    # timeouts
    sync_timeout_s: float = 60.0
    # sys.path insurance for spawn (the parent's repro location)
    package_root: str | None = None


def _wait_cell(cell: np.ndarray, target: int, timeout_s: float) -> bool:
    """Spin until ``cell[0] >= target``; ``False`` on timeout."""
    deadline = time.monotonic() + timeout_s
    while cell[0] < target:
        if time.monotonic() > deadline:
            return False
        time.sleep(_POLL_S)
    return True


class ShardStep:
    """One rank's local training over its halo-augmented shard.

    Both backends train a rank through this object: the spawned
    :class:`_Worker` over rows copied out of attached shared memory, the
    in-process :class:`~repro.distributed.SimulatedBackend` over rows
    gathered from the graph. ``x`` holds the owned rows then the ghost
    rows, gathered once (features never change); ``train_ids``
    are the local ids of the owned training nodes. ``injector`` is the
    rank's own :class:`~repro.resilience.FaultInjector` (seeded
    ``fault_seed + rank``), consulted once per round at
    ``training.worker_step``; ``steps``, ``failures`` and
    ``stragglers`` are counted into ``counters``.
    """

    def __init__(self, local_graph: Graph, x: np.ndarray, y: np.ndarray,
                 train_ids: np.ndarray, *, n_classes: int, hidden: int,
                 lr: float, weight_decay: float, dropout: float, seed: int,
                 injector: FaultInjector | None = None,
                 counters: dict | None = None) -> None:
        self.x, self.y, self.train_ids = x, y, train_ids
        self.prep = GCN.prepare(local_graph)
        self.model = GCN(
            x.shape[1], hidden, n_classes,
            n_layers=2, dropout=dropout, seed=seed,
        )
        self.opt = Adam(
            self.model.parameters(), lr=lr, weight_decay=weight_decay
        )
        self.template = self.model.state_dict()
        self.injector = injector
        self.counters = (
            dict.fromkeys(("steps", "failures", "stragglers"), 0)
            if counters is None else counters
        )

    def load(self, vec: np.ndarray) -> None:
        """Load a flat parameter vector (the coordinator's average)."""
        self.model.load_state_dict(unflatten_state(vec, self.template))

    def snapshot(self) -> dict:
        """Everything a successor incarnation needs for a bit-exact
        rejoin: parameters, optimizer moments, the dropout RNG position,
        and the fault schedule position."""
        snap = {
            "model": self.model.state_dict(),
            "optimizer": self.opt.state_dict(),
        }
        if self.model.dropout is not None:
            snap["rng_state"] = self.model.dropout._rng.bit_generator.state
        if self.injector is not None:
            snap["fault_calls"] = self.injector.call_counts()
        return snap

    def restore(self, snap: dict) -> None:
        """Return to a :meth:`snapshot` (a fresh injector is fast-forwarded
        to the snapshot's fault schedule position)."""
        self.model.load_state_dict(
            {k: np.asarray(v) for k, v in snap["model"].items()}
        )
        self.opt.load_state_dict(snap.get("optimizer", {}))
        if self.model.dropout is not None and "rng_state" in snap:
            self.model.dropout._rng.bit_generator.state = snap["rng_state"]
        fault_calls = snap.get("fault_calls")
        if self.injector is not None and fault_calls:
            self.injector.fast_forward(
                {site: int(n) for site, n in fault_calls.items()}
            )

    def train_round(self, round_no: int) -> bool:
        """Fault site, then one local GCN step; ``True`` when the
        round's update is lost.

        A raise at the fault site models a crash before the step; a
        ``drop``/``corrupt`` action lets the step run but loses (or has
        the coordinator reject) its update; ``delay`` is a straggler the
        synchronous barrier has already waited out. A rank without
        training nodes takes no step and never loses an update.
        """
        action = None
        if self.injector is not None:
            try:
                action = self.injector.fire("training.worker_step")
            except (TransientError, FaultError):
                self.counters["failures"] += 1
                return True
            if action == "delay":
                self.counters["stragglers"] += 1
        if not len(self.train_ids):
            return False
        with obs.span("worker.step", round=round_no):
            self.model.train()
            self.opt.zero_grad()
            with obs.span("worker.spmm"):
                logits = self.model(self.prep, self.x)
            loss = F.cross_entropy(
                logits.gather_rows(self.train_ids), self.y[self.train_ids]
            )
            loss.backward()
            self.opt.step()
        self.counters["steps"] += 1
        if action in ("drop", "corrupt"):
            self.counters["failures"] += 1
            return True
        return False


class _Worker:
    """One incarnation of one rank, phase by phase (see :func:`worker_main`)."""

    # Phase outputs that stay unset when their phase is off or not reached.
    beat_stop = span_writer = metrics_cells = registry = resume_ckpt = None

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.rank = spec.rank
        self.log = obs.get_logger(f"repro.distributed.worker{spec.rank}")
        self.segs = AttachedSegments()
        self.counters = dict.fromkeys(DONE_FIELDS, 0)
        #: Highest synchronised round: the round loop's one-way channel to
        #: the heartbeat thread (one attribute store, atomic under the GIL).
        self.last_round = -1

    # ---- attach -------------------------------------------------------

    def attach(self) -> None:
        """Map every published segment this rank reads or writes."""
        spec, attach = self.spec, self.segs.attach
        self.x_full = attach(spec.x)
        self.y_full = attach(spec.y)
        self.train_mask = attach(spec.train_mask)
        self.indptr = attach(spec.indptr)
        self.indices = attach(spec.indices)
        self.weights = attach(spec.weights)
        self.owned = attach(spec.owned)
        self.ghosts = attach(spec.ghosts)
        self.params_vec = attach(spec.params)
        self.params_round = attach(spec.params_round)
        self.state_vec = attach(spec.state, writable=True)
        self.state_meta = attach(spec.state_meta, writable=True)
        self.done_block = attach(spec.done, writable=True)

    # ---- heartbeat lease (payload-first, sequence-last) ---------------

    def start_heartbeat(self) -> None:
        """Beat the lease cell from a daemon thread (supervised runs).

        Each beat writes generation + last synchronised round first and
        the beat sequence last, so the coordinator never observes a torn
        beat.
        """
        if self.spec.lease is None:
            return
        self.lease_cell = self.segs.attach(self.spec.lease, writable=True)
        self.beat_stop = threading.Event()
        self.beat_thread = threading.Thread(
            target=self._beat_loop, name=f"repro-beat-w{self.rank}",
            daemon=True,
        )
        self.beat_thread.start()

    def _beat_loop(self) -> None:
        cell, pid = self.lease_cell, os.getpid()
        # Resume past the previous incarnation's sequence so the
        # coordinator's change detection never misses the first beat of
        # a respawn.
        seq = int(cell[LEASE_SEQ]) + 1
        while True:
            cell[LEASE_GENERATION] = self.spec.generation
            cell[LEASE_ROUND] = self.last_round
            cell[LEASE_PID] = pid
            cell[LEASE_SEQ] = seq  # publish last
            seq += 1
            if self.beat_stop.wait(self.spec.beat_interval_s):
                return

    # ---- telemetry plane (opt-in via the propagated context) ----------

    def start_telemetry(self) -> None:
        """Open the span log and metrics cell when a trace context came.

        The coordinator mints a TraceContext and ships it as a plain
        dict; its presence is the per-worker telemetry switch. Spans go
        to a per-rank JSONL ring (flushed at round boundaries, so a
        chaos kill loses at most the in-flight round) and the metrics
        registry is published through a kill-safe shm cell.
        """
        spec = self.spec
        if spec.trace_ctx is None:
            return
        from repro.obs.telemetry import SpanLogWriter, TraceContext

        obs.configure(enabled=True)
        tctx = TraceContext.from_dict(spec.trace_ctx).child(rank=str(self.rank))
        if spec.span_log_path:
            self.span_writer = SpanLogWriter(
                spec.span_log_path, tctx, rank=self.rank
            )
        if spec.metrics is not None and spec.metrics_meta is not None:
            self.metrics_cells = (
                self.segs.attach(spec.metrics, writable=True),
                self.segs.attach(spec.metrics_meta, writable=True),
            )
        self.registry = obs.get_registry()
        self.round_hist = self.registry.histogram("worker.round_s")
        self.published = dict.fromkeys(DONE_FIELDS, 0)

    def publish_telemetry(self, seq: int) -> None:
        """Flush spans + publish the registry dump (payload-first,
        seq-cell-last). A no-op when telemetry is off."""
        if self.span_writer is not None:
            self.span_writer.flush(obs.get_tracer())
        if self.metrics_cells is None:
            return
        from repro.obs.telemetry import aggregate

        for name in DONE_FIELDS:
            delta = self.counters[name] - self.published[name]
            if delta > 0:
                self.registry.counter(f"worker.{name}").inc(float(delta))
            self.published[name] = self.counters[name]
        aggregate.publish_blob(
            *self.metrics_cells,
            aggregate.encode_registry(self.registry, rank=self.rank), seq,
        )

    # ---- resume or init -----------------------------------------------

    def _build(self) -> None:
        """The local world: the rank's :class:`ShardStep`, resume store."""
        spec = self.spec
        local_nodes = np.concatenate([self.owned, self.ghosts])
        self.shard = ShardStep(
            Graph(
                self.indptr, self.indices, self.weights,
                directed=spec.directed, validate=False,
            ),
            # The one deliberate duplication: this worker's local feature
            # rows and labels (owned + ghosts), gathered once.
            self.segs.count_copy(self.x_full[local_nodes]),
            self.segs.count_copy(self.y_full[local_nodes]),
            np.flatnonzero(self.train_mask[self.owned]),
            n_classes=spec.n_classes, hidden=spec.hidden, lr=spec.lr,
            weight_decay=spec.weight_decay, dropout=spec.dropout,
            seed=spec.seed,
            injector=(
                None if spec.fault_plan is None
                else FaultInjector(spec.fault_plan, seed=spec.fault_seed + self.rank)
            ),
            counters=self.counters,
        )
        # Resume checkpoints back the supervisor's respawn path: one
        # bit-exact snapshot per completed round, in a directory the
        # coordinator owns, namespaced per rank.
        if spec.resume_dir:
            self.resume_ckpt = Checkpointer(
                spec.resume_dir, keep=2, prefix="resume",
                namespace=f"rank{self.rank}",
            )

    def _save_resume(self, step: int) -> None:
        self.resume_ckpt.save(step, self.shard.snapshot())
        self.counters["resume_saves"] += 1

    def resume_or_init(self) -> int:
        """Build the local world and return the first round to run.

        Resume checkpoint step ``s`` holds the state *after completing
        round s-1* (step 0 = the shared starting point); a respawned
        incarnation loading step ``s`` re-enters the loop at round ``s``.
        The counters go into the done block (flag still 0) right after
        the local gather, so the gather counts even if this incarnation dies.
        """
        self._build()
        self._write_counters()
        ckpt = self.resume_ckpt
        if self.spec.resume and ckpt is not None and ckpt.steps():
            # Fenced rejoin: restore the pre-crash incarnation's exact
            # state as of its last completed round and redo the next
            # round. The restored dropout RNG and the replayed fault
            # schedule make every redone computation bit-identical to
            # what the dead incarnation produced (or would have).
            step, snap = ckpt.load()
            self.shard.restore(snap)
            start = int(step)
            self.counters["restored_round"] = start
            self.last_round = start - 1
            self.log.info(
                "rank %d generation %d resumed at round %d",
                self.rank, self.spec.generation, start,
            )
            return start
        # All ranks start from the coordinator's round -1 publication so
        # parameter averaging begins from one shared point.
        if not _wait_cell(self.params_round, -1, self.spec.sync_timeout_s):
            raise DistributedError("timed out waiting for initial parameters")
        self.shard.load(self.params_vec)
        if ckpt is not None:
            # The step-0 snapshot pins the *initial* parameters: a rank
            # killed during round 0 must redo it from these, not from
            # whatever average the params segment holds by then.
            self._save_resume(0)
        return 0

    # ---- one round ----------------------------------------------------

    def run_round(self, round_no: int) -> None:
        """Shard step → sync → resume save."""
        round_start = time.monotonic()
        # The round span is a per-round ROOT (no enclosing run span), so
        # a chaos kill mid-round leaves every previously flushed round
        # intact in the span log.
        with obs.span("worker.round", round=round_no, rank=str(self.rank)):
            self._sync(round_no, self.shard.train_round(round_no))
            if self.resume_ckpt is not None:
                self._save_resume(round_no + 1)
        if self.registry is not None:
            self.round_hist.observe(time.monotonic() - round_start)
            if (round_no + 1) % TELEMETRY_EVERY == 0:
                self.publish_telemetry(seq=round_no + 1)

    def _sync(self, round_no: int, failed: bool) -> None:
        """Publish the local state, then load the coordinator's average."""
        if not failed:
            flatten_state(self.shard.model.state_dict(), out=self.state_vec)
        meta = self.state_meta
        meta[META_N_TRAIN] = len(self.shard.train_ids)
        meta[META_FAILED] = int(failed)
        meta[META_GENERATION] = self.spec.generation
        meta[META_ROUND] = round_no  # publish last
        if not _wait_cell(self.params_round, round_no, self.spec.sync_timeout_s):
            raise DistributedError(
                f"timed out waiting for round {round_no} parameters"
            )
        self.shard.load(self.params_vec)
        self.counters["sync_rounds"] += 1
        self.last_round = round_no

    # ---- report -------------------------------------------------------

    def report(self) -> None:
        """Publish the final counter block, done flag last."""
        self._write_counters()
        # Final flush AND publish before the done flag.
        self.publish_telemetry(seq=self.spec.epochs + 1)
        self.done_block[0] = 1  # publish last

    def _write_counters(self) -> None:
        """Counters and attach accounting into the done block's slots."""
        self.counters.update(self.segs.stats())
        self.done_block[1:] = [self.counters[name] for name in DONE_FIELDS]

    def close(self) -> None:
        if self.beat_stop is not None:
            # Stop and JOIN the heartbeat before the segments unmap — a
            # beat landing in a closed mapping would fault the exit path.
            self.beat_stop.set()
            self.beat_thread.join(timeout=5.0)
        self.segs.close()


def worker_main(spec: WorkerSpec) -> None:
    """Entry point of one training worker (``spawn``-safe, top level)."""
    if spec.package_root and spec.package_root not in sys.path:
        sys.path.insert(0, spec.package_root)
    worker = _Worker(spec)
    try:
        worker.attach()
        worker.start_heartbeat()
        worker.start_telemetry()
        for round_no in range(worker.resume_or_init(), spec.epochs):
            worker.run_round(round_no)
        worker.report()
    except Exception:  # noqa: BLE001 - the coordinator sees the exit code
        # The traceback goes to the inherited stderr; the coordinator
        # detects the nonzero exit through its liveness polling.
        traceback.print_exc()
        worker.log.error("worker %d failed", spec.rank)
        sys.exit(1)
    finally:
        worker.close()


def probe_injector_schedule(result_q, injector, site: str, n_calls: int) -> None:
    """Fire ``n_calls`` at ``site`` and report the action sequence.

    A ``spawn``-safe probe used by the regression tests to assert that a
    pickled-and-rebuilt :class:`repro.resilience.FaultInjector` replays
    the exact schedule the parent process computes (the injector crosses
    the process boundary through its ``__getstate__``).
    """
    actions: list[str] = []
    for _ in range(n_calls):
        try:
            actions.append(injector.fire(site) or "none")
        except TransientError:
            actions.append("transient")
        except FaultError:
            actions.append("permanent")
    result_q.put(actions)
