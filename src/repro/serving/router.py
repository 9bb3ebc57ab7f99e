"""Partition-aware request routing over per-shard serving runtimes.

:class:`ShardRouter` is the serving face of :mod:`repro.distributed`:
one :class:`~repro.serving.runtime.ServingRuntime` per graph shard and
a global-id front door.

* **Routing** — every request for a global node id lands on the runtime
  of the shard that *owns* the node (its partition part); the id is
  translated to the shard-local owned id on the way in and back to the
  global id on the answer. There is no broadcast and no scatter-gather:
  one request touches exactly one shard's engine, and no rows move
  between shards. Requests are counted as *boundary* (the node is
  incident to a cross-partition arc) or *interior*.
* **Failure isolation** — each shard's runtime owns its own circuit
  breakers, retry budget, and store. A failing shard engine trips only
  that shard's breaker; every other shard keeps serving unaffected.
* **Replicated failover** — with ``replication_factor >= 2`` every
  shard gets one *primary* runtime plus warm replicas over the same
  local graph (each with a private hop stack and store). Routing always
  targets the shard's *active* replica; when its breaker opens, the
  router fails over to the first healthy replica, and a demoted primary
  is readmitted only after its breaker cools down, its store is
  flushed, and a real probe request succeeds (the failover state
  machine in ``DESIGN.md``).

Each shard answers from the hop stack of its halo-augmented local graph,
and only owned rows ``[0, n_owned)`` are ever read. A shard's local
graph keeps the full neighbourhood of every owned node (ghosts supply
the cross-partition endpoints), so with row-normalised propagation
(``kind="rw"``) a one-hop decoupled model served through the router
answers identically to the same model served over the whole graph. At
``k_hops > 1`` the answer for an owned node is hop ``k`` of a
propagation over the shard's local graph — the oracle
``tests/test_shard_router.py`` asserts for both.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import obs
from repro.errors import ConfigError, LoadSheddingError, ServingError
from repro.graph.core import Graph
from repro.serving.engine import ServeResult, node_index
from repro.serving.runtime import ServingRuntime

_LOG = obs.get_logger("repro.serving.router")


class ShardRouter:
    """Serve one model over a partitioned graph, one runtime per shard.

    Parameters
    ----------
    model:
        A decoupled model (``k_hops`` contract) registered on every
        shard.
    graph:
        The full graph (features required).
    assignment:
        Partition assignment, one part id per node (e.g. from
        :func:`repro.editing.ldg_partition`).
    n_parts:
        Number of shards.
    name, kind, alpha:
        Registration parameters passed to every shard's runtime
        (``kind="rw"`` keeps owned-node hop-1 rows exact, see module
        doc).
    runtime_kwargs:
        Keyword arguments for each per-shard
        :class:`~repro.serving.runtime.ServingRuntime` (breaker tuning,
        retry budget, ``early_exit``...).
    replication_factor:
        Runtimes per shard (default 1 = no replication). Replica 0 is
        the shard's primary; replicas warm-register the same model over
        the same local graph with independent hop stacks, stores, and
        breakers, and take over when the active replica's breaker opens.
    """

    def __init__(
        self,
        model,
        graph: Graph,
        assignment: np.ndarray,
        n_parts: int,
        name: str = "sharded",
        kind: str = "rw",
        alpha: float | None = None,
        runtime_kwargs: dict | None = None,
        replication_factor: int = 1,
    ) -> None:
        from repro.distributed.shards import build_shard_plan
        from repro.utils.validation import check_int_range

        if graph.x is None:
            raise ConfigError("ShardRouter needs node features (graph.x)")
        check_int_range("replication_factor", replication_factor, 1)
        self.plan = build_shard_plan(graph, assignment, n_parts)
        self.n_parts = int(n_parts)
        self.replication_factor = int(replication_factor)
        self.owner = self.plan.assignment
        #: global id -> local id on the owning shard (only owners serve)
        self._local_of = np.empty(graph.n_nodes, dtype=np.int64)
        #: per shard: all replica runtimes / records, replica 0 = primary
        self._replicas: list[list[ServingRuntime]] = []
        self._replica_records: list[list] = []
        #: per shard: index of the replica currently serving requests
        self._active: list[int] = [0] * self.n_parts
        #: global-id mask of nodes incident to any cross-partition arc
        self._boundary = np.zeros(graph.n_nodes, dtype=bool)
        kwargs = dict(runtime_kwargs or {})
        # Each shard runtime registers as its own stats source
        # (serving.shard0, serving.shard1, ...; replicas append ".r<k>")
        # so one coordinator snapshot() carries every shard's queue depth
        # and breaker state side by side instead of the last runtime
        # clobbering one slot.
        prefix_base = kwargs.pop("source_prefix", "serving.shard")
        for p, shard in enumerate(self.plan.shards):
            self._local_of[shard.owned] = np.arange(shard.n_owned)
            self._boundary[shard.boundary] = True
            local = shard.local_graph(x=graph.x[shard.local_nodes])
            runtimes: list[ServingRuntime] = []
            records: list = []
            for r in range(self.replication_factor):
                suffix = f"{p}" if r == 0 else f"{p}.r{r}"
                runtime = ServingRuntime(
                    source_prefix=f"{prefix_base}{suffix}", **kwargs
                )
                key = runtime.register(
                    name, model, local, kind=kind, alpha=alpha
                )
                runtimes.append(runtime)
                records.append(runtime.engine.registry.get(key))
            self._replicas.append(runtimes)
            self._replica_records.append(records)
        self.requests = 0
        self.boundary_requests = 0
        self.interior_requests = 0
        self.requests_by_part = dict.fromkeys(range(self.n_parts), 0)
        self.failovers = 0
        self.readmissions = 0
        self.request_errors = 0
        self._closed = False
        obs.register_source("serving.router", self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def _runtimes(self) -> list[ServingRuntime]:
        """The *active* replica runtime of every shard (back-compat view:
        with ``replication_factor=1`` this is exactly the old per-shard
        runtime list)."""
        return [
            replicas[self._active[p]]
            for p, replicas in enumerate(self._replicas)
        ]

    @property
    def _records(self) -> list:
        """The active replica's registry record of every shard."""
        return [
            records[self._active[p]]
            for p, records in enumerate(self._replica_records)
        ]

    def shard_of(self, node_id: int) -> int:
        """The part (= runtime index) that owns ``node_id``."""
        n = len(self.owner)
        if not 0 <= node_id < n:
            raise ServingError(f"node {node_id} outside [0, {n})")
        return int(self.owner[node_id])

    def is_boundary(self, node_id: int) -> bool:
        """Whether ``node_id`` is incident to a cross-partition arc."""
        return bool(self._boundary[node_id])

    def runtime(self, part: int) -> ServingRuntime:
        """The serving runtime of one shard."""
        return self._runtimes[part]

    def breaker(self, part: int):
        """The circuit breaker guarding one shard's model (lazy)."""
        return self._runtimes[part].breaker(self._records[part].key)

    # ------------------------------------------------------------------ #
    # Replica health / failover
    # ------------------------------------------------------------------ #

    def active_replica(self, part: int) -> int:
        """Index of the replica currently serving ``part`` (0 = primary)."""
        return self._active[part]

    def _replica_state(self, part: int, replica: int) -> str:
        """The breaker state of one replica (``"closed"`` if breakers are
        disabled). Reads ``.state`` only — ``allow()`` would consume the
        half-open probe budget a health check has no claim on."""
        runtime = self._replicas[part][replica]
        breaker = runtime.breaker(self._replica_records[part][replica].key)
        return "closed" if breaker is None else breaker.state

    def _healthy(self, part: int, replica: int) -> bool:
        return self._replica_state(part, replica) != "open"

    def _catch_up(self, part: int, replica: int) -> None:
        """Flush one replica's store namespace before it serves traffic,
        so its first answers (the readmission probe included) reach its
        engine and breaker instead of a resident row."""
        store = self._replicas[part][replica].engine.store
        if store is not None:
            store.invalidate(self._replica_records[part][replica].namespace)

    def _transition(self, part: int, to: int, kind: str) -> None:
        """Switch ``part``'s active replica, with obs breadcrumbs. All
        membership transitions land in the ``supervisor.*`` namespace so
        one metric family covers training-rank and serving-replica
        churn alike."""
        frm = self._active[part]
        self._active[part] = to
        _LOG.warning(
            "shard %d %s: replica %d -> %d", part, kind, frm, to,
        )
        if obs.OBS.enabled:
            obs.OBS.registry.counter(f"supervisor.{kind}s").inc(
                shard=str(part)
            )
            obs.OBS.registry.gauge("supervisor.active_replica").set(
                float(to), shard=str(part)
            )

    def _failover(self, part: int, to: int) -> None:
        with obs.span("router.failover", shard=part, to=to):
            self._catch_up(part, to)
            self._transition(part, to, "failover")
            self.failovers += 1

    def _maybe_readmit(self, part: int) -> None:
        """Fail back to the primary once it looks healthy again.

        Readmission is gated on (1) the primary's breaker having left
        the open state (its own cooldown clock) and (2) one real probe
        request answering ``status="ok"`` — catch-up runs *before* the
        probe so the probe cannot be answered from a stale store row
        (a store hit never reaches the breaker, so it would be a
        false-positive health signal).
        """
        if self._active[part] == 0:
            return
        if self._replica_state(part, 0) == "open":
            return  # still cooling down
        runtime = self._replicas[part][0]
        record = self._replica_records[part][0]
        with obs.span("router.readmission_probe", shard=part):
            self._catch_up(part, 0)
            if record.graph.n_nodes > 0:
                try:
                    probe = runtime.predict(0, model=record.key)
                except Exception:  # noqa: BLE001 - probe outcome is the point
                    # The failed probe already fed the breaker; stay
                    # failed over until the next cooldown.
                    return
                if probe.status != "ok" or probe.degraded:
                    return
        self._transition(part, 0, "readmission")
        self.readmissions += 1

    def _route(self, part: int) -> int:
        """The replica index that should serve ``part``'s next request,
        applying failover / readmission transitions as a side effect."""
        if self._active[part] != 0:
            self._maybe_readmit(part)
        active = self._active[part]
        if self._healthy(part, active):
            return active
        for r in range(self.replication_factor):
            if r != active and self._healthy(part, r):
                self._failover(part, r)
                return r
        # No healthy replica: stay put and let the active breaker's own
        # semantics (stale fallback / CircuitOpenError) answer.
        return active

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #

    def predict(
        self, node_id: int, timeout_s: float | None = None
    ) -> ServeResult:
        """Answer one global-node request on its owning shard.

        The request is counted as boundary or interior and answered by
        the owning shard's engine alone. The returned
        :class:`~repro.serving.engine.ServeResult` carries the *global*
        node id.
        """
        if self._closed:
            raise ServingError("router is closed; no new requests accepted")
        node_id = node_index(node_id)
        part = self.shard_of(node_id)
        local = int(self._local_of[node_id])
        replica = self._route(part)
        self.requests += 1
        self.requests_by_part[part] += 1
        boundary = bool(self._boundary[node_id])
        with obs.span("router.predict", shard=part, boundary=boundary):
            if boundary:
                self.boundary_requests += 1
            else:
                self.interior_requests += 1
            result = self._replicas[part][replica].predict(
                local,
                model=self._replica_records[part][replica].key,
                timeout_s=timeout_s,
            )
        if obs.OBS.enabled:
            obs.OBS.registry.counter("router.requests").inc(shard=str(part))
        return dataclasses.replace(result, node_id=node_id)

    def predict_many(
        self,
        node_ids,
        timeout_s: float | None = None,
    ) -> list[ServeResult]:
        """Per-request routing over a stream of global node ids.

        One shard failing hard never fails the batch: a request whose
        shard raises (open breaker without a stale row, timeout, batch
        executor error) comes back as a ``status="error"`` result in its
        slot — requests on every other shard are answered normally and
        the returned list always aligns with ``node_ids``. Shed
        admissions likewise come back as ``status="shed"`` results,
        matching :meth:`ServingRuntime.predict_many`. Caller bugs (a
        node id outside the graph, a closed router) still raise.
        """
        results: list[ServeResult] = []
        for node_id in node_ids:
            node_id = node_index(node_id)
            if self._closed:
                raise ServingError(
                    "router is closed; no new requests accepted"
                )
            part = self.shard_of(node_id)  # out-of-range raises here
            t0 = time.monotonic()
            try:
                results.append(self.predict(node_id, timeout_s=timeout_s))
                continue
            except LoadSheddingError:
                status = "shed"
            except Exception as exc:  # noqa: BLE001 - isolated per request
                status = "error"
                _LOG.warning(
                    "request for node %d failed on shard %d (%s): %s",
                    node_id, part, type(exc).__name__, exc,
                )
            self.request_errors += status == "error"
            if obs.OBS.enabled:
                obs.OBS.registry.counter("router.request_errors").inc(
                    shard=str(part), status=status
                )
            key = self._replica_records[part][self._active[part]].key
            results.append(
                ServeResult(
                    node_id, key, -1, status, False, 0,
                    time.monotonic() - t0,
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle / stats
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drain and close every shard runtime (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for replicas in self._replicas:
            for runtime in replicas:
                runtime.close()
        _LOG.info(
            "router closed: %d requests (%d boundary)",
            self.requests, self.boundary_requests,
        )

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def snapshot(self) -> dict[str, float]:
        """Flat counter dict (:class:`repro.obs.StatsSource`); per-shard
        request series are labelled ``{shard=p}``."""
        out = {
            "shards": self.n_parts,
            "replication_factor": self.replication_factor,
            "requests": self.requests,
            "boundary_requests": self.boundary_requests,
            "interior_requests": self.interior_requests,
            # No rows cross shards; kept as 0 for the macro's router metrics.
            "halo_gathers": 0,
            "halo_rows_copied": 0,
            "failovers": self.failovers,
            "readmissions": self.readmissions,
            "request_errors": self.request_errors,
            "breakers_open": sum(
                1
                for replicas in self._replicas
                for rt in replicas
                for b in rt._breakers.values()
                if b.state != "closed"
            ),
            "closed": float(self._closed),
        }
        for part in range(self.n_parts):
            out[f"requests{{shard={part}}}"] = float(
                self.requests_by_part[part]
            )
            out[f"active_replica{{shard={part}}}"] = float(
                self._active[part]
            )
        return out

    def reset(self) -> None:
        """Zero the routing counters (shard runtimes are untouched)."""
        self.requests = 0
        self.boundary_requests = 0
        self.interior_requests = 0
        self.requests_by_part = dict.fromkeys(range(self.n_parts), 0)
        self.failovers = 0
        self.readmissions = 0
        self.request_errors = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRouter(shards={self.n_parts}, requests={self.requests}, "
            f"boundary_requests={self.boundary_requests}, "
            f"closed={self._closed})"
        )
