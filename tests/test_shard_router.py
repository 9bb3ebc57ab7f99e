"""Tests for partition-aware serving (repro.serving.ShardRouter):
ownership routing, boundary/interior request counting, per-shard breaker
isolation, exactness of sharded one-hop decoupled serving against a
single global runtime, and of k-hop serving against the halo-augmented
per-shard oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.editing import ldg_partition
from repro.errors import ConfigError, ServingError
from repro.models import SGC
from repro.perf import propagate
from repro.serving import ServingRuntime, ShardRouter
from repro.tensor.autograd import Tensor, no_grad

N_PARTS = 3


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import contextual_sbm

    return contextual_sbm(
        240, n_classes=3, homophily=0.85, avg_degree=8,
        n_features=12, feature_signal=1.5, seed=5,
    )


@pytest.fixture(scope="module")
def setup(dataset):
    graph, _ = dataset
    part = ldg_partition(graph, N_PARTS, seed=3)
    model = SGC(graph.n_features, graph.n_classes, k_hops=1, seed=0)
    return graph, part, model


@pytest.fixture
def router(setup):
    graph, part, model = setup
    r = ShardRouter(
        model, graph, part.assignment, N_PARTS,
        kind="rw", runtime_kwargs=dict(early_exit=False),
    )
    yield r
    r.close()


class TestRouting:
    def test_every_request_lands_on_owning_shard(self, setup, router):
        graph, part, _ = setup
        rng = np.random.default_rng(0)
        nodes = rng.choice(graph.n_nodes, size=40, replace=False)
        for node in nodes:
            assert router.shard_of(int(node)) == part.assignment[node]
            result = router.predict(int(node))
            assert result.node_id == int(node)
            assert result.status in ("ok", "cached", "early_exit")
        assert router.requests == len(nodes)

    def test_boundary_and_interior_requests_are_counted(self, setup, router):
        graph, part, _ = setup
        boundary = [n for n in range(graph.n_nodes) if router.is_boundary(n)]
        interior = [n for n in range(graph.n_nodes) if not router.is_boundary(n)]
        assert boundary and interior, "partition must cut something"

        router.reset()
        take_interior = interior[:10]
        for node in take_interior:
            router.predict(node)
        assert router.interior_requests == len(take_interior)
        assert router.boundary_requests == 0

        take_boundary = boundary[:10]
        for node in take_boundary:
            router.predict(node)
        assert router.boundary_requests == len(take_boundary)
        assert router.interior_requests == len(take_interior)
        snap = router.snapshot()
        assert snap["boundary_requests"] == len(take_boundary)
        assert snap["halo_gathers"] == snap["halo_rows_copied"] == 0

    def test_boundary_matches_halo_index(self, setup, router):
        """Router's boundary mask equals editing.partition.halo per part."""
        graph, part, _ = setup
        from_mask = {n for n in range(graph.n_nodes) if router.is_boundary(n)}
        from_halo: set[int] = set()
        for p in range(N_PARTS):
            from_halo.update(part.halo_nodes(graph, p).boundary.tolist())
        assert from_mask == from_halo

    def test_out_of_range_node_rejected(self, router):
        with pytest.raises(ServingError):
            router.predict(-1)
        with pytest.raises(ServingError):
            router.shard_of(10**6)

    def test_predict_many_and_stats(self, setup, router):
        graph, _, _ = setup
        router.reset()
        results = router.predict_many(range(12))
        assert [r.node_id for r in results] == list(range(12))
        snap = router.snapshot()
        assert snap["requests"] == 12
        assert snap["shards"] == N_PARTS
        assert (
            snap["boundary_requests"] + snap["interior_requests"]
            == snap["requests"]
        )
        assert sum(
            snap[f"requests{{shard={p}}}"] for p in range(N_PARTS)
        ) == 12
        assert not hasattr(router, "stats")

    def test_closed_router_rejects_requests(self, setup):
        graph, part, model = setup
        r = ShardRouter(
            model, graph, part.assignment, N_PARTS,
            kind="rw", runtime_kwargs=dict(early_exit=False),
        )
        r.close()
        r.close()  # idempotent
        with pytest.raises(ServingError):
            r.predict(0)

    def test_requires_features(self, setup):
        _, _, model = setup
        from repro.graph import stochastic_block_model

        featless = stochastic_block_model(
            [20, 20], [[0.3, 0.05], [0.05, 0.3]], seed=0
        )
        with pytest.raises(ConfigError):
            ShardRouter(model, featless, np.zeros(40, dtype=np.int64), 1)


class TestExactness:
    def test_one_hop_rw_serving_matches_global(self, setup, router):
        """Owned nodes keep full neighbourhoods, so hop-1 rw aggregation
        through the router is exact: identical predictions to one global
        runtime serving the whole graph."""
        graph, _, model = setup
        with ServingRuntime(early_exit=False) as rt:
            key = rt.register("global", model, graph, kind="rw")
            rng = np.random.default_rng(1)
            nodes = rng.choice(graph.n_nodes, size=60, replace=False)
            for node in nodes:
                via_router = router.predict(int(node))
                via_global = rt.predict(int(node), model=key)
                np.testing.assert_allclose(
                    via_router.prediction, via_global.prediction,
                    rtol=1e-10, atol=1e-12,
                )

    @pytest.mark.parametrize("k_hops", [1, 3])
    def test_matches_halo_augmented_oracle(self, setup, k_hops):
        """Every owned node is answered from hop ``k`` of a row-normalised
        propagation over its shard's halo-augmented local graph."""
        graph, part, _ = setup
        model = SGC(graph.n_features, graph.n_classes, k_hops=k_hops, seed=0)
        model.eval()
        expected = np.full(graph.n_nodes, -1, dtype=np.int64)
        with ShardRouter(
            model, graph, part.assignment, N_PARTS,
            kind="rw", runtime_kwargs=dict(early_exit=False),
        ) as router:
            for shard in router.plan.shards:
                local = shard.local_graph(x=graph.x[shard.local_nodes])
                rows = propagate(local, local.x, k_hops, "rw")[-1]
                with no_grad():
                    logits = model(Tensor(rows[: shard.n_owned])).data
                expected[shard.owned] = logits.argmax(axis=1)
            results = router.predict_many(range(graph.n_nodes))
        assert all(r.status in ("ok", "cached") for r in results)
        assert np.array_equal([r.prediction for r in results], expected)

    @pytest.mark.parametrize("replication_factor", [1, 2])
    def test_ghost_rows_are_never_read(self, setup, replication_factor):
        """NaN in every replica's ghost slots changes no answer."""
        graph, part, model = setup

        def answers(poison):
            router = ShardRouter(
                model, graph, part.assignment, N_PARTS, kind="rw",
                replication_factor=replication_factor,
                runtime_kwargs=dict(early_exit=False, store=None),
            )
            with router:
                if poison:
                    for shard, records in zip(
                        router.plan.shards, router._replica_records
                    ):
                        for record in records:
                            record.stacked[:, shard.n_owned:] = np.nan
                out = []
                for r in range(replication_factor):
                    router._active = [r] * N_PARTS
                    out.append([
                        res.prediction
                        for res in router.predict_many(range(graph.n_nodes))
                    ])
            return out

        assert answers(poison=True) == answers(poison=False)


class _PoisonModel:
    """A decoupled-contract model whose forward always explodes."""

    k_hops = 1

    def eval(self):
        return self

    def __call__(self, *args, **kwargs):
        raise RuntimeError("poisoned shard engine")


class TestFailureIsolation:
    def test_one_shard_failure_trips_only_that_breaker(self, setup):
        graph, part, model = setup
        router = ShardRouter(
            model, graph, part.assignment, N_PARTS,
            kind="rw",
            runtime_kwargs=dict(
                early_exit=False, max_retries=0, stale_fallback=False,
                breaker_kwargs=dict(min_calls=1, cooldown_s=60.0),
            ),
        )
        try:
            # Poison shard 0's engine only.
            router._records[0].model = _PoisonModel()
            victims = np.flatnonzero(part.assignment == 0)
            with pytest.raises(Exception):
                router.predict(int(victims[0]))
            assert router.breaker(0).state != "closed"
            # Every other shard still serves, breakers closed.
            for p in range(1, N_PARTS):
                node = int(np.flatnonzero(part.assignment == p)[0])
                result = router.predict(node)
                assert result.node_id == node
                assert router.breaker(p).state == "closed"
        finally:
            router.close()


class _FailAfterModel:
    """Serves ``healthy`` forwards through the real model, then explodes
    on every later call — the serving analogue of killing a process
    mid-batch."""

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


class TestPartialFailure:
    def test_predict_many_isolates_a_failing_shard(self, setup):
        """One poisoned shard must never fail the whole batch: its
        requests come back as per-slot ``status="error"`` results while
        every other shard's requests are answered normally."""
        graph, part, model = setup
        router = ShardRouter(
            model, graph, part.assignment, N_PARTS,
            kind="rw",
            runtime_kwargs=dict(
                early_exit=False, max_retries=0, stale_fallback=False,
                breaker_kwargs=dict(min_calls=1, cooldown_s=60.0),
            ),
        )
        try:
            router._records[0].model = _PoisonModel()
            nodes = [
                int(np.flatnonzero(part.assignment == p)[i])
                for i in range(4) for p in range(N_PARTS)
            ]
            results = router.predict_many(nodes, timeout_s=10.0)
            assert len(results) == len(nodes)
            for node, result in zip(nodes, results):
                assert result.node_id == node
                if part.assignment[node] == 0:
                    assert result.status == "error"
                    assert result.prediction == -1
                else:
                    assert result.status == "ok"
            # The breaker is open now; a second batch keeps the same
            # per-request semantics (CircuitOpenError, still isolated).
            assert router.breaker(0).state == "open"
            again = router.predict_many(nodes, timeout_s=10.0)
            assert [r.status for r in again] == [r.status for r in results]
            assert router.request_errors == 8
        finally:
            router.close()

    def test_caller_bugs_still_raise(self, setup, router):
        with pytest.raises(ServingError):
            router.predict_many([10**9])


class TestReplication:
    def _replicated(self, setup, cooldown_s=60.0):
        graph, part, model = setup
        return ShardRouter(
            model, graph, part.assignment, N_PARTS,
            kind="rw", replication_factor=2,
            runtime_kwargs=dict(
                early_exit=False, max_retries=0, stale_fallback=False,
                breaker_kwargs=dict(
                    min_calls=1, window=4, failure_threshold=0.5,
                    cooldown_s=cooldown_s,
                ),
            ),
        )

    def test_validates_replication_factor(self, setup):
        graph, part, model = setup
        with pytest.raises(ConfigError):
            ShardRouter(
                model, graph, part.assignment, N_PARTS,
                replication_factor=0,
            )

    def test_replicas_answer_identically_to_primary(self, setup):
        graph, part, model = setup
        router = self._replicated(setup)
        try:
            snap = router.snapshot()
            assert snap["replication_factor"] == 2
            assert all(
                snap[f"active_replica{{shard={p}}}"] == 0.0
                for p in range(N_PARTS)
            )
            assert len(router._runtimes) == N_PARTS  # back-compat view
            node = int(np.flatnonzero(part.assignment == 1)[0])
            via_primary = router.predict(node)
            # Force shard 1 onto its replica and re-ask.
            router._active[1] = 1
            via_replica = router.predict(node)
            np.testing.assert_allclose(
                via_replica.prediction, via_primary.prediction,
                rtol=1e-10, atol=1e-12,
            )
            router._active[1] = 0
        finally:
            router.close()

    def test_kill_primary_mid_predict_many_fails_over(self, setup):
        """Chaos: the primary of shard 0 dies partway through a
        ``predict_many`` stream. The batch never fails, at most the
        in-flight request errors, the replica serves the rest
        (``degraded=False``), and other shards are untouched."""
        graph, part, model = setup
        router = self._replicated(setup)
        try:
            shard0 = np.flatnonzero(part.assignment == 0)[:12]
            others = np.flatnonzero(part.assignment != 0)[:12]
            nodes = [int(n) for pair in zip(shard0, others) for n in pair]
            primary = router._replica_records[0][0]
            primary.model = _FailAfterModel(primary.model, healthy=2)
            results = router.predict_many(nodes, timeout_s=10.0)
            assert len(results) == len(nodes)
            statuses = [r.status for r in results]
            assert "error" in statuses       # the in-flight casualties
            assert statuses.count("error") <= 4
            # Everything after the failover is served for real.
            assert router.failovers == 1
            assert router.active_replica(0) == 1
            for node, result in zip(nodes, results):
                if part.assignment[node] != 0:
                    assert result.status == "ok"   # other shards untouched
                if result.status == "ok":
                    assert not result.degraded
            assert results[-2].status == "ok"  # late shard-0 slots healthy
            # Other shards never left their primaries.
            assert all(router.active_replica(p) == 0
                       for p in range(1, N_PARTS))
        finally:
            router.close()

    def test_readmission_after_cooldown_and_probe(self, setup):
        import glob as _glob
        import time as _time

        graph, part, model = setup
        router = self._replicated(setup, cooldown_s=0.3)
        try:
            shard0 = [int(n) for n in np.flatnonzero(part.assignment == 0)[:8]]
            primary = router._replica_records[0][0]
            real_model = primary.model
            primary.model = _PoisonModel()
            router.predict_many(shard0, timeout_s=10.0)
            assert router.active_replica(0) == 1
            # Heal the primary, wait out the breaker cooldown: the next
            # request probes, catches up, and fails back.
            primary.model = real_model
            _time.sleep(0.4)
            results = router.predict_many(shard0, timeout_s=10.0)
            assert all(r.status == "ok" and not r.degraded for r in results)
            assert router.readmissions == 1
            assert router.active_replica(0) == 0
            snap = router.snapshot()
            assert snap["failovers"] == 1
            assert snap["readmissions"] == 1
        finally:
            router.close()
        assert not _glob.glob("/dev/shm/repro-dist-*")
