"""Stateful property test (hypothesis) of the serving write path.

Random insert batches, valid and rejected, go through
``ServingEngine.apply_updates`` on small random graphs, for every engine
operator kind at both stack dtypes. After every step three oracles hold
bitwise: the dynamic graph's snapshot is the CSR ``Graph.from_edges``
builds for the cumulative edge set; the row operator's rows are the cached
full operator's rows; and the patched hop stack is a fresh propagate of
the snapshot.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.errors import GraphError
from repro.graph import Graph
from repro.models import SGC
from repro.perf import OperatorCache, PropagationEngine, row_operator
from repro.serving import ModelRegistry, ServingEngine

K_HOPS = 2
ALPHAS = {"lazy": 0.5}
KINDS = ("gcn", "rw", "lazy", "col", "sym", "lap")
DTYPES = (np.float32, np.float64)


def _same_csr(a, b) -> bool:
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.dtype == b.data.dtype
        and np.array_equal(a.data, b.data)
    )


def write_path_machine(kind: str, dtype) -> type:
    alpha = ALPHAS.get(kind)

    class WritePath(RuleBasedStateMachine):
        @initialize(data=st.data())
        def build(self, data):
            n = data.draw(st.integers(2, 10), label="n")
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            drawn = data.draw(st.lists(pairs, max_size=2 * n), label="edges")
            self.n = n
            self.edges = {(min(u, v), max(u, v)) for u, v in drawn if u != v}
            x = np.random.default_rng(n).standard_normal((n, 3))
            graph = Graph.from_edges(self._edge_array(), n, x=x)
            engine = PropagationEngine(cache=OperatorCache(), dtype=dtype)
            self.engine = ServingEngine(
                registry=ModelRegistry(engine), store=None
            )
            model = SGC(3, 2, k_hops=K_HOPS, seed=0)
            self.record = self.engine.registry.register(
                "m", model, graph, kind=kind, alpha=alpha
            )

        def _edge_array(self) -> np.ndarray:
            return np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2)

        @rule(data=st.data())
        def insert(self, data):
            node = st.integers(0, self.n)  # n itself is out of range
            batch = data.draw(
                st.lists(st.tuples(node, node), min_size=1, max_size=3),
                label="batch",
            )
            keys = [(min(u, v), max(u, v)) for u, v in batch]
            valid = (
                all(u != v and max(u, v) < self.n for u, v in batch)
                and not any(key in self.edges for key in keys)
                and len(set(keys)) == len(keys)
            )
            if valid:
                self.engine.apply_updates(batch, model="m")
                self.edges.update(keys)
            else:
                with pytest.raises(GraphError):
                    self.engine.apply_updates(batch, model="m")

        @rule(data=st.data())
        def row_operator_matches_full(self, data):
            graph = self.record.ensure_dynamic().snapshot()
            rows = np.array(sorted(data.draw(
                st.sets(st.integers(0, self.n - 1), min_size=1), label="rows"
            )))
            full = PropagationEngine(cache=OperatorCache()).operator(
                graph, kind, alpha, dtype=dtype
            )
            part = row_operator(graph, rows, kind, alpha, dtype=dtype)
            assert part.shape == full.shape
            assert _same_csr(part[rows], full[rows])
            others = np.setdiff1d(np.arange(self.n), rows)
            assert part[others].nnz == 0

        @invariant()
        def snapshot_is_from_edges(self):
            if not hasattr(self, "record"):
                return
            snap = self.record.ensure_dynamic().snapshot()
            fresh = Graph.from_edges(self._edge_array(), self.n)
            assert np.array_equal(snap.indptr, fresh.indptr)
            assert np.array_equal(snap.indices, fresh.indices)

        @invariant()
        def stack_is_fresh_propagate(self):
            if not hasattr(self, "record"):
                return
            graph = self.record.graph
            fresh = PropagationEngine(cache=OperatorCache()).propagate(
                graph, graph.x, K_HOPS, kind=kind, alpha=alpha, dtype=dtype,
                memoize=False,
            )
            for depth in range(K_HOPS + 1):
                assert self.record.stack[depth].dtype == np.dtype(dtype)
                assert np.array_equal(self.record.stack[depth], fresh[depth])

    return WritePath


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("kind", KINDS)
def test_write_path_is_bitwise_exact(kind, dtype):
    run_state_machine_as_test(
        write_path_machine(kind, dtype),
        settings=settings(
            max_examples=20, stateful_step_count=8, deadline=None
        ),
    )
