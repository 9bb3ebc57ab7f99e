"""Embedding/prediction store for the online path.

A :class:`repro.storage.FeatureStore` whose rows are cached predictions,
keyed by a model's content namespace (name, version *and* graph
fingerprint — see :class:`repro.serving.registry.ServedModel`) plus node
id, bounded by LRU capacity and an optional TTL, and invalidated
*push-style*: when a graph update dirties a K-hop neighbourhood, exactly
those node ids are evicted while every other cached prediction stays warm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.storage.feature_cache import FeatureStore


@dataclass(frozen=True)
class CachedPrediction:
    """A served prediction kept for reuse: class id + exit depth."""

    prediction: int
    hops_used: int


class EmbeddingStore(FeatureStore):
    """TTL + LRU + dirty-set invalidated cache of per-node predictions.

    Reads, invalidation, counters and the stale read are
    :class:`FeatureStore`'s; only the write shape differs — rows go in as
    ``(prediction, hops_used)`` and come back as :class:`CachedPrediction`.
    Lock-free by default (the inline engine); the concurrent runtime builds
    it ``threadsafe=True``.
    """

    def __init__(
        self,
        capacity: int = 65536,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        threadsafe: bool = False,
    ) -> None:
        super().__init__(capacity, ttl_s=ttl_s, clock=clock, threadsafe=threadsafe)

    def put(
        self, namespace: str, node: int, prediction: int, hops_used: int
    ) -> CachedPrediction:
        entry = CachedPrediction(int(prediction), int(hops_used))
        super().put(namespace, node, entry)
        return entry

    def put_many(
        self, namespace: str, entries: Iterable[tuple[int, int, int]]
    ) -> None:
        """Batch-insert ``(node, prediction, hops_used)`` triples under one
        lock acquisition — the per-micro-batch write shape."""
        super().put_many(
            namespace,
            (
                (node, CachedPrediction(int(prediction), int(hops)))
                for node, prediction, hops in entries
            ),
        )
