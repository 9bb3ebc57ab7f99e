"""Cheap content fingerprinting for immutable graphs and dense arrays.

The operator cache and propagation engine key their entries by *content*,
not object identity: two :class:`~repro.graph.core.Graph` instances holding
identical CSR arrays share one cache entry, and a structurally different
graph can never be served a stale operator. Fingerprinting is a single
blake2b pass over the raw buffers — orders of magnitude cheaper than even
one sparse matmul — and :class:`~repro.graph.core.Graph` memoizes the
digests on the instance (:attr:`~repro.graph.core.Graph.fingerprint` for
the structure, :attr:`~repro.graph.core.Graph.feature_fingerprint` for
``x``) because graphs are immutable, so each hash is paid at most once per
graph, however often the caches keyed by it are cleared.
"""

from __future__ import annotations

import hashlib

import numpy as np


def array_fingerprint(*arrays: np.ndarray | None) -> str:
    """Hex digest over the dtype, shape and bytes of each array, in order.

    ``None`` entries hash to a distinct marker so optional arrays (e.g. a
    missing feature matrix) cannot collide with empty ones. A C-contiguous
    array is hashed through its buffer in place (the digest of its
    ``tobytes()``, without that copy); others are made contiguous first.
    """
    digest = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        if arr is None:
            digest.update(b"<none>")
            continue
        contiguous = np.ascontiguousarray(arr)
        digest.update(str(contiguous.dtype).encode())
        digest.update(str(contiguous.shape).encode())
        digest.update(contiguous)
    return digest.hexdigest()


def graph_fingerprint(graph) -> str:
    """Content hash of a graph's CSR arrays plus its directedness flag.

    Prefer :attr:`Graph.fingerprint`, which caches this digest on the
    instance; this function always recomputes from the raw arrays.
    """
    prefix = "d" if graph.directed else "u"
    return prefix + array_fingerprint(graph.indptr, graph.indices, graph.weights)
