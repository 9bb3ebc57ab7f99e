"""Incremental hop-stack maintenance under streaming edge insertions.

Locality argument (the dynamic-graph analogue of incremental PPR in
:mod:`repro.graph.dynamic`): inserting edge ``(u, v)`` changes row ``i``
of the hop matrix :math:`H_j = P^j X` **iff** ``i`` lies within ``j`` hops
of ``u`` or ``v`` on the *new* graph — the edge itself plus the degree
renormalisation perturb rows/columns ``u, v`` of :math:`P`, and each
further propagation widens the affected set by exactly one hop. So a
K-deep serving stack is restored *exactly* (not approximately) by
recomputing only the dirty rows, depth by depth:

.. math:: H'_j[D_j] = P'[D_j, :]\\, H'_{j-1}, \\qquad D_j = N_j(\\{u, v\\}),

where :math:`H'_{j-1}` is the already-patched previous depth and
:math:`N_j` is the ``j``-hop neighbourhood. Dense recompute cost is
:math:`\\sum_j |D_j|` rows instead of :math:`K \\cdot n` — the push-based
dirty-set discipline the serving engine's recompute counters expose.

The dirty sets are the levels of one :func:`repro.graph.traversal.expand`
from ``{u, v}``, so :math:`D_1 \\subseteq \\cdots \\subseteq D_K` and the patch
reads only rows :math:`D_K` of :math:`P'`: the serving engine builds just
those rows (:func:`repro.perf.row_operator`), not the whole new operator.

A patch is :func:`patched_rows` (compute, the stack untouched) then
:func:`write_rows`; the serving engine runs the first beside its readers
and the second inside a short commit (``ServedModel.commit``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.graph.dynamic import DynamicGraph
from repro.graph.traversal import expand
from repro.perf.propagation import rows_spmm
from repro.utils.validation import check_int_range, check_node_ids


@dataclass(frozen=True)
class UpdateReport:
    """Accounting for one applied graph update.

    Attributes
    ----------
    edges:
        The inserted edges.
    dirty_per_depth:
        ``dirty_per_depth[j-1]`` holds the node ids whose depth-``j`` rows
        were recomputed (the ``j``-hop neighbourhood of the endpoints).
    rows_recomputed:
        Total dense rows re-derived — ``sum(len(d) for d in dirty_per_depth)``.
    rows_full:
        Rows a from-scratch precompute would touch (``K * n_nodes``).
    store_invalidated:
        Cached predictions dropped from the embedding store.
    """

    edges: tuple[tuple[int, int], ...]
    dirty_per_depth: tuple[np.ndarray, ...] = field(repr=False)
    rows_recomputed: int
    rows_full: int
    store_invalidated: int = 0

    @property
    def dirty_nodes(self) -> np.ndarray:
        """The union dirty set (nodes whose *final* embedding changed)."""
        if not self.dirty_per_depth:
            return np.empty(0, dtype=np.int64)
        return self.dirty_per_depth[-1]

    @property
    def rows_saved_fraction(self) -> float:
        return 1.0 - self.rows_recomputed / max(self.rows_full, 1)


def dirty_frontiers(
    dynamic: DynamicGraph, seeds: Iterable[int], k: int
) -> list[np.ndarray]:
    """``[N_1, ..., N_k]``, each sorted: nodes within ``j`` hops of ``seeds``.

    Levels 1..k of :func:`repro.graph.traversal.expand` over the
    (post-insertion) CSR: ``N_j`` is exactly the set of rows of
    :math:`P^j X` perturbed by an update at the seeds (integer ids in
    ``[0, n_nodes)``, else :class:`~repro.errors.GraphError`).
    """
    check_int_range("k", k, 0)
    seeds = np.unique(check_node_ids(list(seeds), dynamic.n_nodes))
    levels = expand(dynamic.indptr, dynamic.indices, seeds, k)
    return [np.sort(level) for level in levels[1:]]


def patched_rows(
    stack: list[np.ndarray],
    operator: sp.spmatrix,
    dirty_per_depth: list[np.ndarray],
) -> list[np.ndarray]:
    """Every depth's new dirty rows, computed without writing ``stack``.

    Entry ``j-1`` holds the new rows ``dirty_per_depth[j-1]`` of depth
    ``j``, re-derived via :func:`repro.perf.rows_spmm` from depth ``j-1``
    as patched: one ``(n, d)`` scratch buffer, reused across depths. Only
    rows ``dirty_per_depth[-1]`` of ``operator`` are read, so a
    row-restricted operator (:func:`repro.perf.row_operator`) serves as
    well as the full one. Exact: untouched rows are bit-identical to a
    full recompute by the locality argument in the module docstring.
    """
    if len(dirty_per_depth) != len(stack) - 1:
        raise ConfigError(
            f"need one dirty set per propagation depth "
            f"({len(stack) - 1}), got {len(dirty_per_depth)}"
        )
    new_rows: list[np.ndarray] = []
    previous, scratch = stack[0], None
    for depth, rows in enumerate(dirty_per_depth, start=1):
        new_rows.append(rows_spmm(operator, rows, previous))
        if depth < len(dirty_per_depth):
            if scratch is None:
                scratch = np.empty_like(stack[depth])
            np.copyto(scratch, stack[depth])
            scratch[rows] = new_rows[-1]
            previous = scratch
    return new_rows


def write_rows(
    stack: list[np.ndarray],
    dirty_per_depth: list[np.ndarray],
    new_rows: list[np.ndarray],
) -> int:
    """Write :func:`patched_rows`' output into ``stack``; returns its rows."""
    for depth, (rows, new) in enumerate(zip(dirty_per_depth, new_rows), 1):
        stack[depth][rows] = new
    return sum(len(new) for new in new_rows)


def patch_stack(
    stack: list[np.ndarray],
    operator: sp.spmatrix,
    dirty_per_depth: list[np.ndarray],
) -> int:
    """Patch a hop stack in place for the given per-depth dirty rows.

    :func:`patched_rows` then :func:`write_rows`; ``stack[0]`` (raw
    features) is never touched. Returns the number of rows recomputed.
    """
    new_rows = patched_rows(stack, operator, dirty_per_depth)
    return write_rows(stack, dirty_per_depth, new_rows)
