"""Hand-rolled CSR SpMM kernels for the propagation hot path.

Every trainer and the serving stack funnel through
``chunked_spmm``/``rows_spmm`` in :mod:`repro.perf.propagation`, and on
CPU that workload is memory-bound: the aggregate step streams the dense
right-hand side through cache far more often than it does arithmetic.
This module supplies the kernels the dispatchers in ``propagation``
select from — the dispatchers keep the fault-injection sites and
thread-safety semantics; everything here is pure computation.

* :func:`blocked_spmm` — ``operator @ dense`` driven directly off the
  CSR ``indptr/indices/data`` triple via ``scipy.sparse._sparsetools``.
  The row-chunked walk slices *views* of the index/data arrays (the
  legacy path materializes a fresh CSR sub-matrix per chunk — an
  allocation plus an index copy per 16k rows). When the dense operand
  overflows the L2 budget, a column-blocked :class:`SpmmPlan` tiles the
  multiply so each tile of ``dense`` stays cache-resident across every
  row that touches it.
* :class:`FusedOperator` — ``D^-1/2 A D^-1/2 @ X`` in one pass, the
  degree scaling applied on the fly, so the normalized operator of the
  common ``gcn``/``sym`` engines is never materialized.
* :class:`RowBand` — a decoded sub-CSR of selected rows whose index
  arithmetic is paid once and reused across right-hand sides
  (serving's dirty-row patching, multi-RHS batched ``rows_spmm``).

Both kernel layouts accumulate each output element in ascending column
order — exactly scipy's own order for a CSR with sorted indices — so
results are *bitwise identical* to ``operator @ dense``, not merely
close. Scratch buffers are rented from :mod:`repro.perf.arena` rather
than allocated per hop.

Kernels require a CSR operator with float32/float64 data matching the
dense operand's dtype; :func:`kernel_supported` is the dispatchers'
gate, and anything else falls back to the legacy scipy path.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError
from repro.perf.arena import BufferArena, get_default_arena
from repro.perf.bounded_cache import BoundedCache
from repro.utils.validation import check_int_range

try:  # pragma: no cover - import guard
    from scipy.sparse import _sparsetools as _st

    HAVE_SPARSETOOLS = hasattr(_st, "csr_matvecs") and hasattr(_st, "csr_matvec")
except ImportError:  # pragma: no cover - scipy always ships it today
    _st = None
    HAVE_SPARSETOOLS = False

#: Dense-tile budget for column blocking. One tile of the dense operand
#: should survive in L2 across every operator row that references it.
DEFAULT_L2_BUDGET = 2 << 20  # 2 MiB

SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_INDEX_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))


def kernel_supported(operator, dense: np.ndarray) -> bool:
    """Whether the hand-rolled kernels can run this operand pair.

    Requires sparsetools, an already-CSR operator with float32/float64
    data *matching* the dense dtype (mixed precision falls back — the
    kernels never silently upcast), int32/int64 indices whose dtype
    matches ``indptr``, and a 1-D or 2-D C-contiguous dense operand.
    """
    if not HAVE_SPARSETOOLS or not isinstance(operator, sp.csr_matrix):
        return False
    if operator.data.dtype not in SUPPORTED_DTYPES:
        return False
    if operator.indices.dtype not in _INDEX_DTYPES:
        return False
    if operator.indices.dtype != operator.indptr.dtype:
        return False
    dense = np.asarray(dense)
    return (
        dense.dtype == operator.data.dtype
        and dense.ndim in (1, 2)
        and dense.flags.c_contiguous
    )


def _accumulate_band(
    n_cols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    start: int,
    stop: int,
    dense: np.ndarray,
    out_band: np.ndarray,
) -> None:
    """``out_band += operator[start:stop] @ dense`` without slicing the CSR.

    The only per-chunk allocation is the small rebased ``indptr`` window;
    ``indices``/``data`` are passed as zero-copy views. ``out_band`` must
    be a C-contiguous view of the output rows (the caller zero-fills it —
    sparsetools accumulates).
    """
    p0 = int(indptr[start])
    p1 = int(indptr[stop])
    local = indptr[start : stop + 1] - p0
    if local.dtype != indices.dtype:
        local = local.astype(indices.dtype)
    if dense.ndim == 1:
        _st.csr_matvec(
            stop - start, n_cols, local, indices[p0:p1], data[p0:p1],
            dense, out_band,
        )
    else:
        _st.csr_matvecs(
            stop - start, n_cols, dense.shape[1], local,
            indices[p0:p1], data[p0:p1],
            dense.reshape(-1), out_band.reshape(-1),
        )


class SpmmPlan:
    """Column-blocked tiling of a CSR operator for cache-resident SpMM.

    The operator's non-zeros are partitioned by column into tiles of
    ``col_block`` columns; each tile becomes its own sub-CSR whose
    column indices are rebased to the tile. :meth:`matmul` then
    accumulates ``out += A_tile @ dense[tile]`` tile by tile, so the
    ``col_block``-row slice of the dense operand is streamed through
    cache exactly once per tile instead of being randomly probed across
    the operator's full column range.

    Building a plan costs a stable ``argsort`` over the non-zeros plus a
    copy of ``indices``/``data`` — worth paying only for operators that
    are applied repeatedly (the dispatcher builds plans for frozen
    cache-owned operators only, via :func:`get_plan`).

    Tiles are accumulated in ascending column order and the stable sort
    preserves the in-row ordering, so for a sorted-indices CSR the
    per-element summation order — and therefore every output bit —
    matches ``operator @ dense``.
    """

    def __init__(self, operator: sp.csr_matrix, col_block: int) -> None:
        if not isinstance(operator, sp.csr_matrix):
            raise ConfigError("SpmmPlan requires a csr_matrix operator")
        if not operator.has_sorted_indices:
            raise ConfigError("SpmmPlan requires sorted CSR indices")
        check_int_range("col_block", col_block, 1)
        self.operator = operator
        self.col_block = int(col_block)
        n_rows, n_cols = operator.shape
        self.shape = (int(n_rows), int(n_cols))
        self.dtype = operator.data.dtype
        n_blocks = -(-n_cols // self.col_block) if n_cols else 0
        indptr, indices, data = operator.indptr, operator.indices, operator.data
        block_of = indices // self.col_block
        order = np.argsort(block_of, kind="stable")
        bounds = np.searchsorted(block_of[order], np.arange(n_blocks + 1))
        nnz_rows = np.repeat(
            np.arange(n_rows, dtype=np.int64), np.diff(indptr)
        )
        self._tiles: list[tuple] = []
        for b in range(n_blocks):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            if lo == hi:
                continue
            sel = order[lo:hi]
            counts = np.bincount(nnz_rows[sel], minlength=n_rows)
            tile_ptr = np.zeros(n_rows + 1, dtype=indptr.dtype)
            np.cumsum(counts, out=tile_ptr[1:])
            c0 = b * self.col_block
            c1 = min(c0 + self.col_block, n_cols)
            tile_idx = (indices[sel] - c0).astype(indices.dtype, copy=False)
            self._tiles.append((tile_ptr, tile_idx, data[sel], c0, c1))

    @property
    def nbytes(self) -> int:
        """Bytes held by the tiled copy of the operator."""
        return sum(p.nbytes + i.nbytes + d.nbytes for p, i, d, _, _ in self._tiles)

    def matmul(self, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Accumulate ``operator @ dense`` into ``out`` (caller zero-fills)."""
        n_rows = self.shape[0]
        for tile_ptr, tile_idx, tile_data, c0, c1 in self._tiles:
            tile_rhs = dense[c0:c1]
            if dense.ndim == 1:
                _st.csr_matvec(
                    n_rows, c1 - c0, tile_ptr, tile_idx, tile_data,
                    tile_rhs, out,
                )
            else:
                _st.csr_matvecs(
                    n_rows, c1 - c0, dense.shape[1], tile_ptr, tile_idx,
                    tile_data, tile_rhs.reshape(-1), out.reshape(-1),
                )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpmmPlan(shape={self.shape}, col_block={self.col_block}, "
            f"tiles={len(self._tiles)}, nbytes={self.nbytes})"
        )


# Plans keyed by operator identity and col_block. Built under the cache's
# lock: plan construction is a per-operator one-off, and racing builders
# would duplicate the nnz-sized copy.
_PLAN_CACHE_MAX = 8
_PLAN_CACHE = BoundedCache(_PLAN_CACHE_MAX)


def get_plan(operator: sp.csr_matrix, col_block: int) -> SpmmPlan:
    """The (LRU-cached) column-tiling plan for a long-lived operator."""
    return _PLAN_CACHE.get_or_build_for(
        operator, lambda: SpmmPlan(operator, col_block), int(col_block)
    )


def clear_plans() -> None:
    """Drop every cached tiling plan (frees the tiled operator copies)."""
    _PLAN_CACHE.clear()


def _pick_col_block(n_cols: int, dense: np.ndarray, l2_budget: int) -> int:
    """Columns per tile so one dense tile fits the L2 budget."""
    row_bytes = max(1, int(np.prod(dense.shape[1:], dtype=np.int64)) * dense.itemsize)
    return max(1024, min(n_cols, l2_budget // row_bytes))


def blocked_spmm(
    operator: sp.csr_matrix,
    dense: np.ndarray,
    chunk_rows: int,
    *,
    out: np.ndarray | None = None,
    l2_budget: int = DEFAULT_L2_BUDGET,
    plan: SpmmPlan | str = "auto",
) -> np.ndarray:
    """``operator @ dense`` via the zero-copy row walk or a column plan.

    Bitwise identical to the scipy product for sorted-indices CSR input.
    ``plan`` selects the layout: ``"auto"`` builds/reuses a cached
    :class:`SpmmPlan` when the dense operand overflows ``l2_budget`` and
    the operator is frozen (read-only data — i.e. owned by an operator
    cache and thus long-lived enough to amortize the plan build);
    ``"never"`` forces the row walk; an explicit :class:`SpmmPlan` is
    used as given. ``out``, when provided, must be a C-contiguous result
    buffer (e.g. rented from a :class:`~repro.perf.arena.BufferArena`).

    Callers must have validated :func:`kernel_supported` — this function
    assumes matching dtypes and raises :class:`ConfigError` otherwise.
    """
    check_int_range("chunk_rows", chunk_rows, 1)
    dense = np.asarray(dense)
    if not kernel_supported(operator, dense):
        raise ConfigError(
            "blocked_spmm requires a float32/float64 CSR operator and a "
            "matching-dtype C-contiguous dense operand "
            "(see kernel_supported)"
        )
    n_rows, n_cols = operator.shape
    out_shape = (n_rows,) + dense.shape[1:]
    if out is None:
        out = np.empty(out_shape, dtype=dense.dtype)
    elif out.shape != out_shape or out.dtype != dense.dtype or not out.flags.c_contiguous:
        raise ConfigError(
            f"out must be C-contiguous {out_shape} {dense.dtype}, "
            f"got {out.shape} {out.dtype}"
        )
    if isinstance(plan, SpmmPlan):
        out.fill(0)
        return plan.matmul(dense, out)
    if plan == "auto" and dense.ndim == 2 and dense.nbytes > l2_budget:
        col_block = _pick_col_block(n_cols, dense, l2_budget)
        n_tiles = -(-n_cols // col_block)
        row_bytes = dense.shape[1] * dense.itemsize
        if (
            col_block < n_cols
            # Tiling trades random dense-row gathers (a cache line per
            # non-zero, worst case) for (n_tiles - 1) extra streaming
            # passes over the output; engage only when that trade wins.
            # Wide operands fail it quickly — their output re-stream
            # dwarfs the gather savings — so plans engage at serving
            # widths, not training widths.
            and (n_tiles - 1) * n_rows * row_bytes < operator.nnz * 64
            and operator.has_sorted_indices
            and not operator.data.flags.writeable
        ):
            out.fill(0)
            return get_plan(operator, col_block).matmul(dense, out)
    indptr, indices, data = operator.indptr, operator.indices, operator.data
    for start in range(0, n_rows, chunk_rows):
        stop = min(start + chunk_rows, n_rows)
        band = out[start:stop]
        band.fill(0)
        _accumulate_band(n_cols, indptr, indices, data, start, stop, dense, band)
    return out


class FusedOperator:
    """Fused symmetric normalization + propagation: ``D^-1/2 A D^-1/2 @ X``.

    Holds the *raw* adjacency (with or without self-loops) plus the
    degree-scaling vector ``d^-1/2`` (zero for isolated nodes, matching
    :func:`repro.graph.ops.normalized_adjacency`), and applies the
    normalization on the fly around :func:`blocked_spmm`:

    .. math:: out = s \\odot (A (s \\odot X)), \\qquad s_i = d_i^{-1/2}

    The normalized operator is never materialized — for the ``gcn`` and
    ``sym`` engines this removes an nnz-sized matrix build *and* keeps
    the SpMM reading the adjacency's integer-weight-friendly data array.
    The scaled-input temporary is rented from the buffer arena, so
    steady-state hop loops allocate nothing.

    Agreement with the materialized operator is to rounding error (the
    scale factors are applied in a different association order), not
    bitwise — around 1e-15 relative for float64 inputs.
    """

    def __init__(self, adjacency: sp.csr_matrix) -> None:
        if not isinstance(adjacency, sp.csr_matrix):
            raise ConfigError("FusedOperator requires a csr_matrix adjacency")
        if adjacency.data.dtype not in SUPPORTED_DTYPES:
            raise ConfigError("FusedOperator requires float32/float64 data")
        self.adjacency = adjacency
        self.shape = tuple(int(s) for s in adjacency.shape)
        self.dtype = adjacency.data.dtype
        # Degrees summed in float64 regardless of the operand dtype so the
        # float32 mode's scale vector is a rounding of the exact one.
        deg = np.asarray(adjacency.sum(axis=1), dtype=np.float64).ravel()
        scale = np.zeros_like(deg)
        np.power(deg, -0.5, where=deg > 0, out=scale)
        self.scale = scale.astype(self.dtype)
        self.scale.setflags(write=False)
        self._scale_col = self.scale[:, None]

    @property
    def nnz(self) -> int:
        return int(self.adjacency.nnz)

    def matmul(
        self,
        dense: np.ndarray,
        chunk_rows: int,
        *,
        out: np.ndarray | None = None,
        l2_budget: int = DEFAULT_L2_BUDGET,
        arena: BufferArena | None = None,
    ) -> np.ndarray:
        """``(D^-1/2 A D^-1/2) @ dense`` without building the operator."""
        dense = np.asarray(dense)
        scale = self.scale if dense.ndim == 1 else self._scale_col
        arena = arena if arena is not None else get_default_arena()
        scaled = arena.rent(dense.shape, self.dtype)
        try:
            np.multiply(dense, scale, out=scaled)
            out = blocked_spmm(
                self.adjacency, scaled, chunk_rows, out=out, l2_budget=l2_budget
            )
        finally:
            arena.release(scaled)
        out *= scale
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FusedOperator(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype})"
        )


class RowBand:
    """A decoded sub-CSR of selected operator rows, reusable across RHS.

    ``(operator @ dense)[rows]`` needs only the non-zeros of the selected
    rows; the legacy ``operator[rows] @ dense`` pays a scipy fancy-index
    extraction (bound checks, per-row copies, a fresh matrix object) on
    *every* call. A ``RowBand`` performs that index decode once — a
    vectorized gather of the selected rows' index/data spans — and then
    serves any number of right-hand sides against the decoded band:
    serving's depth-by-depth dirty-row patching reuses one band across
    consecutive depths with the same dirty set, and
    :func:`repro.perf.propagation.rows_spmm_multi` amortizes it across
    stacked right-hand sides.
    """

    def __init__(self, operator: sp.csr_matrix, rows: np.ndarray) -> None:
        if not isinstance(operator, sp.csr_matrix):
            raise ConfigError("RowBand requires a csr_matrix operator")
        rows = np.asarray(rows, dtype=np.int64)
        n_rows, n_cols = operator.shape
        rows = np.where(rows < 0, rows + n_rows, rows)
        if len(rows) and (rows.min() < 0 or rows.max() >= n_rows):
            raise ConfigError(f"row indices outside [0, {n_rows})")
        self.rows = rows
        self.n_cols = int(n_cols)
        self.dtype = operator.data.dtype
        indptr = operator.indptr
        starts = indptr[rows].astype(np.int64)
        counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
        total = int(counts.sum())
        band_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=band_ptr[1:])
        # Global nnz position of band entry j in selected row i:
        # starts[i] + (j - band_ptr[i]), vectorized over every entry.
        positions = (
            np.arange(total, dtype=np.int64)
            - np.repeat(band_ptr[:-1], counts)
            + np.repeat(starts, counts)
        )
        self.indptr = band_ptr.astype(operator.indices.dtype)
        self.indices = operator.indices[positions]
        self.data = operator.data[positions]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1]) if len(self.indptr) else 0

    def matches(self, rows: np.ndarray) -> bool:
        """Whether this band was decoded for exactly these rows."""
        rows = np.asarray(rows, dtype=np.int64)
        return len(rows) == len(self.rows) and bool(np.array_equal(rows, self.rows))

    def matmul(
        self, dense: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``(operator @ dense)[rows]`` against the decoded band."""
        dense = np.asarray(dense)
        if dense.dtype != self.dtype or not dense.flags.c_contiguous:
            raise ConfigError(
                f"RowBand expects C-contiguous {self.dtype} dense input, "
                f"got {dense.dtype}"
            )
        out_shape = (len(self.rows),) + dense.shape[1:]
        if out is None:
            out = np.empty(out_shape, dtype=self.dtype)
        elif out.shape != out_shape or out.dtype != self.dtype or not out.flags.c_contiguous:
            raise ConfigError(
                f"out must be C-contiguous {out_shape} {self.dtype}, "
                f"got {out.shape} {out.dtype}"
            )
        out.fill(0)
        if len(self.rows):
            _accumulate_band(
                self.n_cols, self.indptr, self.indices, self.data,
                0, len(self.rows), dense, out,
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RowBand(rows={len(self.rows)}, nnz={self.nnz}, dtype={self.dtype})"
