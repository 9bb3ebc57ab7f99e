"""Row-banded CSR × dense products, bitwise equal to ``operator @ dense``.

Aggregation (a sparse operator times a dense feature matrix) is
memory-bound and row-parallel: every output row is an independent sum
over its operator row. :func:`banded_matmul` splits a CSR operator into
row bands holding about the same number of non-zeros and runs scipy's
own kernel — ``scipy.sparse._sparsetools.csr_matvecs``, the call
``csr @ dense`` makes, which releases the GIL — on each band at once.
Every output row is computed by the same code over the same stored
entries in the same order, so the product is bitwise ``operator @ dense``
whatever the number of bands.

The calling thread allocates the one zeroed output (as scipy does) and
every band's rebased ``indptr``; band 0 runs on the caller and the
others on threads started and joined inside the call, so no thread
outlives it and band threads allocate nothing large. A band's exception
re-raises in the caller after every band has finished.

Both the hop engine (:func:`repro.perf.propagation.spmm`) and the tensor
op (:func:`repro.tensor.autograd.spmm`) route through here.
"""

from __future__ import annotations

import os
import threading

import numpy as np
from scipy.sparse import _sparsetools

#: Work (stored entries × dense columns) below which a product stays one
#: ``operator @ dense`` call. Measured on a 2-vCPU VM, the macro
#: generator's GCN operator at d=64, two bands against one (median of 11
#: interleaved runs): 1.03x at 50k nodes (42M), 0.98x at 100k (83M), then
#: 0.41x at 120k (100M), 0.44–0.48x at 150k (125M) and 0.80x at 300k
#: (250M); two bands won 11 of 11 runs from 100M up. The step sits where
#: one band's time jumps (93–168 ms at 83M, 254 ms at 100M) as the
#: gathered feature rows outgrow the cache. 90M lies in that gap: the
#: 50k-node serving and 100k-node sampled hops, where bands measured
#: neutral, stay single-call, as do sampled training blocks (about 25k
#: arcs × 64, 1.6M) and every tier-1 graph.
BAND_MIN_WORK = 90_000_000

_csr_matvecs = _sparsetools.csr_matvecs
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def _bandable(operator, dense) -> bool:
    """A 2-D CSR operator and a plain 2-D ndarray of more than one column,
    both of one float dtype: the operands ``operator @ dense`` sends to
    ``csr_matvecs``."""
    return (
        getattr(operator, "format", None) == "csr"
        and operator.ndim == 2
        and type(dense) is np.ndarray
        and dense.ndim == 2
        and dense.shape[1] > 1
        and dense.shape[0] == operator.shape[1]
        and dense.dtype == operator.dtype
        and dense.dtype in _FLOATS
    )


def band_count(operator, dense) -> int:
    """How many row bands :func:`banded_matmul` splits ``operator @ dense``
    into: the CPUs this process may run on when the operands are bandable
    and the work (stored entries × dense columns) reaches
    :data:`BAND_MIN_WORK`, else 1 (one plain ``operator @ dense``)."""
    if not _bandable(operator, dense):
        return 1
    if operator.nnz * dense.shape[1] < BAND_MIN_WORK:
        return 1
    return max(1, min(_cpu_count(), operator.shape[0]))


def band_bounds(indptr: np.ndarray, bands: int) -> np.ndarray:
    """``bands + 1`` row boundaries splitting a CSR's non-zeros evenly:
    band ``b`` holds rows ``[bounds[b], bounds[b + 1])``."""
    targets = indptr[-1] * np.arange(1, bands) // bands
    inner = np.searchsorted(indptr, targets, side="left")
    return np.concatenate([[0], inner, [len(indptr) - 1]])


def banded_matmul(operator, dense: np.ndarray) -> np.ndarray:
    """``operator @ dense``, run as one scipy kernel call per row band.

    :func:`band_count` picks the number of bands and :func:`band_bounds`
    balances them by non-zeros. Operands scipy would not send to
    ``csr_matvecs`` (another format, a 1-D or one-column or mixed-dtype
    operand) and products below :data:`BAND_MIN_WORK` are plain
    ``operator @ dense``.
    """
    bands = band_count(operator, dense)
    if bands == 1:
        return operator @ dense
    return _run_bands(operator, dense, band_bounds(operator.indptr, bands))


def _run_bands(operator, dense: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """One ``csr_matvecs`` call per band ``[bounds[b], bounds[b + 1])`` of a
    bandable product, band 0 on the caller and the others on threads
    joined before return."""
    n_rows, n_cols = operator.shape
    n_vecs = dense.shape[1]
    indptr, indices, data = operator.indptr, operator.indices, operator.data
    # scipy's own preparation: a C-ordered copy of the dense operand when
    # it is not one already, and a zeroed output (both operands share one
    # dtype here, so it is the product dtype).
    x = dense.ravel()
    out = np.zeros((n_rows, n_vecs), dtype=dense.dtype)
    calls = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        ptr = indptr[r0:r1 + 1] - indptr[r0]
        lo, hi = indptr[r0], indptr[r1]
        calls.append((
            r1 - r0, n_cols, n_vecs, ptr, indices[lo:hi], data[lo:hi],
            x, out[r0:r1].ravel(),
        ))
    errors: list[BaseException] = []

    def run(args) -> None:
        try:
            _csr_matvecs(*args)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(args,), daemon=True)
               for args in calls[1:]]
    try:
        for thread in threads:
            thread.start()
        run(calls[0])
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]
    return out
