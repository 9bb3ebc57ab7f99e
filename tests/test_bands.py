"""Row-banded CSR products (repro.utils.bands): every split is bitwise
``operator @ dense``, no band thread outlives a call, a band's error
reaches the caller, and the hop fault site sees one banded hop as one."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.perf import PropagationEngine, OperatorCache, spmm
from repro.resilience import FaultSpec, inject
from repro.tensor import Tensor
from repro.tensor.autograd import spmm as tensor_spmm
from repro.utils import bands
from repro.utils.bands import (
    BAND_MIN_WORK,
    band_bounds,
    band_count,
    banded_matmul,
)


def _operator(n_rows=40, n_cols=30, dtype=np.float64, seed=0, fmt=sp.csr_matrix):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.2)
    return fmt(dense.astype(dtype))


def _dense(n, d=5, dtype=np.float64, seed=1):
    return np.random.default_rng(seed).normal(size=(n, d)).astype(dtype)


def _check(op, x, bounds):
    got = bands._run_bands(op, x, np.asarray(bounds))
    ref = op @ x
    assert type(got) is np.ndarray and got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@pytest.fixture
def banded_everywhere(monkeypatch):
    """Every bandable product splits into bands, however small."""
    monkeypatch.setattr(bands, "BAND_MIN_WORK", 0)
    monkeypatch.setattr(bands, "_cpu_count", lambda: 3)


class TestBitwiseBands:
    @pytest.mark.parametrize("n_bands", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nnz_balanced_bands(self, n_bands, dtype):
        op = _operator(dtype=dtype)
        _check(op, _dense(30, dtype=dtype), band_bounds(op.indptr, n_bands))

    def test_more_bands_than_rows(self):
        op = _operator(n_rows=3)
        bounds = band_bounds(op.indptr, 7)
        assert len(bounds) == 8 and bounds[0] == 0 and bounds[-1] == 3
        _check(op, _dense(30), bounds)
        _check(op, _dense(30), [0, 0, 1, 1, 2, 3, 3])

    def test_empty_band(self):
        op = _operator()
        _check(op, _dense(30), [0, 10, 10, 40])
        _check(op, _dense(30), [0, 0, 40])

    def test_one_row_holding_most_nnz(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((20, 200)) < 0.02) * rng.normal(size=(20, 200))
        dense[7] = rng.normal(size=200)
        op = sp.csr_matrix(dense)
        assert op.indptr[8] - op.indptr[7] > op.nnz // 2
        for n_bands in (2, 3):
            _check(op, _dense(200), band_bounds(op.indptr, n_bands))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_dense_layouts(self, layout):
        op = _operator()
        base = _dense(60, d=8)
        x = {"C": base[:30].copy(), "F": np.asfortranarray(base[:30]),
             "strided": base[::2, ::2]}[layout]
        assert x.shape[0] == 30
        _check(op, x, band_bounds(op.indptr, 3))

    def test_csr_array(self):
        op = _operator(fmt=sp.csr_array)
        assert not sp.isspmatrix_csr(op) and op.format == "csr"
        _check(op, _dense(30), band_bounds(op.indptr, 2))

    def test_unsorted_indices_and_duplicates(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 9, size=25)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        indices = rng.integers(0, 6, size=indptr[-1])  # many duplicates
        data = rng.normal(size=indptr[-1])
        op = sp.csr_matrix((data, indices, indptr), shape=(25, 6))
        assert not op.has_sorted_indices or not op.has_canonical_format
        for n_bands in (1, 2, 3):
            _check(op, _dense(6), band_bounds(op.indptr, n_bands))

    @pytest.mark.parametrize("case", ["csc", "mixed", "one_column", "vector"])
    def test_operands_scipy_does_not_band_stay_plain(
        self, case, banded_everywhere, monkeypatch
    ):
        called = []
        monkeypatch.setattr(bands, "_csr_matvecs", lambda *a: called.append(a))
        op, x = _operator(), _dense(30)
        if case == "csc":
            op = op.tocsc()
        elif case == "mixed":
            x = x.astype(np.float32)
        elif case == "one_column":
            x = x[:, :1].copy()
        else:
            x = x[:, 0].copy()
        got = banded_matmul(op, x)
        assert not called
        assert band_count(op, x) == 1
        assert np.array_equal(got, op @ x)


class TestAboveTheConstant:
    def _large(self):
        n, d = 20_000, 64
        rng = np.random.default_rng(7)
        per_row = -(-BAND_MIN_WORK // (n * d))
        counts = rng.integers(per_row, 2 * per_row, size=n)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        op = sp.csr_matrix(
            (rng.random(indptr[-1]), rng.integers(0, n, indptr[-1]), indptr),
            shape=(n, n),
        )
        x = rng.normal(size=(n, d))
        assert op.nnz * d >= BAND_MIN_WORK
        return op, x

    def test_spmm_bands_and_equals_scipy(self):
        op, x = self._large()
        cpus = bands._cpu_count()
        assert band_count(op, x) == cpus
        before = threading.active_count()
        assert np.array_equal(spmm(op, x), op @ x)
        assert threading.active_count() == before

    def test_below_the_constant_is_one_call(self, monkeypatch):
        op, x = _operator(), _dense(30)
        assert band_count(op, x) == 1
        monkeypatch.setattr(bands, "BAND_MIN_WORK", 0)
        assert band_count(op, x) == min(bands._cpu_count(), op.shape[0])


def _raise_off_main(*args):
    if threading.current_thread() is not threading.main_thread():
        raise RuntimeError("band failed")
    return bands._sparsetools.csr_matvecs(*args)


def _raise_on_main(*args):
    if threading.current_thread() is threading.main_thread():
        raise RuntimeError("band 0 failed")
    return bands._sparsetools.csr_matvecs(*args)


class TestBandThreads:
    def test_no_thread_outlives_a_call(self):
        op = _operator()
        before = threading.active_count()
        bands._run_bands(op, _dense(30), band_bounds(op.indptr, 3))
        assert threading.active_count() == before

    @pytest.mark.parametrize("kernel", [_raise_off_main, _raise_on_main])
    def test_band_error_reaches_the_caller(self, kernel, monkeypatch):
        monkeypatch.setattr(bands, "_csr_matvecs", kernel)
        op = _operator()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed"):
            bands._run_bands(op, _dense(30), band_bounds(op.indptr, 3))
        assert threading.active_count() == before


class TestHopSite:
    def test_fires_once_per_banded_hop(self, banded_everywhere):
        op, x = _operator(n_cols=40), _dense(40)
        assert band_count(op, x) == 3
        with inject([FaultSpec("propagation.hop", "drop", rate=0.0)]) as injector:
            out = spmm(op, x)
        assert injector.calls("propagation.hop") == 1
        assert np.array_equal(out, op @ x)

    def test_drop_zeroes_the_whole_output(self, banded_everywhere):
        op, x = _operator(n_cols=40), _dense(40)
        with inject([FaultSpec("propagation.hop", "drop")]):
            out = spmm(op, x)
        assert out.shape == (40, 5) and not out.any()

    def test_corrupt_acts_on_the_whole_output(self, banded_everywhere):
        op, x = _operator(n_cols=40), _dense(40)
        with inject([FaultSpec("propagation.hop", "corrupt")], seed=3) as injector:
            out = spmm(op, x)
        plain = op @ x
        with inject([FaultSpec("propagation.hop", "corrupt")], seed=3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bands, "BAND_MIN_WORK", 1 << 62)
                ref = spmm(op, x)
        assert injector.calls("propagation.hop") == 1
        assert np.isnan(out).any()
        assert np.array_equal(out, ref, equal_nan=True)
        assert np.array_equal(np.isnan(out), np.isnan(ref))
        assert np.array_equal(out[~np.isnan(out)], plain[~np.isnan(out)])

    def test_engine_stack_is_banded_and_bitwise(self, banded_everywhere, featured_graph):
        engine = PropagationEngine(cache=OperatorCache())
        stack = engine.propagate(featured_graph, featured_graph.x, 3, kind="gcn")
        op = engine.operator(featured_graph, "gcn")
        assert band_count(op, stack[0]) == 3
        for i in range(1, 4):
            assert np.array_equal(stack[i], op @ stack[i - 1])

    def test_spmm_span_records_bands(self, obs_tracer, featured_graph, monkeypatch):
        engine = PropagationEngine(cache=OperatorCache())
        engine.propagate(featured_graph, featured_graph.x, 1, memoize=False)
        monkeypatch.setattr(bands, "BAND_MIN_WORK", 0)
        monkeypatch.setattr(bands, "_cpu_count", lambda: 3)
        engine.propagate(featured_graph, featured_graph.x, 2, memoize=False)
        hops = obs_tracer.find("perf.spmm")
        assert [h.attributes["bands"] for h in hops] == [1, 3, 3]


class TestTensorSpmm:
    def test_forward_and_backward_banded_bitwise(self, banded_everywhere, monkeypatch):
        calls = []
        monkeypatch.setattr(
            bands, "_csr_matvecs",
            lambda *a: calls.append(a[0]) or bands._sparsetools.csr_matvecs(*a),
        )
        op = _operator(n_rows=30, n_cols=30)
        x = Tensor(_dense(30), requires_grad=True)
        out = tensor_spmm(op, x)
        assert np.array_equal(out.data, op @ x.data)
        assert len(calls) == 3
        grad = _dense(30, seed=9)
        (out * Tensor(grad)).sum().backward()
        assert len(calls) == 6
        assert np.array_equal(x.grad, op.T.tocsr() @ grad)
