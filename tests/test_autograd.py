"""Tests for the reverse-mode autograd engine."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError
from repro.tensor import Tensor, check_gradients, functional as F, no_grad
from repro.tensor.autograd import spmm


class TestTensorBasics:
    def test_data_coerced_to_float64(self):
        assert Tensor([1, 2]).data.dtype == np.float64

    def test_shape_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.size == 12
        assert t.ndim == 2

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_numpy_returns_copy(self):
        t = Tensor([1.0, 2.0])
        arr = t.numpy()
        arr[0] = 99.0
        assert t.data[0] == 1.0

    def test_detach_drops_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = (t * 2).detach()
        assert not d.requires_grad

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2).backward()

    def test_backward_grad_shape_checked(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2).backward(np.ones(3))

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        assert t.grad[0] == 4.0


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.array_equal(a.grad, [1.0, 1.0])
        assert np.array_equal(b.grad, [1.0, 1.0])

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        (x + b).sum().backward()
        assert np.array_equal(b.grad, [3.0, 3.0])

    def test_mul_backward(self):
        a = Tensor([2.0], requires_grad=True)
        b = Tensor([5.0], requires_grad=True)
        (a * b).sum().backward()
        assert a.grad[0] == 5.0
        assert b.grad[0] == 2.0

    def test_scalar_coercion(self):
        a = Tensor([2.0], requires_grad=True)
        (3.0 * a + 1.0).sum().backward()
        assert a.grad[0] == 3.0

    def test_sub_and_neg(self):
        a = Tensor([4.0], requires_grad=True)
        (1.0 - a).sum().backward()
        assert a.grad[0] == -1.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).sum().backward()
        assert a.grad[0] == 0.5
        assert b.grad[0] == -1.5

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).sum().backward()
        assert a.grad[0] == 6.0

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_shapes_and_grads(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 4)
        out.sum().backward()
        assert np.allclose(a.grad, 4.0)
        assert np.allclose(b.grad, 2.0)

    def test_transpose(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        a.T.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_reshape(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)


class TestReductions:
    def test_sum_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        out = a.sum(axis=0)
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_sum_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_scales_gradient(self):
        a = Tensor(np.ones(4), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 0.25)

    def test_gather_rows_scatter_adds(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        a.gather_rows(np.array([0, 0, 2])).sum().backward()
        assert np.array_equal(a.grad[:, 0], [2.0, 0.0, 1.0])

    def test_head_rows_equals_prefix_gather(self, rng):
        data, weight = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
        a = Tensor(data, requires_grad=True)
        b = Tensor(data, requires_grad=True)
        head = a.head_rows(2)
        assert np.array_equal(head.data, b.gather_rows(np.arange(2)).data)
        (head * weight).sum().backward()
        (b.gather_rows(np.arange(2)) * weight).sum().backward()
        assert np.array_equal(a.grad, b.grad)
        assert check_gradients(lambda t: (t.head_rows(2) * weight).sum(), [a])


class TestSpmm:
    def test_forward_matches_dense(self, rng):
        mat = sp.random(5, 5, density=0.5, format="csr", random_state=0)
        x = Tensor(rng.normal(size=(5, 3)))
        assert np.allclose(spmm(mat, x).data, mat.toarray() @ x.data)

    def test_backward_is_transpose(self, rng):
        mat = sp.random(4, 4, density=0.6, format="csr", random_state=1)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        spmm(mat, x).sum().backward()
        assert np.allclose(x.grad, mat.T.toarray() @ np.ones((4, 2)))

    def test_transpose_built_only_when_a_gradient_arrives(self, rng, monkeypatch):
        built = []
        transpose = sp.csr_matrix.transpose
        monkeypatch.setattr(
            sp.csr_matrix, "transpose",
            lambda self, *a, **k: built.append(1) or transpose(self, *a, **k),
        )
        mat = sp.random(4, 4, density=0.6, format="csr", random_state=2)
        x = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with no_grad():
            spmm(mat, x)
        spmm(mat, Tensor(x.data))  # an input-layer operand: no grad wanted
        out = spmm(mat, x)
        assert not built
        out.sum().backward()
        assert len(built) == 1

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            spmm(np.eye(3), Tensor(np.ones((3, 1))))


class TestNoGrad:
    def test_no_graph_recorded(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_nested_restores(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not (a * 2).requires_grad
        assert (a * 2).requires_grad


class TestGradcheckHarness:
    def test_composite_expression(self, rng):
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda a: ((a @ a) * a).sum(), [a])

    def test_catches_wrong_gradient(self):
        a = Tensor(np.array([2.0]), requires_grad=True)

        def bad(t):
            out = Tensor._make(t.data**2, (t,), lambda g: t._accumulate(g * 3.0))
            return out.sum()

        with pytest.raises(AssertionError):
            check_gradients(bad, [a])

    def test_requires_scalar_output(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            check_gradients(lambda a: a * 2, [a])

    def test_diamond_graph_gradient(self):
        # z = x*y where both branches share x: checks topo-sort accumulation
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x
        z = (y + x).sum()
        z.backward()
        assert x.grad[0] == 2 * 3.0 + 1.0
