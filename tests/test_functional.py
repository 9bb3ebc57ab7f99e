"""Tests for differentiable functional ops (gradients checked numerically)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.tensor import Tensor, check_gradients, functional as F


@pytest.fixture
def x(rng):
    return Tensor(rng.normal(size=(4, 3)), requires_grad=True)


class TestNonlinearities:
    def test_relu_forward(self):
        t = Tensor([-1.0, 0.0, 2.0])
        assert np.array_equal(F.relu(t).data, [0.0, 0.0, 2.0])

    def test_relu_gradient(self, x):
        assert check_gradients(lambda x: F.relu(x).sum(), [x])

    def test_leaky_relu_negative_slope(self):
        t = Tensor([-2.0])
        assert F.leaky_relu(t, slope=0.1).data[0] == pytest.approx(-0.2)

    def test_leaky_relu_gradient(self, x):
        assert check_gradients(lambda x: F.leaky_relu(x, 0.05).sum(), [x])

    def test_tanh_gradient(self, x):
        assert check_gradients(lambda x: F.tanh(x).sum(), [x])

    def test_sigmoid_range(self, x):
        out = F.sigmoid(x).data
        assert np.all((out > 0) & (out < 1))

    def test_sigmoid_gradient(self, x):
        assert check_gradients(lambda x: F.sigmoid(x).sum(), [x])

    def test_sigmoid_extreme_values_stable(self):
        out = F.sigmoid(Tensor([-1000.0, 1000.0])).data
        assert np.all(np.isfinite(out))

    def test_exp_log_inverse(self, x):
        assert np.allclose(F.log(F.exp(x)).data, x.data)

    def test_exp_gradient(self, x):
        assert check_gradients(lambda x: F.exp(x).sum(), [x])

    def test_log_gradient(self, rng):
        pos = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        assert check_gradients(lambda p: F.log(p).sum(), [pos])

    def test_abs_gradient(self, x):
        assert check_gradients(lambda x: F.abs_(x).sum(), [x])


class TestSoftmaxFamily:
    def test_softmax_rows_sum_to_one(self, x):
        out = F.softmax(x, axis=1).data
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_softmax_gradient(self, x):
        w = Tensor(np.arange(12.0).reshape(4, 3))
        assert check_gradients(lambda x: (F.softmax(x, axis=1) * w).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, x):
        assert np.allclose(
            F.log_softmax(x, axis=1).data, np.log(F.softmax(x, axis=1).data)
        )

    def test_log_softmax_gradient(self, x):
        w = Tensor(np.arange(12.0).reshape(4, 3))
        assert check_gradients(lambda x: (F.log_softmax(x, axis=1) * w).sum(), [x])

    def test_softmax_shift_invariant(self, x):
        shifted = Tensor(x.data + 1000.0)
        assert np.allclose(
            F.softmax(x, axis=1).data, F.softmax(shifted, axis=1).data
        )


class TestCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        logits = Tensor(np.zeros((5, 4)), requires_grad=True)
        loss = F.cross_entropy(logits, np.zeros(5, dtype=int))
        assert loss.item() == pytest.approx(np.log(4))

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=6)
        assert check_gradients(lambda l: F.cross_entropy(l, labels), [logits])

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 2), -20.0)
        logits[np.arange(3), [0, 1, 0]] = 20.0
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1, 0]))
        assert loss.item() < 1e-8

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((3, 2))), np.zeros(4, dtype=int))

    def test_gradient_sums_to_zero_per_row(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        F.cross_entropy(logits, np.array([0, 1, 2, 0])).backward()
        assert np.allclose(logits.grad.sum(axis=1), 0.0)

    @pytest.mark.parametrize("bad", [-1, 3, 0.7], ids=["negative", "past_last", "fractional"])
    def test_malformed_labels_rejected(self, rng, bad):
        # -1 used to score the last class, 3 raised a bare IndexError and
        # 0.7 was truncated to class 0.
        labels = np.array([0, 1, 2, bad], dtype=type(bad))
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(rng.normal(size=(4, 3))), labels)

    def test_integral_float_and_bool_labels_accepted(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)))
        ints = F.cross_entropy(logits, np.array([0, 1, 2, 1])).item()
        assert F.cross_entropy(logits, np.array([0.0, 1.0, 2.0, 1.0])).item() == ints
        two = Tensor(logits.data[:, :2])
        assert F.cross_entropy(two, np.array([False, True, True, False])).item() == (
            F.cross_entropy(two, np.array([0, 1, 1, 0])).item()
        )

    def test_second_backward_leaves_the_forward_intact(self, rng):
        logits = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([0, 1, 2, 0, 1]))
        loss.backward()
        first = logits.grad.copy()
        loss.backward()
        assert np.array_equal(logits.grad, first + first)


class TestLinear:
    @pytest.mark.parametrize("relu", [False, True])
    def test_matches_unfused_ops_bitwise(self, rng, relu):
        x = Tensor(rng.normal(size=(7, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        x2, w2, b2 = (Tensor(t.data, requires_grad=True) for t in (x, w, b))
        fused = F.linear(x, w, b, relu=relu)
        plain = x2 @ w2 + b2
        if relu:
            plain = F.relu(plain)
        assert fused.data.tobytes() == plain.data.tobytes()
        seed = rng.normal(size=fused.shape)
        fused.backward(seed)
        plain.backward(seed)
        for a, c in ((x, x2), (w, w2), (b, b2)):
            assert a.grad.tobytes() == c.grad.tobytes()

    def test_gradient(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        assert check_gradients(
            lambda x, w, b: F.linear(x, w, b, relu=True).sum(), [x, w, b]
        )

    def test_without_bias(self, rng):
        x = Tensor(rng.normal(size=(3, 2)))
        w = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        F.linear(x, w).sum().backward()
        assert np.array_equal(w.grad, x.data.T @ np.ones((3, 4)))


class TestDropout:
    def test_eval_mode_identity(self, x):
        assert F.dropout(x, 0.5, training=False) is x

    def test_p_zero_identity(self, x):
        assert F.dropout(x, 0.0) is x

    def test_scaling_preserves_expectation(self, rng):
        t = Tensor(np.ones((200, 50)))
        out = F.dropout(t, 0.3, seed=0).data
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_gradient_respects_mask(self):
        t = Tensor(np.ones(100), requires_grad=True)
        out = F.dropout(t, 0.5, seed=1)
        out.sum().backward()
        assert np.array_equal(t.grad != 0, out.data != 0)

    def test_invalid_p(self, x):
        with pytest.raises(ShapeError):
            F.dropout(x, 1.0)

    def test_deterministic_under_seed(self, x):
        a = F.dropout(x, 0.5, seed=7).data
        b = F.dropout(x, 0.5, seed=7).data
        assert np.array_equal(a, b)


class TestShapeOps:
    def test_concat_forward(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert F.concat([a, b], axis=1).shape == (2, 5)

    def test_concat_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        assert check_gradients(lambda a, b: (F.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_concat_axis0_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        assert check_gradients(lambda a, b: (F.concat([a, b], axis=0) * 2).sum(), [a, b])

    def test_concat_empty_rejected(self):
        with pytest.raises(ShapeError):
            F.concat([])

    def test_stack_rows(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = F.stack_rows([a, b])
        assert out.shape == (2, 3)
        assert check_gradients(lambda a, b: (F.stack_rows([a, b]) ** 2).sum(), [a, b])
