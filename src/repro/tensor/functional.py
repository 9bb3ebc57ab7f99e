"""Differentiable functions over :class:`~repro.tensor.autograd.Tensor`.

The fused affine layer, nonlinearities, softmax/cross-entropy, dropout and
shape utilities — the vocabulary needed by the GNN model zoo. Every
function builds the backward closure explicitly; none mutate their inputs,
and every closure that allocates its gradient hands it over without a copy
(see :mod:`repro.tensor.autograd`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.tensor.autograd import Tensor, spmm  # re-exported for convenience
from repro.utils.rng import as_rng

__all__ = [
    "linear",
    "relu",
    "leaky_relu",
    "tanh",
    "sigmoid",
    "exp",
    "log",
    "abs_",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "dropout",
    "layer_norm",
    "concat",
    "stack_rows",
    "spmm",
]


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor._make(
        x.data * mask, (x,),
        lambda grad: x._accumulate(np.multiply(grad, mask, out=grad), owned=True),
    )


def linear(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, relu: bool = False
) -> Tensor:
    """``x @ weight + bias``, optionally through a ReLU, as one graph node.

    The same IEEE operations as ``relu(x @ weight + bias)`` in the same
    order — the bias is added and the ReLU mask multiplied in place on the
    product — with one backward closure, which masks the gradient it owns
    in place and hands its parents ``dx``, ``dweight`` and ``dbias``
    without copies.
    """
    out = x.data @ weight.data
    if bias is not None:
        out += bias.data
    if relu:
        mask = out > 0
        out *= mask

    def backward(grad: np.ndarray) -> None:
        g = np.multiply(grad, mask, out=grad) if relu else grad
        if bias is not None and bias.requires_grad:
            bias._accumulate(g)
        if x.requires_grad:
            x._accumulate(g @ weight.data.T, owned=True)
        if weight.requires_grad:
            weight._accumulate(x.data.T @ g, owned=True)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out, parents, backward)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    scale = np.where(x.data > 0, 1.0, slope)
    return Tensor._make(
        x.data * scale, (x,), lambda grad: x._accumulate(grad * scale, owned=True)
    )


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return Tensor._make(
        out, (x,), lambda grad: x._accumulate(grad * (1.0 - out**2), owned=True)
    )


def sigmoid(x: Tensor) -> Tensor:
    out = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60.0, 60.0)))
    return Tensor._make(
        out, (x,), lambda grad: x._accumulate(grad * out * (1.0 - out), owned=True)
    )


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)
    return Tensor._make(out, (x,), lambda grad: x._accumulate(grad * out, owned=True))


def log(x: Tensor) -> Tensor:
    return Tensor._make(
        np.log(x.data), (x,), lambda grad: x._accumulate(grad / x.data, owned=True)
    )


def abs_(x: Tensor) -> Tensor:
    sign = np.sign(x.data)
    return Tensor._make(
        np.abs(x.data), (x,), lambda grad: x._accumulate(grad * sign, owned=True)
    )


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out).sum(axis=axis, keepdims=True)
        x._accumulate(out * (grad - inner), owned=True)

    return Tensor._make(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    soft = np.exp(out)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True), owned=True)

    return Tensor._make(out, (x,), backward)


def _class_labels(labels, n_classes: int) -> np.ndarray:
    """``labels`` as int64 class ids, rejecting any outside ``[0, n_classes)``.

    One vectorised pass: integrality for non-integer dtypes, then the
    min/max range (a negative id would silently index from the end, a
    fractional one would be truncated to a wrong class).
    """
    raw = np.asarray(labels)
    if raw.dtype.kind not in "iub":
        if raw.dtype.kind != "f" or not np.array_equal(raw, np.trunc(raw)):
            raise ShapeError(f"labels must be integral class ids, got {raw.dtype}")
    ids = raw.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= n_classes):
        raise ShapeError(
            f"labels must lie in [0, {n_classes}), got "
            f"[{ids.min()}, {ids.max()}]"
        )
    return ids


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise ``logits`` against integer ``labels``.

    Fused log-softmax + NLL for numerical stability; returns a scalar tensor.
    ``labels`` must be integral class ids in ``[0, n_classes)``
    (:class:`~repro.errors.ShapeError` otherwise).
    """
    if logits.ndim != 2 or np.shape(labels) != (logits.shape[0],):
        raise ShapeError(
            f"expected logits (n, c) and labels (n,), got "
            f"{logits.shape} and {np.shape(labels)}"
        )
    labels = _class_labels(labels, logits.shape[1])
    n = logits.shape[0]
    rows = np.arange(n)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    loss = -logp[rows, labels].mean()
    soft = np.exp(logp)

    def backward(grad: np.ndarray) -> None:
        # grad · (softmax − onehot) / n, written into one new array; ``soft``
        # stays intact so a second backward() on this graph sees it again.
        g = np.multiply(grad, soft)
        g[rows, labels] = grad * (soft[rows, labels] - 1.0)
        g /= n
        logits._accumulate(g, owned=True)

    return Tensor._make(np.asarray(loss), (logits,), backward)


def dropout(x: Tensor, p: float, training: bool = True, seed=None) -> Tensor:
    """Inverted dropout: zero entries w.p. ``p`` and rescale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = as_rng(seed)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return Tensor._make(
        x.data * mask, (x,),
        lambda grad: x._accumulate(np.multiply(grad, mask, out=grad), owned=True),
    )


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row layer normalisation (no learnable affine).

    Composed from primitive differentiable ops, so the backward pass needs
    no bespoke derivation.
    """
    mu = x.mean(axis=-1, keepdims=True)
    centred = x - mu
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred * ((var + eps) ** -0.5)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` with gradient slicing back to each input."""
    if not tensors:
        raise ShapeError("concat requires at least one tensor")
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(np.moveaxis(moved[lo:hi], 0, axis))

    return Tensor._make(out, tuple(tensors), backward)


def stack_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D/2-D tensors as the leading axis of a new array."""
    if not tensors:
        raise ShapeError("stack_rows requires at least one tensor")
    out = np.stack([t.data for t in tensors], axis=0)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(grad[i])

    return Tensor._make(out, tuple(tensors), backward)
