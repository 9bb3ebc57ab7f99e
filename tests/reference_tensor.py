"""Frozen oracle: the tensor ops, layers and optimisers as they were before
the flat-buffer optimisers, the fused linear op and owned gradients.

Verbatim copies of ``Tensor`` (every op, ``no_grad`` and ``spmm``),
``relu``, ``cross_entropy``, ``dropout``, ``Parameter``, the ``forward`` of
``Linear``, ``Dropout`` and ``MLP``, and ``SGD``/``Adam``/``AdamW``/
``clip_grad_norm``, importable as ``reference_tensor`` with ``tests/`` on
``sys.path``. The layers here are built from a live module's parameter
values (``Linear.of(live)``, ``MLP(live)``) so a test can run the same
model through both implementations and compare losses, parameters and
optimiser state bit for bit. Nothing here imports the live
``repro.tensor`` package.
"""

from __future__ import annotations

import contextlib
import copy
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigError, ShapeError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive

_GRAD_ENABLED = [True]


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` for this
        tensor during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled()
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (a copy, detached from the graph)."""
        return self.data.copy()

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors; for non-scalars it must be
        provided with a matching shape.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"grad shape {grad.shape} != tensor shape {self.data.shape}"
                )

        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            stack = [(node, iter(node._parents))]
            seen.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for p in parents:
                    if id(p) not in seen:
                        seen.add(id(p))
                        stack.append((p, iter(p._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #

    @staticmethod
    def _coerce(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return Tensor._make(out_data, (self, other), backward)

    @property
    def T(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        orig = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(orig))

        return Tensor._make(self.data.reshape(*shape), (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # Indexing
    # ------------------------------------------------------------------ #

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Select rows ``self[index]``; backward scatter-adds into place."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def head_rows(self, n: int) -> "Tensor":
        """The first ``n`` rows ``self[:n]`` (a view); backward writes one
        slice — ``gather_rows(np.arange(n))`` without the scatter-add."""
        out_data = self.data[:n]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[:n] = grad
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Sparse-constant × dense-tensor product ``matrix @ dense``.

    The sparse ``matrix`` (e.g. a normalised adjacency) is a constant of the
    computation; gradients flow only into ``dense`` as ``matrix.T @ grad``.
    The transpose is built when a gradient arrives, so inference under
    :func:`no_grad` and operands that require none never pay for it.
    This is the core primitive of message-passing GNN layers.
    """
    if not sp.issparse(matrix):
        raise TypeError("spmm expects a SciPy sparse matrix")
    mat = matrix.tocsr()
    out_data = mat @ dense.data

    def backward(grad: np.ndarray) -> None:
        dense._accumulate(mat.T.tocsr() @ grad)

    return Tensor._make(out_data, (dense,), backward)


# --------------------------------------------------------------------- #
# functional (relu, cross_entropy, dropout)
# --------------------------------------------------------------------- #


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return Tensor._make(
        x.data * mask, (x,), lambda grad: x._accumulate(grad * mask)
    )


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise ``logits`` against integer ``labels``.

    Fused log-softmax + NLL for numerical stability; returns a scalar tensor.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"expected logits (n, c) and labels (n,), got "
            f"{logits.shape} and {labels.shape}"
        )
    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logsumexp
    loss = -logp[np.arange(n), labels].mean()
    soft = np.exp(logp)

    def backward(grad: np.ndarray) -> None:
        g = soft.copy()
        g[np.arange(n), labels] -= 1.0
        logits._accumulate(grad * g / n)

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
        x.data * mask, (x,), lambda grad: x._accumulate(grad * mask)
    )


# --------------------------------------------------------------------- #
# nn (Parameter; Linear / Dropout / MLP forward)
# --------------------------------------------------------------------- #


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self.data.setflags(write=True)


class Linear:
    """A live ``Linear``'s parameters with the old ``forward``."""

    def __init__(self, weight: np.ndarray, bias: np.ndarray | None) -> None:
        self.weight = Parameter(weight.copy())
        self.bias = None if bias is None else Parameter(bias.copy())

    @classmethod
    def of(cls, live) -> "Linear":
        return cls(live.weight.data, None if live.bias is None else live.bias.data)

    def parameters(self) -> list[Parameter]:
        return [self.weight] + ([] if self.bias is None else [self.bias])

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout:
    """A live ``Dropout`` with a copy of its generator (same draws)."""

    def __init__(self, live) -> None:
        self.p = live.p
        self._rng = copy.deepcopy(live._rng)
        self.training = True

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:
        return dropout(x, self.p, training=self.training, seed=self._rng)


class MLP:
    """A live ``MLP``'s parameters and dropout stream with the old ``forward``."""

    def __init__(self, live) -> None:
        self.linears = [Linear.of(layer) for layer in live.linears]
        self.dropout = None if live.dropout is None else Dropout(live.dropout)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.linears for p in layer.parameters()]

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.linears):
            if self.dropout is not None:
                x = self.dropout(x)
            x = layer(x)
            if i < len(self.linears) - 1:
                x = relu(x)
        return x


# --------------------------------------------------------------------- #
# optim
# --------------------------------------------------------------------- #


class Optimizer:
    """Common bookkeeping for all optimisers."""

    def __init__(self, params: list[Parameter], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ConfigError("optimizer received no parameters")
        self.lr = check_positive("lr", lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Checkpointing: per-parameter state is keyed by object identity at
    # runtime, which does not survive a process restart — state dicts
    # translate to/from positional keys over ``self.params`` order.
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Serializable optimizer state, keyed by parameter position."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto the current params."""
        if state:
            raise ConfigError(
                f"{type(self).__name__} carries no state but got keys "
                f"{sorted(state)}"
            )

    def _slot_dict(self, slots: dict[int, np.ndarray]) -> dict:
        return {
            str(i): slots[id(p)].copy()
            for i, p in enumerate(self.params)
            if id(p) in slots
        }

    def _load_slot_dict(self, state: dict) -> dict[int, np.ndarray]:
        slots: dict[int, np.ndarray] = {}
        for key, value in state.items():
            index = int(key)
            if not 0 <= index < len(self.params):
                raise ConfigError(
                    f"optimizer state names parameter {index} but only "
                    f"{len(self.params)} parameters are registered"
                )
            slots[id(self.params[index])] = np.asarray(value).copy()
        return slots


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = check_positive("weight_decay", weight_decay, strict=False)
        self._velocity: dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                vel = self._velocity.get(id(p))
                vel = grad if vel is None else self.momentum * vel + grad
                self._velocity[id(p)] = vel
                grad = vel
            p.data -= self.lr * grad

    def state_dict(self) -> dict:
        return {"velocity": self._slot_dict(self._velocity)}

    def load_state_dict(self, state: dict) -> None:
        self._velocity = self._load_slot_dict(state.get("velocity", {}))


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with L2 regularisation folded into the grad."""

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"betas must be in [0, 1), got {betas}")
        self.betas = (b1, b2)
        self.eps = check_positive("eps", eps)
        self.weight_decay = check_positive("weight_decay", weight_decay, strict=False)
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}
        self._t = 0

    def _decayed_grad(self, p: Parameter) -> np.ndarray:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        return grad

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        for p in self.params:
            if p.grad is None:
                continue
            grad = self._decayed_grad(p)
            m = self._m.get(id(p), np.zeros_like(p.data))
            v = self._v.get(id(p), np.zeros_like(p.data))
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad**2
            self._m[id(p)], self._v[id(p)] = m, v
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        return {
            "t": self._t,
            "m": self._slot_dict(self._m),
            "v": self._slot_dict(self._v),
        }

    def load_state_dict(self, state: dict) -> None:
        self._t = int(state.get("t", 0))
        self._m = self._load_slot_dict(state.get("m", {}))
        self._v = self._load_slot_dict(state.get("v", {}))


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _decayed_grad(self, p: Parameter) -> np.ndarray:
        return p.grad

    def step(self) -> None:
        if self.weight_decay:
            for p in self.params:
                if p.grad is not None:
                    p.data -= self.lr * self.weight_decay * p.data
        super().step()


def clip_grad_norm(params: list[Parameter], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm.
    """
    check_positive("max_norm", max_norm)
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float(np.sum(g**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm
