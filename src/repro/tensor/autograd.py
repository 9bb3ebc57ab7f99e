"""Reverse-mode automatic differentiation over NumPy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records, for each produced value,
the parent tensors and a closure that propagates the output gradient to
them. Calling :meth:`Tensor.backward` performs a topological sort of the
recorded graph and accumulates gradients leaf-ward.

Only the operations the library needs are implemented, but each is complete:
broadcasting is handled in both directions, and sparse matrices (SciPy CSR)
participate as constants in :func:`spmm` — the way graph propagation enters
a GNN's compute graph.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError

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
