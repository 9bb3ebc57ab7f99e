"""Reverse-mode automatic differentiation over NumPy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records, for each produced value,
the parent tensors and a closure that propagates the output gradient to
them. Calling :meth:`Tensor.backward` performs a topological sort of the
recorded graph and accumulates gradients leaf-ward: leaves sum the
gradients of every call, while an intermediate node's gradient lives only
until its closure has consumed it.

Gradients change hands without copies. A closure receives its node's
gradient as an array it owns, and hands its parents arrays it computed —
or the one it received, updated in place — with
``_accumulate(..., owned=True)``, so a parent keeps them as its ``.grad``
uncopied. Only an array that reaches two parents (``__add__``,
:func:`~repro.tensor.functional.concat`,
:func:`~repro.tensor.functional.stack_rows`), a view of the incoming
gradient, or a caller-supplied seed is copied.

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
        out = Tensor(data)
        if _GRAD_ENABLED[-1]:
            live = tuple(p for p in parents if p.requires_grad)
            if live:
                out.requires_grad = True
                out._parents = live
                out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into :attr:`grad`, reduced over broadcast axes.

        ``owned=True`` says the caller allocated ``grad`` and keeps no other
        reference to it, so the first gradient is stored without a copy.
        A broadcast reduction is always a new array, so it is owned too.
        An intermediate node's gradient is therefore always its own array
        (:meth:`backward` resets it), and later gradients are added into it
        in place; a leaf's ``.grad`` may be shared with the caller, so it
        is rebound to a new sum instead.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
            owned = True
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        elif self._backward is not None:
            np.add(self.grad, grad, out=self.grad)
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors; for non-scalars it must be
        provided with a matching shape.

        Leaf gradients accumulate across calls. An intermediate node's
        gradient is transient: it is handed to the node's backward closure,
        which owns it from then on (and may reuse it in place), and is not
        kept on the node. A second call on the same graph therefore adds
        exactly the leaf gradients of the first again.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        owned = grad is None
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

        # Iterative post-order DFS: parents before children in ``order``.
        # Tensors hash by identity (no ``__eq__``), so they key ``seen``.
        order: list[Tensor] = []
        seen = {self}
        stack = [(self, iter(self._parents))]
        while stack:
            current, parents = stack[-1]
            for p in parents:
                if p not in seen:
                    seen.add(p)
                    stack.append((p, iter(p._parents)))
                    break
            else:
                order.append(current)
                stack.pop()

        for node in order:
            if node._backward is not None:
                node.grad = None
        self._accumulate(grad, owned=owned)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                grad, node.grad = node.grad, None
                node._backward(grad)

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
            self._accumulate(np.negative(grad, out=grad), owned=True)

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
                self._accumulate(grad * other.data, owned=True)
            if other.requires_grad:
                other._accumulate(grad * self.data, owned=True)

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data, owned=True)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2), owned=True)

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1), owned=True)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T, owned=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad, owned=True)

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
            self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward)

    def head_rows(self, n: int) -> "Tensor":
        """The first ``n`` rows ``self[:n]`` (a view); backward writes one
        slice — ``gather_rows(np.arange(n))`` without the scatter-add."""
        out_data = self.data[:n]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            full[:n] = grad
            self._accumulate(full, owned=True)

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
        dense._accumulate(mat.T.tocsr() @ grad, owned=True)

    return Tensor._make(out_data, (dense,), backward)
