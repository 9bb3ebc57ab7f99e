"""Neural-network modules: parameters, Linear/Dropout/MLP, composition.

A :class:`Module` owns :class:`Parameter` tensors (discovered recursively
through attributes, lists, and sub-modules), exposes ``train()``/``eval()``
mode switching, and supports state-dict save/load — enough machinery to
express every model in the zoo without a framework dependency. A
parameter's ``.data`` is its own array for its whole life: optimisers
update it in place and never rebind it, so any number of optimisers (and
:meth:`Module.load_state_dict`) can act on the same parameters.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.tensor import functional as F
from repro.tensor import init as initmod
from repro.tensor.autograd import Tensor
from repro.utils.rng import as_rng


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self.data.setflags(write=True)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances (or
    lists of them) as attributes; :meth:`parameters` and
    :meth:`named_parameters` discover them recursively.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------ #
    # Parameter discovery
    # ------------------------------------------------------------------ #

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # Modes and state
    # ------------------------------------------------------------------ #

    def _submodules(self) -> Iterator["Module"]:
        for value in vars(self).values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                yield from (v for v in value if isinstance(v, Module))

    def train(self) -> "Module":
        self.training = True
        for m in self._submodules():
            m.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for m in self._submodules():
            m.eval()
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ConfigError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if params[name].data.shape != value.shape:
                raise ConfigError(
                    f"shape mismatch for {name}: "
                    f"{params[name].data.shape} vs {value.shape}"
                )
            params[name].data[...] = value

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #

    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``x @ W + b`` with Glorot-uniform initialisation.

    One :func:`~repro.tensor.functional.linear` graph node per call.
    """

    def __init__(
        self, in_features: int, out_features: int, bias: bool = True, seed=None
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        self.weight = Parameter(initmod.glorot_uniform((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Dropout(Module):
    """Inverted dropout; a no-op in eval mode. Deterministic under a seed."""

    def __init__(self, p: float = 0.5, seed=None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"dropout p must be in [0, 1), got {p}")
        self.p = p
        self._rng = as_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, seed=self._rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations and dropout.

    The feature-transformation half of every decoupled GNN (§3.1.2): in
    SGC/APPNP-precompute/GAMLP-style models the propagation output is fed
    through exactly this network. Each layer is one
    :func:`~repro.tensor.functional.linear` node, with the ReLU fused into
    the hidden layers.
    """

    def __init__(
        self,
        in_features: int,
        hidden: int,
        out_features: int,
        n_layers: int = 2,
        dropout: float = 0.0,
        seed=None,
    ) -> None:
        super().__init__()
        if n_layers < 1:
            raise ConfigError(f"n_layers must be >= 1, got {n_layers}")
        rng = as_rng(seed)
        dims = (
            [in_features]
            + [hidden] * (n_layers - 1)
            + [out_features]
        )
        self.linears = [
            Linear(dims[i], dims[i + 1], seed=rng) for i in range(n_layers)
        ]
        self.dropout = Dropout(dropout, seed=rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.linears) - 1
        for i, layer in enumerate(self.linears):
            if self.dropout is not None:
                x = self.dropout(x)
            x = F.linear(x, layer.weight, layer.bias, relu=i < last)
        return x
