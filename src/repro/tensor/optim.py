"""First-order optimisers: SGD (with momentum), Adam, AdamW.

Each optimiser lays its parameters end to end in flat buffers: one flat
gradient buffer, one flat scratch buffer and one flat array per state
slot (SGD's velocity, Adam's ``m`` and ``v``), parameter ``i`` owning the
range ``_slices[i]``. ``step()`` copies the ``.grad`` fields populated by
backward into the gradient buffer, runs the update as a few in-place
ufuncs over the whole buffer — the same IEEE operations, per element and
in the same order, as the textbook per-parameter update — and subtracts
each parameter's range from its ``.data`` in place. ``.data`` stays each
parameter's own array, so a second optimiser over the same parameters
never leaves the first one holding stale views. ``zero_grad()`` clears
the ``.grad`` fields.

A parameter whose ``.grad`` is ``None`` is skipped: its state is not
touched (Adam's step counter still advances). State dicts are keyed by
parameter position, which survives a process restart.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.tensor.nn import Parameter
from repro.utils.validation import check_positive


class Optimizer:
    """Common bookkeeping for all optimisers: the flat buffer layout.

    A parameter listed twice shares one range (and so one state), and is
    updated once per listing, in order.
    """

    #: Names of the flat per-parameter state arrays a subclass keeps.
    _slots: tuple[str, ...] = ()

    def __init__(self, params: list[Parameter], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ConfigError("optimizer received no parameters")
        self.lr = check_positive("lr", lr)
        first: dict[int, slice] = {}
        size = 0
        for p in self.params:
            if id(p) not in first:
                first[id(p)] = slice(size, size + p.data.size)
                size += p.data.size
        self._slices = [first[id(p)] for p in self.params]
        self._shared = len(first) < len(self.params)
        self._whole = slice(0, size)
        self._grad = np.empty(size)
        self._scratch = np.empty(size)
        # Each parameter's range of the two buffers, in the parameter's shape.
        self._grad_views = [
            self._grad[sl].reshape(p.data.shape)
            for p, sl in zip(self.params, self._slices)
        ]
        self._scratch_views = [
            self._scratch[sl].reshape(p.data.shape)
            for p, sl in zip(self.params, self._slices)
        ]
        self._state = {name: np.zeros(size) for name in self._slots}
        # ids of the parameters with slot state (stepped or loaded); a
        # parameter listed twice has one id, so its listings share the flag.
        self._has_state: set[int] = set()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One update of every parameter that has a gradient.

        The whole buffer at once when every parameter has a gradient and
        none is listed twice; otherwise one parameter at a time, in order.
        """
        params, views = self.params, self._grad_views
        if not self._shared and all(p.grad is not None for p in params):
            for p, view in zip(params, views):
                view[...] = p.grad
            self._update(self._whole, range(len(params)))
            for p, view in zip(params, views):
                p.data -= view
            self._has_state.update(map(id, params))
            return
        for i, p in enumerate(params):
            if p.grad is None:
                continue
            views[i][...] = p.grad
            self._update(self._slices[i], (i,))
            p.data -= views[i]
            self._has_state.add(id(p))

    def _update(self, span: slice, members) -> None:
        """Turn ``_grad[span]`` (the gradients of ``members``) into the
        update to subtract, in place."""
        raise NotImplementedError

    def _decay_into_grad(self, span: slice, members, decay: float) -> None:
        """``grad + decay * p`` over ``span`` (L2 folded into the gradient)."""
        for i in members:
            self._scratch_views[i][...] = self.params[i].data
        s = self._scratch[span]
        s *= decay
        self._grad[span] += s

    # ------------------------------------------------------------------ #
    # Checkpointing: state dicts translate to/from positional keys over
    # ``self.params`` order, which survive a process restart.
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

    def _slot_dict(self, name: str) -> dict:
        flat = self._state[name]
        return {
            str(i): flat[self._slices[i]].reshape(p.data.shape).copy()
            for i, p in enumerate(self.params)
            if id(p) in self._has_state
        }

    def _reset_state(self) -> None:
        for flat in self._state.values():
            flat.fill(0.0)
        self._has_state.clear()

    def _load_slot_dict(self, name: str, state: dict) -> None:
        flat = self._state[name]
        for key, value in state.items():
            index = int(key)
            if not 0 <= index < len(self.params):
                raise ConfigError(
                    f"optimizer state names parameter {index} but only "
                    f"{len(self.params)} parameters are registered"
                )
            value = np.asarray(value)
            span = self._slices[index]
            if value.size != span.stop - span.start:
                raise ConfigError(
                    f"optimizer state for parameter {index} has "
                    f"{value.size} values, the parameter {span.stop - span.start}"
                )
            flat[span] = value.reshape(-1)
            self._has_state.add(id(self.params[index]))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    _slots = ("velocity",)

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

    def _update(self, span: slice, members) -> None:
        g = self._grad[span]
        if self.weight_decay:
            self._decay_into_grad(span, members, self.weight_decay)
        if self.momentum:
            # The first step of a parameter starts its velocity at g.
            flat = self._state["velocity"]
            if all(id(self.params[i]) in self._has_state for i in members):
                vel = flat[span]
                vel *= self.momentum
                vel += g
            else:
                for i in members:
                    vel, gi = flat[self._slices[i]], self._grad[self._slices[i]]
                    if id(self.params[i]) in self._has_state:
                        vel *= self.momentum
                        vel += gi
                    else:
                        vel[...] = gi
            np.multiply(flat[span], self.lr, out=g)
        else:
            g *= self.lr

    def state_dict(self) -> dict:
        return {"velocity": self._slot_dict("velocity") if self.momentum else {}}

    def load_state_dict(self, state: dict) -> None:
        self._reset_state()
        self._load_slot_dict("velocity", state.get("velocity", {}))


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with L2 regularisation folded into the grad."""

    _slots = ("m", "v")
    #: Whether ``weight_decay`` is added to the gradient (Adam) or applied
    #: to the weights directly (AdamW).
    _l2_in_grad = True

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
        self._t = 0

    def step(self) -> None:
        self._t += 1
        super().step()

    def _update(self, span: slice, members) -> None:
        # Per element, in this order: g = grad + wd·p; m = b1·m + (1−b1)·g;
        # v = b2·v + (1−b2)·g²; m̂ = m / (1−b1^t); v̂ = v / (1−b2^t);
        # update = (lr·m̂) / (√v̂ + eps).
        b1, b2 = self.betas
        g, s = self._grad[span], self._scratch[span]
        m, v = self._state["m"][span], self._state["v"][span]
        if self.weight_decay and self._l2_in_grad:
            self._decay_into_grad(span, members, self.weight_decay)
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, g, out=s)
        s *= 1 - b2
        v += s
        np.divide(m, 1 - b1**self._t, out=g)
        np.divide(v, 1 - b2**self._t, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        g *= self.lr
        g /= s

    def state_dict(self) -> dict:
        return {"t": self._t, "m": self._slot_dict("m"), "v": self._slot_dict("v")}

    def load_state_dict(self, state: dict) -> None:
        self._reset_state()
        self._t = int(state.get("t", 0))
        self._load_slot_dict("m", state.get("m", {}))
        self._load_slot_dict("v", state.get("v", {}))


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    _l2_in_grad = False

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
