"""The public tensor ops against the frozen oracle, bit for bit.

Every case trains one model for ``STEPS`` optimiser steps twice: through
the live ``repro.tensor`` (flat optimiser buffers, the fused
``F.linear``, owned gradients) and through ``tests/reference_tensor.py``
(the ops as they were before). Per-step losses, final parameters and the
optimiser's ``state_dict()`` must match byte for byte — same dtype, same
shape, same bits, including the sign of zeros.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_tensor as R
from repro.datasets import contextual_sbm
from repro.editing.sampling import NeighborSampler
from repro.models import GCN, SGC, GraphSAGE, SIGNModel
from repro.resilience.checkpoint import Checkpointer
from repro.tensor import MLP, Linear, Module, Parameter, Tensor
from repro.tensor import functional as F
from repro.tensor.optim import SGD, Adam, AdamW, clip_grad_norm

STEPS = 50
BATCH = 24
N_FEATURES, N_CLASSES = 8, 3


def _bits(value):
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def assert_bitwise(live, ref, where=""):
    if isinstance(live, dict):
        assert isinstance(ref, dict) and sorted(live) == sorted(ref), where
        for key in live:
            assert_bitwise(live[key], ref[key], f"{where}/{key}")
    else:
        assert _bits(live) == _bits(ref), where


@pytest.fixture(scope="module")
def data():
    graph, split = contextual_sbm(
        120, n_classes=N_CLASSES, n_features=N_FEATURES, seed=3
    )
    rng = np.random.default_rng(11)
    batches = [rng.choice(split.train, BATCH, replace=False) for _ in range(STEPS)]
    return graph, split, batches


class _Residual(Module):
    """A skip connection: ``l3(h + l2(h))`` with ``h = relu(l1(x))``."""

    def __init__(self) -> None:
        super().__init__()
        self.l1 = Linear(N_FEATURES, 16, seed=5)
        self.l2 = Linear(16, 16, seed=6)
        self.l3 = Linear(16, N_CLASSES, seed=7)

    def forward(self, x: Tensor) -> Tensor:
        h = F.relu(self.l1(x))
        return self.l3(h + self.l2(h))


class _WithIdle(Module):
    """An MLP plus one parameter that never receives a gradient."""

    def __init__(self) -> None:
        super().__init__()
        self.idle = Parameter(np.linspace(-1.0, 1.0, 5))
        self.head = MLP(N_FEATURES, 16, N_CLASSES, seed=4)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(x)


def _row_case(model, features, ref_params, ref_forward):
    """A model over feature rows, mini-batched by ``data``'s batches."""

    def live(step, batches):
        return model(Tensor(features[batches[step]]))

    def ref(step, batches):
        return ref_forward(R.Tensor(features[batches[step]]))

    return model.parameters(), live, ref_params, ref


def _sgc(graph, split, batches):
    model = SGC(N_FEATURES, N_CLASSES, k_hops=2, hidden=16, seed=0)
    mlp = R.MLP(model.head)
    return _row_case(model, model.precompute(graph), mlp.parameters(), mlp)


def _sign(graph, split, batches):
    model = SIGNModel(N_FEATURES, N_CLASSES, k_hops=2, hidden=16, dropout=0.2, seed=1)
    mlp = R.MLP(model.head)
    return _row_case(model, model.precompute(graph), mlp.parameters(), mlp)


def _idle(graph, split, batches):
    model = _WithIdle()
    idle, mlp = R.Parameter(model.idle.data.copy()), R.MLP(model.head)
    return _row_case(model, graph.x, [idle] + mlp.parameters(), mlp)


def _residual(graph, split, batches):
    model = _Residual()
    l1, l2, l3 = R.Linear.of(model.l1), R.Linear.of(model.l2), R.Linear.of(model.l3)

    def forward(x):
        h = R.relu(l1(x))
        return l3(h + l2(h))

    params = l1.parameters() + l2.parameters() + l3.parameters()
    return _row_case(model, graph.x, params, forward)


def _sage(graph, split, batches):
    model = GraphSAGE(N_FEATURES, 16, N_CLASSES, n_layers=2, dropout=0.5, seed=2)
    sampler = NeighborSampler(graph, fanouts=[3, 3], seed=0)
    blocks = [sampler.sample(seeds) for seeds in batches]
    convs = [(R.Linear.of(c.self_linear), R.Linear.of(c.neigh_linear))
             for c in model.convs]
    drop = R.Dropout(model.dropout)

    def live(step, _):
        return model.forward_blocks(blocks[step], graph.x[blocks[step][0].src_ids])

    def ref(step, _):
        x = R.Tensor(graph.x[blocks[step][0].src_ids])
        for i, ((self_lin, neigh_lin), block) in enumerate(zip(convs, blocks[step])):
            x = drop(x)
            x = self_lin(x.head_rows(block.n_dst)) + neigh_lin(R.spmm(block.matrix, x))
            if i < len(convs) - 1:
                x = R.relu(x)
        return x

    params = [p for s, n in convs for p in s.parameters() + n.parameters()]
    return model.parameters(), live, params, ref


def _gcn(graph, split, batches):
    model = GCN(N_FEATURES, 16, N_CLASSES, n_layers=2, dropout=0.5, seed=3)
    adj = GCN.prepare(graph)
    lins = [R.Linear.of(conv.linear) for conv in model.convs]
    drop = R.Dropout(model.dropout)

    def live(step, _):
        return model(adj, graph.x).gather_rows(split.train)

    def ref(step, _):
        x = R.Tensor(graph.x)
        for i, lin in enumerate(lins):
            x = lin(R.spmm(adj, drop(x)))
            if i < len(lins) - 1:
                x = R.relu(x)
        return x.gather_rows(split.train)

    params = [p for lin in lins for p in lin.parameters()]
    return model.parameters(), live, params, ref


MODELS = {
    "sgc": _sgc, "sign": _sign, "sage_blocks": _sage, "gcn_full_batch": _gcn,
    "idle_param": _idle, "residual": _residual,
}
FULL_BATCH = {"gcn_full_batch"}

OPTIMIZERS = {
    "adam": dict(cls=(Adam, R.Adam), kw=dict(lr=0.01, weight_decay=5e-4)),
    "adamw": dict(cls=(AdamW, R.AdamW), kw=dict(lr=0.01, weight_decay=1e-2)),
    "sgd": dict(cls=(SGD, R.SGD), kw=dict(lr=0.05)),
    "sgd_momentum": dict(cls=(SGD, R.SGD), kw=dict(lr=0.05, momentum=0.9)),
    "sgd_momentum_decay": dict(
        cls=(SGD, R.SGD), kw=dict(lr=0.05, momentum=0.9, weight_decay=5e-4)
    ),
}


def _labels(model_name, graph, split, batches, step):
    if model_name in FULL_BATCH:
        return graph.y[split.train]
    return graph.y[batches[step]]


def _train(side, params, forward, opt, labels, steps, clip=None):
    """``steps`` optimiser steps; returns the per-step losses."""
    ops = (F.cross_entropy, clip_grad_norm) if side == "live" else (
        R.cross_entropy, R.clip_grad_norm)
    losses = []
    for step in steps:
        opt.zero_grad()
        loss = ops[0](forward(step), labels(step))
        loss.backward()
        if clip is not None:
            ops[1](params, clip)
        opt.step()
        losses.append(loss.item())
    return np.asarray(losses)


def _run_pair(model_name, opt_name, data, clip=None):
    graph, split, batches = data
    live_params, live_fwd, ref_params, ref_fwd = MODELS[model_name](
        graph, split, batches
    )
    spec = OPTIMIZERS[opt_name]
    live_opt = spec["cls"][0](live_params, **spec["kw"])
    ref_opt = spec["cls"][1](ref_params, **spec["kw"])

    def labels(step):
        return _labels(model_name, graph, split, batches, step)

    steps = range(STEPS)
    live = _train("live", live_params, lambda s: live_fwd(s, batches), live_opt,
                  labels, steps, clip)
    ref = _train("ref", ref_params, lambda s: ref_fwd(s, batches), ref_opt,
                 labels, steps, clip)
    return live, ref, (live_params, live_opt), (ref_params, ref_opt)


@pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_matches_oracle(model_name, opt_name, data):
    live, ref, (live_params, live_opt), (ref_params, ref_opt) = _run_pair(
        model_name, opt_name, data
    )
    assert np.isfinite(live).all() and live[-1] < live[0]
    assert_bitwise(live, ref, "losses")
    for i, (lp, rp) in enumerate(zip(live_params, ref_params)):
        assert_bitwise(lp.data, rp.data, f"param {i}")
    assert_bitwise(live_opt.state_dict(), ref_opt.state_dict(), "state_dict")


@pytest.mark.parametrize("model_name", ["sgc", "idle_param"])
def test_clip_grad_norm_matches_oracle(model_name, data):
    live, ref, (live_params, live_opt), (ref_params, ref_opt) = _run_pair(
        model_name, "adam", data, clip=0.05
    )
    assert_bitwise(live, ref, "losses")
    for lp, rp in zip(live_params, ref_params):
        assert_bitwise(lp.data, rp.data)
    assert_bitwise(live_opt.state_dict(), ref_opt.state_dict(), "state_dict")


@pytest.mark.parametrize("model_name", ["sgc", "residual", "idle_param"])
def test_second_backward_adds_the_same_leaf_gradients(model_name, data):
    """Two ``backward()`` calls on one graph leave every parameter holding
    exactly what two fresh graphs give in the oracle (the oracle's own
    second call on one graph re-sent its intermediate gradients, so it is
    not the reference here)."""
    graph, split, batches = data
    live_params, live_fwd, ref_params, ref_fwd = MODELS[model_name](
        graph, split, batches
    )
    y = _labels(model_name, graph, split, batches, 0)
    loss = F.cross_entropy(live_fwd(0, batches), y)
    loss.backward()
    loss.backward()
    for _ in range(2):
        R.cross_entropy(ref_fwd(0, batches), y).backward()
    for lp, rp in zip(live_params, ref_params):
        if rp.grad is None:
            assert lp.grad is None
        else:
            assert_bitwise(lp.grad, rp.grad)


def test_second_backward_on_a_deep_chain_counts_once():
    x = Tensor([1.0], requires_grad=True)
    out = ((x * 2.0) * 3.0).sum()
    out.backward()
    out.backward()
    assert x.grad[0] == 12.0


def test_checkpoint_round_trip_matches_uninterrupted_oracle(data, tmp_path):
    graph, split, batches = data
    half = STEPS // 2
    _, _, ref_params, ref_fwd = _sgc(graph, split, batches)
    spec = OPTIMIZERS["adam"]

    def labels(step):
        return graph.y[batches[step]]

    ref_opt = R.Adam(ref_params, **spec["kw"])
    ref = _train("ref", ref_params, lambda s: ref_fwd(s, batches), ref_opt,
                 labels, range(STEPS))

    model = SGC(N_FEATURES, N_CLASSES, k_hops=2, hidden=16, seed=0)
    features = model.precompute(graph)
    opt = Adam(model.parameters(), **spec["kw"])

    def forward(step):
        return model(features[batches[step]])

    first = _train("live", None, forward, opt, labels, range(half))
    ckpt = Checkpointer(tmp_path)
    ckpt.save(half - 1, {"model": model.state_dict(), "optimizer": opt.state_dict()})

    model = SGC(N_FEATURES, N_CLASSES, k_hops=2, hidden=16, seed=99)
    opt = Adam(model.parameters(), **spec["kw"])
    _, state = ckpt.load()
    model.load_state_dict(state["model"])
    opt.load_state_dict(state["optimizer"])
    second = _train("live", None, forward, opt, labels, range(half, STEPS))

    assert_bitwise(np.concatenate([first, second]), ref, "losses")
    for lp, rp in zip(model.parameters(), ref_params):
        assert_bitwise(lp.data, rp.data)
    assert_bitwise(opt.state_dict(), ref_opt.state_dict(), "state_dict")


def test_a_second_optimizer_over_the_same_parameters_sees_their_updates():
    """``.data`` stays each parameter's own array: optimisers built one
    after another over the same parameters interleave their steps exactly
    as the oracle's per-parameter optimisers do."""
    mlp = MLP(4, 8, 2, seed=0)
    ref = R.MLP(mlp)
    x, y = np.random.default_rng(0).normal(size=(6, 4)), np.array([0, 1] * 3)
    arrays = [p.data for p in mlp.parameters()]
    live_opts = [Adam(mlp.parameters(), lr=0.1),
                 SGD(mlp.parameters(), lr=0.1, momentum=0.5)]
    ref_opts = [R.Adam(ref.parameters(), lr=0.1),
                R.SGD(ref.parameters(), lr=0.1, momentum=0.5)]
    for which in (0, 1, 0, 1, 1, 0):
        for side, model, opts, ce in (("live", mlp, live_opts, F.cross_entropy),
                                      ("ref", ref, ref_opts, R.cross_entropy)):
            opts[which].zero_grad()
            ce(model(Tensor(x) if side == "live" else R.Tensor(x)), y).backward()
            opts[which].step()
    assert all(p.data is a for p, a in zip(mlp.parameters(), arrays))
    for lp, rp in zip(mlp.parameters(), ref.parameters()):
        assert_bitwise(lp.data, rp.data)
    for lo, ro in zip(live_opts, ref_opts):
        assert_bitwise(lo.state_dict(), ro.state_dict())


@pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
def test_a_parameter_listed_twice_matches_oracle(opt_name):
    """A parameter given twice shares one state range and is stepped once
    per listing, in order, as the oracle's identity-keyed state did."""
    rng = np.random.default_rng(4)
    a0, b0, x0 = rng.normal(size=(3, 2)), rng.normal(size=2), rng.normal(size=(5, 3))
    spec = OPTIMIZERS[opt_name]
    results = []
    for T, P, cls in ((Tensor, Parameter, spec["cls"][0]),
                      (R.Tensor, R.Parameter, spec["cls"][1])):
        a, b = P(a0.copy()), P(b0.copy())
        opt = cls([a, b, a], **spec["kw"])
        x = T(x0)
        for _ in range(10):
            opt.zero_grad()
            out = x @ a + b
            (out * out).sum().backward()
            opt.step()
        results.append((a.data, b.data, opt.state_dict()))
    assert_bitwise(results[0][0], results[1][0])
    assert_bitwise(results[0][1], results[1][1])
    assert_bitwise(results[0][2], results[1][2])



@pytest.mark.parametrize("opt_name", sorted(OPTIMIZERS))
def test_a_partly_loaded_state_matches_oracle(opt_name):
    """A state dict naming only some parameters leaves the others' state
    fresh, on the whole-buffer step as in the oracle: SGD's first momentum
    step for them starts the velocity at ``g`` (which differs from
    ``0·momentum + g`` only for a ``-0.0`` gradient, so parameter 0 gets
    one), Adam's ``m``/``v`` start at zero."""
    rng = np.random.default_rng(5)
    z0, a0, b0 = rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=2)
    x0, y = rng.normal(size=(6, 4)), np.array([0, 1] * 3)
    spec = OPTIMIZERS[opt_name]
    results = []
    for T, P, cls, ce in ((Tensor, Parameter, spec["cls"][0], F.cross_entropy),
                          (R.Tensor, R.Parameter, spec["cls"][1], R.cross_entropy)):
        params = [P(z0.copy()), P(a0.copy()), P(b0.copy())]
        z, a, b = params
        x, negzero = T(x0), T(np.full(2, -0.0))

        def run(opt, steps):
            for _ in range(steps):
                opt.zero_grad()
                (ce(x @ a + b, y) + (z * negzero).sum()).backward()
                opt.step()

        opt = cls(params, **spec["kw"])
        run(opt, 3)
        partial = {key: ({k: v for k, v in value.items() if k != "0"}
                         if isinstance(value, dict) else value)
                   for key, value in opt.state_dict().items()}
        opt = cls(params, **spec["kw"])
        opt.load_state_dict(partial)
        run(opt, 5)
        results.append(([p.data for p in params], opt.state_dict()))
    for lp, rp in zip(results[0][0], results[1][0]):
        assert_bitwise(lp, rp)
    assert_bitwise(results[0][1], results[1][1], "state_dict")
