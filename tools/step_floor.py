"""How far one decoupled training step is from its arithmetic floor.

    PYTHONPATH=src python tools/step_floor.py            # 9 rounds x 235 steps
    PYTHONPATH=src python tools/step_floor.py --smoke    # 20 steps, equality only

At the macro benchmark's ``decoupled`` shape — batch 256, an SGC head
64 -> 128 -> 8, ``Adam(lr=0.01, weight_decay=5e-4)`` — it runs the same
batches through three loops and prints microseconds per step:

- ``public``: the library step every trainer runs (``opt.zero_grad()``,
  ``model(rows)``, ``F.cross_entropy``, ``backward()``, ``opt.step()``,
  ``loss.item()``);
- ``floor``: a hand-written NumPy step with the same IEEE operations on
  the same operands in the same order, and no graph, closures or
  per-parameter bookkeeping. Its per-step losses and final parameters
  must equal the public step's bit for bit;
- ``gemm``: only the step's five matrix products.

Then the ratios ``public / floor`` and ``public / gemm`` ("step over
GEMM"). Walls vary with the host, so nothing gates on them: the exit
status is 1 only when the floor's losses or parameters differ from the
public step's.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import numpy as np

from repro.models import SGC
from repro.tensor import Adam
from repro.tensor import functional as F

IN, HIDDEN, CLASSES, BATCH = 64, 128, 8, 256
LR, WEIGHT_DECAY, BETAS, EPS = 0.01, 5e-4, (0.9, 0.999), 1e-8
#: Steps per timed round (one ``decoupled`` epoch) and timed rounds per
#: loop (the median round is reported); ``--smoke`` runs 20 steps once.
STEPS, ROUNDS, SMOKE_STEPS = 235, 9, 20


def make_batches(n_steps: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        (rng.normal(size=(BATCH, IN)), rng.integers(0, CLASSES, BATCH))
        for _ in range(n_steps)
    ]


def public_loop(batches):
    """The library step; returns per-step losses and the final parameters."""
    model = SGC(IN, CLASSES, k_hops=0, hidden=HIDDEN, seed=0)
    opt = Adam(model.parameters(), lr=LR, weight_decay=WEIGHT_DECAY)
    losses = np.empty(len(batches))
    start = time.perf_counter()
    for i, (x, y) in enumerate(batches):
        opt.zero_grad()
        loss = F.cross_entropy(model(x), y)
        loss.backward()
        opt.step()
        losses[i] = loss.item()
    wall = time.perf_counter() - start
    return wall, losses, [p.data for p in model.parameters()]


def floor_loop(batches):
    """The same arithmetic written out by hand over flat Adam buffers."""
    init = SGC(IN, CLASSES, k_hops=0, hidden=HIDDEN, seed=0)
    w1, b1, w2, b2 = (p.data.copy() for p in init.parameters())
    params = (w1, b1, w2, b2)
    bounds = np.cumsum([0] + [p.size for p in params])
    views = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    size = int(bounds[-1])
    g, s, m, v = np.empty(size), np.empty(size), np.zeros(size), np.zeros(size)
    b1_, b2_ = BETAS
    losses = np.empty(len(batches))
    start = time.perf_counter()
    for step, (x, y) in enumerate(batches, start=1):
        n = x.shape[0]
        rows = np.arange(n)
        h = x @ w1
        h += b1
        mask = h > 0
        h *= mask
        logits = h @ w2
        logits += b2
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        losses[step - 1] = -logp[rows, y].mean()
        dlogits = np.exp(logp)
        dlogits[rows, y] -= 1.0
        dlogits /= n
        dz = dlogits @ w2.T
        dz *= mask
        g[views[3]] = dlogits.sum(axis=0)
        g[views[2]] = (h.T @ dlogits).reshape(-1)
        g[views[1]] = dz.sum(axis=0)
        g[views[0]] = (x.T @ dz).reshape(-1)
        for p, view in zip(params, views):
            s[view] = p.reshape(-1)
        s *= WEIGHT_DECAY
        g += s
        m *= b1_
        np.multiply(g, 1 - b1_, out=s)
        m += s
        v *= b2_
        np.multiply(g, g, out=s)
        s *= 1 - b2_
        v += s
        np.divide(m, 1 - b1_**step, out=g)
        np.divide(v, 1 - b2_**step, out=s)
        np.sqrt(s, out=s)
        s += EPS
        g *= LR
        g /= s
        for p, view in zip(params, views):
            p -= g[view].reshape(p.shape)
    wall = time.perf_counter() - start
    return wall, losses, list(params)


def gemm_loop(batches):
    """Only the five matrix products of each step."""
    rng = np.random.default_rng(1)
    w1, w2 = rng.normal(size=(IN, HIDDEN)), rng.normal(size=(HIDDEN, CLASSES))
    h, dlogits = rng.normal(size=(BATCH, HIDDEN)), rng.normal(size=(BATCH, CLASSES))
    start = time.perf_counter()
    for x, _ in batches:
        x @ w1
        h @ w2
        dz = dlogits @ w2.T
        h.T @ dlogits
        x.T @ dz
    return time.perf_counter() - start


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_STEPS} steps: check equality, time nothing")
    args = parser.parse_args(argv)
    steps = SMOKE_STEPS if args.smoke else STEPS
    batches = make_batches(steps)

    _, pub_losses, pub_params = public_loop(batches)
    _, floor_losses, floor_params = floor_loop(batches)
    same = bitwise_equal(pub_losses, floor_losses) and all(
        bitwise_equal(a, b) for a, b in zip(pub_params, floor_params)
    )
    print(f"floor equals public step bit for bit over {steps} steps: {same}")
    if not same:
        return 1
    if args.smoke:
        return 0

    walls = {"public": [], "floor": [], "gemm": []}
    for _ in range(ROUNDS):  # interleaved, so host drift hits every loop alike
        walls["public"].append(public_loop(batches)[0])
        walls["floor"].append(floor_loop(batches)[0])
        walls["gemm"].append(gemm_loop(batches))
    per_step = {k: statistics.median(w) / steps * 1e6 for k, w in walls.items()}
    for name, us in per_step.items():
        spread = [w / steps * 1e6 for w in walls[name]]
        print(f"{name:>7}: {us:8.1f} us/step  "
              f"(rounds {min(spread):.1f}-{max(spread):.1f})")
    print(f"public / floor: {per_step['public'] / per_step['floor']:.2f}x")
    print(f"public / gemm:  {per_step['public'] / per_step['gemm']:.2f}x")
    print(f"floor / gemm:   {per_step['floor'] / per_step['gemm']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
