"""Deterministic random-number-generator plumbing.

Library code never touches NumPy's global RNG. Every stochastic routine
accepts a ``seed`` argument that may be ``None`` (fresh entropy), an integer
seed, or an existing :class:`numpy.random.Generator`, and normalises it
through :func:`as_rng`.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator"


def as_rng(seed=None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` for fresh OS entropy, an ``int`` for a reproducible stream,
        or an existing ``Generator`` which is returned unchanged (so a caller
        can thread one stream through multiple routines).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Each child is a private stream whose draws do not depend on the
    order its siblings are consumed in.
    """
    seeds = rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
