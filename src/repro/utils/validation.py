"""Argument validation helpers shared across the library.

Helpers raise :class:`repro.errors.ConfigError` (node ids: ``GraphError``)
naming the offending parameter, so user mistakes surface at the API boundary
rather than as obscure NumPy failures deep inside an algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, GraphError


def check_positive(name: str, value: float, strict: bool = True) -> float:
    """Validate that ``value`` is positive (or non-negative when not strict)."""
    if strict and not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the half-open interval (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1], got {value!r}")
    return value


def check_int_range(name: str, value: int, low: int, high: int | None = None) -> int:
    """Validate that integer ``value`` is in ``[low, high]`` (high optional)."""
    if not isinstance(value, (int,)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an int, got {type(value).__name__}")
    if value < low or (high is not None and value > high):
        bound = f"[{low}, {high}]" if high is not None else f">= {low}"
        raise ConfigError(f"{name} must be {bound}, got {value}")
    return value


def check_node_ids(ids, n_nodes: int) -> np.ndarray:
    """``ids`` as a 1-D int64 array inside ``[0, n_nodes)``.

    Fancy indexing would wrap a negative id through ``indptr[-1]`` and an
    int64 cast would truncate a float, so both are rejected at the edge.
    """
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise GraphError(f"node ids must be one-dimensional, got shape {ids.shape}")
    if ids.size == 0:
        return np.empty(0, dtype=np.int64)
    if ids.dtype.kind not in "iu":
        raise GraphError(f"node ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= n_nodes:
        raise GraphError(f"node ids outside [0, {n_nodes})")
    return ids.astype(np.int64, copy=False)
