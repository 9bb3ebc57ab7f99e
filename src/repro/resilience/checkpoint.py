"""Atomic, checksummed training checkpoints with resume support.

A checkpoint is one ``.npz`` file holding an arbitrarily nested state
dict: array leaves become npz entries, JSON-able leaves (ints, floats,
strings, bools, ``None``, lists, RNG bit-generator states) travel in a
JSON header entry. Three properties make the format survive being killed
mid-write and being read after corruption:

* **Atomic visibility** — the payload is written to a temp file in the
  target directory and ``os.replace``-d into place, so a reader never
  observes a half-written checkpoint under POSIX semantics.
* **Content checksum** — a SHA-256 over every entry's name, dtype,
  shape, and bytes is stored inside the file; :meth:`Checkpointer.load`
  recomputes it and raises :class:`repro.errors.CheckpointError` on any
  mismatch (bit rot, truncation, partial copy).
* **Bit-exact round trip** — arrays are stored losslessly, so a training
  run resumed from a checkpoint replays the identical float sequence
  (the property ``tests/test_resilience.py`` proves end to end).

The trainers (:mod:`repro.training.trainers`) and
:class:`repro.training.TrainingPipeline` snapshot model parameters,
optimizer state, early-stopping state, histories, and RNG state every N
epochs through this class; the process backend's workers
(:mod:`repro.distributed.worker`) save a per-round resume snapshot
through it for supervised, bit-exact rejoin.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.errors import CheckpointError, ConfigError
from repro.utils.validation import check_int_range

_LOG = obs.get_logger("repro.resilience.checkpoint")

_SEP = "/"
_META_KEY = "__checkpoint_meta__"
_CHECKSUM_KEY = "__checkpoint_sha256__"
_FORMAT_VERSION = 1


def _flatten(state: dict, prefix: str = "") -> tuple[dict, dict]:
    """Split a nested dict into ``(arrays, scalars)`` with ``/``-joined keys.

    Dict values recurse; :class:`numpy.ndarray` leaves go to ``arrays``;
    everything else must be JSON-serializable and goes to ``scalars``.
    """
    arrays: dict[str, np.ndarray] = {}
    scalars: dict[str, Any] = {}
    for key, value in state.items():
        key = str(key)
        if _SEP in key:
            raise ConfigError(
                f"checkpoint state keys must not contain {_SEP!r}: {key!r}"
            )
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            sub_arrays, sub_scalars = _flatten(value, prefix=f"{path}{_SEP}")
            arrays.update(sub_arrays)
            scalars.update(sub_scalars)
        elif isinstance(value, np.ndarray):
            arrays[path] = value
        elif isinstance(value, (np.integer, np.floating, np.bool_)):
            scalars[path] = value.item()
        else:
            scalars[path] = value
    return arrays, scalars


def _unflatten(arrays: dict, scalars: dict) -> dict:
    state: dict = {}
    for path, value in list(arrays.items()) + list(scalars.items()):
        node = state
        parts = path.split(_SEP)
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return state


def _checksum(arrays: dict[str, np.ndarray], meta_json: str) -> str:
    digest = hashlib.sha256()
    digest.update(meta_json.encode("utf-8"))
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(repr(arr.shape).encode("ascii"))
        digest.update(arr.tobytes())
    return digest.hexdigest()


class Checkpointer:
    """Writes and restores checkpoints under one directory.

    Parameters
    ----------
    directory:
        Where checkpoints live; created on first save.
    keep:
        Retain at most this many checkpoints — older steps are pruned
        after each successful save (``None`` keeps everything).
    prefix:
        File-name prefix, ``<prefix>-<step 8 digits>.npz``.
    namespace:
        Optional sub-directory under ``directory`` this writer owns
        (e.g. ``"rank3"``). Concurrent writers sharing one checkpoint
        root **must** use distinct namespaces: :meth:`save`'s keep-N
        pruning scans only the writer's own namespace, so one rank's
        pruning can never delete another rank's checkpoints. Use
        :meth:`scoped` to derive per-writer views of one root.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int | None = 3,
        prefix: str = "ckpt",
        namespace: str | None = None,
    ) -> None:
        if keep is not None:
            check_int_range("keep", keep, 1)
        self.root = Path(directory)
        if namespace is not None:
            namespace = str(namespace)
            if (
                not namespace
                or namespace != Path(namespace).name
            ):
                raise ConfigError(
                    "namespace must be a bare directory name "
                    f"(no separators), got {namespace!r}"
                )
        self.namespace = namespace
        self.directory = (
            self.root if namespace is None else self.root / namespace
        )
        self.keep = keep
        self.prefix = prefix
        self.saves = 0
        self.bytes_written = 0
        obs.register_source("resilience.checkpoint", self)

    def scoped(self, namespace: str) -> "Checkpointer":
        """A sibling writer under the same root, owning ``namespace``.

        The returned checkpointer shares ``keep``/``prefix`` but writes
        (and prunes) exclusively under ``<root>/<namespace>/`` — the
        per-rank isolation :mod:`repro.distributed` workers use so
        concurrent keep-N pruning on one shared directory can never
        cross ranks.
        """
        return Checkpointer(
            self.root, keep=self.keep, prefix=self.prefix, namespace=namespace
        )

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{int(step):08d}.npz"

    def save(self, step: int, state: dict) -> Path:
        """Persist ``state`` for ``step`` atomically; returns the path."""
        check_int_range("step", step, 0)
        arrays, scalars = _flatten(state)
        meta = {
            "version": _FORMAT_VERSION,
            "step": int(step),
            "scalars": scalars,
        }
        meta_json = json.dumps(meta, sort_keys=True)
        payload = dict(arrays)
        payload[_META_KEY] = np.frombuffer(
            meta_json.encode("utf-8"), dtype=np.uint8
        )
        payload[_CHECKSUM_KEY] = np.frombuffer(
            _checksum(arrays, meta_json).encode("ascii"), dtype=np.uint8
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        data = buffer.getvalue()
        path = self.path_for(step)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{self.prefix}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self.saves += 1
        self.bytes_written += len(data)
        if obs.OBS.enabled:
            obs.OBS.registry.counter("checkpoint.saves").inc()
            obs.OBS.registry.gauge("checkpoint.bytes").set(len(data))
        _LOG.debug("saved checkpoint step %d (%d bytes) to %s",
                   step, len(data), path)
        self._prune()
        return path

    def _prune(self) -> None:
        if self.keep is None:
            return
        steps = self.steps()
        for step in steps[: max(len(steps) - self.keep, 0)]:
            try:
                self.path_for(step).unlink()
            except OSError:  # pragma: no cover - racing cleanup is benign
                pass

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def steps(self) -> list[int]:
        """Steps with a checkpoint on disk, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        head = f"{self.prefix}-"
        for entry in self.directory.glob(f"{self.prefix}-*.npz"):
            core = entry.name[len(head):-len(".npz")]
            if core.isdigit():
                found.append(int(core))
        return sorted(found)

    def latest(self) -> Path | None:
        """The newest checkpoint's path, or ``None`` when there is none."""
        steps = self.steps()
        return self.path_for(steps[-1]) if steps else None

    def load(self, path: str | Path | None = None) -> tuple[int, dict]:
        """Verify and restore a checkpoint (the latest when unnamed).

        Returns ``(step, state)`` with the original nesting. Raises
        :class:`CheckpointError` when no checkpoint exists, the file
        cannot be parsed, or the stored checksum does not match the
        recomputed content hash.
        """
        if path is None:
            path = self.latest()
            if path is None:
                raise CheckpointError(
                    f"no checkpoint found under {self.directory}"
                )
        path = Path(path)
        try:
            with np.load(path) as data:
                entries = {name: data[name] for name in data.files}
        except FileNotFoundError:
            raise CheckpointError(f"checkpoint {path} does not exist") from None
        except Exception as exc:  # zipfile.BadZipFile, OSError, ValueError
            raise CheckpointError(
                f"checkpoint {path} is unreadable: {exc}"
            ) from exc
        meta_raw = entries.pop(_META_KEY, None)
        stored = entries.pop(_CHECKSUM_KEY, None)
        if meta_raw is None or stored is None:
            raise CheckpointError(
                f"checkpoint {path} is missing its metadata/checksum entries"
            )
        try:
            meta_json = meta_raw.tobytes().decode("utf-8")
            meta = json.loads(meta_json)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {path} has corrupt metadata: {exc}"
            ) from exc
        expected = _checksum(entries, meta_json)
        if stored.tobytes().decode("ascii", errors="replace") != expected:
            raise CheckpointError(
                f"checkpoint {path} failed checksum verification "
                "(corrupt or tampered content)"
            )
        state = _unflatten(entries, meta.get("scalars", {}))
        return int(meta["step"]), state

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict[str, float]:
        """Flat counter dict (:class:`repro.obs.StatsSource`)."""
        return {
            "saves": self.saves,
            "bytes_written": self.bytes_written,
            "on_disk": len(self.steps()),
        }

    def reset(self) -> None:
        """Zero the counters (files on disk are untouched)."""
        self.saves = 0
        self.bytes_written = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Checkpointer({str(self.directory)!r}, keep={self.keep}, "
            f"saves={self.saves})"
        )
