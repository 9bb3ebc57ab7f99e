"""The benchmark's own span list: layer self time measured from outside.

``repro.obs`` stays disabled. Spans are recorded around the benchmark's
calls into each layer's public functions, kept in memory and written out
when the run ends. A span's layer is the part of its name before the first
dot (``perf.propagate`` belongs to ``perf``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    workload: str


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent and may overlap one another (two
    threads), so the covered part is the length of their union.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    return [
        (span.end - span.start) - covered(children.get(i, []))
        for i, span in enumerate(spans)
    ]


class Trace:
    """Nested spans opened on one thread; a disabled trace records nothing."""

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.workload))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._open.pop()

    def add(
        self, name: str, start: float, end: float, parent: int | None = None
    ) -> int | None:
        """Record a span timed by the caller; returns its index.

        Without ``parent`` it goes under the innermost open span.
        """
        if not self.enabled:
            return None
        if parent is None and self._open:
            parent = self._open[-1]
        self.spans.append(Span(name, start, end, parent, self.workload))
        return len(self.spans) - 1

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def layer_self_time(self, root: str) -> dict[str, float]:
        """Self time per layer over the spans below the span called ``root``."""
        own = self_times(self.spans)
        inside = {i for i, s in enumerate(self.spans) if s.name == root}
        out: dict[str, float] = {}
        for i, span in enumerate(self.spans):
            if span.parent in inside:
                inside.add(i)
                layer = span.name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + own[i]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
