"""Compare two sets of macro-benchmark runs, one row per workload x metric.

    python3 benchmarks/macro/compare.py base.jsonl change.jsonl

Each file holds one JSON record per line as ``run.py --out FILE`` appends
them (one run, or a set of runs over several seeds). For every workload and
end-to-end metric it prints each side's median and quartiles, the ratio of
the medians with its base, and a verdict by the bounds in
``BENCHMARK.json``:

- ``unresolved``  the run-to-run spread (quartile distance / median, the
  wider side) exceeds the bound and the two sides' ranges overlap;
- ``regressed``   the change's median is worse than the base's by more
  than the bound;
- ``improved``    it is better by more than the spread of the base's runs;
- ``same``        otherwise.

Rows are never averaged across workloads. Exits 1 if any row is
``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the records of one file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[record["workload"], name].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float):
    """``(verdict, ratio)`` of ``change`` against ``base`` for one metric."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    ratio = cm / bm
    worse_by = (ratio - 1.0) * (1.0 if better == "lower" else -1.0)
    spread = max((b3 - b1) / bm, (c3 - c1) / cm)
    overlap = min(change) <= max(base) and min(base) <= max(change)
    if spread > bound and overlap:
        return "unresolved", ratio
    if worse_by > bound:
        return "regressed", ratio
    if -worse_by > (b3 - b1) / bm and not overlap:
        return "improved", ratio
    return "same", ratio


def compare(base_path: str, change_path: str, manifest: dict) -> int:
    base, change = load(base_path), load(change_path)
    bad = 0
    print(f"{'workload':<13}{'metric':<23}{'base q1/med/q3':<36}"
          f"{'change q1/med/q3':<36}{'ratio':<15}verdict")
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            word, ratio = verdict(
                base[key], change[key], metric["better"], metric["bound"]
            )
            bad += word in ("regressed", "unresolved")
            sides = [
                "/".join(f"{q:.4g}" for q in quartiles(side[key]))
                + f" n={len(side[key])}"
                for side in (base, change)
            ]
            print(f"{workload:<13}{metric['name']:<23}{sides[0]:<36}"
                  f"{sides[1]:<36}{ratio:.3f}x base  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2], json.loads(MANIFEST.read_text())))
