"""Macro benchmark of the repro package: one process, four workloads.

    python3 benchmarks/macro/run.py --workload serve_read --seed 3 \
        --seconds 10 --trace 0

runs one workload and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. Without ``--workload`` it runs all four, untraced then
traced, and prints both sets. It exits non-zero when an output check
fails or a thread, child process or shared-memory segment is left behind.
"""

from __future__ import annotations

import argparse
import ctypes
import faulthandler
import glob
import json
import multiprocessing
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"{SRC}/repro not found: the benchmark runs the package from source")
sys.path.insert(0, str(SRC))

import metrics  # noqa: E402
import phases  # noqa: E402
from tracing import Trace, self_times  # noqa: E402
from workloads import WORKLOADS, smoke  # noqa: E402

DEADLINE_S = 170.0  # a hung workload ends the process inside the harness's 180 s
ROOT = "workload"
UNATTRIBUTED_LIMIT = 0.10  # share of a training workload's traced wall
# Work the traced pass adds beside the workload itself; not tracing overhead.
EXTRA_SPANS = ("bench.probes", "bench.replay", "datapipe.prefetch_epoch",
               "distributed.shard_plan")


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def reset_peak_rss() -> bool:
    """Restart the VmHWM high-water mark; False where the host refuses."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
        return True
    except OSError:
        return False


M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4  # <malloc.h>


def retain_heap() -> bool:
    """Make glibc keep freed memory in the process, as a long-lived one does.

    This host is a VM with free-page reporting: pages a process returns to
    the kernel lose their backing after about a second, and touching them
    again costs 5 s per GB instead of 0.4 s. NumPy arrays above 128 KiB are
    mmapped and unmapped on every allocation, so a hop that allocates its
    output ran 2.5 times slower or not depending on how long ago the last
    one was freed, and no timing repeated. With mmap off and trimming off,
    freed arrays go back to the heap, stay backed, and are reused. Peak RSS
    is unchanged (2.1 GB on `decoupled` either way). False where the C
    library has no ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(M_MMAP_MAX, 0) and mallopt(M_TRIM_THRESHOLD, 2**31 - 1))


def warm_up(workload, seed: int) -> None:
    """The whole scenario once at test size, unmeasured.

    The first train call of a process is five times slower than the
    second (imports, BLAS threads, first-use allocations); users pay that
    once per process, not per model, so it is kept out of every timing.
    """
    run = phases.Run(smoke(workload), seed, 1.0, Trace(workload.name, False))
    inputs, graph, split = phases.build(run)
    served, _, _ = phases.train_untraced(run, graph, split)
    phases.serve(run, served, graph, inputs)


def run_workload(workload, seed: int, seconds: float, traced: bool):
    """One workload, untraced and then, if asked, traced.

    Returns ``(end_to_end, per_layer, attempted, failed, failures)``; the
    metric dicts map a name to ``(value, samples)``.
    """
    # The real stderr: a captured one (pytest) has no file descriptor.
    faulthandler.dump_traceback_later(DEADLINE_S, exit=True, file=sys.__stderr__)
    try:
        warm_up(workload, seed)
        plain = phases.Run(workload, seed, seconds, Trace(workload.name, False))
        inputs, graph, split = phases.setup(plain)
        served, losses, train_wall = phases.train_untraced(plain, graph, split)
        t0 = time.perf_counter()
        phases.serve(plain, served, graph, inputs)
        # What the traced pass repeats: one train cycle and the serving phases.
        plain_wall = train_wall + time.perf_counter() - t0
        plain.put("peak_rss_mb", peak_rss_mb())
        runs = [plain]

        if traced:
            trace = Trace(workload.name, True)
            deep = phases.Run(workload, seed, seconds, trace)
            del inputs, graph, split
            with trace.span("setup"):
                inputs, graph, split = phases.build(deep)
            deep.put("graph.from_edges_s", trace.total("graph.from_edges"))
            with trace.span(ROOT):
                phases.train_traced(deep, graph, split, losses)
                phases.serve(deep, served, graph, inputs)
            root = next(i for i, s in enumerate(trace.spans) if s.name == ROOT)
            wall = trace.spans[root].end - trace.spans[root].start
            own_work = wall - sum(trace.total(name) for name in EXTRA_SPANS)
            deep.put("obs.trace_overhead_frac", (own_work - plain_wall) / plain_wall)
            unattributed = self_times(trace.spans)[root] / wall
            deep.put("obs.unattributed_frac", unattributed)
            if workload.name in metrics.TRAINING:
                deep.check(unattributed <= UNATTRIBUTED_LIMIT,
                           f"{unattributed:.3f} of the traced wall is in no layer's span")
            layers = trace.layer_self_time(ROOT)
            for layer, spent in sorted(layers.items(), key=lambda kv: -kv[1]):
                print(f"  self time {layer:<12} {spent:9.3f} s "
                      f"{spent / wall:6.1%}")
            trace.write(HERE / "out" / f"trace_{workload.name}.json")
            runs.append(deep)
    finally:
        faulthandler.cancel_dump_traceback_later()

    values = {k: v for run in runs for k, v in run.values.items()}
    end_to_end = {m.name: values[m.name] for m in metrics.END_TO_END}
    # A layer that did no work on this workload reports 0.
    per_layer = {m.name: values.get(m.name, (0.0, 0)) for m in metrics.LAYERS}
    return (
        end_to_end,
        per_layer if traced else {},
        sum(run.attempted for run in runs),
        sum(run.failed for run in runs),
        [f for run in runs for f in run.failures],
    )


def leftovers() -> list[str]:
    """Threads, child processes and shared memory this process still holds."""
    found = [
        f"thread {t.name}" for t in threading.enumerate()
        if t is not threading.main_thread()
    ]
    found += [f"child process {p.pid}" for p in multiprocessing.active_children()]
    found += [f"shared memory {path}" for path in glob.glob("/dev/shm/repro-*")]
    return found


def show(table: dict, declared) -> dict:
    """Print each metric with its unit and sample count; return the JSON form."""
    units = {m.name: m.unit for m in declared}
    for name, (value, samples) in table.items():
        print(f"  {name:<34} {value:>16.6f} {units[name]:<8} n={samples}")
    return {
        name: {"value": value, "unit": units[name]}
        for name, (value, _) in table.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--out", type=Path,
                        help="append one JSON record per workload, for compare.py")
    args = parser.parse_args(argv)

    heap_retained = retain_heap()
    names = [args.workload] if args.workload else list(WORKLOADS)
    traced = args.trace == 1 or (args.trace is None and not args.workload)
    report = {}
    attempted = failed = 0
    problems: list[str] = []
    for name in names:
        workload = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
        rss_reset = reset_peak_rss() if len(names) > 1 else True
        print(f"workload {name} seed {args.seed} seconds {args.seconds} "
              f"traced {int(traced)} rss_reset {str(rss_reset).lower()} "
              f"heap_retained {str(heap_retained).lower()}")
        e2e, layer, tried, bad, failures = run_workload(
            workload, args.seed, args.seconds, traced
        )
        attempted += tried
        failed += bad
        problems += [f"{name}: {f}" for f in failures]
        shown = {}
        if args.trace != 1:
            shown.update(show(e2e, metrics.END_TO_END))
        if traced:
            shown.update(show(layer, metrics.LAYERS))
        report[name] = shown
        print(f"  fail_frac {bad / tried:.6f} ({bad} of {tried} operations)")
        if args.out:
            record = {"workload": name, "seed": args.seed,
                      "seconds": args.seconds, "attempted": tried,
                      "failed": bad, "metrics": shown}
            with args.out.open("a") as sink:
                sink.write(json.dumps(record) + "\n")

    problems += [f"left behind: {item}" for item in leftovers()]
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report[names[0]] if args.workload else report,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
