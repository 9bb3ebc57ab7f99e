"""Generate docs/API.md from the package's public surface.

Walks every public subpackage, collects the names each module exports
(``__all__`` where present, else public top-level callables/classes), and
writes a reference page with the first docstring line per item. Run:

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

def discover_modules() -> list[str]:
    """Every module under src/repro, package inits first."""
    root = pathlib.Path(__file__).resolve().parents[1] / "src"
    modules = set()
    for path in (root / "repro").rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        if any(p.startswith("_") for p in parts[1:]):
            continue
        modules.add(".".join(parts))
    return sorted(modules)


MODULES = discover_modules()

# Hand-authored supplements emitted verbatim under a module's listing —
# reference material that one-line summaries cannot carry. Keep these
# here (not in docs/API.md directly) so regeneration preserves them.
EXTRA_SECTIONS = {
    "repro.distributed": """\
### Shared-memory segment layout

One `ShmArena` per run; segments are named `repro-dist-<pid>-<run>-<key>`:

| key | contents | writer |
|---|---|---|
| `x`, `y`, `train-mask` | full feature matrix / labels / train mask | coordinator, once |
| `s<p>-indptr/indices/weights` | shard `p`'s local CSR | coordinator, once |
| `s<p>-owned/ghosts` | shard `p`'s owned and ghost global ids | coordinator, once |
| `params` (+`params-round`) | flattened averaged parameters | coordinator, per round |
| `state-<p>` (+`state-meta-<p>`) | worker `p`'s flattened parameters, `(round, n_train, failed, generation)` | worker `p`, per round |
| `done-<p>` | final counter block (steps, faults, syncs, attach stats) | worker `p`, once |
| `lease-<p>` | worker `p`'s heartbeat lease cell (supervised runs only) | worker `p`, per beat |

### Kill-safe round-cell protocol

Every per-round channel is a preallocated payload buffer plus an
`int64[1]` **round cell**: the writer fills the payload first and
advances the cell last; a reader that observes round `r` therefore
holds a complete round-`r` payload. A killed writer can only leave an
un-advanced cell behind — never a torn message — and the coordinator's
`Supervisor` detects the dead process and evicts it (survivor-
renormalised averaging) or respawns it. Workers wait only on the
coordinator's `params-round` cell, never on a peer: input features
never change, so a round ships no feature row, and each worker's
one-time gather of its owned and ghost rows is the only feature traffic
(`copied_bytes` = Σ_p n_local_p·(d+1)·8 in an unfaulted run). This is
why the control plane is shared memory rather than `mp.Queue`: a worker
killed mid-`put` of a multi-page pickle wedges every subsequent reader.

### Lease-cell layout

Supervised runs (`supervise=LeasePolicy(...)`) add one `int64[4]`
heartbeat cell per rank, beaten from the worker's round loop:

| index | name | contents |
|---|---|---|
| 0 | `LEASE_SEQ` | monotonically increasing beat counter — **written last** |
| 1 | `LEASE_GENERATION` | the incarnation's fencing token |
| 2 | `LEASE_ROUND` | last round this incarnation published (`-1` before the first) |
| 3 | `LEASE_PID` | the incarnation's OS pid (diagnostics only) |

The coordinator's `Supervisor` never reads worker clocks: liveness is
wall time since `LEASE_SEQ` last *changed*, measured on the
coordinator's own monotonic clock, so clock skew between processes
cannot expire a lease. A lease silent for
`missed_beats x beat_interval_s` (while the process is still alive) or
a dead process triggers the `LeasePolicy` action: `respawn` (up to
`max_respawns` per rank), `evict` (survivor-renormalised averaging), or
`continue` (wait out stragglers, evict only the dead).

### Fenced rejoin protocol

Respawn must not let a not-quite-dead predecessor corrupt the round it
missed, so every incarnation of rank `p` carries a **generation token**:

1. the `Supervisor` bumps `generation[p]` *before* launching the
   successor, and resets the stale `state-meta-<p>` round cell to `-1`;
2. the successor restores from the coordinator-side resume checkpoint
   namespace for rank `p`, fast-forwards its deterministic fault
   schedule to the recorded per-site call counts, re-attaches every
   shared segment by handle, and stamps its generation into
   `state-meta-<p>[3]` and `lease-<p>[1]` on every publication;
3. the coordinator accepts a round-`r` state publication only if
   `Supervisor.fence_accepts(p, generation)` — a write stamped with a
   superseded token is counted (`fenced_writes`) and discarded, never
   averaged.

Because the resume checkpoint for step `s` is exactly the parameter
state after round `s - 1` and the coordinator's run-ahead is bounded to
one round, a killed-and-respawned run converges **bit-identically** to
an unfaulted one (asserted by benchmark E36 and the tier-1 chaos
tests).
""",
    "repro.serving": """\
### Replicated-shard failover state machine

`ShardRouter(replication_factor=r)` builds `r` independent
`ServingRuntime` replicas per shard (replica 0 is the primary; replica
stores are namespaced `<shard>.r<k>`). Health is read from each
replica's circuit-breaker `state` gauge — never from `allow()`, which
would consume half-open probe slots:

```
            primary breaker opens              replica also unhealthy
  PRIMARY ---------------------------> FAILED  ----------------------+
    ^        (failover: flush the           OVER                     |
    |         replica's store, then route   |                        v
    |         to first healthy replica)     |                  stay put, per-
    |                                       |                  request errors
    +---------------------------------------+
      readmission: primary breaker leaves "open" (cooldown elapsed)
      -> invalidate primary's store namespace, then send one live
         probe through the primary; readmit only on
         `status == "ok"` and not degraded
```

Transitions emit `supervisor.failovers` / `supervisor.readmissions`
counters and `supervisor.active_replica` gauges. `predict_many` is the
per-request-isolated front door: one shard's open breaker or hard
failure yields `status="error"` slots for that shard's requests only —
never a whole-batch exception (caller bugs such as out-of-range node
ids still raise).
""",
    "repro.obs.telemetry": """\
### Metrics snapshot cell layout

One cell per rank, allocated by the coordinator's `ShmArena`
(`metrics-<rank>` + `metrics-meta-<rank>`):

| part | dtype | contents |
|---|---|---|
| payload | `uint8[METRICS_SEGMENT_BYTES]` (64 KiB) | JSON `MetricsRegistry.dump()` plus free-form extras |
| meta | `int64[2]` | `meta[0]` = sequence number (**written last**), `meta[1]` = payload byte length |

Publication is payload-first / seq-last (the round-cell protocol): a
killed writer can only leave an un-advanced cell, never a torn payload,
so the coordinator always reads the newest *complete* snapshot a rank
ever published. Readers detect in-flight writes by re-reading `meta[0]`
after copying (up to 8 retries); an oversize dump is rejected without
touching the cell. Merging is exact: counters sum, gauges re-label
per-origin (`rank=<r>`), histograms merge their raw log-bucket counts —
cluster p99 comes from merged buckets, never averaged percentiles.

### Trace-context propagation contract

- The coordinator **mints** (`TraceContext.from_span`); workers only
  **extend** (`ctx.child(...)`) — one-directional, so identity flows
  down and never back up. `child()` merges labels with *existing keys
  winning*: a worker cannot overwrite coordinator-assigned labels.
- `TraceContext` is a frozen picklable dataclass; it rides to workers
  in the spawn args, no side channel.
- Span ids are rank-qualified (`r<rank>s<local>`) — collision-free
  across processes without coordination.
- Each training ROUND opens a fresh worker-root span parented on the
  coordinator's context, so a mid-run kill forfeits at most the
  in-flight round; earlier rounds are already flushed (JSONL,
  append + fsync, ring-compacted at 2x `max_records`).
- `assemble_trace()` grafts each rank root under the coordinator span
  its `parent_id` names; spans whose parent never made it to disk
  reattach under the trace root with `reattached=True` instead of
  being dropped.

### Exporter formats

- **Prometheus text exposition** (`to_prometheus`): every snapshot
  sample becomes a `repro_`-namespaced gauge with sorted, escaped
  labels and a `# TYPE` header preceding its samples.
  `lint_prometheus` validates the output and runs as a CI gate.
- **Structured JSON** (`to_json`): versioned `repro.telemetry.v1`
  documents — `{"format", "meta", "samples": [{"name", "labels",
  "value"}, ...]}` with each snapshot key parsed back into dotted name
  + label dict via `parse_snapshot_key` — machine-diffable across runs.
""",
    "repro.training.datapipe": """\
### Stage contract

Every stage is an iterable of `MiniBatch` objects wrapping an upstream
stage. A stage implements `_transform(mb) -> mb`; iteration pulls from
the source, times the transform into `mb.stage_s[stage.name]`
(accumulating across epochs is prevented by each batch being a fresh
object), and — when `repro.obs` is enabled — emits a
`datapipe.stage.<name>` span per batch plus a `datapipe.stage_s`
histogram sample labelled by stage. Pipes are **re-iterable**: each
`iter()` restarts from the source, so one pipe object serves every
training epoch, and `SeedBatcher` draws a fresh permutation from its
(shareable) RNG per iteration.

The canonical chain and what each stage owns:

| stage | name | transform |
|---|---|---|
| `SeedBatcher` | `batch` | lazy permutation → `MiniBatch(seeds, index)` |
| `SamplePerLayer` | `sample` | the frontier's layer as a CSR row block over global column ids (`scipy.sparse.csr_matrix`, `(len(frontier), n_nodes)`) |
| `CompactPerLayer` | `compact` | dedup into a `Block`; frontier ← `src_ids` |
| `FeatureFetcher` | `fetch` | gather `input_ids` rows (direct or via `FeatureStore.gather`), attach labels |
| `ToDevice` | `finalize` | dtype cast + C-contiguous layout |
| `Prefetcher` | `prefetch` | run everything upstream in a producer thread |

`.sample(sampler)` expands into one `SamplePerLayer → CompactPerLayer`
pair per layer of any `BlockSampler`; the chain is bit-identical to
`sampler.sample(seeds)` given the same RNG stream. Blocks accumulate
input-layer first, matching the `forward_blocks` contract.

### Prefetch semantics

`PrefetchIterator(source, depth)` starts a daemon producer thread that
drains `source` into a `queue.Queue(maxsize=depth)`:

- **Exhaustion** — the producer enqueues a sentinel; the consumer's
  `next()` raises `StopIteration` after joining the thread.
- **Upstream exception** — captured in the producer, re-raised from the
  consumer's `next()` after the thread is reaped.
- **`close()`** (also context-manager exit and `Prefetcher`'s per-epoch
  `finally`) — sets the shutdown flag, drains the queue so a blocked
  producer observes it, and joins the thread. No live
  `repro-datapipe-prefetch` thread survives any exit path (asserted in
  the test suite and the E35 gate).
- **Accounting** — `ready_hits` (batches served without blocking) vs
  `waits`; `hit_ratio = ready_hits / batches`. With obs enabled the
  queue depth is published to the `datapipe.prefetch.queue_depth` gauge
  and the counters to `datapipe.prefetch.{ready,wait}`.

Determinism: all RNG draws (batch permutation, sampler variates) happen
in the producer in batch order — the same stream order as the
synchronous loader — so `prefetch_depth > 0` on
`train_decoupled`/`train_sampled`/`train_pprgo` changes wall-clock
only, never numbers, including under checkpoint/resume.
""",
    "repro.resilience": """\
### Fault taxonomy

Every fault is a `FaultSpec(site, kind, rate, after, max_fires, delay_s)`;
the schedule is a pure function of `(seed, spec index, site, call index)`,
so chaos runs are bit-reproducible. Site-specific semantics:

| kind | `storage.get` | `propagation.hop` | `serving.batch` | `training.worker_step` |
|---|---|---|---|---|
| `transient` | raises `TransientError` | raises `TransientError` | raises `TransientError` (retried) | worker crash (round contribution lost) |
| `permanent` | raises `FaultError` | raises `FaultError` | raises `FaultError` (fails fast) | worker crash |
| `delay` | sleeps `delay_s` | sleeps `delay_s` | sleeps `delay_s` | straggler event (barrier waits) |
| `corrupt` | hit returns NaN-poisoned copy | output NaN-poisoned | raises `TransientError` (integrity check) | update discarded after the step ran |
| `drop` | read becomes a miss | hop output zeroed (lost aggregation) | raises `TransientError` (result lost) | update discarded |

### Circuit-breaker state machine

```
                 failure rate >= threshold
                 (over >= min_calls in window)
      CLOSED ----------------------------------> OPEN
        ^                                         |
        | probe succeeds                          | cooldown_s elapses
        |                                         v
        +------------------------------------- HALF_OPEN
                   probe fails -> OPEN   (<= half_open_probes admitted)
```

`allow()` answers admission (rejected calls are counted), `record_success`
/ `record_failure` feed the sliding outcome window. `ServingRuntime`
keeps one breaker per model key, publishes `breaker.state` gauges
(0=closed, 1=half-open, 2=open), and while a breaker is open serves
TTL-expired `EmbeddingStore` rows flagged `degraded=True` before
rejecting with `CircuitOpenError`.

### Checkpoint format

`Checkpointer.save(step, state)` writes `ckpt-<step:08d>.npz`: the nested
state dict flattened with `/`-joined keys (so `Module.state_dict()`'s
dotted keys round-trip), plus a `__checkpoint_meta__` JSON entry carrying
the step and a SHA-256 content checksum over every entry's name, dtype,
shape, and bytes. Writes go to a same-directory temp file, `fsync`, then
atomic `os.replace` — a crash mid-save never corrupts the latest
checkpoint. `load()` re-hashes and raises `CheckpointError` on any
mismatch; `keep=N` prunes older steps.
""",
}


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].rstrip(".")


def public_names(module) -> list[str]:
    if hasattr(module, "__all__"):
        return list(module.__all__)
    names = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if getattr(obj, "__module__", "") == module.__name__:
                names.append(name)
    return names


def main() -> None:
    lines = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_docs.py`; one line per public item.",
        "",
    ]
    for modname in MODULES:
        module = importlib.import_module(modname)
        lines.append(f"## `{modname}`")
        lines.append("")
        summary = first_line(module)
        if summary:
            lines.append(f"*{summary}.*")
            lines.append("")
        for name in public_names(module):
            obj = getattr(module, name, None)
            if obj is None or inspect.ismodule(obj):
                continue
            if not (inspect.isclass(obj) or callable(obj)):
                continue  # constants (__version__, TAXONOMY, ...)
            kind = "class" if inspect.isclass(obj) else "def"
            desc = first_line(obj)
            suffix = f" — {desc}" if desc else ""
            lines.append(f"- `{kind} {name}`{suffix}")
        extra = EXTRA_SECTIONS.get(modname)
        if extra:
            lines.append("")
            lines.append(extra.rstrip())
        lines.append("")
    out = pathlib.Path(__file__).resolve().parents[1] / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    sys.exit(main())
