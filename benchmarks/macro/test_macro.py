"""The benchmark's own tests, at ``--smoke`` sizes.

    python -m pytest benchmarks/macro -q
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run  # noqa: F401 - first: puts src/ on the path for the others
import compare
import metrics
import phases
from tracing import Span, Trace, covered, self_times
from workloads import (
    WORKLOADS,
    generate_inputs,
    generate_new_edges,
    generate_traffic,
    smoke,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_declarations_fit_the_benchmark_format():
    workloads = list(WORKLOADS.values())
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.LAYERS) <= 128
    names = [w.name for w in workloads]
    names += [m.name for m in metrics.END_TO_END + metrics.LAYERS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics.END_TO_END + metrics.LAYERS:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric
    for workload in workloads:
        assert "\n" not in workload.why and len(workload.why) <= 200
    for metric in metrics.END_TO_END:
        assert 0 < metric.bound <= 0.25
        assert set(metric.stressed) <= set(WORKLOADS)
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_every_layer_metric_predicts_an_end_to_end_metric_or_is_context():
    declared = {m.name for m in metrics.END_TO_END}
    for layer in metrics.LAYERS:
        if layer.moves is None:
            assert layer.on == (), layer
        else:
            assert layer.moves in declared, layer
            assert layer.on and set(layer.on) <= set(WORKLOADS), layer
        assert layer.name.split(".")[0] in (
            "graph", "perf", "editing", "datapipe", "tensor", "models",
            "storage", "serving", "distributed", "router", "obs",
        ), layer


def test_manifest_file_matches_the_declarations():
    manifest = json.loads(MANIFEST.read_text())
    assert manifest == metrics.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }


def test_inputs_are_a_function_of_the_seed():
    spec = smoke(WORKLOADS["serve_update"]).graph
    a, b, c = (generate_inputs(spec, s) for s in (7, 7, 8))
    for field in ("edges", "x", "y", "train", "val", "test"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.edges.shape != c.edges.shape or not np.array_equal(a.edges, c.edges)
    assert not np.array_equal(a.x, c.x)
    # The edge list is canonical: u < v, no duplicates.
    assert np.all(a.edges[:, 0] < a.edges[:, 1])
    assert len(np.unique(a.edges, axis=0)) == len(a.edges)

    t1, t2, t3 = (generate_traffic(spec.n_nodes, 500.0, 2.0, 0.8, s) for s in (7, 7, 8))
    assert np.array_equal(t1.due_s, t2.due_s)
    assert np.array_equal(t1.node_ids, t2.node_ids)
    assert len(t1.due_s) != len(t3.due_s) or not np.array_equal(t1.node_ids, t3.node_ids)

    new = generate_new_edges(a, 10, 7)
    assert np.array_equal(new, generate_new_edges(b, 10, 7))
    n = spec.n_nodes
    assert not np.isin(new[:, 0] * n + new[:, 1], a.edges[:, 0] * n + a.edges[:, 1]).any()
    assert len(np.unique(new, axis=0)) == 10


def test_span_self_time_on_a_hand_built_tree():
    #  root 0..10
    #    a 1..4          child of root
    #      a1 2..3       child of a
    #    b 3..6          child of root, overlaps a on 3..4 (another thread)
    #    c 9..12         child of root, clipped to root's end
    spans = [
        Span("w.root", 0.0, 10.0, None, "w"),
        Span("x.a", 1.0, 4.0, 0, "w"),
        Span("y.a1", 2.0, 3.0, 1, "w"),
        Span("x.b", 3.0, 6.0, 0, "w"),
        Span("z.c", 9.0, 12.0, 0, "w"),
    ]
    assert covered([(1.0, 4.0), (3.0, 6.0), (9.0, 10.0)]) == 6.0
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0]

    trace = Trace("w", enabled=True)
    trace.spans = spans
    assert trace.layer_self_time("w.root") == {"x": 5.0, "y": 1.0, "z": 3.0}
    assert trace.total("x.a") == 3.0

    off = Trace("w", enabled=False)
    with off.span("x.a"):
        assert off.add("x.b", 0.0, 1.0) is None
    assert off.spans == []


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "same"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [v * 1.3 for v in steady], "higher", 0.1)[0] == "improved"
    assert compare.verdict(steady, [v * 0.7 for v in steady], "lower", 0.1)[0] == "improved"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([1.0], [1.05], "lower", 0.1) == ("same", 1.05)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["sampled", "serve_update"])
def test_traced_smoke_run_reports_every_layer_metric(workload, capsys):
    code = run.main(["--workload", workload, "--smoke", "--seconds", "3",
                     "--trace", "1", "--seed", "5"])
    result = last_json(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in metrics.LAYERS}
    assert run.leftovers() == []
    spans = json.loads((run.HERE / "out" / f"trace_{workload}.json").read_text())
    assert {s["workload"] for s in spans} == {workload}


def test_untraced_smoke_run_repeats_its_counts(capsys):
    results = []
    for _ in range(2):
        assert run.main(["--workload", "serve_read", "--smoke", "--seconds", "2",
                         "--trace", "0", "--seed", "5"]) == 0
        results.append(last_json(capsys))
    assert set(results[0]["metrics"]) == {m.name for m in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in results[0]["metrics"].values())
    # The router phase is a time box, so its request count may differ by a few.
    assert abs(results[0]["attempted"] - results[1]["attempted"]) < 200


def test_wrong_oracle_fails_the_run(monkeypatch, capsys):
    honest = phases.predictions
    monkeypatch.setattr(
        phases, "predictions", lambda model, rows: honest(model, rows) + 1
    )
    code = run.main(["--workload", "decoupled", "--smoke", "--seconds", "2",
                     "--trace", "0"])
    result = last_json(capsys)
    assert code == 1 and not result["correct"] and result["failed"] > 0


def test_accuracy_floor_fails_the_run(monkeypatch, capsys):
    strict = replace(WORKLOADS["decoupled"], accuracy_floors=(1.1, 1.1))
    monkeypatch.setitem(WORKLOADS, "decoupled", strict)
    monkeypatch.setattr(run, "smoke", lambda w: replace(
        smoke(w), accuracy_floors=w.accuracy_floors))
    code = run.main(["--workload", "decoupled", "--smoke", "--seconds", "2",
                     "--trace", "0"])
    assert code == 1 and last_json(capsys)["failed"] >= 2
