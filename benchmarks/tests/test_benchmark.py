"""Tests of the benchmark itself: inputs, tracing and the names it prints.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import coragen  # noqa: E402
import harness  # noqa: E402
import run as launcher  # noqa: E402
import tracer as tracing  # noqa: E402
from gdcn import data as gdata  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", [0, 7])
def test_generator_has_cora_shape(seed, tmp_path):
    graph = coragen.generate(seed)
    stats = coragen.graph_stats(graph.features, graph.labels, graph.edges)
    assert coragen.stats_problems(stats) == []
    assert stats["nodes"] == 2708 and stats["features"] == 1433
    assert stats["unique_edges"] == stats["edges"] == 5429
    assert 0.011 <= stats["density"] <= 0.015
    assert stats["homophily"] > 0.7

    again = coragen.generate(seed)
    assert np.array_equal(graph.features, again.features)
    assert np.array_equal(graph.edges, again.edges)

    content, cites = coragen.write_files(graph, str(tmp_path), seed)
    ds = gdata.load_content_cites(content, cites)
    assert np.array_equal(ds.features, graph.features)
    assert len(ds.edges) == 5429
    relabel = {}
    for ours, theirs in zip(graph.labels, ds.labels):
        assert relabel.setdefault(int(theirs), int(ours)) == int(ours)


def test_other_seed_gives_other_graph():
    a, b = coragen.generate(1), coragen.generate(2)
    assert not np.array_equal(a.edges, b.edges)


def test_stats_problems_reports_departures():
    graph = coragen.generate(3)
    edges = graph.edges[:-1]
    stats = coragen.graph_stats(graph.features, graph.labels, edges)
    assert any("edges" in p for p in coragen.stats_problems(stats))


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    before = {(owner, attr): getattr(owner, attr)
              for owner, attr in tracing.wrapped_names()}
    run = harness.Run("gdc4-concrete", 5, 0.0, epochs=2, setups=1)
    result = run.execute(True, str(tmp_path_factory.mktemp("traced")))
    return run, result, before


def test_traced_run_restores_every_wrapped_name(traced_run):
    _, result, before = traced_run
    assert result["correct"], result["_failures"]
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, attr


def test_restore_after_exception():
    before = {(o, a): getattr(o, a) for o, a in tracing.wrapped_names()}
    t = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            assert tracing.gtraining.forward is not before[
                (tracing.gtraining, "forward")]
            raise RuntimeError("boom")
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is original, attr


def test_tracing_only_observes(traced_run, tmp_path):
    _, result, _ = traced_run
    info = result["_info"]
    assert info["traced_loss_digest"] == info["loss_digest"]
    plain = harness.Run("gdc4-concrete", 5, 0.0, epochs=2, setups=1)
    ds, graph = harness.setup(*plain.make_inputs(str(tmp_path)))
    assert harness.loss_digest(plain.train(ds, graph)) == info["loss_digest"]


def test_traced_metrics_match_benchmark_json(traced_run):
    _, result, _ = traced_run
    names = [m["name"] for m in _benchmark_json()["per_layer"]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in names)
    assert result["metrics"]["trace.coverage_frac"]["value"] > 0.9
    assert result["metrics"]["model.forwards_per_epoch"]["value"] == 2


def test_untraced_metrics_match_benchmark_json(tmp_path):
    spec = _benchmark_json()
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == launcher.WORKLOAD_NAMES
    for name in names:
        harness.gcn_config(name)
    with pytest.raises(ValueError):
        harness.gcn_config("none")
    run = harness.Run("dropout", 2, 0.0, epochs=2, setups=1)
    result = run.execute(False, str(tmp_path))
    assert result["correct"], result["_failures"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert list(result["metrics"]) == list(end_to_end)
    assert all(result["metrics"][n]["unit"] == u for n, u in end_to_end.items())
    assert result["failed"] == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "dropout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_raising_train_counts_as_failed(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("diverged")

    monkeypatch.setattr(harness.gtraining, "train", broken)
    run = harness.Run("dropout", 2, 0.0, epochs=2, setups=1)
    result = run.execute(False, str(tmp_path))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("train raised" in f for f in result["_failures"])
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_rejected_adam_steps_count_as_failed(tmp_path, monkeypatch):
    def rejecting(tensors, grads, state, lr):
        state.rejected += 1
        return False

    monkeypatch.setattr(harness.gtraining, "adam_step", rejecting)
    run = harness.Run("dropout", 2, 0.0, epochs=2, setups=1)
    ds, graph = harness.setup(*run.make_inputs(str(tmp_path)))
    assert run.train(ds, graph) is not None
    assert any("Adam rejected 2 steps" in f for f in run.checks.failures)
    assert harness.gtraining.AdamState.__name__ == "AdamState"
