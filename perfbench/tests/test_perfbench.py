"""Tests of the benchmark itself, at tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, run, spec
from perfbench.aio import run_aio
from perfbench.common import BenchmarkError, RunRecord
from perfbench.des import run_des
from perfbench.probes import SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def tiny(wl):
    """The same workload with a load short enough for a unit test."""
    if wl.runtime == "aio":
        return dataclasses.replace(wl, load=0.8, warmup=0.2)
    crash_at_ms = 1_000.0 if wl.crash_at_ms is not None else None
    return dataclasses.replace(wl, load=2_500.0, warmup=500.0,
                               crash_at_ms=crash_at_ms)


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(spec, "WORKLOADS", {
        name: tiny(wl) for name, wl in spec.WORKLOADS.items()})
    monkeypatch.setattr(harness, "COMPANIONS", {
        name: tuple((tiny(wl), names) for wl, names in companions)
        for name, companions in spec.COMPANIONS.items()})


def run_cli(capsys, *argv):
    status = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return status, lines


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny_workloads, capsys, tmp_path,
                                        monkeypatch, workload, trace):
    monkeypatch.setattr(run, "SPANS_DIR", str(tmp_path))
    status, lines = run_cli(capsys, "--workload", workload, "--seed", "3",
                            "--seconds", "0", "--trace", str(trace))
    assert status == 0
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1
    assert 0 <= doc["failed"] <= doc["attempted"]
    assert list(doc["metrics"]) == spec.names(trace=bool(trace))
    units = spec.units()
    for name, metric in doc["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        # The human-readable table names the metric with its unit too.
        assert any(line.startswith(name + " ") and units[name] in line
                   for line in lines[:-1])
    if not trace:
        for name in spec.names(trace=False):
            assert doc["metrics"][name]["value"] > 0, name
    elif workload == "des-retwis-cpc":
        # The companion runs fill the failover and asyncio metrics.
        for name in ("raft.elections_started", "wal.restart.self_us",
                     "unavailable_ms", "runtime.wire.bytes_per_msg",
                     "runtime.aio.commits_per_wall_s"):
            assert doc["metrics"][name]["value"] > 0, name


def test_planted_divergent_replica_fails_the_run(tiny_workloads, capsys):
    status, lines = run_cli(capsys, "--workload", "des-retwis-cpc",
                            "--seed", "3", "--seconds", "0",
                            "--plant-divergence")
    assert status == 0
    assert json.loads(lines[-1])["correct"] is False
    assert any("replica-divergence" in line for line in lines)


def test_planted_divergence_is_caught_on_asyncio():
    rec, _ = run_aio(tiny(spec.ASYNCIO), 3, plant=True)
    assert any("replica-divergence" in v for v in rec.violations)


def test_traced_and_untraced_des_runs_agree_on_counts():
    wl = tiny(spec.WORKLOADS["des-retwis-cpc"])
    plain = run_des(wl, 5)
    with SpanRecorder() as recorder:
        traced = run_des(wl, 5)
    assert len(recorder) > 0
    assert recorder.calls["Network.send"] == plain.counters["messages_sent"]
    assert traced.fingerprint() == plain.fingerprint()
    assert sum(recorder.sent_by_type.values()) == \
        plain.counters["messages_sent"]


def test_recorder_restores_the_program():
    from repro.sim.network import Network
    original = Network.send
    with SpanRecorder():
        assert Network.send is not original
    assert Network.send is original


def test_count_mismatch_is_a_benchmark_error():
    a, b = RunRecord(committed=3), RunRecord(committed=4)
    with pytest.raises(BenchmarkError):
        harness._check_same(spec.WORKLOADS["des-retwis-cpc"], a, b, "runs")


def test_predictions_name_known_metrics_and_workloads():
    with open(os.path.join(ROOT, "perfbench", "predictions.json")) as fh:
        doc = json.load(fh)
    layer_names = set(spec.names(trace=True))
    moved_names = set(spec.names(trace=False)) | layer_names
    for row in doc["predictions"]:
        for name in row["metrics"]:
            assert name.replace("<MessageType>", "AppendEntries") \
                in layer_names, name
        assert set(row["moves"]) <= moved_names
        assert set(row["on"]) | set(row["none"]) <= set(spec.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "des-retwis-cpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
