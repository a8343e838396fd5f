"""Tests for the benchmark's output checks, tracer and entry point.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import augbin.layers  # noqa: E402
from augbin import counters  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmallStream(workloads.SgdStream):
    categories = 64
    k = 4
    block = 16
    probe_count = 8


class SmallVerify(workloads.Verify):
    sizes = {"small": 37, "large": 40}


class SmallTrain(workloads.TrainEval):
    categories = 20
    rows = 50
    steps = 2


def small_stream(tmp_path):
    return SmallStream(0, tmp_path)


def test_faulted_verify_counts_as_failed(tmp_path):
    class Faulted(SmallVerify):
        def argv(self, label, seed, path):
            return super().argv(label, seed, path) + ["--fault", "skip-category-memory"]

    workload = Faulted(0, tmp_path)
    workload.setup()
    rec = workloads.Recorder(workload.labels)
    workload.run_round(0, rec)
    assert (rec.attempted, rec.failed) == (5, 5)


def test_verify_passes_and_flags_changed_report_bytes(tmp_path):
    workload = SmallVerify(0, tmp_path)
    workload.setup()
    rec = workloads.Recorder(workload.labels)
    workload.run_round(0, rec)
    workload.run_round(1, rec)
    assert (rec.attempted, rec.failed) == (10, 0)
    workload.first_bytes[("large", 0)] += b" "
    workload.run_round(2, rec)
    assert rec.failed == 1


def test_train_eval_flags_losses_that_change_between_runs(tmp_path):
    workload = SmallTrain(0, tmp_path)
    workload.setup()
    rec = workloads.Recorder(workload.labels)
    workload.run_round(0, rec)
    assert (rec.attempted, rec.failed) == (2, 0)
    workload.first_losses["augmented"][0] = (1.0).hex()
    workload.run_round(1, rec)
    assert (rec.attempted, rec.failed) == (4, 1)


def test_sgd_stream_checks_counters_and_twin_agreement(tmp_path, monkeypatch):
    workload = small_stream(tmp_path)
    workload.setup()
    rec = workloads.Recorder(workload.labels)
    workload.run_round(0, rec)
    workload.finish(rec)
    assert (rec.attempted, rec.failed) == (33, 0)  # 32 steps and the twin comparison

    real = counters.expected_counts

    def off_by_one(*args):
        expected = real(*args)
        expected.encoding_param_updates += 1
        return expected

    monkeypatch.setattr(counters, "expected_counts", off_by_one)
    workload.run_round(1, rec)
    assert rec.failed == 2

    workload.pair.onehot.encoder.cat_weights += 1.0
    workload.finish(rec)
    assert rec.failed == 3


def test_sgd_stream_counts_a_raising_step_once(tmp_path, monkeypatch):
    workload = small_stream(tmp_path)
    workload.setup()

    def raises(category, *args):
        raise workloads.NumericError(f"non-finite output for category {category}")

    monkeypatch.setattr(workload.nets["augmented"], "sgd_step", raises)
    rec = workloads.Recorder(workload.labels)
    workload.run_round(0, rec)
    # Each augmented step fails once; the broken count adds no failure.
    assert (rec.attempted, rec.failed) == (32, 16)


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "leaf")

    def body():
        leaf()
        leaf()
        time.sleep(0.002)

    tracer.wrap(body, "outer")()
    cols = tracer.columns()
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert cols["self"][0] == cols["duration"][0] - cols["duration"][1] - cols["duration"][2]
    assert cols["self"][0] >= 2_000_000
    summary = tracer.summary()
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == summary["leaf"]["s"]


def test_traced_sgd_stream_shows_bypass_and_restores_patches(tmp_path):
    original = augbin.layers.encode
    workload = small_stream(tmp_path)
    tracer = spans.Tracer()
    rec = workloads.Recorder(workload.labels, tracer)
    tracer.install()
    try:
        workload.setup()
        workload.run_round(0, rec)
    finally:
        tracer.uninstall()
    assert augbin.layers.encode is original
    summary = tracer.summary()
    assert summary["network.mean_loss"]["calls"] == 0
    assert summary["network.sgd_step"]["calls"] == 32
    assert summary["layers.effective_contribution"]["calls"] == 64  # the twin build
    # One encode per augmented forward and per update; none on the one-hot path.
    assert tracer.calls_by_label("bitcode.encode") == {"onehot": 0, "augmented": 32}


def test_reported_metrics_match_benchmark_json(tmp_path, monkeypatch):
    # The small blocks last a few ms: sample often enough to get passes.
    monkeypatch.setattr(yardstick, "SAMPLE_EVERY_S", 0.001)
    workload = small_stream(tmp_path)
    tracer = spans.Tracer()
    rec = workloads.Recorder(workload.labels, tracer)
    tracer.install()
    try:
        workload.setup()
        workload.run_round(0, rec)
    finally:
        tracer.uninstall()
    layer_metrics = run.per_layer(workload, tracer, 0.1)
    assert {name: m["unit"] for name, m in layer_metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    e2e = run.end_to_end(workload, rec, 0.1)
    assert {name: m["unit"] for name, m in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""
