"""augbin benchmark: one seeded workload, end-to-end or traced.

    python3 perfbench/run.py --workload {train-eval,sgd-stream,verify} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout: it imports augbin from ``src/`` next to this
directory and exits with code 2 when that is missing.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; earlier lines repeat the workload's metrics
under the names of their layer and encoder.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
SETUP_PASSES = 50
VARIANTS = ("a", "b")
KINDS = ("onehot", "binary", "augmented")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# Times ``import augbin`` (numpy and jsonschema too) inside a fresh
# interpreter, so it can be repeated, then yardstick passes right after it.
_IMPORT_PROBE = (
    "import statistics, sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import augbin; t = time.perf_counter() - t; from yardstick import passes; "
    f"print(t, statistics.fmean(passes({2 * SETUP_PASSES})))"
)


def import_augbin() -> None:
    """Import augbin from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "augbin" / "__init__.py").is_file():
        raise ImportError(f"no augbin package under {SRC}")
    sys.path.insert(0, str(SRC))
    import augbin

    if Path(augbin.__file__).resolve().parent != (SRC / "augbin").resolve():
        raise ImportError(f"augbin imported from {augbin.__file__}, not from {SRC}")


def import_times() -> list[tuple[float, float]]:
    """(seconds, yardstick passes) of ``import augbin`` in each of a few fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
                               capture_output=True, text=True, check=True, timeout=120)
        seconds, mean_pass = map(float, probe.stdout.split())
        times.append((seconds, seconds / mean_pass))
    return times


def setup_times(workload) -> list[tuple[float, float]]:
    """(seconds, yardstick passes) of each of a few in-process set-ups."""
    from yardstick import passes

    times = []
    for _ in range(SETUP_REPEATS):
        before = passes(SETUP_PASSES)
        started = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - started
        mean_pass = statistics.fmean(before + passes(SETUP_PASSES))
        times.append((seconds, seconds / mean_pass))
    return times


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, rec, setup_s):
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for variant, label in zip(VARIANTS, workload.labels):
        metrics[f"{variant}.rel"] = metric(rec.relative(label), "yardstick")
    return metrics


def per_layer(workload, tracer, overhead_s):
    spans = tracer.summary()

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    metrics = {}
    for name in ("network.mean_loss", "bitcode.encode", "layers.effective_contribution"):
        metrics[f"{name}.s"] = metric(span(name, "s"), "s")
        metrics[f"{name}.calls"] = metric(span(name, "calls"), "count")
    by_label = tracer.calls_by_label("bitcode.encode")
    for variant, label in zip(VARIANTS, workload.labels):
        metrics[f"bitcode.encode.calls.{variant}"] = metric(by_label.get(label, 0), "count")
    for method in ("forward", "apply_update"):
        for kind in KINDS:
            name = f"layers.{method}.{kind}"
            metrics[f"layers.{method}.s.{kind}"] = metric(span(name, "s"), "s")
            metrics[f"layers.{method}.calls.{kind}"] = metric(span(name, "calls"), "count")
    for name in ("network.forward", "network.sgd_step"):
        metrics[f"{name}.self_s"] = metric(span(name, "self_s"), "s")
    for name in (
        "layers.contributions_matrix", "network.dense_forward", "network.backprop_deltas",
        "network.build_network", "harness.build_onehot_twin", "harness.synthetic_stream",
        "harness.isolation_probe", "harness.interference_errors", "harness.lockstep_train",
        "harness.twin_forward_max_diff", "harness.brute_force_check",
        "gradcheck.check_gradients", "data.load_csv", "report.write_report",
    ):
        metrics[f"{name}.s"] = metric(span(name, "s"), "s")
    for kind in ("onehot", "augmented"):
        # verify trains only the augmented net: its one-hot counters read 0.
        counts, steps = workload.totals.get(kind, (None, 0))
        per_step = {key: value / steps for key, value in counts.as_dict().items()} if steps else {}
        updates = per_step.get("encoding_param_updates", 0)
        metrics[f"counters.encoding_madds_sparse_per_step.{kind}"] = metric(
            per_step.get("encoding_madds_sparse", 0), "madd/step")
        metrics[f"counters.encoding_param_updates_per_step.{kind}"] = metric(updates, "update/step")
        metrics[f"counters.downstream_madds_per_step.{kind}"] = metric(
            per_step.get("downstream_madds", 0), "madd/step")
        metrics[f"counters.useful_update_ratio.{kind}"] = metric(
            workload.k / updates if updates else 0, "ratio")
    metrics["trace.overhead_s"] = metric(overhead_s, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process, one thread: numpy must not start a BLAS thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_augbin()
    except ImportError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            result = traced_run(workload)
        else:
            result = untraced_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(workload, seconds):
    from workloads import Recorder
    from yardstick import REFERENCE_PASS_S

    # Set-up is timed in yardstick passes, like the operations, and given
    # in seconds at the reference pass time: raw seconds follow the
    # machine's swings.  The raw median is printed beside it.
    imports, setups = import_times(), setup_times(workload)
    setup_raw_s = (statistics.median(s for s, _ in imports)
                   + statistics.median(s for s, _ in setups))
    setup_s = REFERENCE_PASS_S * (statistics.median(p for _, p in imports)
                                  + statistics.median(p for _, p in setups))
    rec = Recorder(workload.labels)
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        workload.run_round(index, rec)
        index += 1
    workload.finish(rec)
    all_passes = [p for passes in rec.passes.values() for p in passes]
    for name, value, unit, count in [
        ("setup_s", setup_s, "s", SETUP_REPEATS),
        ("setup_raw_s", setup_raw_s, "s", SETUP_REPEATS),
        ("yardstick_ms", 1e3 * statistics.fmean(all_passes), "ms", len(all_passes)),
        *workload.raw_metrics(rec),
    ]:
        print(f"{name:28s} {value:14.6g} {unit:4s} (n={count})")
    print(f"{'failed/attempted':28s} {rec.failed:>7d}/{rec.attempted}")
    return result_line([rec], end_to_end(workload, rec, setup_s))


def traced_run(workload):
    """Fixed work: a traced set-up, then untraced and traced rounds in turn."""
    from spans import Tracer
    from workloads import Recorder

    tracer = Tracer()
    plain = Recorder(workload.labels)
    traced = Recorder(workload.labels, tracer)
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    for index in range(workload.traced_rounds):
        # Alternate which goes first so warm-up does not land on one side.
        for rec in ((plain, traced) if index % 2 == 0 else (traced, plain)):
            if rec is traced:
                tracer.install()
            try:
                workload.run_round(index, rec)
            finally:
                tracer.uninstall()
    workload.finish(traced)
    tracer.write(OUT_DIR / f"spans-{workload.name}.npz")
    # Added time per operation, with each side in its own yardstick passes
    # so that the machine's bursts cancel, back in seconds at the untraced
    # side's pass time, times the number of traced operations.
    overhead_s = sum(
        len(traced.samples[label])
        * (traced.relative(label) - plain.relative(label))
        * statistics.fmean(plain.passes[label])
        for label in workload.labels
    )
    metrics = per_layer(workload, tracer, overhead_s)
    for name, value in metrics.items():
        print(f"{name:48s} {value['value']:14.6g} {value['unit']}")
    return result_line([plain, traced], metrics)


def result_line(recs, metrics):
    failed = sum(rec.failed for rec in recs)
    return {
        "correct": failed == 0,
        "attempted": sum(rec.attempted for rec in recs),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
