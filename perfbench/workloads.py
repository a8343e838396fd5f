"""The three benchmark workloads, driven through augbin's public API.

Each workload runs a closed loop of rounds.  A round times one unit of each
of its two variants, ``a`` and ``b``, back to back, so both see the same
machine state.  A unit is one operation (a CLI call) or one block of
``sgd_step`` calls.  A workload

* builds its inputs in :meth:`setup` from the seed alone, with augbin's own
  generators (``augbin gen``, ``synthetic_stream``, ``probe_inputs``);
* times every operation into a :class:`Recorder`;
* checks the program's outputs.  An operation that fails counts once in
  ``failed``, however many of its checks fail, so ``failed`` never exceeds
  ``attempted``.

Times are compared with the yardstick (``yardstick.py``) by their mean:
``a.rel`` and ``b.rel`` are a variant's mean operation time over the mean
yardstick pass taken inside that variant's units, every 10 ms.

Calls go through module attributes (``cli.run``, ``harness.synthetic_stream``)
so that the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
import traceback
from pathlib import Path

import jsonschema

from augbin import cli, counters, harness, network, report
from augbin.bitcode import bit_width
from augbin.errors import NumericError
from yardstick import Sampler

LEARNING_RATE = 0.1


class Recorder:
    """Operation times and yardstick passes per variant, and the attempted/failed tally.

    ``samples`` holds each operation's seconds, without the yardstick
    passes that ran inside it.  ``passes`` holds, per variant, the passes a
    :class:`Sampler` took inside its timed units; a unit is one operation
    or one block of steps.
    """

    def __init__(self, labels, tracer=None):
        self.samples: dict[str, list[float]] = {label: [] for label in labels}
        self.samplers = {label: Sampler() for label in labels}
        self.passes = {label: sampler.passes for label, sampler in self.samplers.items()}
        self.attempted = 0
        self.failed = 0
        self.tracer = tracer

    def start(self, label: str) -> Sampler:
        """Call right before a timed unit of ``label``; returns its running sampler."""
        if self.tracer is not None:
            self.tracer.begin_op(label)
        return self.samplers[label].__enter__()

    def stop(self, label: str, seconds: list[float]) -> None:
        """Call right after the unit, with the time of each of its operations."""
        self.samplers[label].__exit__()
        if self.tracer is not None:
            self.tracer.end_op()
        self.samples[label].extend(seconds)

    def relative(self, label: str) -> float:
        """Mean operation time of the variant over its mean yardstick pass."""
        return statistics.fmean(self.samples[label]) / statistics.fmean(self.passes[label])

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr)


def run_cli(argv: list[str], rec: Recorder, label: str) -> int | None:
    """Time one ``augbin`` CLI call; its own stdout is discarded.

    Returns the exit code, or None when the call raised instead of mapping
    the error to an exit code.
    """
    rec.attempted += 1
    sampler = rec.start(label)
    code = None
    with contextlib.redirect_stdout(io.StringIO()):
        spent = sampler.spent_ns
        started = time.perf_counter_ns()
        try:
            code = cli.run(argv)
        except Exception:  # an escaped error is a failed operation, not a benchmark crash
            traceback.print_exc()
        elapsed = time.perf_counter_ns() - started
        seconds = (elapsed - (sampler.spent_ns - spent)) / 1e9
    rec.stop(label, [seconds])
    return code


def _add(total: counters.OpCounters, part: counters.OpCounters) -> None:
    for key, value in part.as_dict().items():
        setattr(total, key, getattr(total, key) + value)


class Workload:
    """Shared shape: ``labels`` names variants a and b; ``totals`` maps an
    encoder kind to its summed ``OpCounters`` and the steps they cover."""

    name: str
    labels: tuple[str, str]
    traced_rounds: int
    k: int
    totals: dict[str, list]

    def finish(self, rec: Recorder) -> None:
        """End-of-run checks."""

    def raw_metrics(self, rec: Recorder) -> list[tuple[str, float, str, int]]:
        """(name, value, unit, sample count) lines in raw units."""
        return [(f"{self.raw_name}.{label}", statistics.median(samples), "s", len(samples))
                for label, samples in rec.samples.items()]


class TrainEval(Workload):
    """``augbin train`` on an ``augbin gen`` dataset, one-hot against augmented."""

    name = "train-eval"
    raw_name = "train_s"
    labels = ("onehot", "augmented")
    traced_rounds = 2
    k = 8
    categories = 200
    rows = 2000
    steps = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.data = self.workdir / "train-data.csv"
        argv = ["gen", "--seed", str(self.seed), "--categories", str(self.categories),
                "--numeric", "3", "--rows", str(self.rows), "--noise", "0.1",
                "--out", str(self.data)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"augbin gen exited with {code}")
        self.first_losses: dict[str, list[str]] = {}
        self.totals = {kind: [counters.OpCounters(), 0] for kind in self.labels}

    def argv(self, kind: str, path: Path) -> list[str]:
        return ["train", "--data", str(self.data), "--encoding", kind, "--hidden", str(self.k),
                "--lr", str(LEARNING_RATE), "--steps", str(self.steps),
                "--seed", str(self.seed), "--report", str(path)]

    def run_round(self, index: int, rec: Recorder) -> None:
        for kind in self.labels:
            path = self.workdir / f"train-{kind}.json"
            code = run_cli(self.argv(kind, path), rec, kind)
            if code != 0:
                rec.fail(f"train --encoding {kind} exited with {code}")
                continue
            self.check(kind, path, rec)

    def check(self, kind: str, path: Path, rec: Recorder) -> None:
        try:
            run = report.read_report(path)
        except (OSError, ValueError, jsonschema.ValidationError) as err:
            rec.fail(f"train {kind} report invalid: {err}")
            return
        losses = run["losses"]
        if len(losses) != self.steps + 1 or not all(math.isfinite(v) for v in losses):
            rec.fail(f"train {kind}: expected {self.steps + 1} finite losses, got {losses}")
            return
        bits = [float(v).hex() for v in losses]
        if bits != self.first_losses.setdefault(kind, bits):
            rec.fail(f"train {kind}: losses differ between identical runs")
        total = self.totals[kind]
        _add(total[0], counters.OpCounters(**run["counters"]))
        total[1] += self.steps


class SgdStream(Workload):
    """Single-example SGD on a large table: augmented net against its one-hot twin."""

    name = "sgd-stream"
    labels = ("onehot", "augmented")
    traced_rounds = 4

    categories = 65536
    k = 32
    numeric = 3
    block = 2048
    probe_count = 256

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        # Free the previous set-up first, so peak memory holds one of them.
        self.pair = self.nets = self.stream = self.probes = None
        config = network.NetworkConfig(
            encoder_kind="augmented",
            n_categories=self.categories,
            n_numeric=self.numeric,
            k=self.k,
            hidden=(8, 1),
            seed=self.seed,
        )
        self.pair = harness.build_onehot_twin(network.build_network(config))
        self.nets = {"onehot": self.pair.onehot, "augmented": self.pair.augmented}
        # Uniform over all N categories; the loop cycles through it if it runs out.
        self.stream = harness.synthetic_stream(
            self.seed, self.categories, self.numeric, 1, self.categories
        )
        self.probes = harness.probe_inputs(
            self.seed + 1, self.categories, self.numeric, self.probe_count
        )
        self.width = bit_width(self.categories)
        self.downstream = sum(layer.fan_in * layer.fan_out for layer in self.pair.augmented.layers)
        self.position = 0
        self.totals = {kind: [counters.OpCounters(), 0] for kind in self.labels}

    def expected(self, kind: str, block) -> counters.OpCounters:
        total = counters.OpCounters()
        for category, _, _ in block:
            _add(total, counters.expected_counts(
                kind, self.categories, self.width, self.k, category.bit_count()))
        total.downstream_madds = self.downstream * len(block)
        return total

    def run_round(self, index: int, rec: Recorder) -> None:
        size = len(self.stream)
        block = [self.stream[(self.position + i) % size] for i in range(self.block)]
        self.position += self.block
        order = self.labels if index % 2 == 0 else self.labels[::-1]
        for kind in order:
            step = self.nets[kind].sgd_step
            measured = counters.OpCounters()
            seconds = []
            raised = 0
            clock = time.perf_counter_ns
            sampler = rec.start(kind)
            for category, numerics, target in block:
                started = clock()
                try:
                    step(category, numerics, target, LEARNING_RATE, measured)
                except NumericError as err:
                    raised += 1
                    rec.fail(f"{kind} sgd_step on category {category}: {err}")
                ended = clock()
                # Take out the yardstick pass, if one ran inside this step.
                first, last = sampler.last
                inside = max(0, min(last, ended) - max(first, started))
                seconds.append((ended - started - inside) / 1e9)
            rec.stop(kind, seconds)
            rec.attempted += len(block)
            expected = self.expected(kind, block)
            # A step that raised has failed already, and it breaks the count.
            # Otherwise a wrong count is one failed step of the block.
            if not raised and measured.as_dict() != expected.as_dict():
                rec.fail(f"{kind} counters {measured.as_dict()} "
                         f"!= closed form {expected.as_dict()}")
            total = self.totals[kind]
            _add(total[0], measured)
            total[1] += len(block)

    def finish(self, rec: Recorder) -> None:
        # The twin comparison is an operation of its own.
        rec.attempted += 1
        steps = self.totals["augmented"][1]
        diff = harness.twin_forward_max_diff(self.pair, self.probes)
        if not diff <= harness.divergence_budget(steps):
            rec.fail(f"twin diverged by {diff:.3e} after {steps} steps")

    def raw_metrics(self, rec: Recorder) -> list[tuple[str, float, str, int]]:
        rows = []
        for kind, samples in rec.samples.items():
            n = len(samples)
            rows.append((f"step_us_p50.{kind}", 1e6 * statistics.median(samples), "us", n))
            rows.append((f"step_us_p99.{kind}", 1e6 * percentile(samples, 0.99), "us", n))
            rows.append((f"steps_per_s.{kind}", n / sum(samples), "1/s", n))
        return rows


class Verify(Workload):
    """``augbin verify`` at the default N=37 and at N=1024."""

    name = "verify"
    raw_name = "verify_s"
    labels = ("small", "large")
    traced_rounds = 1
    k = 8
    sizes = {"small": 37, "large": 1024}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def schedule(self, index: int) -> list[tuple[str, int]]:
        """(variant, seed) of each call in round ``index``.

        N=37 takes about a twentieth of N=1024, and its time varies with the
        seed: each round runs it on four of eight seeds derived from
        ``seed``, in turn, which gives its mean more samples and less
        dependence on one seed.  From the third round on, every call
        repeats one made before, so the byte-identity check applies.
        """
        small = [("small", 8 * self.seed + (4 * index + j) % 8) for j in range(4)]
        return small + [("large", self.seed)]

    def setup(self) -> None:
        self.first_bytes: dict[tuple[str, int], bytes] = {}
        self.totals = {"augmented": [counters.OpCounters(), 0]}

    def argv(self, label: str, seed: int, path: Path) -> list[str]:
        return ["verify", "--seed", str(seed), "--categories", str(self.sizes[label]),
                "--k", str(self.k), "--report", str(path)]

    def run_round(self, index: int, rec: Recorder) -> None:
        for label, seed in self.schedule(index):
            path = self.workdir / f"verify-{label}-{seed}.json"
            code = run_cli(self.argv(label, seed, path), rec, label)
            if code != 0:
                rec.fail(f"verify {label} --seed {seed} exited with {code}")
                continue
            self.check((label, seed), path, rec)

    def check(self, key: tuple[str, int], path: Path, rec: Recorder) -> None:
        try:
            data = path.read_bytes()
            run = json.loads(data)
            report.validate_report(run)
        except (OSError, ValueError, jsonschema.ValidationError) as err:
            rec.fail(f"verify {key} report invalid: {err}")
            return
        verdicts = run["verdicts"]
        if not verdicts or not all(verdicts.values()):
            rec.fail(f"verify {key}: failing suites {verdicts}")
            return
        if data != self.first_bytes.setdefault(key, data):
            rec.fail(f"verify {key}: report bytes differ between identical runs")
        total = self.totals["augmented"]
        _add(total[0], counters.OpCounters(**run["counters"]))
        total[1] += run["config"]["steps"]


WORKLOADS = {cls.name: cls for cls in (TrainEval, SgdStream, Verify)}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]
