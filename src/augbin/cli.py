"""Command line interface: gen, train, verify, bench.

Every option can also come from a JSON config file (``--config file.json``)
whose keys match the long flag names with hyphens replaced by underscores;
flags given on the command line win over config-file values.

Exit codes: 0 success, 1 verification failure, 2 I/O error, 64 usage error,
65 data error (unparsable input or a category missing from the vocabulary).

Architecture convention shared by train and verify: the encoder feeds the
first listed hidden width (sigmoid units); any further widths are extra
sigmoid layers; a final identity output layer matches the target width.
With no hidden widths, train uses a bare identity encoder as the output and
verify still appends its single identity output unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import numpy as np

from .bitcode import bit_width
from .counters import OpCounters, expected_counts
from .data import load_csv, load_csv_split, save_csv, synth_gen
from .errors import (
    InvalidArgumentError,
    NumericError,
    ParseError,
    RangeError,
    VocabMissError,
)
from .harness import VerifyConfig, run_verification
from .layers import ENCODERS
from .network import (
    Activation,
    NetworkConfig,
    SgdConfig,
    build_network,
    mean_loss,
    run_sgd,
)
from .report import make_report, render_report, write_report
from .rng import SplitMix64, below_draws

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_DATA = 65

FAULT_CHOICES = ("skip-category-memory",)
BENCH_STEPS = 256
BENCH_LEARNING_RATE = 0.1
BENCH_CSV_HEADER = "encoder,N,n,K,fwd_dense,fwd_sparse,updates,params,median_ns"


class UsageError(Exception):
    """Bad flags or config keys; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_DEFAULTS: dict[str, dict] = {
    "gen": {
        "seed": 0,
        "categories": 8,
        "numeric": 2,
        "rows": 100,
        "noise": 0.1,
        "out": None,
    },
    "train": {
        "data": None,
        "encoding": None,
        "folded": False,
        "lr": 0.1,
        "steps": 100,
        "hidden": "",
        "seed": 0,
        "report": None,
        "split": 0.0,
        "split_seed": 0,
        "time": False,
    },
    "verify": {
        "seed": 0,
        "categories": 37,
        "k": 8,
        "hidden": "",
        "steps": 100,
        "tolerance": 1e-12,
        "report": None,
        "fault": None,
    },
    "bench": {
        "categories_list": "16,256,4096",
        "k": 32,
        "reps": 3,
        "seed": 0,
        "out": None,
    },
}

_REQUIRED: dict[str, tuple[str, ...]] = {
    "gen": ("out",),
    "train": ("data", "encoding"),
    "verify": (),
    "bench": (),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="augbin", description="Augmented binary encoding toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    s = argparse.SUPPRESS

    gen = sub.add_parser("gen", help="generate a synthetic CSV dataset")
    gen.add_argument("--seed", type=int, default=s)
    gen.add_argument("--categories", type=int, default=s)
    gen.add_argument("--numeric", type=int, default=s)
    gen.add_argument("--rows", type=int, default=s)
    gen.add_argument("--noise", type=float, default=s)
    gen.add_argument("--out", default=s)
    gen.add_argument("--config", default=s, help="JSON config file; flags win")

    train = sub.add_parser("train", help="train one network on a CSV dataset")
    train.add_argument("--data", default=s)
    train.add_argument("--encoding", choices=tuple(ENCODERS), default=s)
    train.add_argument("--folded", action="store_true", default=s,
                       help="use the bias-folded forward arrangement")
    train.add_argument("--lr", type=float, default=s)
    train.add_argument("--steps", type=int, default=s)
    train.add_argument("--hidden", default=s, help="comma-separated widths, first is K")
    train.add_argument("--seed", type=int, default=s)
    train.add_argument("--report", default=s, help="write the run report JSON here")
    train.add_argument("--split", type=float, default=s,
                       help="held-out fraction; vocabulary comes from training rows")
    train.add_argument("--split-seed", type=int, default=s)
    train.add_argument("--time", action="store_true", default=s,
                       help="include wall-clock timings in the report")
    train.add_argument("--config", default=s, help="JSON config file; flags win")

    verify = sub.add_parser("verify", help="run the full verification suite")
    verify.add_argument("--seed", type=int, default=s)
    verify.add_argument("--categories", type=int, default=s)
    verify.add_argument("--k", type=int, default=s)
    verify.add_argument("--hidden", default=s, help="extra sigmoid widths before the output unit")
    verify.add_argument("--steps", type=int, default=s)
    verify.add_argument("--tolerance", type=float, default=s)
    verify.add_argument("--report", default=s, help="write the run report JSON here")
    verify.add_argument("--fault", choices=FAULT_CHOICES, default=s,
                        help="inject a known defect; the suite must catch it")
    verify.add_argument("--config", default=s, help="JSON config file; flags win")

    bench = sub.add_parser("bench", help="count operations across encoders and sizes")
    bench.add_argument("--categories-list", default=s, dest="categories_list")
    bench.add_argument("--k", type=int, default=s)
    bench.add_argument("--reps", type=int, default=s)
    bench.add_argument("--seed", type=int, default=s)
    bench.add_argument("--out", default=s, help="CSV output path (default stdout)")
    bench.add_argument("--config", default=s, help="JSON config file; flags win")
    return parser


def _coerce(key: str, value, default):
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    if default is None or isinstance(value, type(default)):
        return value
    if isinstance(default, bool):
        return bool(value)
    if isinstance(default, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(default, float):
        return float(value)
    if isinstance(default, str):
        return str(value)
    return value


def _load_config_file(path: str, defaults: dict) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ParseError(f"config file {path}: {err}") from None
    if not isinstance(data, dict):
        raise ParseError(f"config file {path}: top level must be an object")
    merged = {}
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        merged[name] = _coerce(name, value, defaults[name])
    return merged


def _parse_options(argv) -> tuple[str, dict]:
    namespace = _build_parser().parse_args(argv)
    provided = vars(namespace)
    command = provided.pop("command")
    config_path = provided.pop("config", None)
    options = dict(_DEFAULTS[command])
    if config_path is not None:
        options.update(_load_config_file(config_path, _DEFAULTS[command]))
    options.update(provided)
    for key in _REQUIRED[command]:
        if options[key] is None:
            raise UsageError(f"missing --{key.replace('_', '-')}")
    if "encoding" in options and options["encoding"] is not None:
        if options["encoding"] not in tuple(ENCODERS):  # a config value may be unhashable
            raise UsageError(f"unknown encoding {options['encoding']!r}")
    if options.get("fault") is not None and options["fault"] not in FAULT_CHOICES:
        raise UsageError(f"unknown fault {options['fault']!r}")
    return command, options


def _parse_widths(text: str, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if any(width < 1 for width in widths):
        raise UsageError(f"{flag} widths must be positive")
    return widths


def _cmd_gen(options: dict) -> int:
    dataset = synth_gen(
        seed=options["seed"],
        n_categories=options["categories"],
        n_numeric=options["numeric"],
        rows=options["rows"],
        noise=options["noise"],
    )
    save_csv(dataset, options["out"])
    print(f"wrote {dataset.n_rows} rows, {dataset.vocab.size} categories to {options['out']}")
    return EXIT_PASS


def _train_architecture(hidden: tuple[int, ...], target_width: int, encoder_kind: str,
                        n_categories: int, n_numeric: int, seed: int) -> NetworkConfig:
    if hidden:
        return NetworkConfig(
            encoder_kind=encoder_kind,
            n_categories=n_categories,
            n_numeric=n_numeric,
            k=hidden[0],
            hidden=(*hidden[1:], target_width),
            encoder_activation=Activation.SIGMOID,
            hidden_activation=Activation.SIGMOID,
            output_activation=Activation.IDENTITY,
            seed=seed,
        )
    return NetworkConfig(
        encoder_kind=encoder_kind,
        n_categories=n_categories,
        n_numeric=n_numeric,
        k=target_width,
        hidden=(),
        encoder_activation=Activation.IDENTITY,
        seed=seed,
    )


def _cmd_train(options: dict) -> int:
    hidden = _parse_widths(options["hidden"], "--hidden")
    eval_examples = None
    if options["split"] > 0.0:
        dataset, eval_examples = load_csv_split(
            options["data"], options["split"], options["split_seed"]
        )
    else:
        dataset = load_csv(options["data"])
    config = _train_architecture(
        hidden,
        dataset.target_width,
        options["encoding"],
        dataset.vocab.size,
        dataset.n_numeric,
        options["seed"],
    )
    network = build_network(config)
    network.folded_forward = options["folded"]
    counters = OpCounters()
    started = time.perf_counter()
    losses = run_sgd(
        network,
        list(dataset.examples()),
        SgdConfig(options["lr"], options["steps"]),
        counters,
    )
    elapsed = time.perf_counter() - started
    timings = {"train_seconds": elapsed} if options["time"] else {}
    report = make_report(
        config={
            "command": "train",
            "data": options["data"],
            "encoding": options["encoding"],
            "folded": options["folded"],
            "lr": options["lr"],
            "steps": options["steps"],
            "hidden": list(hidden),
            "split": options["split"],
            "n_categories": dataset.vocab.size,
            "n_numeric": dataset.n_numeric,
        },
        seeds={"network": options["seed"], "split": options["split_seed"]},
        losses=losses,
        counters=counters.as_dict(),
        timings=timings,
    )
    if eval_examples is not None:
        held_out = mean_loss(network, eval_examples) if eval_examples else float("nan")
        print(f"held-out mean loss {held_out:.12g} over {len(eval_examples)} rows")
    if options["report"]:
        write_report(report, options["report"])
        print(f"final loss {losses[-1]:.12g} after {options['steps']} steps; "
              f"report written to {options['report']}")
    else:
        sys.stdout.write(render_report(report))
    return EXIT_PASS


def _cmd_verify(options: dict) -> int:
    hidden = _parse_widths(options["hidden"], "--hidden")
    config = VerifyConfig(
        seed=options["seed"],
        n_categories=options["categories"],
        k=options["k"],
        hidden=hidden,
        steps=options["steps"],
        tolerance=options["tolerance"],
        fault=options["fault"],
    )
    outcome = run_verification(config)
    for name, suite in outcome.suites.items():
        status = "pass" if suite.passed else "FAIL"
        print(f"{name}: {status} ({suite.detail})")
    report = make_report(
        config={
            "command": "verify",
            "categories": options["categories"],
            "k": options["k"],
            "hidden": list(hidden),
            "steps": options["steps"],
            "tolerance": options["tolerance"],
            "fault": options["fault"],
        },
        seeds={"network": options["seed"]},
        divergence=outcome.divergence.max_output_diffs,
        counters=outcome.counters.as_dict(),
        timings={},  # empty by design: reports must be byte-reproducible
        verdicts=outcome.verdicts(),
    )
    if options["report"]:
        write_report(report, options["report"])
    else:
        sys.stdout.write(render_report(report))
    print(f"verification: {'pass' if outcome.passed else 'FAIL'}")
    return EXIT_PASS if outcome.passed else EXIT_FAIL


def _bench_schedule(n_categories: int, seed: int) -> list[int]:
    """BENCH_STEPS categories drawn uniformly from 1..N, so large tables are exercised."""
    return (below_draws(SplitMix64(seed).next_u64_block(BENCH_STEPS), n_categories) + 1).tolist()


def _bench_cell(kind: str, n_categories: int, k: int, reps: int, seed: int):
    """Time and count BENCH_STEPS training steps; counters must match closed forms."""
    network = build_network(
        NetworkConfig(
            encoder_kind=kind,
            n_categories=n_categories,
            n_numeric=0,
            k=k,
            encoder_activation=Activation.IDENTITY,
            seed=seed,
        )
    )
    width = bit_width(n_categories)
    schedule = _bench_schedule(n_categories, seed)
    expected = OpCounters()
    for category in schedule:
        cell = expected_counts(kind, n_categories, width, k, category.bit_count())
        expected.encoding_madds_dense += cell.encoding_madds_dense
        expected.encoding_madds_sparse += cell.encoding_madds_sparse
        expected.encoding_param_updates += cell.encoding_param_updates
    target = np.zeros(k)
    times = []
    measured = OpCounters()
    for _ in range(reps):
        measured.reset()
        started = time.perf_counter_ns()
        for category in schedule:
            network.sgd_step(category, (), target, BENCH_LEARNING_RATE, measured)
        times.append(time.perf_counter_ns() - started)
        if measured.as_dict() != expected.as_dict():
            raise NumericError(
                f"counter mismatch for {kind} N={n_categories}: "
                f"measured {measured.as_dict()}, expected {expected.as_dict()}"
            )
    return {
        "encoder": kind,
        "N": n_categories,
        "n": width,
        "K": k,
        "fwd_dense": measured.encoding_madds_dense,
        "fwd_sparse": measured.encoding_madds_sparse,
        "updates": measured.encoding_param_updates,
        "params": network.param_count,
        "median_ns": int(statistics.median(times)),
    }


def _cmd_bench(options: dict) -> int:
    sizes = _parse_widths(options["categories_list"], "--categories-list")
    lines = [BENCH_CSV_HEADER]
    if options["reps"] > 0:
        for n_categories in sizes:
            for kind in ENCODERS:
                row = _bench_cell(kind, n_categories, options["k"], options["reps"], options["seed"])
                lines.append(",".join(str(row[column]) for column in BENCH_CSV_HEADER.split(",")))
    text = "\n".join(lines) + "\n"
    if options["out"]:
        with open(options["out"], "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        print(f"wrote {len(lines) - 1} rows to {options['out']}")
    else:
        sys.stdout.write(text)
    return EXIT_PASS


_HANDLERS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        command, options = _parse_options(argv)
        return _HANDLERS[command](options)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else int(exc.code)
    except UsageError as err:
        print(f"augbin: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidArgumentError, RangeError) as err:
        print(f"augbin: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, VocabMissError) as err:
        print(f"augbin: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"augbin: {err}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as err:
        print(f"augbin: {err}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
