"""Command line interface: gen, train, verify, bench.

Every option can also come from a JSON config file (``--config file.json``)
whose keys match the long flag names with hyphens replaced by underscores.
Each value is read as the text of its flag, by the same parser, ahead of the
command-line flags, so those win.

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
import functools
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
    Batch,
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

BENCH_STEPS = 256
BENCH_LEARNING_RATE = 0.1
BENCH_CSV_HEADER = "encoder,N,n,K,fwd_dense,fwd_sparse,updates,params,median_ns"

# No argparse ``required=True``: a config file may supply these, and it would
# change the usage text.
_REQUIRED = {"gen": ("out",), "train": ("data", "encoding")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidArgumentError(message)


def _widths(text: str) -> tuple[int, ...]:
    """Argparse type for comma-separated positive widths; '' means none."""
    text = text.strip()
    if not text:
        return ()
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}"
        ) from None
    if any(width < 1 for width in widths):
        raise argparse.ArgumentTypeError("widths must be positive")
    return widths


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on first use, not at import.

    ``parse_args`` leaves a parser as it found it, so every call can share it.
    """
    parser = _Parser(prog="augbin", description="Augmented binary encoding toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", help="generate a synthetic CSV dataset")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--categories", type=int, default=8)
    gen.add_argument("--numeric", type=int, default=2)
    gen.add_argument("--rows", type=int, default=100)
    gen.add_argument("--noise", type=float, default=0.1)
    gen.add_argument("--out")

    train = sub.add_parser("train", help="train one network on a CSV dataset")
    train.add_argument("--data")
    train.add_argument("--encoding", choices=tuple(ENCODERS))
    train.add_argument("--folded", action="store_true",
                       help="use the bias-folded forward arrangement")
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--steps", type=int, default=100)
    train.add_argument("--hidden", type=_widths, default=(),
                       help="comma-separated widths, first is K")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--report", help="write the run report JSON here")
    train.add_argument("--split", type=float, default=0.0,
                       help="held-out fraction; vocabulary comes from training rows")
    train.add_argument("--split-seed", type=int, default=0)
    train.add_argument("--time", action="store_true",
                       help="include wall-clock timings in the report")

    verify = sub.add_parser("verify", help="run the full verification suite")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--categories", type=int, default=37)
    verify.add_argument("--k", type=int, default=8)
    verify.add_argument("--hidden", type=_widths, default=(),
                        help="extra sigmoid widths before the output unit")
    verify.add_argument("--steps", type=int, default=100)
    verify.add_argument("--tolerance", type=float, default=1e-12)
    verify.add_argument("--report", help="write the run report JSON here")
    verify.add_argument("--fault", choices=("skip-category-memory",),
                        help="inject a known defect; the suite must catch it")

    bench = sub.add_parser("bench", help="count operations across encoders and sizes")
    bench.add_argument("--categories-list", type=_widths, default=(16, 256, 4096))
    bench.add_argument("--k", type=int, default=32)
    bench.add_argument("--reps", type=int, default=3)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", help="CSV output path (default stdout)")

    for command in sub.choices.values():
        command.add_argument("--config", help="JSON config file; flags win")
    return parser


def _config_text(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _config_flags(path: str, options: dict) -> list[str]:
    """The config file's keys as ``--flag=value`` text for the command's parser.

    ``options`` is the command line's parse, so a key's current value tells
    its kind: a bool is a switch, a tuple a width list.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ParseError(f"config file {path}: {err}") from None
    if not isinstance(data, dict):
        raise ParseError(f"config file {path}: top level must be an object")
    flags = []
    for key, value in data.items():
        name = key.replace("-", "_")
        if name not in options or name in ("command", "config"):
            raise InvalidArgumentError(f"unknown config key {key!r}")
        flag = "--" + name.replace("_", "-")
        if value is None:
            continue
        if isinstance(options[name], bool):
            if not isinstance(value, bool):
                raise InvalidArgumentError(f"config key {key!r} takes true or false")
            if value:
                flags.append(flag)
        elif isinstance(value, list):
            if not isinstance(options[name], tuple):
                raise InvalidArgumentError(f"config key {key!r} takes no list")
            flags.append(f"{flag}={','.join(map(_config_text, value))}")
        else:
            flags.append(f"{flag}={_config_text(value)}")
    return flags


def _parse_options(argv) -> tuple[str, dict]:
    """Parse the flags; a config file's flags go first, so the command line wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    options = vars(parser.parse_args(argv))
    if options["config"] is not None:
        flags = _config_flags(options["config"], options)
        options = vars(parser.parse_args([*argv[:1], *flags, *argv[1:]]))
    command = options.pop("command")
    del options["config"]
    for key in _REQUIRED.get(command, ()):
        if options[key] is None:
            raise InvalidArgumentError(f"missing --{key}")
    return command, options


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
    k, *widths = (*hidden, target_width)
    return NetworkConfig(
        encoder_kind=encoder_kind,
        n_categories=n_categories,
        n_numeric=n_numeric,
        k=k,
        hidden=tuple(widths),
        encoder_activation=Activation.SIGMOID if hidden else Activation.IDENTITY,
        seed=seed,
    )


def _cmd_train(options: dict) -> int:
    hidden = options["hidden"]
    if not 0.0 <= options["split"] < 1.0:
        raise InvalidArgumentError(f"--split must be in [0, 1), got {options['split']}")
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
        Batch(np.array(dataset.categories, dtype=np.int64), dataset.numerics, dataset.targets),
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
    hidden = options["hidden"]
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
    if options["reps"] < 0:
        raise InvalidArgumentError(f"--reps must be >= 0, got {options['reps']}")
    lines = [BENCH_CSV_HEADER]
    if options["reps"] > 0:
        for n_categories in options["categories_list"]:
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
    """Entry point; returns the process exit code instead of raising.

    numpy's floating-point warnings are off for the whole command: every
    check that matters raises ``NumericError``, which prints one line.
    """
    try:
        with np.errstate(all="ignore"):
            command, options = _parse_options(argv)
            return _HANDLERS[command](options)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else int(exc.code)
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
