"""Command-line behavior: subcommands, exit codes, config merging."""

import json
import warnings

import pytest

import augbin.data
import augbin.network
from augbin import read_report, validate_report
from augbin.cli import (
    BENCH_CSV_HEADER,
    BENCH_STEPS,
    EXIT_DATA,
    EXIT_FAIL,
    EXIT_IO,
    EXIT_PASS,
    EXIT_USAGE,
    _bench_schedule,
    _build_parser,
    _parse_options,
    run,
)


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "data.csv"
    code = run(["gen", "--seed", "1", "--categories", "4", "--numeric", "2",
                "--rows", "100", "--noise", "0.1", "--out", str(path)])
    assert code == EXIT_PASS
    return path


def test_gen_writes_header_plus_rows(dataset_path):
    lines = dataset_path.read_text().splitlines()
    assert len(lines) == 101
    assert lines[0] == "category,x1,x2,target"


def test_gen_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["gen", "--seed", "9", "--rows", "50", "--out", str(a)]) == EXIT_PASS
    assert run(["gen", "--seed", "9", "--rows", "50", "--out", str(b)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_gen_requires_out():
    assert run(["gen", "--seed", "1"]) == EXIT_USAGE


def test_gen_rejects_zero_rows(tmp_path):
    code = run(["gen", "--rows", "0", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE


def test_gen_io_failure(tmp_path):
    code = run(["gen", "--out", str(tmp_path / "nodir" / "x.csv")])
    assert code == EXIT_IO


def test_train_writes_valid_report(dataset_path, tmp_path):
    report_path = tmp_path / "report.json"
    code = run(["train", "--data", str(dataset_path), "--encoding", "augmented",
                "--hidden", "8", "--steps", "10", "--seed", "3",
                "--report", str(report_path)])
    assert code == EXIT_PASS
    report = read_report(report_path)
    assert len(report["losses"]) == 11
    assert report["config"]["encoding"] == "augmented"
    assert report["timings"] == {}
    assert report["counters"]["encoding_param_updates"] > 0


def test_train_zero_steps_reports_initial_loss_only(dataset_path, tmp_path):
    report_path = tmp_path / "zero.json"
    code = run(["train", "--data", str(dataset_path), "--encoding", "onehot",
                "--steps", "0", "--report", str(report_path)])
    assert code == EXIT_PASS
    assert len(read_report(report_path)["losses"]) == 1


def test_train_prints_report_without_report_flag(dataset_path, capsys):
    code = run(["train", "--data", str(dataset_path), "--encoding", "binary",
                "--steps", "2"])
    assert code == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    validate_report(report)


def test_train_folded_matches_unfolded_final_loss(dataset_path, tmp_path):
    plain = tmp_path / "plain.json"
    folded = tmp_path / "folded.json"
    base = ["train", "--data", str(dataset_path), "--encoding", "augmented",
            "--hidden", "8", "--steps", "30", "--lr", "0.1", "--seed", "3"]
    assert run(base + ["--report", str(plain)]) == EXIT_PASS
    assert run(base + ["--folded", "--report", str(folded)]) == EXIT_PASS
    loss_plain = read_report(plain)["losses"][-1]
    loss_folded = read_report(folded)["losses"][-1]
    assert abs(loss_plain - loss_folded) <= 1e-10


def test_train_loss_decreases_on_noise_free_data(tmp_path):
    data = tmp_path / "clean.csv"
    assert run(["gen", "--seed", "2", "--categories", "4", "--numeric", "1",
                "--rows", "40", "--noise", "0", "--out", str(data)]) == EXIT_PASS
    report_path = tmp_path / "clean.json"
    assert run(["train", "--data", str(data), "--encoding", "onehot",
                "--lr", "0.1", "--steps", "100", "--report", str(report_path)]) == EXIT_PASS
    losses = read_report(report_path)["losses"]
    # per-example steps are not monotone in the mean loss, but the trend must be
    assert losses[10] < losses[0]
    assert losses[-1] < 0.05 * losses[0]


def test_train_time_flag_records_duration(dataset_path, tmp_path):
    report_path = tmp_path / "timed.json"
    code = run(["train", "--data", str(dataset_path), "--encoding", "onehot",
                "--steps", "2", "--time", "--report", str(report_path)])
    assert code == EXIT_PASS
    report = read_report(report_path)
    assert "train_seconds" in report["timings"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_train_diverging_learning_rate_exits_1_without_report(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["gen", "--seed", "1", "--categories", "8", "--rows", "50",
                "--out", str(data)]) == EXIT_PASS
    report_path = tmp_path / "x.json"
    code = run(["train", "--data", str(data), "--encoding", "onehot", "--lr", "1e160",
                "--steps", "1", "--report", str(report_path)])
    assert code == EXIT_FAIL
    assert not report_path.exists()


def test_train_missing_data_file():
    assert run(["train", "--data", "no-such.csv", "--encoding", "onehot"]) == EXIT_IO


def test_train_unknown_encoding(dataset_path):
    assert run(["train", "--data", str(dataset_path), "--encoding", "embedding"]) == EXIT_USAGE


def test_train_requires_data_and_encoding():
    assert run(["train", "--encoding", "onehot"]) == EXIT_USAGE
    assert run(["train", "--data", "x.csv"]) == EXIT_USAGE


def test_train_bad_numeric_token(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("category,x1,target\na,NaN,1.0\n")
    assert run(["train", "--data", str(path), "--encoding", "onehot"]) == EXIT_DATA


def test_train_duplicate_header_names_are_a_data_error(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("c,x,x,t\na,0.5,0.25,1.0\n")
    assert run(["train", "--data", str(path), "--encoding", "onehot"]) == EXIT_DATA
    assert "distinct" in capsys.readouterr().err


def test_train_data_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"category,x1,target\n\xe9t\xe9,0.5,1.0\n")
    assert run(["train", "--data", str(path), "--encoding", "onehot"]) == EXIT_DATA


def test_train_reports_a_blank_data_line_as_a_data_error(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("category,x1,target\na,0.5,1.0\n\nb,0.25,2.0\n")
    assert run(["train", "--data", str(path), "--encoding", "onehot"]) == EXIT_DATA
    assert capsys.readouterr().err == "augbin: expected 3 cells, found 0 (data row 2)\n"


def test_train_reports_a_field_over_the_csv_limit_as_a_data_error(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(f"category,x1,target\na,0.5,1.0\n{'b' * 200_000},0.25,2.0\n")
    assert run(["train", "--data", str(path), "--encoding", "onehot", "--steps", "1"]) == EXIT_DATA
    assert capsys.readouterr().err == "augbin: field larger than field limit (131072) (data row 2)\n"


def test_train_hands_run_sgd_the_dataset_arrays(dataset_path, monkeypatch, capsys):
    calls = []

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(augbin.network, "stack_examples")
    counting(augbin.data.Dataset, "examples")
    assert run(["train", "--data", str(dataset_path), "--encoding", "augmented",
                "--hidden", "4", "--steps", "3"]) == EXIT_PASS
    assert len(json.loads(capsys.readouterr().out)["losses"]) == 4
    assert calls == []


@pytest.mark.parametrize("split", ["-0.5", "nan", "1.0", "inf"])
def test_train_rejects_a_split_outside_0_to_1_before_reading(split, capsys):
    code = run(["train", "--data", "no-such.csv", "--encoding", "onehot", "--split", split])
    assert code == EXIT_USAGE
    assert "--split" in capsys.readouterr().err


def test_train_split_zero_means_no_split(dataset_path, capsys):
    assert run(["train", "--data", str(dataset_path), "--encoding", "onehot",
                "--steps", "2", "--split", "0"]) == EXIT_PASS
    assert "held-out" not in capsys.readouterr().out


def test_train_rejects_an_infinite_learning_rate_by_name(dataset_path, capsys):
    assert run(["train", "--data", str(dataset_path), "--encoding", "onehot",
                "--lr", "inf", "--steps", "1"]) == EXIT_USAGE
    assert "learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_gen_rejects_non_finite_noise_by_name(noise, tmp_path, capsys):
    code = run(["gen", "--noise", noise, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "noise" in capsys.readouterr().err


def test_train_split_vocab_miss(tmp_path):
    path = tmp_path / "rare.csv"
    path.write_text(
        "category,x1,target\n"
        "a,0.1,1.0\na,0.2,1.1\na,0.3,0.9\nb,0.5,2.0\n"
    )
    codes = {
        run(["train", "--data", str(path), "--encoding", "onehot", "--steps", "1",
             "--split", "0.25", "--split-seed", str(seed)])
        for seed in range(6)
    }
    assert EXIT_DATA in codes  # some split holds out the only 'b' row
    assert EXIT_PASS in codes


def test_verify_passes_and_reports(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    code = run(["verify", "--steps", "20", "--report", str(report_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "verification: pass" in out
    report = read_report(report_path)
    assert all(report["verdicts"].values())
    assert len(report["divergence"]) == 20
    assert report["timings"] == {}


def test_verify_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["verify", "--steps", "15", "--report", str(a)]) == EXIT_PASS
    assert run(["verify", "--steps", "15", "--report", str(b)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_verify_zero_tolerance_fails():
    assert run(["verify", "--steps", "10", "--tolerance", "0"]) == EXIT_FAIL


@pytest.mark.parametrize("tolerance", ["nan", "-1"])
def test_verify_rejects_a_tolerance_below_zero_or_nan(tolerance, capsys):
    assert run(["verify", "--steps", "5", f"--tolerance={tolerance}"]) == EXIT_USAGE
    assert "tolerance" in capsys.readouterr().err


def test_verify_negative_steps_names_steps(capsys):
    assert run(["verify", "--steps", "-1"]) == EXIT_USAGE
    assert "steps must be >= 0" in capsys.readouterr().err


def test_verify_fault_injection_detected(tmp_path, capsys):
    report_path = tmp_path / "fault.json"
    code = run(["verify", "--steps", "10", "--fault", "skip-category-memory",
                "--report", str(report_path)])
    assert code == EXIT_FAIL
    assert read_report(report_path)["verdicts"]["isolation"] is False


def test_bench_counters_and_growth(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--categories-list", "16,256", "--k", "8",
                "--reps", "2", "--out", str(out)])
    assert code == EXIT_PASS
    lines = out.read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert len(rows) == 6
    onehot = {int(r["N"]): int(r["fwd_dense"]) for r in rows if r["encoder"] == "onehot"}
    augmented = {int(r["N"]): int(r["fwd_dense"]) for r in rows if r["encoder"] == "augmented"}
    # one-hot dense work scales with N; augmented with the bit width
    assert onehot[256] == onehot[16] * 16
    assert augmented[256] < onehot[256]


def test_bench_schedule_reaches_the_whole_table_and_is_seeded():
    schedule = _bench_schedule(256, seed=0)
    assert len(schedule) == BENCH_STEPS
    assert all(1 <= category <= 256 for category in schedule)
    assert max(schedule) > 128
    assert _bench_schedule(256, seed=0) == schedule
    assert _bench_schedule(256, seed=1) != schedule


def test_bench_zero_reps_gives_header_only(capsys):
    assert run(["bench", "--reps", "0"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.strip() == BENCH_CSV_HEADER


def test_bench_rejects_negative_reps(capsys):
    assert run(["bench", "--reps", "-1", "--categories-list", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--reps" in captured.err


def test_config_file_supplies_defaults_flags_win(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"steps": 12, "categories": 9}))
    report_path = tmp_path / "merged.json"
    code = run(["verify", "--config", str(config), "--steps", "5",
                "--report", str(report_path)])
    assert code == EXIT_PASS
    merged = read_report(report_path)["config"]
    assert merged["steps"] == 5  # flag beats config file
    assert merged["categories"] == 9


def test_config_file_unknown_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stepz": 12}))
    assert run(["verify", "--config", str(config)]) == EXIT_USAGE


def test_config_file_unknown_encoding_object(dataset_path, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"encoding": {"kind": "onehot"}}))
    assert run(["train", "--data", str(dataset_path), "--config", str(config)]) == EXIT_USAGE


def test_config_file_bad_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{nope")
    assert run(["verify", "--config", str(config)]) == EXIT_DATA


def test_config_file_not_utf8(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'\xff\xfe{}')
    assert run(["verify", "--config", str(config)]) == EXIT_DATA


def test_config_file_missing(tmp_path):
    assert run(["verify", "--config", str(tmp_path / "none.json")]) == EXIT_IO


def test_config_file_list_value_for_hidden(dataset_path, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"hidden": [8], "steps": 2,
                                  "data": str(dataset_path), "encoding": "augmented"}))
    report_path = tmp_path / "fromconfig.json"
    assert run(["train", "--config", str(config), "--report", str(report_path)]) == EXIT_PASS
    assert read_report(report_path)["config"]["hidden"] == [8]


@pytest.mark.parametrize(
    "argv, config, named",
    [
        pytest.param(["verify"], {"steps": 2.7}, "--steps", id="int"),
        pytest.param(["verify"], {"steps": True}, "--steps", id="int-bool"),
        pytest.param(["verify"], {"tolerance": "tiny"}, "--tolerance", id="float"),
        pytest.param(["verify"], {"tolerance": [1]}, "'tolerance'", id="float-list"),
        pytest.param(["train", "--data", "d.csv"], {"encoding": ["onehot"]}, "'encoding'",
                     id="choice"),
        pytest.param(["train", "--data", "d.csv", "--encoding", "onehot"], {"folded": "no"},
                     "'folded'", id="switch"),
        pytest.param(["train", "--data", "d.csv", "--encoding", "onehot"], {"time": 1},
                     "'time'", id="switch-int"),
        pytest.param(["verify"], {"hidden": [8, "x"]}, "--hidden", id="width-list"),
        pytest.param(["bench"], {"categories_list": [16, 0]}, "--categories-list",
                     id="width-zero"),
        pytest.param(["verify"], {"steps": "abc"}, "--steps", id="string"),
        pytest.param(["train", "--encoding", "onehot"], {"data": None}, "--data",
                     id="null-required"),
    ],
)
def test_config_file_bad_value_is_a_usage_error(argv, config, named, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run([*argv, "--config", str(path)]) == EXIT_USAGE
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("augbin: ")
    assert named in lines[0]


_EVERY_OPTION = {
    "train": (
        {"data": "d.csv", "encoding": "binary", "folded": True, "lr": 0.05, "steps": 7,
         "hidden": [8, 3], "seed": 4, "report": "r.json", "split": 0.25, "split_seed": 2,
         "time": True},
        ["--data", "d.csv", "--encoding", "binary", "--folded", "--lr", "0.05", "--steps", "7",
         "--hidden", "8,3", "--seed", "4", "--report", "r.json", "--split", "0.25",
         "--split-seed", "2", "--time"],
    ),
    "verify": (
        {"seed": 3, "categories": 12, "k": 5, "hidden": [4], "steps": 9, "tolerance": 1e-9,
         "report": "v.json", "fault": "skip-category-memory"},
        ["--seed", "3", "--categories", "12", "--k", "5", "--hidden", "4", "--steps", "9",
         "--tolerance", "1e-9", "--report", "v.json", "--fault", "skip-category-memory"],
    ),
}


@pytest.mark.parametrize("command", sorted(_EVERY_OPTION))
def test_config_file_gives_the_options_of_the_same_flags(command, tmp_path):
    config, flags = _EVERY_OPTION[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    from_file = _parse_options([command, "--config", str(path)])
    assert from_file == _parse_options([command, *flags])
    typed = {key: tuple(value) if isinstance(value, list) else value
             for key, value in config.items()}
    assert from_file == (command, typed)  # every option, parsed to its type


def test_config_file_null_means_not_given(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": None, "fault": None, "hidden": None}))
    assert _parse_options(["verify", "--config", str(path)]) == _parse_options(["verify"])


def test_config_file_false_switch_leaves_the_flag_to_win(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"folded": False, "time": False}))
    base = ["train", "--data", "d.csv", "--encoding", "onehot", "--config", str(path)]
    assert _parse_options(base)[1]["folded"] is False
    assert _parse_options([*base, "--folded"])[1]["folded"] is True


@pytest.mark.parametrize("key", ["help", "config", "command", "categories"])
def test_config_file_rejects_keys_that_are_not_options(key, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: True}))
    assert run(["bench", "--config", str(path)]) == EXIT_USAGE


def test_unknown_subcommand():
    assert run(["frobnicate"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "gen" in capsys.readouterr().out


def test_bad_hidden_flag(dataset_path):
    code = run(["train", "--data", str(dataset_path), "--encoding", "onehot",
                "--hidden", "8,x"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("kind", ["onehot", "binary", "augmented"])
def test_train_overflow_prints_one_line_and_no_warning(kind, dataset_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(["train", "--data", str(dataset_path), "--encoding", kind, "--lr", "1e308",
                    "--steps", "3", "--hidden", "8"])
    assert code == EXIT_FAIL
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("augbin: non-finite"), lines


def _cli_session(tmp_path, capsys, fresh):
    """(exit code, stdout, stderr, output bytes) of a run of mixed commands in one process.

    ``fresh`` builds a new parser for every command, as before the parser was shared.
    """
    data, config = tmp_path / "data.csv", tmp_path / "config.json"
    config.write_text(json.dumps({"data": str(data), "encoding": "binary", "steps": 4, "hidden": [3],
                                  "report": str(tmp_path / "config-train.json")}))
    commands = [
        (["gen", "--seed", "3", "--categories", "6", "--rows", "40", "--out", str(data)], data),
        (["train", "--data", str(data), "--encoding", "augmented", "--hidden", "4", "--steps", "5",
          "--report", str(tmp_path / "train.json")], tmp_path / "train.json"),
        (["train", "--config", str(config), "--steps", "6"], tmp_path / "config-train.json"),
        (["train", "--data", str(data), "--encoding", "ternary"], None),
        (["--help"], None),
        (["verify", "--categories", "9", "--steps", "5", "--report", str(tmp_path / "verify.json")],
         tmp_path / "verify.json"),
    ]
    results = []
    for argv, output in commands:
        if fresh:
            _build_parser.cache_clear()
        code = run(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, output.read_bytes() if output else None))
        if output is not None and output != data:  # the later commands read the data
            output.unlink()
    return results


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys):
    _build_parser.cache_clear()
    shared = _cli_session(tmp_path, capsys, fresh=False)
    assert _build_parser.cache_info().misses == 1
    assert [code for code, *_ in shared] == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_USAGE, EXIT_PASS, EXIT_PASS]
    assert "ternary" in shared[3][2]
    assert shared == _cli_session(tmp_path, capsys, fresh=True)
