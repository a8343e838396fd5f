"""Dataset loading, synthesis, and split tests."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbin.data
from augbin import (
    Dataset,
    DatasetSchema,
    InvalidArgumentError,
    ParseError,
    SplitMix64,
    VocabMissError,
    build_vocab,
    load_csv,
    load_csv_split,
    save_csv,
    split_rows,
    synth_gen,
)
from augbin.cli import EXIT_PASS, run
from augbin.data import _parse_float, _parse_table, _read_rows, category_label


def scalar_parse_table(path):
    """Reference oracle for ``_parse_table``: one ``_parse_float`` and one store per cell."""
    header, rows = _read_rows(path)
    schema = DatasetSchema.from_header(header)
    if not rows:
        raise ParseError("no data rows")
    raw_labels: list[str] = []
    numerics = np.zeros((len(rows), len(schema.numerics)))
    targets = np.zeros((len(rows), 1))
    for row_number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}", row=row_number
            )
        cell = row[0]
        if not cell:
            raise ParseError("empty category", row=row_number, column=schema.categorical)
        raw_labels.append(cell)
        for j, name in enumerate(schema.numerics):
            numerics[row_number - 1, j] = _parse_float(row[j + 1], row_number, name)
        targets[row_number - 1, 0] = _parse_float(row[-1], row_number, schema.target)
    return schema, raw_labels, numerics, targets


# A label holding both CR and LF is quoted by csv.writer whatever its line terminator.
_LABELS = st.sampled_from(["a", "b", "with, comma", "\u00fc", " c ", 'a"b', "#x", "line\r\nbreak", "nul\0"])
_NUMBERS = st.one_of(
    st.sampled_from(["0", "-0.0", "1e308", "-1e308", "1_000", " 2.5", "2.5 ", "+4", ".5", "5.",
                     "1E-5", "5e-324", "0.1", "1.7976931348623157e308", "\u00a02.5", "\u0661\u0662"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_BAD_NUMBERS = st.sampled_from(["oops", "", "1,5", "1..2", "0x10", "1e", "--1", "1 2",
                                "\x1c1.5", "2.5\x1d", "\x1e-3", "4\x1f", "1\x002"])
_NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e309"])
_FAULTS = ("blank", "short", "long", "empty category", "unparsable", "non-finite")
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


def _csv_text(n_numeric, rows, line_end="\n"):
    handle = io.StringIO()
    writer = csv.writer(handle, lineterminator=line_end)
    writer.writerow(["category", *(f"x{j}" for j in range(1, n_numeric + 1)), "target"])
    writer.writerows(rows)
    return handle.getvalue()


@st.composite
def _valid_row(draw, n_numeric):
    return [draw(_LABELS), *(draw(_NUMBERS) for _ in range(n_numeric + 1))]


@st.composite
def _faulty_row(draw, n_numeric):
    """A row with one fault; its other cells are valid."""
    row = draw(_valid_row(n_numeric))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "blank":
        return []
    if fault == "short":
        return row[: draw(st.integers(1, len(row) - 1))]
    if fault == "long":
        return row + [draw(_NUMBERS) for _ in range(draw(st.integers(1, 2)))]
    if fault == "empty category":
        row[0] = ""
        return row
    row[draw(st.integers(1, len(row) - 1))] = draw(_BAD_NUMBERS if fault == "unparsable" else _NON_FINITE)
    return row


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "data.csv"


def _parse_outcome(parse, path):
    """What ``parse`` returns, as comparable bytes, or its ParseError's text, row and column."""
    try:
        schema, labels, numerics, targets = parse(path)
    except ParseError as err:
        return ("error", str(err), err.row, err.column)
    return ("ok", schema, labels, numerics.shape, numerics.tobytes(), targets.shape, targets.tobytes())


def test_synth_gen_is_deterministic():
    a = synth_gen(42, 6, 2, 30, noise=0.1)
    b = synth_gen(42, 6, 2, 30, noise=0.1)
    assert a.categories == b.categories
    assert np.array_equal(a.numerics, b.numerics)
    assert np.array_equal(a.targets, b.targets)


def test_synth_gen_first_row_reproducible_from_documented_recipe():
    dataset = synth_gen(42, 4, 2, 8, noise=0.5)
    stream = SplitMix64(42)
    levels = [stream.next_symmetric(1.0) for _ in range(4)]
    coefficients = [stream.next_symmetric(1.0) for _ in range(2)]
    category = stream.next_below(4) + 1
    x1 = stream.next_symmetric(1.0)
    x2 = stream.next_symmetric(1.0)
    noise_draw = stream.next_gaussian()
    expected = levels[category - 1] + coefficients[0] * x1 + coefficients[1] * x2 + 0.5 * noise_draw
    assert dataset.categories[0] == category
    assert dataset.numerics[0].tolist() == [x1, x2]
    assert dataset.targets[0, 0] == expected


def test_synth_gen_zero_noise_zero_features_depends_on_category_only():
    dataset = synth_gen(3, 5, 0, 200, noise=0.0)
    by_category = {}
    for category, _, target in dataset.examples():
        by_category.setdefault(category, set()).add(float(target[0]))
    for values in by_category.values():
        assert len(values) == 1


def test_synth_gen_validates_arguments():
    with pytest.raises(InvalidArgumentError):
        synth_gen(0, 0, 1, 10)
    with pytest.raises(InvalidArgumentError):
        synth_gen(0, 3, 1, 0)
    with pytest.raises(InvalidArgumentError):
        synth_gen(0, 3, -1, 10)
    with pytest.raises(InvalidArgumentError):
        synth_gen(0, 3, 1, 10, noise=-0.5)


@pytest.mark.parametrize("noise", [math.nan, math.inf])
def test_synth_gen_rejects_non_finite_noise_by_name(noise):
    with pytest.raises(InvalidArgumentError, match="noise must be finite"):
        synth_gen(0, 3, 1, 10, noise=noise)


def test_save_load_roundtrip_preserves_exact_values(tmp_path):
    dataset = synth_gen(7, 4, 3, 60, noise=0.25)
    path = tmp_path / "roundtrip.csv"
    save_csv(dataset, path)
    loaded = load_csv(path)
    assert loaded.categories == dataset.categories
    assert np.array_equal(loaded.numerics, dataset.numerics)
    assert np.array_equal(loaded.targets, dataset.targets)
    assert loaded.vocab.labels == dataset.vocab.labels


def test_category_labels_sort_like_numbers():
    labels = [category_label(c, 12) for c in range(1, 13)]
    assert labels == sorted(labels)
    assert labels[0] == "c01"
    assert labels[11] == "c12"


def test_load_csv_builds_lexicographic_vocab(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("category,x1,target\nb,0.5,1.0\na,0.25,2.0\nb,0.125,3.0\n")
    dataset = load_csv(path)
    assert dataset.vocab.size == 2
    assert dataset.vocab.id_of("a") == 1
    assert dataset.vocab.id_of("b") == 2
    assert dataset.categories == [2, 1, 2]
    assert dataset.numerics[:, 0].tolist() == [0.5, 0.25, 0.125]


def test_load_csv_header_only_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("category,x1,target\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_duplicate_header_names_are_a_parse_error(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("c,x,x,t\na,0.5,0.25,1.0\n")
    with pytest.raises(ParseError, match="distinct"):
        load_csv(path)
    with pytest.raises(ParseError, match="distinct"):
        load_csv_split(path, 0.0, 0)


def test_load_csv_reports_bad_numeric_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("category,x1,target\na,0.5,1.0\nb,oops,2.0\n")
    with pytest.raises(ParseError) as excinfo:
        load_csv(path)
    assert excinfo.value.row == 2
    assert excinfo.value.column == "x1"


def test_load_csv_rejects_nan_token(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("category,x1,target\na,NaN,1.0\n")
    with pytest.raises(ParseError) as excinfo:
        load_csv(path)
    assert excinfo.value.row == 1
    assert excinfo.value.column == "x1"


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("category,x1,target\na,0.5\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_rejects_empty_category(tmp_path):
    path = tmp_path / "cat.csv"
    path.write_text("category,x1,target\n,0.5,1.0\n")
    with pytest.raises(ParseError):
        load_csv(path)


@given(st.integers(0, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(_valid_row(d), min_size=1, max_size=6))), _LINE_ENDS)
@settings(max_examples=300, deadline=None)
def test_parse_table_equals_the_scalar_oracle_on_valid_files(csv_file, case, line_end):
    n_numeric, rows = case
    csv_file.write_text(_csv_text(n_numeric, rows, line_end), encoding="utf-8", newline="")
    outcome = _parse_outcome(_parse_table, csv_file)
    assert outcome[0] == "ok"
    assert outcome == _parse_outcome(scalar_parse_table, csv_file)


@given(st.integers(0, 3).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.one_of(_valid_row(d), _faulty_row(d)), min_size=1, max_size=6))), _LINE_ENDS)
@settings(max_examples=500, deadline=None)
def test_parse_table_raises_what_the_scalar_oracle_raises(csv_file, case, line_end):
    n_numeric, rows = case
    csv_file.write_text(_csv_text(n_numeric, rows, line_end), encoding="utf-8", newline="")
    assert _parse_outcome(_parse_table, csv_file) == _parse_outcome(scalar_parse_table, csv_file)


# Cell text around the edges of float's syntax: signs, underscores, exponents, the
# words inf and nan, Unicode digits and spaces.  The C tier declines NUL and
# U+001C-U+001F; a comma, a quote or a line break would not leave one cell.
_CELL_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789+-.eE_ \t\v\f\u00a0\u2003\u0085\u0661\uff11xinfatyINFATY"), max_size=10),
    st.text(st.characters(exclude_characters=',"\n\r\0\x1c\x1d\x1e\x1f', exclude_categories=("Cs",)), max_size=6),
    st.floats().map(repr),
)


@given(_CELL_TEXT)
@settings(max_examples=500, deadline=None)
def test_loadtxt_reads_every_cell_it_accepts_as_float_does(cell):
    try:
        values = np.loadtxt([f"label,{cell}"], delimiter=",", comments=None, quotechar='"', usecols=[1], ndmin=1)
    except ValueError:
        return  # the row walk reads such a file
    assert float(values[0]).hex() == float(cell).hex()


_FAULT_ROWS = {
    "blank": [],
    "short": ["b", "0.5"],
    "long": ["b", "0.5", "1.0", "2.0"],
    "empty category": ["", "0.5", "1.0"],
    "unparsable": ["b", "oops", "1.0"],
    "nan": ["b", "0.5", "nan"],
    "inf": ["b", "inf", "1.0"],
}


@pytest.mark.parametrize("first", sorted(_FAULT_ROWS))
@pytest.mark.parametrize("second", ["blank", "empty category", "unparsable", "inf"])
def test_parse_table_reports_the_first_of_two_faulty_rows(first, second, csv_file):
    rows = [["a", "0.5", "1.0"], _FAULT_ROWS[first], ["c", "0.25", "2.0"], _FAULT_ROWS[second]]
    csv_file.write_text(_csv_text(1, rows), encoding="utf-8")
    outcome = _parse_outcome(_parse_table, csv_file)
    assert outcome[0] == "error"
    assert outcome[2] == 2
    assert outcome == _parse_outcome(scalar_parse_table, csv_file)


_QUOTE_LINE = st.lists(st.sampled_from(['"', '""', ",", "1", "2.5", "a", " ", "\t", "#"]),
                       min_size=1, max_size=10).map("".join)


@given(_QUOTE_LINE)
@settings(max_examples=500, deadline=None)
def test_loadtxt_splits_a_quoted_line_into_the_cells_csv_reads(line):
    try:
        records = list(csv.reader([line], strict=True))
    except csv.Error:
        return  # the row walk reads such a file
    try:
        cells = np.loadtxt([line], delimiter=",", comments=None, quotechar='"', dtype=str, ndmin=2)[0].tolist()
    except ValueError:
        return
    assert [cells] == records


def _count_float_calls(monkeypatch):
    """Record each Python ``float`` call of ``augbin.data``; ``_parse_float`` appends ``None``."""
    calls = []

    def counting_float(token):
        calls.append(token)
        return float(token)

    def counting_parse_float(token, row, column):
        calls.append(None)
        return _parse_float(token, row, column)

    monkeypatch.setattr(augbin.data, "float", counting_float, raising=False)
    monkeypatch.setattr(augbin.data, "_parse_float", counting_parse_float)
    return calls


def _save_gen_file(path):
    save_csv(synth_gen(4, 5, 2, 30), path)
    assert path.read_bytes().count(b"\r\n") == 31  # csv.writer ends lines with CRLF


def _write_quoted_label_file(path):
    path.write_text('category,x1,target\n"say ""hi"", #1",0.5,1.0\nb,0.25,2.0\n"c",1e-3,-4\n', newline="")


@pytest.mark.parametrize("write", [_save_gen_file, _write_quoted_label_file])
def test_parse_table_reads_a_valid_file_without_python_float(write, monkeypatch, tmp_path):
    path = tmp_path / "valid.csv"
    write(path)
    expected = _parse_outcome(scalar_parse_table, path)
    calls = _count_float_calls(monkeypatch)
    assert _parse_outcome(_parse_table, path) == expected
    assert expected[0] == "ok"
    assert calls == []


def test_parse_table_reads_an_underscored_number_by_the_row_walk(monkeypatch, tmp_path):
    path = tmp_path / "underscore.csv"
    path.write_text("category,x1,target\na,1_000,1.0\nb,0.25,2.0\n")
    expected = _parse_outcome(scalar_parse_table, path)
    calls = _count_float_calls(monkeypatch)
    outcome = _parse_outcome(_parse_table, path)
    assert outcome == expected
    assert np.frombuffer(outcome[4]).tolist() == [1000.0, 0.25]
    assert calls.count(None) == 4  # one _parse_float per cell


@pytest.mark.parametrize("text", [
    # str.splitlines breaks a line at these, csv.reader does not
    *(f"c,x,t\nq,1,2{brk}z,3,4\n" for brk in ["\v", "\f", "\x85", "\u2028", "\u2029"]),
    'c,x,t\na,1,"2\n3",4,5\n',  # a quoted cell spans two lines of the right length
    'c,x,t\n"q","1,5"\n',  # two cells, but as many commas as three
    'c,x,t\n"q"x,1,2\n',  # text after a closing quote, which csv keeps
    "c,x,t\na,1,2\n\nb,3,4\n",  # a blank line is a row of no cells
    "\nc,x,t\na,1,2\n",  # a blank header
    "c,x,t\na,1,2\nb,3,4,5\n",  # a row longer than the header, which loadtxt's usecols would skip
    "c,x,t\n\na,1,2,3,4\n",  # a blank line whose missing cells a long row makes up
    'c,x,t\na,1,"2\n',  # a quote still open at the end of the file
    *(f"c,x,t\na,{sep}1.5,2\n" for sep in "\x1c\x1d\x1e\x1f"),  # loadtxt strips these, float refuses them
], ids=["vt", "ff", "nel", "ls", "ps", "spanning quote", "quoted comma", "after quote", "blank", "blank header",
        "long", "blank and long", "open quote", "fs", "gs", "rs", "us"])
def test_parse_table_equals_the_scalar_oracle_where_lines_could_mislead(text, csv_file):
    csv_file.write_text(text, encoding="utf-8", newline="")
    assert _parse_outcome(_parse_table, csv_file) == _parse_outcome(scalar_parse_table, csv_file)


def test_parse_table_reports_a_field_over_the_csv_limit_with_its_row(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text(f"category,x1,target\na,0.5,1.0\n\"{'b' * 200_000}\",0.25,2.0\n")
    outcome = _parse_outcome(_parse_table, path)
    assert outcome == ("error", "field larger than field limit (131072) (data row 2)", 2, None)
    assert outcome == _parse_outcome(scalar_parse_table, path)


def test_parse_table_peak_memory_on_a_gen_file(tmp_path):
    path = tmp_path / "gen.csv"
    assert run(["gen", "--seed", "1", "--categories", "200", "--numeric", "3", "--rows", "2000",
                "--noise", "0.1", "--out", str(path)]) == EXIT_PASS
    _parse_table(path)
    tracemalloc.start()
    try:
        _parse_table(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_quoted_labels_with_commas_survive_roundtrip(tmp_path):
    vocab = build_vocab(["plain", "with, comma"])
    dataset = Dataset(
        vocab=vocab,
        categories=[2, 1],
        numerics=np.array([[0.5], [0.25]]),
        targets=np.array([[1.0], [2.0]]),
        schema=DatasetSchema(categorical="category", numerics=("x1",), target="target"),
    )
    path = tmp_path / "quoted.csv"
    save_csv(dataset, path)
    loaded = load_csv(path)
    assert loaded.vocab.labels == vocab.labels
    assert loaded.categories == [2, 1]


def test_split_rows_deterministic_partition():
    train_a, eval_a = split_rows(100, 0.2, 5)
    train_b, eval_b = split_rows(100, 0.2, 5)
    assert train_a == train_b
    assert eval_a == eval_b
    assert len(eval_a) == 20
    assert sorted(train_a + eval_a) == list(range(100))


@pytest.mark.parametrize("n_rows", [1, 2, 3, 10, 257])
@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
def test_split_rows_equals_scalar_fisher_yates(n_rows, seed):
    order = list(range(n_rows))
    stream = SplitMix64(seed)
    for i in range(n_rows - 1, 0, -1):
        j = stream.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    n_train = n_rows - int(n_rows * 0.3)
    train, held_out = split_rows(n_rows, 0.3, seed)
    assert (train, held_out) == (order[:n_train], order[n_train:])
    assert all(type(i) is int for i in train + held_out)


def test_split_rows_validates_fraction():
    with pytest.raises(InvalidArgumentError):
        split_rows(10, 1.0, 0)
    with pytest.raises(InvalidArgumentError):
        split_rows(10, -0.1, 0)


def test_load_csv_split_builds_vocab_from_training_rows(tmp_path):
    path = tmp_path / "split.csv"
    save_csv(synth_gen(11, 5, 1, 50, noise=0.0), path)
    train, held_out = load_csv_split(path, 0.2, 3)
    assert train.n_rows == 40
    assert held_out.n_rows == 10
    assert held_out.vocab is train.vocab and held_out.schema == train.schema
    for category, numerics, target in held_out.examples():
        assert 1 <= category <= train.vocab.size
        assert numerics.shape == (1,)
        assert target.shape == (1,)


def test_load_csv_split_misses_unseen_category(tmp_path):
    path = tmp_path / "miss.csv"
    path.write_text(
        "category,x1,target\n"
        "a,0.1,1.0\n"
        "a,0.2,1.1\n"
        "a,0.3,0.9\n"
        "b,0.5,2.0\n"
    )
    missed = False
    for seed in range(6):
        try:
            load_csv_split(path, 0.25, seed)
        except VocabMissError:
            missed = True
            break
    assert missed, "some split must hold out the only 'b' row"


def test_dataset_validates_ids_and_finiteness():
    vocab = build_vocab(["a"])
    schema = DatasetSchema(categorical="category", numerics=(), target="target")
    with pytest.raises(InvalidArgumentError):
        Dataset(vocab=vocab, categories=[2], numerics=np.zeros((1, 0)),
                targets=np.zeros((1, 1)), schema=schema)
    with pytest.raises(InvalidArgumentError):
        Dataset(vocab=vocab, categories=[1], numerics=np.zeros((1, 0)),
                targets=np.array([[np.inf]]), schema=schema)
    with pytest.raises(InvalidArgumentError, match=r"^category id 3 outside vocabulary$"):  # first in row order
        Dataset(vocab=vocab, categories=[1, 3, 0, 2], numerics=np.zeros((4, 0)),
                targets=np.zeros((4, 1)), schema=schema)


@pytest.mark.parametrize("ids", [[1.5, True], [1, True], [np.True_], ["2"], [1, 2.0]])
def test_dataset_refuses_ids_that_are_not_integers(ids):
    schema = DatasetSchema(categorical="category", numerics=(), target="target")
    with pytest.raises(InvalidArgumentError, match="category ids must be integers"):
        Dataset(vocab=build_vocab(["a", "b"]), categories=ids, numerics=np.zeros((len(ids), 0)),
                targets=np.zeros((len(ids), 1)), schema=schema)


def test_dataset_takes_numpy_integer_ids_as_python_ints():
    schema = DatasetSchema(categorical="category", numerics=(), target="target")
    dataset = Dataset(vocab=build_vocab(["a", "b"]), categories=[np.int64(2), np.uint8(1), 2],
                      numerics=np.zeros((3, 0)), targets=np.zeros((3, 1)), schema=schema)
    assert dataset.categories == [2, 1, 2] and all(type(c) is int for c in dataset.categories)


def test_dataset_rejects_a_schema_that_disagrees_with_its_numerics():
    schema = DatasetSchema(categorical="category", numerics=("x",), target="target")
    with pytest.raises(InvalidArgumentError, match="numeric columns"):
        Dataset(vocab=build_vocab(["a"]), categories=[1], numerics=np.zeros((1, 0)),
                targets=np.zeros((1, 1)), schema=schema)


def test_save_csv_rejects_more_than_one_target_column(tmp_path):
    schema = DatasetSchema(categorical="category", numerics=(), target="target")
    dataset = Dataset(vocab=build_vocab(["a"]), categories=[1], numerics=np.zeros((1, 0)),
                      targets=np.zeros((1, 2)), schema=schema)
    path = tmp_path / "two_targets.csv"
    with pytest.raises(InvalidArgumentError, match="one target column"):
        save_csv(dataset, path)
    assert not path.exists()


def test_schema_rejects_duplicate_columns():
    with pytest.raises(InvalidArgumentError):
        DatasetSchema(categorical="a", numerics=("a",), target="t")
    with pytest.raises(InvalidArgumentError):
        DatasetSchema(categorical="a", numerics=("x",), target="x")


def test_examples_preserve_row_order():
    dataset = synth_gen(9, 3, 1, 10)
    rows = list(dataset.examples())
    assert [c for c, _, _ in rows] == dataset.categories
    assert np.array_equal(np.stack([x for _, x, _ in rows]), dataset.numerics)


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_synth_gen_ids_always_valid(seed, n_categories):
    dataset = synth_gen(seed, n_categories, 1, 20)
    assert all(1 <= c <= n_categories for c in dataset.categories)
    assert dataset.vocab.size == n_categories
