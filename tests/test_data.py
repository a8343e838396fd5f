"""Dataset loading, synthesis, and split tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from augbin.data import category_label


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
    assert len(held_out) == 10
    for category, numerics, target in held_out:
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
