"""Bit conventions and vocabulary tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbin import (
    BitCode,
    CategoryVocab,
    InvalidArgumentError,
    RangeError,
    VocabMissError,
    bit_matrix,
    bit_width,
    build_vocab,
    decode,
    encode,
)


@pytest.mark.parametrize(
    "n_categories,expected",
    [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4), (15, 4), (16, 5), (37, 6), (65535, 16)],
)
def test_bit_width_known_values(n_categories, expected):
    assert bit_width(n_categories) == expected


def test_bit_width_is_minimal_for_small_sizes():
    for n_categories in range(1, 2049):
        width = bit_width(n_categories)
        assert 2**width - 1 >= n_categories
        assert width == 1 or 2 ** (width - 1) - 1 < n_categories


@pytest.mark.parametrize("bad", [0, -1, -100])
def test_bit_width_rejects_non_positive(bad):
    with pytest.raises(InvalidArgumentError):
        bit_width(bad)


def test_thirteen_has_ones_at_one_three_four():
    code = encode(13, 4)
    assert code.positions == (1, 3, 4)
    assert code.vector == (1, 0, 1, 1)
    assert decode(code) == 13


def test_vector_is_lsb_first():
    assert encode(1, 3).vector == (1, 0, 0)
    assert encode(4, 3).vector == (0, 0, 1)


def test_encode_pads_to_requested_width():
    code = encode(3, 6)
    assert code.width == 6
    assert code.vector == (1, 1, 0, 0, 0, 0)


@given(st.integers(min_value=1, max_value=16))
@settings(max_examples=16)
def test_roundtrip_every_code_at_width(width):
    for category in range(1, min(2**width, 600)):
        assert decode(encode(category, width)) == category


@given(st.integers(min_value=1, max_value=65535))
@settings(max_examples=300)
def test_roundtrip_at_minimal_width(n_categories):
    width = bit_width(n_categories)
    assert decode(encode(n_categories, width)) == n_categories
    assert decode(encode(1, width)) == 1


@pytest.mark.parametrize("category,width", [(0, 3), (-1, 3), (8, 3), (100, 4)])
def test_encode_rejects_out_of_range(category, width):
    with pytest.raises(RangeError):
        encode(category, width)
    with pytest.raises(RangeError):
        bit_matrix([1, category], width)


@pytest.mark.parametrize("width", range(1, 7))
def test_bit_matrix_rows_are_encode_vectors(width):
    categories = list(range(1, 2**width))
    matrix = bit_matrix(categories, width)
    assert matrix.shape == (len(categories), width)
    assert [tuple(row) for row in matrix.tolist()] == [encode(c, width).vector for c in categories]
    assert [tuple(row) for row in bit_matrix(categories[::-1], width).tolist()] == [
        encode(c, width).vector for c in categories[::-1]
    ]


def test_encode_rejects_zero_width():
    with pytest.raises(InvalidArgumentError):
        encode(1, 0)
    with pytest.raises(InvalidArgumentError):
        bit_matrix([1], 0)


def test_bitcode_rejects_mismatched_positions():
    with pytest.raises(InvalidArgumentError):
        BitCode(width=3, positions=(2,), vector=(1, 0, 0))


def test_bitcode_rejects_bad_entries():
    with pytest.raises(InvalidArgumentError):
        BitCode(width=2, positions=(1,), vector=(1, 2))


def test_bitcode_rejects_all_zero_code():
    with pytest.raises(RangeError):
        BitCode(width=3, positions=(), vector=(0, 0, 0))


def test_bitcode_rejects_wrong_length():
    with pytest.raises(InvalidArgumentError):
        BitCode(width=3, positions=(1,), vector=(1, 0))


def test_vocab_sorts_lexicographically():
    vocab = build_vocab(["pear", "apple", "plum", "apple"])
    assert vocab.labels == ("apple", "pear", "plum")
    assert vocab.id_of("apple") == 1
    assert vocab.id_of("plum") == 3
    assert vocab.label_of(2) == "pear"


@given(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=20))
@settings(max_examples=100)
def test_vocab_independent_of_input_order(labels):
    forward = build_vocab(labels)
    backward = build_vocab(list(reversed(labels)))
    assert forward.labels == backward.labels


def test_vocab_size_and_width():
    vocab = build_vocab([f"t{i}" for i in range(10)])
    assert vocab.size == 10
    assert vocab.width == bit_width(10)


def test_vocab_contains():
    vocab = build_vocab(["x", "y"])
    assert "x" in vocab
    assert "z" not in vocab


def test_vocab_miss_raises():
    vocab = build_vocab(["x", "y"])
    with pytest.raises(VocabMissError):
        vocab.id_of("z")


def test_vocab_label_of_range():
    vocab = build_vocab(["x", "y"])
    with pytest.raises(RangeError):
        vocab.label_of(0)
    with pytest.raises(RangeError):
        vocab.label_of(3)


def test_empty_vocab_rejected():
    with pytest.raises(InvalidArgumentError):
        build_vocab([])
    with pytest.raises(InvalidArgumentError):
        CategoryVocab(labels=())


def test_duplicate_labels_rejected_by_constructor():
    with pytest.raises(InvalidArgumentError):
        CategoryVocab(labels=("a", "a"))
