"""Encoder layer tests: forward values, update rules, isolation algebra."""

import ast
import copy
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbin import (
    Activation,
    AugmentedBinaryLayer,
    BinaryLayer,
    DenseLayer,
    InvalidArgumentError,
    Network,
    NetworkConfig,
    NumericError,
    OneHotLayer,
    OpCounters,
    RangeError,
    SplitMix64,
    bit_width,
    build_network,
    contributions_matrix,
    encode,
    expected_counts,
)
from augbin.layers import ENCODERS, Encoder
from augbin.rng import below_draws


def scalar_contributions_matrix(encoder):
    """Reference oracle for ``contributions_matrix``: one ``effective_contribution`` per category."""
    return np.stack([encoder.effective_contribution(c) for c in range(1, encoder.n_categories + 1)])


def _one_hot_fixture():
    return OneHotLayer(
        cat_weights=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        num_weights=np.array([[0.5, -0.5]]),
        bias=np.array([0.25, -0.25]),
    )


def _binary_fixture():
    # N=3, width 2; rows for bits 1 and 2
    return BinaryLayer(
        n_categories=3,
        bit_weights=np.array([[1.0, 10.0], [2.0, 20.0]]),
        num_weights=np.array([[0.5, -0.5]]),
        bias=np.array([0.25, -0.25]),
    )


def _augmented_fixture():
    return AugmentedBinaryLayer(
        bit_weights=np.array([[1.0, 10.0], [2.0, 20.0]]),
        num_weights=np.array([[0.5, -0.5]]),
        bias=np.array([0.25, -0.25]),
        cat_memory=np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]),
        bit_memory=np.array([[0.01, 0.02], [0.03, 0.04]]),
    )


def test_one_hot_forward_is_row_plus_numeric_plus_bias():
    layer = _one_hot_fixture()
    z = layer.forward(2, np.array([2.0]))
    assert z.tolist() == [3.0 + 0.5 * 2.0 + 0.25, 4.0 - 0.5 * 2.0 - 0.25]


def test_binary_forward_sums_one_bit_rows():
    layer = _binary_fixture()
    # category 3 = bits {1, 2}
    z = layer.forward(3, np.array([0.0]))
    assert z.tolist() == [1.0 + 2.0 + 0.25, 10.0 + 20.0 - 0.25]
    # category 2 = bit {2} only
    z2 = layer.forward(2, np.array([0.0]))
    assert z2.tolist() == [2.0 + 0.25, 20.0 - 0.25]


def test_augmented_forward_adds_category_memory_subtracts_bit_memory():
    layer = _augmented_fixture()
    # category 3 = bits {1, 2}
    z = layer.forward(3, np.array([1.0]))
    expected_0 = 1.0 + 2.0 + 0.5 + 0.25 + 0.5 - 0.01 - 0.02
    expected_1 = 10.0 + 20.0 - 0.5 - 0.25 + 0.6 - 0.03 - 0.04
    assert z == pytest.approx([expected_0, expected_1], abs=1e-15)


def test_folded_forward_matches_plain_path():
    layer = _augmented_fixture()
    for category in (1, 2, 3):
        plain = layer.forward(category, np.array([0.7]))
        folded = layer.forward_folded(category, np.array([0.7]))
        assert np.max(np.abs(plain - folded)) <= 1e-12


def test_one_hot_update_touches_only_active_row():
    layer = _one_hot_fixture()
    before = layer.cat_weights.copy()
    delta = np.array([0.1, -0.2])
    layer.apply_update(2, np.array([1.0]), delta)
    assert np.array_equal(layer.cat_weights[0], before[0])
    assert np.array_equal(layer.cat_weights[2], before[2])
    assert np.array_equal(layer.cat_weights[1], before[1] - delta)
    assert np.array_equal(layer.bias, np.array([0.25, -0.25]) - delta)


def test_binary_update_moves_shared_bit_rows():
    layer = _binary_fixture()
    delta = np.array([0.5, 0.0])
    before = contributions_matrix(layer)
    layer.apply_update(3, np.array([0.0]), delta)
    after = contributions_matrix(layer)
    # categories 1 and 2 each share one bit with 3, so both moved by -delta
    assert after[0] == pytest.approx(before[0] - delta, abs=1e-15)
    assert after[1] == pytest.approx(before[1] - delta, abs=1e-15)
    assert after[2] == pytest.approx(before[2] - 2 * delta, abs=1e-15)


def test_augmented_update_steps_every_family_by_same_delta():
    layer = _augmented_fixture()
    delta = np.array([0.1, -0.2])
    bits_before = layer.bit_weights.copy()
    cat_before = layer.cat_memory.copy()
    bitmem_before = layer.bit_memory.copy()
    layer.apply_update(3, np.array([0.0]), delta)
    assert np.array_equal(layer.bit_weights[0], bits_before[0] - delta)
    assert np.array_equal(layer.bit_weights[1], bits_before[1] - delta)
    assert np.array_equal(layer.cat_memory[2], cat_before[2] - delta)
    assert np.array_equal(layer.cat_memory[0], cat_before[0])
    assert np.array_equal(layer.bit_memory[:, 0], bitmem_before[:, 0] - delta)
    assert np.array_equal(layer.bit_memory[:, 1], bitmem_before[:, 1] - delta)


def test_augmented_update_leaves_other_contributions_unchanged():
    layer = _augmented_fixture()
    before = contributions_matrix(layer)
    delta = np.array([0.37, -0.81])
    layer.apply_update(3, np.array([0.0]), delta)
    after = contributions_matrix(layer)
    assert np.max(np.abs(after[0] - before[0])) <= 1e-12
    assert np.max(np.abs(after[1] - before[1])) <= 1e-12
    assert after[2] == pytest.approx(before[2] - delta, abs=1e-12)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_isolation_holds_for_random_layers_and_steps(n_categories, k, seed):
    stream = SplitMix64(seed)
    layer = AugmentedBinaryLayer.fresh(n_categories, 0, k, stream)
    for _ in range(3):
        category = stream.next_below(n_categories) + 1
        delta = np.array([stream.next_symmetric(0.5) for _ in range(k)])
        before = contributions_matrix(layer)
        layer.apply_update(category, (), delta)
        after = contributions_matrix(layer)
        for c in range(1, n_categories + 1):
            if c == category:
                assert np.max(np.abs(after[c - 1] - (before[c - 1] - delta))) <= 1e-12
            else:
                assert np.max(np.abs(after[c - 1] - before[c - 1])) <= 1e-12


def test_fault_hook_breaks_isolation():
    stream = SplitMix64(0)
    layer = AugmentedBinaryLayer.fresh(5, 0, 2, stream)
    layer.skip_category_memory_update = True
    cat_before = layer.cat_memory.copy()
    before = layer.effective_contribution(3)
    delta = np.array([0.5, 0.5])
    layer.apply_update(3, (), delta)
    assert np.array_equal(layer.cat_memory, cat_before)
    moved = layer.effective_contribution(3) - before
    # bit-row and bit-memory changes cancel, so nothing moves at all
    assert np.max(np.abs(moved)) <= 1e-12


def test_effective_contribution_definitions():
    onehot = _one_hot_fixture()
    assert np.array_equal(onehot.effective_contribution(2), onehot.cat_weights[1])
    binary = _binary_fixture()
    assert binary.effective_contribution(3) == pytest.approx([3.0, 30.0], abs=1e-15)
    augmented = _augmented_fixture()
    expected = np.array([1.0 + 2.0 + 0.5 - 0.01 - 0.02, 10.0 + 20.0 + 0.6 - 0.03 - 0.04])
    assert augmented.effective_contribution(3) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("make", [_one_hot_fixture, _binary_fixture, _augmented_fixture])
def test_category_range_checked(make):
    layer = make()
    with pytest.raises(RangeError):
        layer.forward(0, np.array([0.0]))
    with pytest.raises(RangeError):
        layer.forward(4, np.array([0.0]))
    with pytest.raises(RangeError):
        layer.apply_update(0, np.array([0.0]), np.zeros(2))
    with pytest.raises(RangeError):
        layer.effective_contribution(4)


@pytest.mark.parametrize("make", [_one_hot_fixture, _binary_fixture, _augmented_fixture])
def test_numeric_length_checked(make):
    layer = make()
    with pytest.raises(InvalidArgumentError):
        layer.forward(1, np.array([0.0, 1.0]))
    with pytest.raises(InvalidArgumentError):
        layer.apply_update(1, np.array([]), np.zeros(2))


def test_delta_shape_checked():
    layer = _augmented_fixture()
    with pytest.raises(InvalidArgumentError):
        layer.apply_update(1, np.array([0.0]), np.zeros(3))


def test_forward_counters_match_closed_forms():
    for make, kind in (
        (_one_hot_fixture, "onehot"),
        (_binary_fixture, "binary"),
        (_augmented_fixture, "augmented"),
    ):
        layer = make()
        for category in (1, 2, 3):
            counters = OpCounters()
            layer.forward(category, np.array([0.0]), counters)
            ones = category.bit_count()
            width = 2
            expected = expected_counts(kind, 3, width, 2, ones)
            assert counters.encoding_madds_dense == expected.encoding_madds_dense
            assert counters.encoding_madds_sparse == expected.encoding_madds_sparse
            assert counters.encoding_param_updates == 0


def test_update_counters_match_closed_forms():
    for make, kind in (
        (_one_hot_fixture, "onehot"),
        (_binary_fixture, "binary"),
        (_augmented_fixture, "augmented"),
    ):
        for category in (1, 2, 3):
            layer = make()
            counters = OpCounters()
            layer.apply_update(category, np.array([0.0]), np.zeros(2), counters)
            expected = expected_counts(kind, 3, 2, 2, category.bit_count())
            assert counters.encoding_param_updates == expected.encoding_param_updates


def test_fresh_initialization_bounds_and_zero_memories():
    stream = SplitMix64(17)
    layer = AugmentedBinaryLayer.fresh(37, 3, 8, stream)
    radius = 1.0 / np.sqrt(bit_width(37))
    assert np.max(np.abs(layer.bit_weights)) < radius
    assert np.max(np.abs(layer.num_weights)) < radius
    assert np.array_equal(layer.bias, np.zeros(8))
    assert np.array_equal(layer.cat_memory, np.zeros((37, 8)))
    assert np.array_equal(layer.bit_memory, np.zeros((8, 6)))


def test_binary_and_augmented_share_draws_for_same_seed():
    binary = BinaryLayer.fresh(37, 3, 8, SplitMix64(4))
    augmented = AugmentedBinaryLayer.fresh(37, 3, 8, SplitMix64(4))
    assert np.array_equal(binary.bit_weights, augmented.bit_weights)
    assert np.array_equal(binary.num_weights, augmented.num_weights)


def test_one_hot_fresh_uses_category_count_fan_in():
    layer = OneHotLayer.fresh(16, 2, 4, SplitMix64(3))
    assert np.max(np.abs(layer.cat_weights)) < 1.0 / np.sqrt(16)


def test_param_counts():
    assert _one_hot_fixture().param_count == 6 + 2 + 2
    assert _binary_fixture().param_count == 4 + 2 + 2
    # bits 4 + numeric 2 + bias 2 + category memory 6 + bit memory 4
    assert _augmented_fixture().param_count == 18


def test_contributions_matrix_stacks_all_categories():
    layer = _one_hot_fixture()
    matrix = contributions_matrix(layer)
    assert matrix.shape == (3, 2)
    assert np.array_equal(matrix, layer.cat_weights)
    matrix[0, 0] += 1.0
    assert layer.cat_weights[0, 0] == 1.0  # a copy, not a view


@given(
    kind=st.sampled_from(tuple(ENCODERS)),
    # N in {1, 2, 3} and 2**n - 1, 2**n, 2**n + 1 up to 1025: widths of 8 and
    # more are where a pairwise np.sum over the bits would change the order,
    # and 2**n + 1 leaves the top bit a partial block of two categories.
    n_categories=st.sampled_from([1, 2, 3] + [2**n + d for n in range(2, 11) for d in (-1, 0, 1)]),
    k=st.integers(1, 10),
    n_numeric=st.integers(0, 2),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_contributions_matrix_matches_scalar_oracle_bit_for_bit(kind, n_categories, k, n_numeric, steps, seed):
    net = build_network(
        NetworkConfig(encoder_kind=kind, n_categories=n_categories, n_numeric=n_numeric, k=k, seed=seed)
    )
    stream = SplitMix64(seed + 1)
    for check in range(3):
        expected = scalar_contributions_matrix(net.encoder)
        matrix = contributions_matrix(net.encoder)
        assert matrix.shape == expected.shape == (n_categories, k)
        assert matrix.tobytes() == expected.tobytes()
        for _ in range(steps):
            category = stream.next_below(n_categories) + 1
            numerics = stream.symmetric_array((n_numeric,), 2.0)
            target = stream.symmetric_array((k,), 3.0)
            try:
                net.sgd_step(category, numerics, target, 0.5)
            except NumericError:  # diverged; the matrices above were still compared
                return


@pytest.mark.parametrize("n_categories", [65535, 65536, 65537])
@pytest.mark.parametrize("kind", ["binary", "augmented"])
def test_contributions_matrix_matches_scalar_oracle_at_large_tables(kind, n_categories):
    net = build_network(NetworkConfig(encoder_kind=kind, n_categories=n_categories, n_numeric=1, k=3, seed=5))
    # Steps on the top categories fill the memory of bit 17, whose rows form
    # a partial last block when N >= 65536.
    for category in (n_categories, 1, 2**15 + 3, n_categories - 1, 65535, 7):
        net.sgd_step(category, [0.5], [0.3, -0.2, 0.1], 0.5)
    matrix = contributions_matrix(net.encoder)
    assert matrix.shape == (n_categories, 3)
    assert matrix.tobytes() == scalar_contributions_matrix(net.encoder).tobytes()


@pytest.mark.parametrize("kind", ["binary", "augmented"])
def test_contributions_matrix_keeps_an_infinite_bit_row_to_its_categories(kind):
    layer = ENCODERS[kind].fresh(11, 0, 3, SplitMix64(4))
    if kind == "augmented":
        layer.apply_update(5, (), np.array([0.1, -0.2, 0.3]))
    layer.bit_weights[3] = np.inf  # bit 4: only categories 8..11 use it
    if kind == "augmented":
        layer.bit_memory[:, 3] = -np.inf  # subtracted from the same categories only
    matrix = contributions_matrix(layer)
    assert matrix.tobytes() == scalar_contributions_matrix(layer).tobytes()
    assert np.all(np.isfinite(matrix[:7]))  # never 0 * inf = NaN
    assert np.all(matrix[7:] == np.inf)


def _binary_of_width(width):
    return BinaryLayer(
        n_categories=2**width - 1, bit_weights=np.zeros((width, 1)), num_weights=np.zeros((0, 1)), bias=np.zeros(1)
    )


def _rows(layer, category):
    """0-based rows of a binary layer's step for the category's one-bits, ascending: ``encode(category, width).positions`` - 1.

    Callers pass a Python int, as the layer's own input check hands it on.
    """
    return np.array(layer._term_rows(category)[0])


def _encode_rows(category, width):
    return [position - 1 for position in encode(category, width).positions]


def test_positions_follow_encoding():
    for width in range(1, 9):
        layer = _binary_of_width(width)
        for category in range(1, 2**width):
            assert _rows(layer, category).tolist() == _encode_rows(category, width)
    layer = _binary_of_width(17)
    for category in (1, 2, 2**16 - 1, 2**16, 2**17 - 1):
        assert _rows(layer, category).tolist() == _encode_rows(category, 17)
    for width in range(1, 71):  # the top category of each width, past 63 bits
        assert _rows(_binary_of_width(width), 2**width - 1).tolist() == _encode_rows(2**width - 1, width)


@given(width=st.integers(1, 70), data=st.data())
@settings(max_examples=200, deadline=None)
def test_rows_are_encode_positions_minus_one_at_any_width(width, data):
    # Python integers, not int64: a layer wider than 63 bits must work.
    category = data.draw(st.integers(1, 2**width - 1))
    rows = _rows(_binary_of_width(width), category)
    assert rows.dtype.kind == "i"
    assert rows.tolist() == _encode_rows(category, width)


def test_binary_layer_wider_than_63_bits_trains_one_step():
    width = 70
    layer = BinaryLayer(
        n_categories=2**width - 1,
        bit_weights=SplitMix64(3).symmetric_array((width, 2), 0.5),
        num_weights=np.zeros((1, 2)),
        bias=np.zeros(2),
    )
    net = Network(encoder=layer, encoder_activation=Activation.SIGMOID)
    before = layer.bit_weights.copy()
    delta = net.sgd_step(2**69 + 2**64 + 5, [0.5], [0.9, -0.9], 0.1)
    moved = np.flatnonzero(np.any(layer.bit_weights != before, axis=1))
    assert moved.tolist() == [0, 2, 64, 69]
    assert np.array_equal(layer.bit_weights[moved], before[moved] - delta)


@pytest.mark.parametrize("cls", list(ENCODERS.values()), ids=list(ENCODERS))
def test_traced_methods_are_defined_on_each_encoder_class(cls):
    # The benchmark tracer patches these methods in each class's own __dict__;
    # a method inherited from a base would be missed without an error.
    for method in ("forward", "apply_update", "effective_contribution"):
        assert method in cls.__dict__, f"{cls.__name__}.{method} is inherited"


def test_package_code_never_calls_effective_contribution():
    # The per-category method is the reference that all_contributions must
    # equal; the package reads contributions only through contributions_matrix.
    package = Path(__file__).resolve().parents[1] / "src" / "augbin"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "effective_contribution"
    ]
    assert calls == []


def test_registry_keys_match_kinds():
    assert list(ENCODERS) == ["onehot", "binary", "augmented"]
    assert all(cls.kind == kind for kind, cls in ENCODERS.items())


def test_params_lists_array_fields_in_order():
    names = [name for name, _ in _augmented_fixture().params()]
    assert names == ["bit_weights", "num_weights", "bias", "cat_memory", "bit_memory"]
    assert [name for name, _ in _binary_fixture().params()] == ["bit_weights", "num_weights", "bias"]


def _category_blocks(layer):
    """The category blocks of a layer's buffer, in row order: (name, rows)."""
    if layer.kind == "onehot":
        return [("cat_weights", layer.n_categories)]
    if layer.kind == "binary":
        return [("bit_weights", layer.width)]
    return [("bit_weights", layer.width), ("cat_memory", layer.n_categories), ("bit_memory", layer.width)]


def _assert_views_of_one_buffer(layer):
    """Every parameter is a row block of the (R + d + 1, K) buffer, in this order: the
    category blocks (one-hot: cat_weights; binary: bit_weights; augmented: bit_weights,
    cat_memory, bit_memory transposed), num_weights, then bias."""
    buffer = layer._buffer
    blocks, start = {}, 0
    for name, rows in _category_blocks(layer) + [("num_weights", layer.n_numeric)]:
        blocks[name] = buffer[start : start + rows].T if name == "bit_memory" else buffer[start : start + rows]
        start += rows
    blocks["bias"] = buffer[-1]
    assert buffer.shape == (start + 1, layer.k) and buffer.flags.c_contiguous
    assert sorted(blocks) == sorted(name for name, _ in layer.params())
    for name, block in blocks.items():
        array = getattr(layer, name)
        # Same start, shape and strides: the same view, even where it is empty (d = 0).
        assert array.base is buffer and array.ctypes.data == block.ctypes.data, name
        assert array.shape == block.shape and array.strides == block.strides, name


def _rebuilt(layer, **arrays):
    """A new layer of ``layer``'s kind and size from copies of its parameters, ``arrays`` in place of any of them."""
    extra = {"n_categories": layer.n_categories} if layer.kind == "binary" else {}
    return type(layer)(**extra, **({name: array.copy() for name, array in layer.params()} | arrays))


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_every_kind_is_views_of_one_buffer_built_from_copies(kind):
    _assert_views_of_one_buffer(ENCODERS[kind].fresh(37, 2, 4, SplitMix64(3)))
    source = _filled_bit_layer(kind, 11)
    # Non-contiguous caller arrays.
    inputs = {name: np.asfortranarray(array) if array.ndim == 2 else np.repeat(array, 2)[::2]
              for name, array in source.params()}
    layer = _rebuilt(source, **inputs)
    _assert_views_of_one_buffer(layer)
    expected = {name: array.tobytes() for name, array in inputs.items()}
    assert {name: array.tobytes() for name, array in layer.params()} == expected
    for array in inputs.values():  # the layer holds copies
        array[...] = 7.0
    assert {name: array.tobytes() for name, array in layer.params()} == expected
    # In-place writes through params() reach the buffer, and the forward reads them.
    stream = SplitMix64(5)
    for _, array in layer.params():
        array[...] = stream.symmetric_array(array.shape, 1.0)
    _assert_views_of_one_buffer(layer)
    rebuilt, x = _rebuilt(layer), np.array([0.5, -2.0])
    for category in range(1, 12):
        assert layer.forward(category, x).tobytes() == rebuilt.forward(category, x).tobytes()


@pytest.mark.parametrize("bias", [np.zeros((3, 3)), 0.0], ids=["matrix", "scalar"])
@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_a_bias_that_is_not_a_vector_is_refused(kind, bias):
    # The buffer takes K from the bias; an all +0.0 matrix would otherwise slip in unchecked.
    with pytest.raises(InvalidArgumentError):
        _rebuilt(ENCODERS[kind].fresh(5, 1, 3, SplitMix64(1)), bias=bias)


@pytest.mark.parametrize("cls", list(ENCODERS.values()), ids=list(ENCODERS))
def test_each_class_binds_the_one_step_kernel(cls):
    for method in ("forward", "apply_update", "effective_contribution"):
        assert cls.__dict__[method] is Encoder.__dict__[method], f"{cls.__name__}.{method}"


def test_augmented_families_are_views_of_one_buffer_built_from_copies():
    k, count, n = 3, 5, 3
    stream = SplitMix64(21)
    # Non-contiguous caller arrays holding -0.0 and inf.
    bits = stream.symmetric_array((2 * n, k), 1.0)[::2]
    bits[1, 2] = -0.0
    cat_memory = np.asfortranarray(stream.symmetric_array((count, k), 1.0))
    cat_memory[0] = [-0.0, np.inf, -np.inf]
    bit_memory = stream.symmetric_array((n, k), 1.0).T
    bit_memory[2, 0] = -0.0
    num_weights = stream.symmetric_array((k, 2), 1.0).T
    num_weights[1, 1] = -np.inf
    bias = stream.symmetric_array((2 * k,), 1.0)[1::2]
    bias[0] = -0.0
    inputs = {"bit_weights": bits, "cat_memory": cat_memory, "bit_memory": bit_memory,
              "num_weights": num_weights, "bias": bias}
    expected = {name: array.tobytes() for name, array in inputs.items()}
    layer = AugmentedBinaryLayer(**inputs)
    _assert_views_of_one_buffer(layer)
    assert {name: getattr(layer, name).tobytes() for name in inputs} == expected
    # The layer holds copies: the caller's arrays are not aliased, num_weights
    # and bias included (they were kept as given before they joined the buffer).
    for array in inputs.values():
        array[...] = 7.0
    assert {name: getattr(layer, name).tobytes() for name in inputs} == expected
    # In-place writes through params() reach the buffer, and the forward reads them.
    for index, (_, array) in enumerate(layer.params()):
        array[...] = SplitMix64(index).symmetric_array(array.shape, 1.0)
    _assert_views_of_one_buffer(layer)
    x = np.array([0.5, -2.0])
    for category in range(1, count + 1):
        rows = [i - 1 for i in encode(category, n).positions]
        manual = np.zeros(k)
        for i in rows:
            manual += layer.bit_weights[i]
        manual += layer.cat_memory[category - 1]
        for i in rows:
            manual -= layer.bit_memory[:, i]
        assert layer.effective_contribution(category).tobytes() == manual.tobytes()
        for j in range(2):
            manual += layer.num_weights[j] * x[j]
        manual += layer.bias
        assert layer.forward(category, x).tobytes() == manual.tobytes()


@pytest.mark.parametrize("fill", [0.0, -0.0])
def test_zero_category_memory_is_kept_bit_for_bit(fill):
    # An all +0.0 memory is left as the zeroed buffer holds it; -0.0 is copied.
    layer = AugmentedBinaryLayer(bit_weights=np.ones((3, 2)), num_weights=np.zeros((0, 2)), bias=np.full(2, fill),
                                 cat_memory=np.full((4, 2), fill), bit_memory=np.zeros((2, 3)))
    _assert_views_of_one_buffer(layer)
    assert layer.cat_memory.tobytes() == np.full((4, 2), fill).tobytes()
    assert layer.bias.tobytes() == np.full(2, fill).tobytes()


@pytest.mark.parametrize("fill", [0.0, -0.0])
def test_a_broadcast_block_is_judged_by_its_one_element(fill):
    # A broadcast +0.0 block is left to the zeroed buffer without walking its
    # entries; a broadcast -0.0 block is copied, as a dense one is.
    shape = (5, 2)
    built = [
        AugmentedBinaryLayer(bit_weights=np.ones((3, 2)), num_weights=np.zeros((0, 2)), bias=np.zeros(2),
                             cat_memory=memory, bit_memory=np.zeros((2, 3)))
        for memory in (np.broadcast_to(fill, shape), np.full(shape, fill))
    ]
    built += [OneHotLayer(cat_weights=rows, num_weights=np.zeros((1, 2)), bias=np.full(2, fill))
              for rows in (np.broadcast_to(fill, shape), np.full(shape, fill))]
    for layer in built:
        _assert_views_of_one_buffer(layer)
        categorical = layer.cat_memory if layer.kind == "augmented" else layer.cat_weights
        assert categorical.tobytes() == np.full(shape, fill).tobytes()
    for broadcast, dense in (built[:2], built[2:]):
        assert broadcast._buffer.tobytes() == dense._buffer.tobytes()
        assert contributions_matrix(broadcast).tobytes() == contributions_matrix(dense).tobytes()


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_a_step_refuses_numerics_of_none(kind):
    # Only a call without numerics checks the category alone; None is no vector, even with d = 0.
    layer = ENCODERS[kind].fresh(5, 0, 3, SplitMix64(1))
    for call in (lambda: layer.forward(3, None), lambda: layer.apply_update(3, None, np.zeros(3))):
        with pytest.raises(InvalidArgumentError, match="numeric features"):
            call()


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_layers_compare_by_identity(kind):
    # The generated __eq__ would compare the array fields as a tuple and raise.
    first, second = (ENCODERS[kind].fresh(5, 2, 3, SplitMix64(1)) for _ in range(2))
    dense = [DenseLayer(weights=np.ones((3, 2)), bias=np.zeros(2), activation="identity") for _ in range(2)]
    for a, b in ((first, second), dense):
        assert a == a and a != b
        assert len({a, b}) == 2


def test_fresh_augmented_layer_is_views_of_a_zero_memory_buffer():
    layer = AugmentedBinaryLayer.fresh(37, 2, 4, SplitMix64(3))
    _assert_views_of_one_buffer(layer)
    assert layer.cat_memory.tobytes() == np.zeros((37, 4)).tobytes()
    assert layer.bit_memory.tobytes() == np.zeros((4, 6)).tobytes()
    assert layer.bias.tobytes() == np.zeros(4).tobytes()
    # The same draws as the binary layer's, for the numeric rows too.
    assert layer.num_weights.tobytes() == BinaryLayer.fresh(37, 2, 4, SplitMix64(3)).num_weights.tobytes()


def test_augmented_params_and_count_leave_out_the_buffer():
    layer = AugmentedBinaryLayer.fresh(37, 2, 4, SplitMix64(3))
    shapes = [(name, array.shape) for name, array in layer.params()]
    assert shapes == [("bit_weights", (6, 4)), ("num_weights", (2, 4)), ("bias", (4,)),
                      ("cat_memory", (37, 4)), ("bit_memory", (4, 6))]
    assert all(array is not layer._buffer for _, array in layer.params())
    # Every parameter is in the buffer, once: the count is unchanged and is the buffer's size.
    assert layer.param_count == 6 * 4 + 2 * 4 + 4 + 37 * 4 + 4 * 6 == layer._buffer.size


def test_augmented_layer_without_numeric_features_steps_its_bias_row():
    layer = _filled_bit_layer("augmented", 11, k=3, n_numeric=0)
    _assert_views_of_one_buffer(layer)
    assert layer._buffer.shape == (2 * 4 + 11 + 1, 3)
    before = layer._buffer.copy()
    delta = np.array([0.25, -0.5, 1.0])
    assert layer.forward(6, ()).tobytes() == (layer.effective_contribution(6) + before[-1]).tobytes()
    layer.apply_update(6, (), delta)
    moved = np.flatnonzero(np.any(layer._buffer != before, axis=1)).tolist()
    assert moved == [1, 2, 4 + 5, 4 + 11 + 1, 4 + 11 + 2, 2 * 4 + 11]  # bits 2, 3; category 6; bias
    assert layer._buffer[moved].tobytes() == (before[moved] - delta).tobytes()


def test_fault_hook_scatter_steps_bias_and_numerics_but_not_the_category_row():
    layer = _filled_bit_layer("augmented", 11, k=3, n_numeric=2)
    layer.skip_category_memory_update = True
    params = {name: array.copy() for name, array in layer.params()}
    x, delta = np.array([0.5, -3.0]), np.array([0.25, -0.5, 1.0])
    layer.apply_update(6, x, delta)  # bits 2 and 3
    assert layer.cat_memory.tobytes() == params["cat_memory"].tobytes()
    assert layer.bias.tobytes() == (params["bias"] - delta).tobytes()
    assert layer.num_weights.tobytes() == (params["num_weights"] - np.multiply.outer(x, delta)).tobytes()
    assert layer.bit_weights[1:3].tobytes() == (params["bit_weights"][1:3] - delta).tobytes()
    assert layer.bit_memory[:, 1:3].T.tobytes() == (params["bit_memory"][:, 1:3].T - delta).tobytes()
    layer.skip_category_memory_update = False
    layer.apply_update(6, x, delta)
    assert np.flatnonzero(np.any(layer.cat_memory != params["cat_memory"], axis=1)).tolist() == [5]


# Every integer type; a type takes part for the ids it can hold.
_INT_TYPES = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)


@pytest.mark.parametrize("kind", tuple(ENCODERS))
@pytest.mark.parametrize("n_categories", [32767, 65536])
@pytest.mark.filterwarnings("error")  # an overflow warning was once the only sign of a wrong row
def test_numpy_integer_categories_compute_what_python_ints_do(kind, n_categories):
    ids = [c for c in (1, 127, 128, 255, 32767, 65535, 65536) if c <= n_categories]
    x = np.array([0.5, -1.5])
    delta = np.array([0.125, -0.25, 0.5])
    layer = _filled_bit_layer(kind, n_categories)
    reads = [layer.forward, layer.forward_folded] if kind == "augmented" else [layer.forward]
    for int_type in _INT_TYPES:
        held = [c for c in ids if c <= np.iinfo(int_type).max]
        for category in held:
            for read in reads:
                assert read(int_type(category), x).tobytes() == read(category, x).tobytes(), (int_type, category)
            typed = layer.effective_contribution(int_type(category))
            assert typed.tobytes() == layer.effective_contribution(category).tobytes(), (int_type, category)
        stepped, expected = _filled_bit_layer(kind, n_categories), _filled_bit_layer(kind, n_categories)
        for category in held:
            stepped.apply_update(int_type(category), x, delta)
            expected.apply_update(category, x, delta)
            assert [a.tobytes() for _, a in stepped.params()] == [a.tobytes() for _, a in expected.params()]
        config = NetworkConfig(encoder_kind=kind, n_categories=n_categories, n_numeric=2, k=3, hidden=(3, 1), seed=4)
        typed_net, int_net = build_network(config), build_network(config)
        for category in held:
            got = typed_net.sgd_step(int_type(category), x, [0.5], 0.3)
            assert got.tobytes() == int_net.sgd_step(category, x, [0.5], 0.3).tobytes(), (int_type, category)
        assert [a.tobytes() for _, a in typed_net.encoder.params()] == [a.tobytes() for _, a in int_net.encoder.params()]
        assert all(a.weights.tobytes() == b.weights.tobytes() and a.bias.tobytes() == b.bias.tobytes()
                   for a, b in zip(typed_net.layers, int_net.layers))


def _filled_bit_layer(kind, n_categories, k=3, n_numeric=2, seed=0):
    """An encoder whose every parameter, memories included, is a non-zero draw."""
    layer = ENCODERS[kind].fresh(n_categories, n_numeric, k, SplitMix64(seed))
    stream = SplitMix64(seed + 1)
    for _, array in layer.params():
        array[...] = stream.symmetric_array(array.shape, 1.0)
    return layer


@pytest.mark.parametrize(
    "copier", [copy.deepcopy, lambda layer: pickle.loads(pickle.dumps(layer))], ids=["deepcopy", "pickle"]
)
@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_a_copied_layer_keeps_its_views_on_its_own_buffer(kind, copier):
    layer = _filled_bit_layer(kind, 11)
    x, delta = np.array([0.5, -2.0]), np.array([0.25, -0.5, 1.0])
    layer.forward(6, x)  # leaves a step-rows record behind
    twin = copier(layer)
    _assert_views_of_one_buffer(twin)
    assert twin._buffer.tobytes() == layer._buffer.tobytes()
    assert not np.shares_memory(twin._buffer, layer._buffer)
    for category in (6, 11, 1, 6):
        assert twin.forward(category, x).tobytes() == layer.forward(category, x).tobytes()
        twin.apply_update(category, x, delta)
        layer.apply_update(category, x, delta)
        assert twin._buffer.tobytes() == layer._buffer.tobytes()
    # Writes through the copy's params() reach the copy's forward, and only the copy.
    original, z = layer._buffer.copy(), layer.forward(6, x)
    stream = SplitMix64(5)
    for _, array in twin.params():
        array[...] = stream.symmetric_array(array.shape, 1.0)
    assert twin.forward(6, x).tobytes() == _rebuilt(twin).forward(6, x).tobytes() != z.tobytes()
    assert layer._buffer.tobytes() == original.tobytes()
    assert layer.forward(6, x).tobytes() == z.tobytes()


def _edge_ids(n_categories):
    """1, N and every 2**n - 1 up to N, unsorted, with N twice."""
    lows = [(1 << n) - 1 for n in range(1, n_categories.bit_length() + 1) if (1 << n) - 1 <= n_categories]
    return [n_categories, *reversed(lows), 1, n_categories]


_BATCHES = {
    "duplicates dominate": (5, below_draws(SplitMix64(7).next_u64_block(300), 5) + 1),
    "distinct and unsorted": (37, np.arange(37) * 10 % 37 + 1),
    "single row": (11, [7]),
    **{f"N={n}": (n, _edge_ids(n)) for n in (1, 2, 255, 256, 65536)},
}


@pytest.mark.parametrize("batch", tuple(_BATCHES))
@pytest.mark.parametrize(
    "kind, folded", [("onehot", False), ("binary", False), ("augmented", False), ("augmented", True)]
)
def test_forward_batch_rows_equal_forward_bit_for_bit(kind, folded, batch):
    n_categories, ids = _BATCHES[batch]
    layer = _filled_bit_layer(kind, n_categories)
    x = SplitMix64(3).symmetric_array((len(ids), layer.n_numeric), 2.0)
    batched, single = (
        (layer.forward_batch_folded, layer.forward_folded) if folded else (layer.forward_batch, layer.forward)
    )
    z = batched(layer.plan_batch(ids, x))
    assert z.shape == (len(ids), layer.k)
    for row, category in enumerate(ids):
        assert z[row].tobytes() == single(int(category), x[row]).tobytes()


def test_memory_pass_keeps_negative_zero_rows():
    # Every forward sum starts from +0.0, so its output cannot show the sign
    # of a zero; the folded path's adjusted bias starts from the bias itself.
    layer = _filled_bit_layer("augmented", 11)
    layer.bias[:] = -0.0
    layer.cat_memory[:] = -0.0
    layer.bit_memory[:] = 0.0
    ids = np.arange(1, 12)
    x = np.zeros((11, layer.n_numeric))
    plan = layer.plan_batch(ids, x)
    for batched, single in ((layer.forward_batch, layer.forward), (layer.forward_batch_folded, layer.forward_folded)):
        z = batched(plan)
        for row, category in enumerate(ids):
            assert z[row].tobytes() == single(int(category), x[row]).tobytes()
    # -0.0 - (+0.0) is -0.0, and a zero bit's masked subtract leaves the row as it was.
    adjusted = layer._add_memories(np.tile(layer.bias, (11, 1)), plan)
    assert np.signbit(adjusted).all() and not adjusted.any()


def test_plan_serves_only_the_shape_it_was_built_for():
    layers = [ENCODERS[kind].fresh(11, 2, 3, SplitMix64(1)) for kind in ENCODERS]
    x = np.zeros((2, 2))
    for planner in layers:  # a plan is keyed on N and d alone: any kind's plan serves every kind
        shared = planner.plan_batch([3, 9], x)
        for encoder in layers:
            own = encoder.forward_batch(encoder.plan_batch([3, 9], x))
            assert encoder.forward_batch(shared).tobytes() == own.tobytes()
    onehot, binary, augmented = layers
    for encoder, plan in (
        (onehot, OneHotLayer.fresh(12, 2, 3, SplitMix64(1)).plan_batch([3, 9], x)),
        (binary, BinaryLayer.fresh(12, 2, 3, SplitMix64(1)).plan_batch([3, 9], x)),
        (augmented, AugmentedBinaryLayer.fresh(11, 1, 3, SplitMix64(1)).plan_batch([3, 9], x[:, :1])),
    ):
        with pytest.raises(InvalidArgumentError, match="plan built for"):
            encoder.forward_batch(plan)


def test_plan_is_read_only_and_leaves_the_callers_arrays_writable():
    layer = AugmentedBinaryLayer.fresh(11, 2, 3, SplitMix64(1))
    ids, x = np.array([3, 9, 3]), np.zeros((3, 2))
    plan = layer.plan_batch(ids, x)
    assert plan.distinct.tolist() == [3, 9] and plan.inverse.tolist() == [0, 1, 0]
    assert plan.bits.tolist() == [[True, True, False, False], [True, False, False, True]]
    for name in ("ids", "numerics", "distinct", "inverse", "bits"):
        with pytest.raises(ValueError):
            getattr(plan, name)[0] = 1
    ids[0], x[0, 0] = 4, 1.0  # the caller's arrays stay writable


@pytest.mark.parametrize(
    "batch, k, n_categories, bound",
    [(2000, 8, 200, 6 * 2000 * 8 * 8), (2000, 32, 65536, 6 * 2000 * 32 * 8), (4, 32, 65536, 64 * 1024)],
)
def test_batched_forward_builds_no_table_or_stack(batch, k, n_categories, bound):
    # Peak traced allocation of one warm call: a few (B, K) arrays at most,
    # never an (N+1, K) bit-sum table (16 MiB at N=65536, K=32) nor a
    # (width, B, K) stack of gathered bit memories.
    augmented = AugmentedBinaryLayer.fresh(n_categories, 3, k, SplitMix64(2))
    binary = BinaryLayer.fresh(n_categories, 3, k, SplitMix64(2))
    ids = below_draws(SplitMix64(5).next_u64_block(batch), n_categories) + 1
    x = SplitMix64(6).symmetric_array((batch, 3), 1.0)
    for method in (augmented.forward_batch, augmented.forward_batch_folded, binary.forward_batch):
        encoder = method.__self__
        method(encoder.plan_batch(ids, x))
        tracemalloc.start()
        try:
            method(encoder.plan_batch(ids, x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"{method.__qualname__}: {peak} bytes"
