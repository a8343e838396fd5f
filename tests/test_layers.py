"""Encoder layer tests: forward values, update rules, isolation algebra."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbin import (
    Activation,
    AugmentedBinaryLayer,
    BinaryLayer,
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
from augbin.layers import ENCODERS


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


def _encode_rows(category, width):
    return [position - 1 for position in encode(category, width).positions]


def test_positions_follow_encoding():
    for width in range(1, 9):
        layer = _binary_of_width(width)
        for category in range(1, 2**width):
            assert layer._rows(category).tolist() == _encode_rows(category, width)
    layer = _binary_of_width(17)
    for category in (1, 2, 2**16 - 1, 2**16, 2**17 - 1):
        assert layer._rows(category).tolist() == _encode_rows(category, 17)
    for width in range(1, 71):  # the top category of each width, past 63 bits
        assert _binary_of_width(width)._rows(2**width - 1).tolist() == _encode_rows(2**width - 1, width)


@given(width=st.integers(1, 70), data=st.data())
@settings(max_examples=200, deadline=None)
def test_rows_are_encode_positions_minus_one_at_any_width(width, data):
    # Python integers, not int64: a layer wider than 63 bits must work.
    category = data.draw(st.integers(1, 2**width - 1))
    rows = _binary_of_width(width)._rows(category)
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
