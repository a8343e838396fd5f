"""Gradient checks: analytic backward pass against central differences."""

import math

import numpy as np
import pytest

import augbin.gradcheck
from augbin import (
    Activation,
    NetworkConfig,
    SplitMix64,
    analytic_gradients,
    build_network,
    check_gradients,
    numeric_gradients,
    relu_margin,
)
from augbin.gradcheck import param_arrays


def _net(kind, activation, seed=1, hidden=(2,)):
    return build_network(
        NetworkConfig(
            encoder_kind=kind,
            n_categories=6,
            n_numeric=2,
            k=3,
            hidden=hidden,
            encoder_activation=activation,
            hidden_activation=activation,
            output_activation=Activation.IDENTITY,
            seed=seed,
        )
    )


@pytest.mark.parametrize("kind", ["onehot", "binary", "augmented"])
@pytest.mark.parametrize("activation", [Activation.SIGMOID, Activation.TANH, Activation.IDENTITY])
def test_gradients_match_finite_differences(kind, activation):
    net = _net(kind, activation)
    result = check_gradients(net, 5, np.array([0.4, -0.6]), np.array([0.3, -0.1]))
    assert result.passed, str(result)


def test_param_arrays_cover_all_families():
    names = [name for name, _ in param_arrays(_net("augmented", Activation.SIGMOID))]
    assert names == [
        "encoder.bit_weights",
        "encoder.num_weights",
        "encoder.bias",
        "encoder.cat_memory",
        "encoder.bit_memory",
        "layers[0].weights",
        "layers[0].bias",
    ]
    onehot_names = [name for name, _ in param_arrays(_net("onehot", Activation.SIGMOID))]
    assert "encoder.cat_weights" in onehot_names
    assert "encoder.cat_memory" not in onehot_names


def test_bit_memory_gradient_sign_is_negative_of_bias_gradient():
    # The forward pass subtracts per-bit memory entries, so their loss
    # gradient must oppose the error signal even though the training rule
    # steps them alongside everything else.
    net = _net("augmented", Activation.SIGMOID)
    grads = analytic_gradients(net, 3, np.array([0.2, 0.1]), np.array([0.0, 0.5]))
    dz = grads["encoder.bias"]
    positions = (1, 2)  # category 3 at width 3
    for i in positions:
        assert np.array_equal(grads["encoder.bit_memory"][:, i - 1], -dz)
        assert np.array_equal(grads["encoder.bit_weights"][i - 1], dz)
    assert np.array_equal(grads["encoder.cat_memory"][2], dz)


def test_numeric_oracle_confirms_memory_sign_asymmetry():
    net = _net("augmented", Activation.IDENTITY, hidden=())
    numeric = numeric_gradients(net, 3, np.array([0.2, 0.1]), np.array([0.0, 0.5, 0.25]))
    cat_row = numeric["encoder.cat_memory"][2]
    for i in (1, 2):
        bit_column = numeric["encoder.bit_memory"][:, i - 1]
        assert np.max(np.abs(bit_column + cat_row)) < 1e-9


@pytest.mark.parametrize("layout", ["fortran", "transposed"])
def test_oracle_perturbs_non_contiguous_parameters(layout):
    # ravel() of a non-contiguous array is a copy: an oracle that perturbed it
    # would leave the network as it was and report zero gradients.  An
    # encoder's parameters are views of its buffer, written in place and never
    # rebound; augmented's bit_memory is the transposed view among them.
    net = _net("augmented", Activation.SIGMOID, hidden=(2, 2))
    weights, memory = net.layers[0].weights, net.encoder.bit_memory.copy()
    if layout == "fortran":
        net.layers[0].weights = np.asfortranarray(weights)
    else:
        net.layers[0].weights = weights.T.copy().T
    assert not net.layers[0].weights.flags.c_contiguous and not net.encoder.bit_memory.flags.c_contiguous
    numerics, target = np.array([0.4, -0.6]), np.array([0.3, -0.1])
    result = check_gradients(net, 5, numerics, target)
    assert result.passed, str(result)
    numeric = numeric_gradients(net, 5, numerics, target)
    assert np.all(numeric["layers[0].weights"] != 0.0)
    assert np.any(numeric["encoder.bit_memory"][:, [0, 2]] != 0.0)  # category 5: bits 1 and 3
    assert np.array_equal(net.layers[0].weights, weights)  # every entry put back
    assert net.encoder.bit_memory.tobytes() == memory.tobytes()


def test_oracle_sees_the_transposed_bit_memory():
    net = _net("augmented", Activation.SIGMOID)
    assert not net.encoder.bit_memory.flags.c_contiguous
    numeric = numeric_gradients(net, 3, np.array([0.2, 0.1]), np.array([0.0, 0.5]))
    assert np.all(numeric["encoder.bit_memory"][:, :2] != 0.0)  # category 3: bits 1 and 2


def test_inactive_parameters_have_zero_gradient():
    net = _net("augmented", Activation.SIGMOID)
    grads = analytic_gradients(net, 4, np.array([0.2, 0.1]), np.array([0.0, 0.5]))
    # category 4 has code 100: memory rows of other categories stay flat
    assert np.array_equal(grads["encoder.cat_memory"][0], np.zeros(3))
    assert np.array_equal(grads["encoder.bit_weights"][0], np.zeros(3))
    assert np.array_equal(grads["encoder.bit_memory"][:, 0], np.zeros(3))


def test_relu_margin_infinite_without_relu():
    net = _net("augmented", Activation.SIGMOID)
    assert relu_margin(net, 1, np.array([0.0, 0.0])) == float("inf")


def test_relu_gradients_checked_away_from_kink():
    stream = SplitMix64(99)
    checked = 0
    for _ in range(200):
        seed = stream.next_u64() % (2**32)
        net = _net("augmented", Activation.RELU, seed=seed)
        category = stream.next_below(6) + 1
        numerics = np.array([stream.next_symmetric(1.0), stream.next_symmetric(1.0)])
        if relu_margin(net, category, numerics) <= 1e-3:
            continue  # too close to the kink for central differences
        target = np.array([stream.next_symmetric(1.0), stream.next_symmetric(1.0)])
        result = check_gradients(net, category, numerics, target)
        assert result.passed, str(result)
        checked += 1
        if checked >= 5:
            break
    assert checked >= 5


def test_result_string_mentions_worst_parameter():
    net = _net("onehot", Activation.SIGMOID)
    result = check_gradients(net, 1, np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    assert "gradcheck ok" in str(result)
    assert result.entries_checked == sum(arr.size for _, arr in param_arrays(net))


def test_check_gradients_fails_on_a_nan_gradient(monkeypatch):
    real = augbin.gradcheck.numeric_gradients

    def with_nan(*args, **kwargs):
        grads = real(*args, **kwargs)
        grads["encoder.bias"][1] = np.nan
        return grads

    monkeypatch.setattr(augbin.gradcheck, "numeric_gradients", with_nan)
    net = _net("augmented", Activation.SIGMOID)
    result = check_gradients(net, 5, np.array([0.4, -0.6]), np.array([0.3, -0.1]))
    assert not result.passed
    assert math.isnan(result.max_abs_diff)
    assert result.worst_param == "encoder.bias"
