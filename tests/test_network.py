"""Engine tests: activations, forward caching, SGD mechanics, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbin.cli
import augbin.network
from augbin import (
    Activation,
    DenseLayer,
    InvalidArgumentError,
    Network,
    NetworkConfig,
    NumericError,
    OneHotLayer,
    OpCounters,
    RangeError,
    SgdConfig,
    SplitMix64,
    build_network,
    mean_loss,
    mse_gradient,
    mse_loss,
    run_sgd,
    synthetic_stream,
)
from augbin.gradcheck import analytic_gradients, param_arrays
from augbin.network import Batch
from augbin.layers import ENCODERS, Encoder


def scalar_mean_loss(network, examples):
    """Reference oracle for ``mean_loss``: one ``predict`` per row, summed left to right."""
    total = 0.0
    count = 0
    for category, numerics, target in examples:
        total += mse_loss(network.predict(category, numerics), np.asarray(target, dtype=np.float64))
        count += 1
    if count == 0:
        raise InvalidArgumentError("no examples")
    loss = total / count
    if not np.isfinite(loss):
        raise NumericError(f"non-finite mean loss {loss}")
    return loss


def test_activation_values():
    z = np.array([-1.0, 0.0, 2.0])
    assert Activation.IDENTITY.apply(z).tolist() == [-1.0, 0.0, 2.0]
    assert Activation.RELU.apply(z).tolist() == [0.0, 0.0, 2.0]
    assert Activation.SIGMOID.apply(np.array([0.0]))[0] == 0.5
    assert Activation.TANH.apply(np.array([0.0]))[0] == 0.0


def test_activation_derivatives():
    z = np.array([0.0])
    s = Activation.SIGMOID.apply(z)
    assert Activation.SIGMOID.derivative(z, s)[0] == 0.25
    t = Activation.TANH.apply(z)
    assert Activation.TANH.derivative(z, t)[0] == 1.0
    assert Activation.IDENTITY.derivative(z, z)[0] == 1.0
    # the kink is assigned slope zero
    kink = np.array([-1.0, 0.0, 1.0])
    relu = Activation.RELU.apply(kink)
    assert Activation.RELU.derivative(kink, relu).tolist() == [0.0, 0.0, 1.0]


def test_dense_layer_forward_matches_manual_sum():
    layer = DenseLayer(
        weights=np.array([[1.0, 2.0], [3.0, 4.0]]),
        bias=np.array([0.5, -0.5]),
        activation=Activation.IDENTITY,
    )
    z = layer.forward(np.array([2.0, -1.0]))
    assert z.tolist() == [1.0 * 2 - 3.0 + 0.5, 2.0 * 2 - 4.0 - 0.5]


def test_dense_layer_validates_bias_length():
    with pytest.raises(InvalidArgumentError):
        DenseLayer(weights=np.zeros((2, 3)), bias=np.zeros(2), activation=Activation.IDENTITY)


def test_network_validates_dimension_chain():
    encoder = OneHotLayer(cat_weights=np.zeros((3, 2)), num_weights=np.zeros((0, 2)), bias=np.zeros(2))
    bad = DenseLayer(weights=np.zeros((3, 1)), bias=np.zeros(1), activation=Activation.IDENTITY)
    with pytest.raises(InvalidArgumentError):
        Network(encoder=encoder, encoder_activation=Activation.IDENTITY, layers=[bad])


def _config(kind="augmented", seed=0, hidden=(1,)):
    return NetworkConfig(
        encoder_kind=kind,
        n_categories=11,
        n_numeric=2,
        k=4,
        hidden=hidden,
        encoder_activation=Activation.SIGMOID,
        hidden_activation=Activation.SIGMOID,
        output_activation=Activation.IDENTITY,
        seed=seed,
    )


def test_build_network_is_deterministic():
    a = build_network(_config())
    b = build_network(_config())
    assert np.array_equal(a.encoder.bit_weights, b.encoder.bit_weights)
    assert np.array_equal(a.layers[0].weights, b.layers[0].weights)
    out_a = a.predict(5, np.array([0.1, 0.2]))
    out_b = b.predict(5, np.array([0.1, 0.2]))
    assert np.array_equal(out_a, out_b)


def test_build_network_zero_biases():
    net = build_network(_config(hidden=(3, 1)))
    assert np.array_equal(net.encoder.bias, np.zeros(4))
    for layer in net.layers:
        assert np.array_equal(layer.bias, np.zeros(layer.fan_out))


def test_build_network_dense_draws_shared_across_binary_kinds():
    binary = build_network(_config(kind="binary"))
    augmented = build_network(_config(kind="augmented"))
    assert np.array_equal(binary.encoder.bit_weights, augmented.encoder.bit_weights)
    assert np.array_equal(binary.layers[0].weights, augmented.layers[0].weights)


def test_config_validation():
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(encoder_kind="dense", n_categories=3, n_numeric=0, k=1)
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(encoder_kind=["onehot"], n_categories=3, n_numeric=0, k=1)
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(encoder_kind="onehot", n_categories=0, n_numeric=0, k=1)
    with pytest.raises(InvalidArgumentError):
        NetworkConfig(encoder_kind="onehot", n_categories=3, n_numeric=0, k=1, hidden=(0,))


def test_forward_cache_shapes_and_output():
    net = build_network(_config(hidden=(3, 2)))
    cache = net.forward(4, np.array([0.5, -0.5]))
    assert [z.shape for z in cache.pre_activations] == [(4,), (3,), (2,)]
    assert [a.shape for a in cache.activations] == [(4,), (3,), (2,)]
    assert np.array_equal(cache.output, cache.activations[-1])
    assert net.output_width == 2


def test_mse_loss_and_gradient():
    output = np.array([1.0, 3.0])
    target = np.array([0.0, 1.0])
    assert mse_loss(output, target) == (1.0 + 4.0) / 2
    assert mse_gradient(output, target).tolist() == [1.0, 2.0]


def test_mse_shape_mismatch():
    with pytest.raises(InvalidArgumentError):
        mse_loss(np.zeros(2), np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        mse_gradient(np.zeros(2), np.zeros(3))


def test_sgd_step_returns_learning_rate_times_error_signal():
    net = build_network(_config())
    x = np.array([0.3, -0.7])
    target = np.array([0.25])
    grads = analytic_gradients(net, 6, x, target)
    returned = net.sgd_step(6, x, target, 0.1)
    # the encoder bias gradient is exactly the per-neuron error signal
    assert np.array_equal(returned, 0.1 * grads["encoder.bias"])


def test_sgd_step_applies_delta_to_downstream_layer():
    net = build_network(_config())
    x = np.array([0.3, -0.7])
    target = np.array([0.25])
    weights_before = net.layers[0].weights.copy()
    cache = net.forward(6, x)
    deltas = net.backprop_deltas(cache, target)
    net.sgd_step(6, x, target, 0.1)
    expected = weights_before - np.outer(cache.activations[0], 0.1 * deltas[1])
    assert np.max(np.abs(net.layers[0].weights - expected)) <= 1e-15


def _param_bytes(net):
    arrays = [array for _, array in net.encoder.params()]
    for layer in net.layers:
        arrays += [layer.weights, layer.bias]
    return [array.tobytes() for array in arrays]


@pytest.mark.parametrize("kind, folded", [("onehot", False), ("binary", False), ("augmented", False), ("augmented", True)])
def test_sgd_step_equals_update_of_forward(kind, folded):
    nets = [build_network(_config(kind, seed=4, hidden=(3, 1))) for _ in range(2)]
    fresh = _param_bytes(nets[0])
    counters = [OpCounters(), OpCounters()]
    for net in nets:
        net.folded_forward = folded
    for category, numerics, target in synthetic_stream(7, 11, 2, 1, 40):
        stepped = nets[0].sgd_step(category, numerics, target, 0.3, counters[0])
        cache = nets[1].forward(category, numerics, counters[1])
        assert nets[1].update(cache, target, 0.3, counters[1]).tobytes() == stepped.tobytes()
    assert counters[0] == counters[1]
    assert _param_bytes(nets[0]) == _param_bytes(nets[1]) != fresh


def test_run_sgd_tracks_mean_loss_per_step():
    net = build_network(_config())
    examples = [
        (1, np.array([0.1, 0.2]), np.array([0.4])),
        (5, np.array([-0.3, 0.8]), np.array([-0.2])),
    ]
    losses = run_sgd(net, examples, SgdConfig(0.1, 7))
    twin = build_network(_config())
    expected = [scalar_mean_loss(twin, examples)]
    for step in range(7):
        twin.sgd_step(*examples[step % 2], 0.1)
        expected.append(scalar_mean_loss(twin, examples))
    assert [loss.hex() for loss in losses] == [loss.hex() for loss in expected]


@pytest.mark.parametrize("kind, folded", [("onehot", False), ("binary", False), ("augmented", False), ("augmented", True)])
def test_run_sgd_on_a_batch_equals_run_sgd_on_its_triples(kind, folded):
    stream = SplitMix64(21)
    rows = 7
    categories = np.array([stream.next_below(6) + 1 for _ in range(rows)], dtype=np.int64)
    numerics = np.array([[stream.next_symmetric(1.0) for _ in range(2)] for _ in range(rows)])
    targets = np.array([[stream.next_symmetric(1.0)] for _ in range(rows)])
    triples = [(int(c), x, t) for c, x, t in zip(categories, numerics, targets)]
    nets, counters, losses = [], [], []
    for examples in (Batch(categories, numerics, targets), triples):
        net = build_network(_config(kind, seed=4, hidden=(3, 1)))
        net.folded_forward = folded
        counters.append(OpCounters())
        losses.append([loss.hex() for loss in run_sgd(net, examples, SgdConfig(0.2, 17), counters[-1])])
        nets.append(net)
    assert losses[0] == losses[1]
    assert counters[0] == counters[1]
    assert _param_bytes(nets[0]) == _param_bytes(nets[1])


def test_run_sgd_calls_mean_loss_by_module_name(monkeypatch):
    # perfbench/spans.py traces evaluation by patching these two names.
    calls = []
    original = augbin.network.mean_loss

    def counting(network, examples):
        calls.append(1)
        return original(network, examples)

    monkeypatch.setattr(augbin.network, "mean_loss", counting)
    examples = [(1, np.array([0.1, 0.2]), np.array([0.4]))]
    run_sgd(build_network(_config()), examples, SgdConfig(0.1, 5))
    assert len(calls) == 5 + 1
    assert "mean_loss" in vars(augbin.cli)


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_run_sgd_checks_and_plans_its_batch_once(kind, monkeypatch):
    counts = {"check": 0, "unique": 0}
    check, unique = Encoder._check_batch, np.unique

    def counting_check(self, *args):
        counts["check"] += 1
        return check(self, *args)

    def counting_unique(*args, **kwargs):
        counts["unique"] += 1
        return unique(*args, **kwargs)

    monkeypatch.setattr(Encoder, "_check_batch", counting_check)
    monkeypatch.setattr(np, "unique", counting_unique)
    examples = list(synthetic_stream(3, 11, 2, 1, 9))
    losses = run_sgd(build_network(_config(kind)), examples, SgdConfig(0.1, 7))
    assert len(losses) == 7 + 1
    assert counts == {"check": 1, "unique": 1}


def test_run_sgd_zero_steps_reports_initial_loss_only():
    net = build_network(_config())
    examples = [(1, np.array([0.0, 0.0]), np.array([0.0]))]
    losses = run_sgd(net, examples, SgdConfig(0.1, 0))
    assert len(losses) == 1


def test_run_sgd_reduces_loss_on_learnable_data():
    net = build_network(
        NetworkConfig(
            encoder_kind="augmented",
            n_categories=4,
            n_numeric=0,
            k=1,
            encoder_activation=Activation.IDENTITY,
            seed=5,
        )
    )
    examples = [(c, (), np.array([0.1 * c])) for c in range(1, 5)]
    losses = run_sgd(net, examples, SgdConfig(0.2, 60))
    assert losses[-1] < losses[0] * 0.01


def test_run_sgd_rejects_empty_examples():
    net = build_network(_config())
    with pytest.raises(InvalidArgumentError):
        run_sgd(net, [], SgdConfig(0.1, 1))


@pytest.mark.parametrize("form", ["triples", "batch"])
def test_mean_loss_and_run_sgd_reject_no_examples(form):
    net = build_network(_config())
    empty = [] if form == "triples" else Batch(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(InvalidArgumentError, match="no examples"):
        mean_loss(net, empty)
    with pytest.raises(InvalidArgumentError, match="no examples"):
        run_sgd(net, empty, SgdConfig(0.1, 3))


_NOT_INTEGERS = [2.7, 2.0, "3", True, np.True_]


@pytest.mark.parametrize("category", _NOT_INTEGERS)
@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_predict_batch_refuses_category_ids_that_are_not_integers(kind, category):
    net = build_network(_config(kind=kind))
    x = np.array([[0.2, -0.1]])
    with pytest.raises(InvalidArgumentError, match="integers"):
        net.predict_batch([category], x)
    for ids in (np.array([2], dtype=np.uint8), np.array([2], dtype=np.int32)):
        assert net.predict_batch(ids, x).tobytes() == net.predict_batch([2], x).tobytes()


@pytest.mark.parametrize("category", _NOT_INTEGERS)
@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_predict_refuses_a_category_that_is_not_an_integer(kind, category):
    net = build_network(_config(kind=kind))
    x = np.array([0.2, -0.1])
    with pytest.raises(InvalidArgumentError, match="integer"):
        net.predict(category, x)
    assert net.predict(np.int16(2), x).tobytes() == net.predict(2, x).tobytes()


def test_predict_batch_names_a_large_unsigned_id_as_given():
    net = build_network(_config())
    with pytest.raises(RangeError, match=f"category {2**63 + 5} out of 1..11"):
        net.predict_batch(np.array([2**63 + 5], dtype=np.uint64), np.zeros((1, 2)))


@pytest.mark.parametrize("category", [2**70, -(2**70), 2**64])
def test_predict_batch_names_an_id_beyond_int64(category):
    net = build_network(_config())
    with pytest.raises(RangeError, match=rf"^category {category} out of 1..11$"):
        net.predict_batch([3, category], np.zeros((2, 2)))
    with pytest.raises(InvalidArgumentError, match="integer"):  # still refused before any range check
        net.predict_batch(np.array([category, 2.5], dtype=object), np.zeros((2, 2)))


@pytest.mark.parametrize("category", [2**70, -(2**70), 2**64])
def test_mean_loss_names_a_triple_id_beyond_int64(category):
    net = build_network(_config())
    x, target = np.array([0.2, -0.1]), np.array([0.5])
    with pytest.raises(RangeError, match=rf"^category {category} out of 1..11$"):
        mean_loss(net, [(3, x, target), (category, x, target)])
    with pytest.raises(RangeError, match=rf"^category {category} out of 1..11$"):
        net.predict(category, x)


@pytest.mark.parametrize("category", _NOT_INTEGERS)
def test_mean_loss_refuses_triples_whose_category_is_not_an_integer(category):
    net = build_network(_config())
    x, target = np.array([0.2, -0.1]), np.array([0.5])
    with pytest.raises(InvalidArgumentError, match="integer"):
        mean_loss(net, [(3, x, target), (category, x, target)])
    assert mean_loss(net, [(np.int64(2), x, target)]) == mean_loss(net, [(2, x, target)])


def test_sgd_config_validation():
    with pytest.raises(InvalidArgumentError):
        SgdConfig(0.0, 10)
    with pytest.raises(InvalidArgumentError):
        SgdConfig(0.1, -1)


@pytest.mark.parametrize("learning_rate", [np.inf, np.nan])
def test_sgd_config_rejects_a_learning_rate_that_is_not_finite(learning_rate):
    with pytest.raises(InvalidArgumentError, match="learning_rate"):
        SgdConfig(learning_rate, 10)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_mean_loss_raises_when_not_finite():
    net = build_network(_config())
    examples = [(1, np.array([0.0, 0.0]), np.array([1e200]))]  # squared error overflows
    with pytest.raises(NumericError):
        mean_loss(net, examples)


def test_non_finite_forward_raises():
    net = build_network(_config())
    net.encoder.bit_weights[0, 0] = np.inf
    with pytest.raises(NumericError):
        net.forward(1, np.array([0.0, 0.0]))


_STAGE_MESSAGES = {
    "encoder": "non-finite encoder pre-activation",
    "hidden": "non-finite dense pre-activation",
    "output": "non-finite dense pre-activation",
}


@pytest.mark.parametrize("kind", tuple(ENCODERS))
@pytest.mark.parametrize("stage", tuple(_STAGE_MESSAGES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_each_stage_checks_its_pre_activation_for_non_finite_values(kind, stage, value):
    net = build_network(NetworkConfig(encoder_kind=kind, n_categories=5, n_numeric=2, k=3, hidden=(4, 1), seed=2))
    planted = {"encoder": net.encoder.bias, "hidden": net.layers[0].bias, "output": net.layers[1].bias}[stage]
    planted[-1] = value  # only this stage's pre-activation turns non-finite
    x = np.array([0.5, -0.25])
    before = [array.tobytes() for _, array in param_arrays(net)]
    calls = {
        "forward": lambda: net.forward(3, x),
        "predict": lambda: net.predict(3, x),
        "sgd_step": lambda: net.sgd_step(3, x, [0.5], 0.1),
        "predict_batch": lambda: net.predict_batch([3, 1], np.stack([x, -x])),
    }
    for name, call in calls.items():
        with pytest.raises(NumericError) as err:
            call()
        assert str(err.value) == _STAGE_MESSAGES[stage], name
    # The check runs before any update: a step that raised changed nothing.
    assert [array.tobytes() for _, array in param_arrays(net)] == before


def test_predict_equals_forward_output():
    net = build_network(_config())
    x = np.array([0.2, 0.4])
    assert np.array_equal(net.predict(3, x), net.forward(3, x).output)


def test_downstream_counter_tallies_dense_work():
    from augbin import OpCounters

    net = build_network(_config(hidden=(3, 2)))
    counters = OpCounters()
    net.forward(1, np.array([0.0, 0.0]), counters)
    assert counters.downstream_madds == 4 * 3 + 3 * 2


def _sizes():
    """N in {1, 2, 3} and 2**n - 1, 2**n for n up to 7."""
    return st.sampled_from([1, 2, 3] + [2**n + d for n in range(2, 8) for d in (-1, 0)])


@given(
    kind=st.sampled_from(tuple(ENCODERS)),
    n_categories=_sizes(),
    n_numeric=st.integers(0, 3),
    k=st.integers(1, 10),
    hidden=st.sampled_from([(), (1,), (5, 3, 1)]),
    activations=st.tuples(*[st.sampled_from(list(Activation))] * 3),
    folded=st.booleans(),
    rows=st.integers(1, 40),
    steps=st.integers(0, 3),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_mean_loss_matches_scalar_oracle_bit_for_bit(
    kind, n_categories, n_numeric, k, hidden, activations, folded, rows, steps, seed
):
    net = build_network(
        NetworkConfig(
            encoder_kind=kind,
            n_categories=n_categories,
            n_numeric=n_numeric,
            k=k,
            hidden=hidden,
            encoder_activation=activations[0],
            hidden_activation=activations[1],
            output_activation=activations[2],
            seed=seed,
        )
    )
    net.folded_forward = folded
    stream = SplitMix64(seed + 1)
    examples = [
        (
            stream.next_below(n_categories) + 1,
            stream.symmetric_array((n_numeric,), 2.0),
            stream.symmetric_array((net.output_width,), 1.0),
        )
        for _ in range(rows)
    ]
    for check in range(3):
        for step in range(steps if check else 0):
            try:
                net.sgd_step(*examples[(check + step) % rows], 0.1)
            except NumericError:  # diverged on this row; the oracle below meets it too
                break
        try:
            expected = scalar_mean_loss(net, examples)
        except NumericError:  # training diverged: both paths must say so
            with pytest.raises(NumericError):
                mean_loss(net, examples)
            return
        assert mean_loss(net, examples).hex() == expected.hex()
        categories = [c for c, _, _ in examples]
        stacked = np.array([x for _, x, _ in examples]).reshape(rows, n_numeric)
        outputs = net.predict_batch(categories, stacked)
        for row, (category, numerics, _) in enumerate(examples):
            assert outputs[row].tobytes() == net.predict(category, numerics).tobytes()


def _fault_network(kind):
    return build_network(_config(kind=kind, hidden=(3, 1)))


def _poison_encoder(net):
    _, categorical = net.encoder.params()[0]
    categorical[0, 0] = np.inf  # category 1's row, or the row of bit 1


def _poison_dense(net):
    net.layers[0].weights[0, 0] = np.inf


_GOOD_ROW = (3, np.array([0.2, -0.1]), np.array([0.5]))

_FAULTS = {
    "category above N": (RangeError, None, [_GOOD_ROW, (12, np.zeros(2), np.zeros(1))]),
    "category zero": (RangeError, None, [(0, np.zeros(2), np.zeros(1)), _GOOD_ROW]),
    "numeric width": (InvalidArgumentError, None, [_GOOD_ROW, (3, np.zeros(3), np.zeros(1))]),
    "numeric width everywhere": (InvalidArgumentError, None, [(3, np.zeros(1), np.zeros(1))] * 2),
    "target width": (InvalidArgumentError, None, [(3, np.zeros(2), np.zeros(2))] * 2),
    "ragged target": (InvalidArgumentError, None, [_GOOD_ROW, (3, np.zeros(2), np.zeros(2))]),
    "no examples": (InvalidArgumentError, None, []),
    "infinite encoder weight": (NumericError, _poison_encoder, [(1, np.zeros(2), np.zeros(1))]),
    "infinite dense weight": (NumericError, _poison_dense, [_GOOD_ROW]),
    "nan numeric": (NumericError, None, [_GOOD_ROW, (3, np.array([np.nan, 0.0]), np.zeros(1))]),
    "loss overflow": (NumericError, None, [_GOOD_ROW, (3, np.zeros(2), np.array([1e200]))]),
}


@pytest.mark.parametrize("kind", tuple(ENCODERS))
@pytest.mark.parametrize("fault", tuple(_FAULTS))
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_mean_loss_raises_what_the_scalar_oracle_raises(kind, fault):
    error, poison, examples = _FAULTS[fault]
    net = _fault_network(kind)
    if poison is not None:
        poison(net)
    with pytest.raises(error):
        scalar_mean_loss(net, examples)
    with pytest.raises(error):
        mean_loss(net, examples)


@pytest.mark.parametrize("kind", ["binary", "augmented"])
def test_mean_loss_ignores_an_infinite_row_of_an_unused_bit(kind):
    net = build_network(_config(kind=kind))
    net.sgd_step(5, np.array([0.3, 0.1]), np.array([0.2]), 0.1)
    net.encoder.bit_weights[3] = np.inf  # bit 4: only categories 8..11 use it
    if kind == "augmented":
        net.encoder.bit_memory[:, 3] = np.inf
    examples = [(c, np.array([0.1 * c, -0.2]), np.array([0.3])) for c in range(1, 8)]
    assert mean_loss(net, examples).hex() == scalar_mean_loss(net, examples).hex()
