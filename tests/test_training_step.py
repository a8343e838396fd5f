"""The array-form training step against the ascending loops it replaced.

Each ``loop_*`` function below is a reference oracle: the one-``+=``-per-term
loop that the production method computes with a single
``np.add.accumulate``.  ``loop_oracle()`` patches them in for the production
names, so the same ``Network.sgd_step`` runs once on the array path and once
on the loops, and the tests require the two to agree byte for byte.
"""

import contextlib
import copy
import gc
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augbin import (
    Activation,
    AugmentedBinaryLayer,
    BinaryLayer,
    DenseLayer,
    Network,
    NetworkConfig,
    NumericError,
    OneHotLayer,
    OpCounters,
    SplitMix64,
    build_network,
    encode,
)
from augbin import layers
from augbin.gradcheck import param_arrays
from augbin.layers import ENCODERS
from augbin.network import ForwardCache, mse_gradient


def loop_dense_forward(self, x, counters=None):
    """Oracle for ``DenseLayer.forward``: fan-in terms in ascending order from zeros, then the bias."""
    z = np.zeros(self.fan_out)
    for i in range(self.fan_in):
        z += self.weights[i] * x[i]
    z += self.bias
    if counters is not None:
        counters.downstream_madds += self.fan_in * self.fan_out
    return z


def loop_backprop_deltas(self, cache, target):
    """Oracle for ``Network.backprop_deltas``: the grad sums output columns in ascending order."""
    target = np.asarray(target, dtype=np.float64)
    grad = mse_gradient(cache.output, target)
    deltas = []
    stages = [(self.encoder_activation, None)] + [(layer.activation, layer) for layer in self.layers]
    for idx in range(len(stages) - 1, -1, -1):
        activation, layer = stages[idx]
        dz = grad * activation.derivative(cache.pre_activations[idx], cache.activations[idx])
        deltas.append(dz)
        if idx > 0:
            grad = np.zeros(layer.fan_in)
            for k in range(layer.fan_out):
                grad += layer.weights[:, k] * dz[k]
    deltas.reverse()
    return deltas


def _check_example(encoder, category, numerics):
    """The encoder's input check, numeric features alone: the loops below keep their own category."""
    return encoder._check_step(category, numerics)[1]


def _positions(encoder, category):
    return encode(category, encoder.width).positions


def _loop_numerics_and_bias(encoder, z, x, bias):
    for j in range(encoder.n_numeric):
        z += encoder.num_weights[j] * x[j]
    z += bias
    return z


def _loop_bit_sum(encoder, positions):
    z = np.zeros(encoder.k)
    for i in positions:
        z += encoder.bit_weights[i - 1]
    return z


def _loop_add_memories(encoder, z, category, positions):
    z += encoder.cat_memory[category - 1]
    for i in positions:
        z -= encoder.bit_memory[:, i - 1]
    return z


def _loop_update_bits_numerics_and_bias(encoder, x, positions, delta):
    for i in positions:
        encoder.bit_weights[i - 1] -= delta
    encoder.num_weights -= np.outer(x, delta)
    encoder.bias -= delta


def loop_onehot_forward(self, category, numerics=(), counters=None):
    x = _check_example(self, category, numerics)
    z = _loop_numerics_and_bias(self, self.cat_weights[category - 1].copy(), x, self.bias)
    if counters is not None:
        counters.encoding_madds_dense += self.n_categories * self.k
        counters.encoding_madds_sparse += self.k
    return z


def loop_binary_forward(self, category, numerics=(), counters=None):
    x = _check_example(self, category, numerics)
    positions = _positions(self, category)
    z = _loop_numerics_and_bias(self, _loop_bit_sum(self, positions), x, self.bias)
    if counters is not None:
        counters.encoding_madds_dense += self.width * self.k
        counters.encoding_madds_sparse += len(positions) * self.k
    return z


def loop_binary_update(self, category, numerics, delta, counters=None):
    x = _check_example(self, category, numerics)
    positions = _positions(self, category)
    _loop_update_bits_numerics_and_bias(self, x, positions, np.asarray(delta, dtype=np.float64))
    if counters is not None:
        counters.encoding_param_updates += len(positions) * self.k


def loop_binary_contribution(self, category):
    self._check_step(category)
    return _loop_bit_sum(self, _positions(self, category))


def _count_augmented_forward(self, counters, ones):
    if counters is not None:
        counters.encoding_madds_dense += (2 * self.width + 1) * self.k
        counters.encoding_madds_sparse += (2 * ones + 1) * self.k


def loop_augmented_forward(self, category, numerics=(), counters=None):
    """The whole category term first (bit rows, category memory, bit memories), then numerics, then bias."""
    x = _check_example(self, category, numerics)
    positions = _positions(self, category)
    z = _loop_add_memories(self, _loop_bit_sum(self, positions), category, positions)
    z = _loop_numerics_and_bias(self, z, x, self.bias)
    _count_augmented_forward(self, counters, len(positions))
    return z


def loop_augmented_folded(self, category, numerics=(), counters=None):
    x = _check_example(self, category, numerics)
    positions = _positions(self, category)
    adjusted = _loop_add_memories(self, self.bias.copy(), category, positions)
    z = _loop_numerics_and_bias(self, _loop_bit_sum(self, positions), x, adjusted)
    _count_augmented_forward(self, counters, len(positions))
    return z


def loop_augmented_update(self, category, numerics, delta, counters=None):
    x = _check_example(self, category, numerics)
    delta = np.asarray(delta, dtype=np.float64)
    positions = _positions(self, category)
    if not self.skip_category_memory_update:
        self.cat_memory[category - 1] -= delta
    for i in positions:
        self.bit_memory[:, i - 1] -= delta
    _loop_update_bits_numerics_and_bias(self, x, positions, delta)
    if counters is not None:
        counters.encoding_param_updates += (2 * len(positions) + 1) * self.k


def loop_augmented_contribution(self, category):
    self._check_step(category)
    positions = _positions(self, category)
    return _loop_add_memories(self, _loop_bit_sum(self, positions), category, positions)


LOOP_METHODS = (
    (DenseLayer, "forward", loop_dense_forward),
    (Network, "backprop_deltas", loop_backprop_deltas),
    (OneHotLayer, "forward", loop_onehot_forward),
    (BinaryLayer, "forward", loop_binary_forward),
    (BinaryLayer, "apply_update", loop_binary_update),
    (BinaryLayer, "effective_contribution", loop_binary_contribution),
    (AugmentedBinaryLayer, "forward", loop_augmented_forward),
    (AugmentedBinaryLayer, "forward_folded", loop_augmented_folded),
    (AugmentedBinaryLayer, "apply_update", loop_augmented_update),
    (AugmentedBinaryLayer, "effective_contribution", loop_augmented_contribution),
)


@contextlib.contextmanager
def loop_oracle():
    """Run the production code with every loop oracle in place of its array method."""
    with contextlib.ExitStack() as stack:
        for owner, name, oracle in LOOP_METHODS:
            stack.enter_context(mock.patch.object(owner, name, oracle))
        yield


def step_record(net, category, numerics, target, learning_rate, counters):
    """Bytes of all that one step computes and leaves behind; a NumericError ends the step."""
    record = []
    try:
        cache = net.forward(category, numerics)
        record += [cache.category, cache.numerics.tobytes()]
        record += [arr.tobytes() for arr in cache.pre_activations + cache.activations]
        record += [delta.tobytes() for delta in net.backprop_deltas(cache, target)]
        record.append(net.sgd_step(category, numerics, target, learning_rate, counters).tobytes())
    except NumericError as err:
        record.append(f"NumericError: {err}")
    record += [arr.tobytes() for _, arr in param_arrays(net)]
    record.append(counters.as_dict())
    for probe in sorted({1, category, net.encoder.n_categories}):
        record.append(net.encoder.effective_contribution(probe).tobytes())
    return record


def assert_trajectories_match(config, folded, steps, learning_rate, seed, skip_category_memory=False):
    """Train twins of ``config`` on the array path and on the loop oracles; compare every step.

    ``skip_category_memory`` sets the augmented encoder's fault hook on both twins.
    """
    fast, slow = build_network(config), build_network(config)
    fast.folded_forward = slow.folded_forward = folded
    if skip_category_memory:
        fast.encoder.skip_category_memory_update = slow.encoder.skip_category_memory_update = True
    fast_counts, slow_counts = OpCounters(), OpCounters()
    stream = SplitMix64(seed)
    for _ in range(steps):
        category = stream.next_below(config.n_categories) + 1
        numerics = stream.symmetric_array((config.n_numeric,), 2.0)
        target = stream.symmetric_array((fast.output_width,), 3.0)
        with loop_oracle():
            expected = step_record(slow, category, numerics, target, learning_rate, slow_counts)
        assert step_record(fast, category, numerics, target, learning_rate, fast_counts) == expected
        if any(isinstance(item, str) for item in expected):  # diverged: both raised alike
            return


def _sizes():
    """N in {1, 2, 3} and 2**n - 1, 2**n for n up to 10."""
    return st.sampled_from([1, 2, 3] + [2**n + d for n in range(2, 11) for d in (-1, 0)])


@given(
    kind=st.sampled_from(tuple(ENCODERS)),
    n_categories=_sizes(),
    k=st.integers(1, 10),
    n_numeric=st.integers(0, 3),
    # (12, 1): backprop into the encoder sums 12 output columns, where a
    # pairwise np.sum would regroup the terms.
    hidden=st.sampled_from([(), (1,), (5, 3, 1), (12, 1)]),
    activations=st.tuples(*[st.sampled_from(list(Activation))] * 3),
    folded=st.booleans(),
    steps=st.integers(1, 8),
    learning_rate=st.sampled_from([0.1, 0.7, 5.0]),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_sgd_step_matches_loop_oracle_byte_for_byte(
    kind, n_categories, k, n_numeric, hidden, activations, folded, steps, learning_rate, seed
):
    config = NetworkConfig(
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
    assert_trajectories_match(config, folded, steps, learning_rate, seed + 1)


@pytest.mark.parametrize("kind", tuple(ENCODERS))
@pytest.mark.parametrize("folded", [False, True])
def test_sgd_step_matches_loop_oracle_at_65536_categories(kind, folded):
    config = NetworkConfig(encoder_kind=kind, n_categories=65536, n_numeric=2, k=3, hidden=(5, 3, 1), seed=65536)
    assert_trajectories_match(config, folded, steps=6, learning_rate=0.1, seed=3)


@pytest.mark.parametrize("n_categories", [1, 2, 37, 1024])
@pytest.mark.parametrize("folded", [False, True])
def test_sgd_step_with_the_fault_hook_matches_loop_oracle(n_categories, folded):
    # The one scatter must leave out the category memory row, as the loop does.
    config = NetworkConfig(encoder_kind="augmented", n_categories=n_categories, n_numeric=2, k=4,
                           hidden=(3, 1), seed=n_categories)
    assert_trajectories_match(config, folded, steps=8, learning_rate=0.7, seed=5, skip_category_memory=True)


@pytest.mark.parametrize("kind", ["onehot", "augmented"])
def test_sgd_step_matches_loop_oracle_at_the_stream_benchmark_shape(kind):
    # The sgd-stream benchmark's nets: N=65536, K=32, 3 numerics, hidden (8, 1).
    config = NetworkConfig(encoder_kind=kind, n_categories=65536, n_numeric=3, k=32, hidden=(8, 1), seed=11)
    assert_trajectories_match(config, folded=False, steps=4, learning_rate=0.1, seed=12)


PLAIN_ACTIVATIONS = {
    Activation.IDENTITY: (lambda z: z.copy(), lambda z, a: np.ones_like(z)),
    Activation.SIGMOID: (lambda z: 1.0 / (1.0 + np.exp(-z)), lambda z, a: a * (1.0 - a)),
    Activation.TANH: (np.tanh, lambda z, a: 1.0 - a * a),
    Activation.RELU: (lambda z: np.maximum(z, 0.0), lambda z, a: np.where(z > 0.0, 1.0, 0.0)),
}

# +-0.0, +-inf, NaN of both signs, subnormals, the normal edge, |z| > 710
# (where exp overflows), and values where the sigmoid rounds to 0 or 1.
_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                     2.2250738585072014e-308, 709.7, -709.7, 710.5, -710.5, 745.2, -745.2, 1e300,
                     -1e300, 36.8, -36.8, 1.0, -1.0])


@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("shape", [(23,), (1, 23), (23, 1), (46, 3)])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_activation_matches_plain_expressions_byte_for_byte(activation, shape):
    draws = SplitMix64(len(shape)).symmetric_array((int(np.prod(shape)),), 40.0)
    draws[: _SPECIAL.size] = _SPECIAL
    z = draws.reshape(shape)
    plain_apply, plain_derivative = PLAIN_ACTIVATIONS[activation]
    a = activation.apply(z)
    assert a.tobytes() == plain_apply(z).tobytes()
    assert not np.shares_memory(a, z)
    assert activation.derivative(z, a).tobytes() == plain_derivative(z, a).tobytes()
    strided = np.repeat(z, 2, axis=-1)[..., ::2]  # not contiguous
    assert activation.apply(strided).tobytes() == plain_apply(strided).tobytes()


def _negative_zero_encoder(kind):
    """K=2, N=3, one numeric feature: every category-path term is -0.0 at zero input, and so is the bias."""
    negative = np.array([[-1.0, -2.0]])
    bias = np.array([-0.0, -0.0])
    if kind == "onehot":
        return OneHotLayer(cat_weights=np.full((3, 2), -0.0), num_weights=negative, bias=bias)
    bits = np.full((2, 2), -0.0)
    if kind == "binary":
        return BinaryLayer(n_categories=3, bit_weights=bits, num_weights=negative, bias=bias)
    # A +0.0 bit memory enters the forward pass negated, as -0.0.
    return AugmentedBinaryLayer(
        bit_weights=bits,
        num_weights=negative,
        bias=bias,
        cat_memory=np.full((3, 2), -0.0),
        bit_memory=np.zeros((2, 2)),
    )


def test_dense_forward_of_negative_zero_terms_is_positive_zero():
    weights = np.array([[-1.0, -3.0], [-2.0, -0.5]])
    layer = DenseLayer(weights=weights, bias=np.array([-0.0, -0.0]), activation=Activation.IDENTITY)
    x = np.zeros(2)  # every term weights[i] * 0.0 is -0.0
    z = layer.forward(x)
    assert z.tobytes() == loop_dense_forward(layer, x).tobytes()
    assert not np.signbit(z).any()


def test_dense_forward_with_no_inputs_is_the_bias():
    layer = DenseLayer(weights=np.zeros((0, 2)), bias=np.array([0.5, -0.0]), activation=Activation.IDENTITY)
    z = layer.forward(np.zeros(0))
    assert z.tobytes() == loop_dense_forward(layer, np.zeros(0)).tobytes()


def test_backprop_of_negative_zero_terms_matches_loop():
    net = build_network(NetworkConfig(encoder_kind="binary", n_categories=3, n_numeric=0, k=2, hidden=(2,)))
    net.layers[0].weights[:] = -1.0
    cache = net.forward(1, ())
    target = cache.output.copy()  # zero error: every backprop term is -0.0
    got = net.backprop_deltas(cache, target)
    expected = loop_backprop_deltas(net, cache, target)
    assert [d.tobytes() for d in got] == [d.tobytes() for d in expected]
    assert not np.signbit(got[0]).any()


def _encoder_values(encoder, category, x):
    """The per-example encoder methods at one input, by name: (array path, loop oracle)."""
    calls = {"forward": (category, x), "effective_contribution": (category,)}
    if isinstance(encoder, AugmentedBinaryLayer):
        calls["forward_folded"] = (category, x)
    got = {name: getattr(encoder, name)(*args) for name, args in calls.items()}
    with loop_oracle():
        expected = {name: getattr(encoder, name)(*args).tobytes() for name, args in calls.items()}
    assert {name: value.tobytes() for name, value in got.items()} == expected
    return got


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_encoder_forward_of_negative_zero_terms_matches_loop(kind):
    encoder = _negative_zero_encoder(kind)
    for category in (1, 2, 3):
        for name, value in _encoder_values(encoder, category, np.zeros(1)).items():
            if kind == "onehot":  # this loop starts from the row itself, so -0.0 stays
                assert np.signbit(value).all(), (name, category)
            else:  # these loops start from zeros: +0.0
                assert not np.signbit(value).any(), (name, category)


@pytest.mark.parametrize("kind", ["binary", "augmented"])
def test_infinite_row_of_an_unused_bit_stays_out_of_the_step(kind):
    encoder = ENCODERS[kind].fresh(11, 1, 3, SplitMix64(8))
    encoder.bit_weights[3] = np.inf  # bit 4: only categories 8..11 use it
    if kind == "augmented":
        encoder.bit_memory[:, 3] = np.inf
    x = np.array([0.5])
    for category in range(1, 8):
        for name, value in _encoder_values(encoder, category, x).items():
            assert np.all(np.isfinite(value)), (name, category)  # never 0 * inf = NaN
        encoder.apply_update(category, x, np.full(3, 0.01))
        assert np.all(np.isfinite(np.delete(encoder.bit_weights, 3, axis=0)))


@pytest.mark.parametrize("folded", [False, True])
def test_augmented_sgd_step_lists_its_rows_once(monkeypatch, folded):
    net = build_network(NetworkConfig(encoder_kind="augmented", n_categories=1024, n_numeric=3, k=4,
                                      hidden=(3, 1), seed=2))
    net.folded_forward = folded
    listed = []
    one_bits = layers._one_bits
    monkeypatch.setattr(layers, "_one_bits", lambda category: listed.append(category) or one_bits(category))
    categories = [5, 1024, 17, 5, 1023, 1]  # no category twice in a row
    for category in categories:
        net.sgd_step(category, np.array([0.5, -1.0, 2.0]), np.array([0.25]), 0.1)
    assert listed == categories  # the forward lists, the update reuses
    net.sgd_step(1, np.array([0.5, -1.0, 2.0]), np.array([0.25]), 0.1)
    assert listed == categories  # the same category again: nothing to list


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_sgd_step_lists_its_rows_once_for_every_kind(monkeypatch, kind):
    net = build_network(NetworkConfig(encoder_kind=kind, n_categories=1024, n_numeric=3, k=4, hidden=(3, 1), seed=2))
    listed = []
    cls = type(net.encoder)
    term_rows = cls._term_rows
    monkeypatch.setattr(cls, "_term_rows", lambda self, category: listed.append(category) or term_rows(self, category))
    categories = [5, 1024, 17, 5, 1023, 1]  # no category twice in a row
    for category in categories:
        net.sgd_step(category, np.array([0.5, -1.0, 2.0]), np.array([0.25]), 0.1)
    assert listed == categories  # the forward lists, the update reuses
    net.sgd_step(1, np.array([0.5, -1.0, 2.0]), np.array([0.25]), 0.1)
    assert listed == categories  # the same category again: nothing to list


# Most C calls of one warm step at the shape below, sys.setprofile(None) included.
_WARM_STEP_C_CALLS = {"onehot": 21, "binary": 28, "augmented": 29}


@pytest.mark.parametrize("kind", tuple(ENCODERS))
def test_a_warm_step_makes_as_many_c_calls_at_16_as_at_65536_categories(kind):
    """No per-step cost grows with N: one warm ``sgd_step`` calls the same C functions at N=2**4 and N=2**16.

    ``sys.setprofile`` reports a ``c_call`` for each C function or method
    called by name (``take``, ``np.array``, ``accumulate``, ...), not for
    ufunc calls or operators.  Both categories have three one-bits, so the
    bit kinds list as many rows at either size.  Float64 arrays pass the
    input checks with no conversion; Python lists are converted once each.
    The garbage collector is off while the step is profiled: a collection
    would run the process's ``gc.callbacks`` (hypothesis registers one that
    reads the clock twice), and the profile would count their C calls as
    the step's.
    """
    for form in (np.array, list):
        counts = []
        for n_categories, category in ((2**4, 0b1011), (2**16, 0b1000_0000_0000_0011)):
            config = NetworkConfig(encoder_kind=kind, n_categories=n_categories, n_numeric=3, k=8, hidden=(8, 1),
                                   seed=1)
            net = build_network(config)
            x, target, counters = form([0.5, -1.0, 0.25]), form([0.5]), OpCounters()
            net.sgd_step(0b111, x, target, 0.1, counters)  # warm, on another category
            calls = []
            gc.disable()
            sys.setprofile(lambda frame, event, arg: calls.append(arg) if event == "c_call" else None)
            try:
                net.sgd_step(category, x, target, 0.1, counters)
            finally:
                sys.setprofile(None)
                gc.enable()
            conversions = [call for call in calls if call in (np.asarray, np.array)]
            assert conversions == ([] if form is np.array else [np.asarray, np.asarray])  # x, then the target
            counts.append(len(calls) - len(conversions))
        assert 0 < counts[0] == counts[1] <= _WARM_STEP_C_CALLS[kind]


def _prepare_update(case, layer, x):
    """Run what ``case`` names before the update of category 6; returns the one-hot twin to update alongside, if any."""
    if case == "after a forward on another category":
        layer.forward(7, x)
    elif case == "after effective_contribution":
        layer.forward(6, x)
        layer.effective_contribution(6)  # lists category 6 again, without the numeric and bias rows
    elif case == "in lockstep with a one-hot twin":
        twin = OneHotLayer(cat_weights=layer.all_contributions(), num_weights=layer.num_weights.copy(),
                           bias=layer.bias.copy())
        layer.forward(6, x)
        twin.forward(6, x)
        return twin
    elif case == "with the fault hook switched on after the forward":
        layer.forward(6, x)
        layer.skip_category_memory_update = True
    return None


@pytest.mark.parametrize("case", [
    "with no forward",
    "after a forward on another category",
    "after effective_contribution",
    "in lockstep with a one-hot twin",
    "with the fault hook switched on after the forward",
])
def test_augmented_update_is_the_freshly_listed_update(case):
    layer = AugmentedBinaryLayer.fresh(11, 2, 3, SplitMix64(4))
    for category in (3, 6, 9):  # non-zero memories
        layer.apply_update(category, np.array([1.0, -0.5]), np.full(3, 0.125 * category))
    x, delta = np.array([0.5, -2.0]), np.array([0.25, -0.5, 1.0])
    twin = _prepare_update(case, layer, x)
    fresh, oracle = copy.deepcopy(layer), copy.deepcopy(layer)  # a copy keeps no step-rows record
    layer.apply_update(6, x, delta)
    if twin is not None:
        twin.apply_update(6, x, delta)
    fresh.apply_update(6, x, delta)
    with loop_oracle():
        oracle.apply_update(6, x, delta)
    assert layer._buffer.tobytes() == fresh._buffer.tobytes() == oracle._buffer.tobytes()
    assert layer.forward(6, x).tobytes() == fresh.forward(6, x).tobytes()


@pytest.mark.parametrize("fan_in, fan_out", [(32, 8), (8, 1), (1, 12), (0, 3)])
@pytest.mark.parametrize("outputs", [[0.75, -0.0, 0.0, -1.25], [np.inf, -1.5, -np.inf, 0.0, -0.0, 2.0]],
                         ids=["signed zeros", "infinities"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_backprop_sum_along_the_contiguous_axis_matches_loop(fan_in, fan_out, outputs):
    """The backprop sum over output columns, at shapes the hypothesis test reaches only by chance.

    Every stage is the identity, so dz is the output gradient itself, with
    its +-0.0 and +-inf.  Where dz is finite, one weight row makes every term
    -0.0.  A fan_in of 0 sits behind a (2, 0) layer, whose sums have no
    terms at all.
    """
    identity = Activation.IDENTITY
    stream = SplitMix64(100 * fan_in + fan_out)
    output = np.resize(np.array(outputs), fan_out)
    target = np.zeros(fan_out)
    dz = mse_gradient(output, target)
    weights = stream.symmetric_array((fan_in, fan_out), 2.0)
    weights.flat[::3] = np.resize(np.array([-0.0, np.inf, 0.0, -np.inf]), weights.flat[::3].shape)
    negative_zero_row = fan_in > 0 and np.isfinite(dz).all()
    if negative_zero_row:
        weights[0] = np.where(np.signbit(dz), 0.0, -0.0)
    widths = [fan_in] if fan_in else [2, 0]
    dense = [DenseLayer(weights=weights, bias=np.zeros(fan_out), activation=identity)]
    if not fan_in:
        dense.insert(0, DenseLayer(weights=np.zeros((2, 0)), bias=np.zeros(0), activation=identity))
    net = Network(encoder=OneHotLayer.fresh(3, 0, widths[0], stream), encoder_activation=identity, layers=dense)
    values = [stream.symmetric_array((width,), 1.0) for width in widths] + [output]
    cache = ForwardCache(1, np.zeros(0), values, values)
    got = net.backprop_deltas(cache, target)
    expected = loop_backprop_deltas(net, cache, target)
    assert [d.tobytes() for d in got] == [d.tobytes() for d in expected]
    if negative_zero_row:
        assert got[-2][0].tobytes() == np.float64(0.0).tobytes()  # the -0.0 terms sum to +0.0
