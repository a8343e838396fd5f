"""Equivalence harness tests: twins, lockstep drift, probes, replay."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augbin.harness
import augbin.layers
from augbin import (
    Activation,
    DivergenceTrace,
    InvalidArgumentError,
    Network,
    NetworkConfig,
    NumericError,
    OneHotLayer,
    OpCounters,
    ProbeResult,
    RangeError,
    ReplayReport,
    SgdConfig,
    SplitMix64,
    TwinPair,
    VerifyConfig,
    brute_force_check,
    build_network,
    build_onehot_twin,
    contributions_matrix,
    divergence_budget,
    encode,
    interference_errors,
    isolation_errors,
    isolation_probe,
    lockstep_train,
    mse_loss,
    probe_inputs,
    run_gradcheck_config,
    run_verification,
    synthetic_stream,
    twin_forward_max_diff,
)
from augbin.layers import AugmentedBinaryLayer


def loop_twin_forward_max_diff(pair, probes):
    """Reference oracle for ``twin_forward_max_diff``: one ``predict`` per probe."""
    worst = 0.0
    for category, numerics in probes:
        out_a = pair.augmented.predict(category, numerics)
        out_o = pair.onehot.predict(category, numerics)
        worst = max(worst, float(np.max(np.abs(out_a - out_o))))
    return worst


def loop_isolation_errors(probe):
    """Reference oracle for ``isolation_errors``: one category at a time."""
    off = 0.0
    for c in range(1, probe.deltas.shape[0] + 1):
        if c != probe.category:
            off = max(off, float(np.max(np.abs(probe.deltas[c - 1]))))
    on = float(np.max(np.abs(probe.deltas[probe.category - 1] + probe.encoder_delta)))
    return off, on


def bit_overlap(a, b, width):
    """Number of one-bit positions two category codes share."""
    return len(set(encode(a, width).positions) & set(encode(b, width).positions))


def loop_interference_errors(probe, width):
    """Reference oracle for ``interference_errors``: one ``bit_overlap`` per category."""
    worst = 0.0
    largest_predicted = 0.0
    for c in range(1, probe.deltas.shape[0] + 1):
        predicted = -probe.encoder_delta * bit_overlap(c, probe.category, width)
        worst = max(worst, float(np.max(np.abs(probe.deltas[c - 1] - predicted))))
        if c != probe.category:
            largest_predicted = max(largest_predicted, float(np.max(np.abs(predicted))))
    return worst, largest_predicted


def loop_lockstep_train(pair, stream, config, counters=None):
    """Reference oracle for ``lockstep_train``: a ``predict`` pair, then one ``sgd_step`` per network."""
    stream = list(stream)[: config.steps]
    trace = DivergenceTrace()
    for step, (category, numerics, target) in enumerate(stream):
        try:
            out_a = pair.augmented.predict(category, numerics)
            out_o = pair.onehot.predict(category, numerics)
            trace.max_output_diffs.append(float(np.max(np.abs(out_a - out_o))))
            target = np.asarray(target, dtype=np.float64)
            trace.loss_pairs.append((mse_loss(out_a, target), mse_loss(out_o, target)))
            pair.augmented.sgd_step(category, numerics, target, config.learning_rate, counters)
            pair.onehot.sgd_step(category, numerics, target, config.learning_rate)
        except NumericError as err:
            raise NumericError(f"lockstep step {step}: {err}") from err
    rows = pair.onehot.encoder.cat_weights
    trace.final_row_distance = float(np.max(np.abs(rows - contributions_matrix(pair.augmented.encoder))))
    return trace


def loop_brute_force_check(n_categories, k, steps, seed, tolerance=1e-12, learning_rate=0.1, corrupt_at=None):
    """Reference oracle for ``brute_force_check``: replays the whole history from the start after every step."""
    net = build_network(
        NetworkConfig(
            encoder_kind="augmented", n_categories=n_categories, n_numeric=0, k=k,
            encoder_activation=Activation.IDENTITY, seed=seed,
        )
    )
    encoder = net.encoder
    worst = augbin.harness._worst
    bits0 = encoder.bit_weights.copy()
    cat0 = encoder.cat_memory.copy()
    bitmem0 = encoder.bit_memory.copy()
    positions = {c: encode(c, encoder.width).positions for c in range(1, n_categories + 1)}
    categories, targets = augbin.harness._draw_examples(seed + 1, n_categories, steps, k)
    history = []
    max_err = 0.0
    for step, (category, target) in enumerate(zip(categories, targets)):
        delta = net.sgd_step(category, (), target, learning_rate)
        history.append((category, delta.copy()))
        if corrupt_at is not None and corrupt_at[0] == step:
            encoder.cat_memory[corrupt_at[1] - 1, corrupt_at[2]] += 1e-3
        bits_replay = bits0.copy()
        catmem_replay = cat0.copy()
        bitmem_replay = bitmem0.copy()
        for past_category, past_delta in history:
            for i in positions[past_category]:
                bits_replay[i - 1] -= past_delta
                bitmem_replay[:, i - 1] -= past_delta
            catmem_replay[past_category - 1] -= past_delta
        for c in range(1, n_categories + 1):
            expected = np.zeros(k)
            for i in positions[c]:
                expected += bits_replay[i - 1]
            expected += catmem_replay[c - 1]
            for i in positions[c]:
                expected -= bitmem_replay[:, i - 1]
            errs = np.abs(encoder.effective_contribution(c) - expected)
            failing = np.flatnonzero(~(errs <= tolerance))
            if failing.size:
                neuron = int(failing[0])
                max_err = worst([max_err, *errs[: neuron + 1]])
                return ReplayReport(False, steps, max_err, (step, c, neuron))
            max_err = worst([max_err, *errs])
        matrix_err = worst(
            [
                worst(np.abs(encoder.bit_weights - bits_replay)),
                worst(np.abs(encoder.cat_memory - catmem_replay)),
                worst(np.abs(encoder.bit_memory - bitmem_replay)),
            ]
        )
        max_err = worst([max_err, matrix_err])
        if not matrix_err <= tolerance:
            return ReplayReport(False, steps, max_err, (step, 0, 0))
    return ReplayReport(True, steps, max_err, None)


def _aug_net(seed=0, n_categories=9, k=4, n_numeric=2, hidden=(1,)):
    return build_network(
        NetworkConfig(
            encoder_kind="augmented",
            n_categories=n_categories,
            n_numeric=n_numeric,
            k=k,
            hidden=hidden,
            encoder_activation=Activation.SIGMOID,
            hidden_activation=Activation.SIGMOID,
            output_activation=Activation.IDENTITY,
            seed=seed,
        )
    )


def test_bit_overlap_counts_shared_one_positions():
    # 13 = 1011, 9 = 1001 LSB-first: shared bits at positions 1 and 4
    assert bit_overlap(13, 9, 4) == 2
    assert bit_overlap(13, 13, 4) == 3
    assert bit_overlap(1, 2, 2) == 0


def test_twin_rows_equal_effective_contributions():
    net = _aug_net()
    pair = build_onehot_twin(net)
    assert np.array_equal(pair.onehot.encoder.cat_weights, contributions_matrix(net.encoder))
    assert np.array_equal(pair.onehot.encoder.num_weights, net.encoder.num_weights)
    assert np.array_equal(pair.onehot.encoder.bias, net.encoder.bias)
    assert np.array_equal(pair.onehot.layers[0].weights, net.layers[0].weights)


def test_fresh_twin_rows_are_bit_sums():
    net = _aug_net(seed=3)
    encoder = net.encoder
    pair = build_onehot_twin(net)
    from augbin import encode

    for category in range(1, 10):
        expected = np.zeros(encoder.k)
        for i in encode(category, encoder.width).positions:
            expected += encoder.bit_weights[i - 1]
        assert np.array_equal(pair.onehot.encoder.cat_weights[category - 1], expected)


def test_zeroed_encoder_gives_zero_twin_rows():
    net = _aug_net()
    net.encoder.bit_weights[:] = 0.0
    pair = build_onehot_twin(net)
    assert np.array_equal(pair.onehot.encoder.cat_weights, np.zeros((9, 4)))


def test_twin_requires_augmented_encoder():
    binary_net = build_network(
        NetworkConfig(encoder_kind="binary", n_categories=5, n_numeric=0, k=2, seed=0)
    )
    with pytest.raises(InvalidArgumentError):
        build_onehot_twin(binary_net)


def test_twin_parameters_are_copies_not_views():
    net = _aug_net()
    pair = build_onehot_twin(net)
    net.layers[0].weights[0, 0] += 1.0
    net.encoder.bias[0] += 1.0
    assert pair.onehot.layers[0].weights[0, 0] != net.layers[0].weights[0, 0]
    assert pair.onehot.encoder.bias[0] != net.encoder.bias[0]


def test_twin_build_allocates_one_category_block():
    # The contributions are written into the twin's own rows: a copy of
    # them into a second N x K block would raise the sgd-stream peak memory.
    config = NetworkConfig(encoder_kind="augmented", n_categories=65536, n_numeric=3, k=32, hidden=(8, 1), seed=11)
    net = build_network(config)
    net.encoder.apply_update(3, np.zeros(3), np.full(32, 0.5))  # a non-zero category memory
    tracemalloc.start()
    try:
        pair = build_onehot_twin(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One N x K float64 block, O(n K) besides, and the iteration buffers that
    # a numpy ufunc call takes whatever N is: up to three of 8192 float64.
    block, small, buffers = 65536 * 32 * 8, 17 * 32 * 8, 3 * 8192 * 8
    assert peak <= block + 16 * small + buffers, peak
    assert pair.onehot.encoder.cat_weights.tobytes() == contributions_matrix(net.encoder).tobytes()


def test_twin_agreement_on_fresh_and_trained_networks():
    net = _aug_net(seed=8)
    probes = probe_inputs(1, 9, 2, 100)
    assert twin_forward_max_diff(build_onehot_twin(net), probes) <= 1e-12
    stream = synthetic_stream(2, 9, 2, 1, 40)
    for category, numerics, target in stream:
        net.sgd_step(category, numerics, target, 0.1)
    assert twin_forward_max_diff(build_onehot_twin(net), probes) <= 1e-12


@pytest.mark.parametrize("n_categories", [1, 2, 3, 37, 1024])
def test_twin_is_exact_right_after_construction(n_categories):
    # The augmented forward sums its whole category term first, which is the
    # twin's row bit for bit; only the updates round differently afterwards.
    net = _aug_net(seed=n_categories, n_categories=n_categories, hidden=(5, 1))
    probes = probe_inputs(n_categories + 1, n_categories, 2, 200)
    for steps in (0, 300):
        for category, numerics, target in synthetic_stream(n_categories + 2, n_categories, 2, 1, steps):
            net.sgd_step(category, numerics, target, 0.1)
        pair = build_onehot_twin(net)
        assert twin_forward_max_diff(pair, probes) == 0.0
        for category, numerics in probes:
            assert pair.augmented.predict(category, numerics).tobytes() == pair.onehot.predict(
                category, numerics
            ).tobytes()


def test_lockstep_zero_steps_gives_empty_trace():
    pair = build_onehot_twin(_aug_net())
    trace = lockstep_train(pair, [], SgdConfig(0.1, 0))
    assert len(trace) == 0
    assert trace.max_output_diffs == []
    assert trace.final_row_distance <= 1e-12


def test_lockstep_rejects_short_streams():
    pair = build_onehot_twin(_aug_net())
    with pytest.raises(InvalidArgumentError):
        lockstep_train(pair, synthetic_stream(0, 9, 2, 1, 5), SgdConfig(0.1, 10))


def test_lockstep_single_category_stream_stays_tight():
    pair = build_onehot_twin(_aug_net(seed=5))
    stream = [(4, np.array([0.1, -0.2]), np.array([0.3]))] * 100
    trace = lockstep_train(pair, stream, SgdConfig(0.1, 100))
    assert len(trace) == 100
    assert max(trace.max_output_diffs) <= 1e-10
    assert len(trace.loss_pairs) == 100


def test_lockstep_divergence_within_growth_budget():
    pair = build_onehot_twin(_aug_net(seed=1))
    stream = synthetic_stream(11, 9, 2, 1, 200)
    trace = lockstep_train(pair, stream, SgdConfig(0.1, 200))
    for step, diff in enumerate(trace.max_output_diffs):
        assert diff <= divergence_budget(step)
    assert trace.final_row_distance <= 1e-10


def test_lockstep_losses_track_both_models():
    pair = build_onehot_twin(_aug_net(seed=2))
    stream = synthetic_stream(3, 9, 2, 1, 50)
    trace = lockstep_train(pair, stream, SgdConfig(0.1, 50))
    for loss_a, loss_o in trace.loss_pairs:
        assert abs(loss_a - loss_o) <= 1e-10


def _param_bytes(net):
    arrays = [array for _, array in net.encoder.params()]
    for layer in net.layers:
        arrays += [layer.weights, layer.bias]
    return [array.tobytes() for array in arrays]


def _hex(values):
    return [float.hex(float(value)) for value in np.ravel(values)]


@pytest.mark.parametrize("hidden", [(), (4, 1)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_equals_predict_pair_oracle(hidden, seed):
    width = hidden[-1] if hidden else 4
    stream = synthetic_stream(seed + 2, 9, 2, width, 60)
    config = SgdConfig(0.3, 60)
    pairs, traces, counters = [], [], []
    for train in (lockstep_train, loop_lockstep_train):
        pairs.append(build_onehot_twin(_aug_net(seed=seed, hidden=hidden)))
        counters.append(OpCounters())
        traces.append(train(pairs[-1], stream, config, counters[-1]))
    got, expected = traces
    assert _hex(got.max_output_diffs) == _hex(expected.max_output_diffs)
    assert _hex(got.loss_pairs) == _hex(expected.loss_pairs)
    assert float.hex(got.final_row_distance) == float.hex(expected.final_row_distance)
    assert counters[0] == counters[1]
    assert counters[0].encoding_param_updates > 0
    for side in ("augmented", "onehot"):
        assert _param_bytes(getattr(pairs[0], side)) == _param_bytes(getattr(pairs[1], side))


def _diverging_pair():
    net = build_network(
        NetworkConfig(
            encoder_kind="augmented", n_categories=9, n_numeric=2, k=4, hidden=(4, 1),
            encoder_activation=Activation.IDENTITY, hidden_activation=Activation.IDENTITY,
            output_activation=Activation.IDENTITY, seed=0,
        )
    )
    return build_onehot_twin(net)


def test_lockstep_divergence_raises_as_the_oracle_does():
    stream = synthetic_stream(5, 9, 2, 1, 200)
    messages, params = [], []
    for train in (lockstep_train, loop_lockstep_train):
        pair = _diverging_pair()
        with np.errstate(all="ignore"), pytest.raises(NumericError) as err:
            train(pair, stream, SgdConfig(3.0, 200))
        messages.append(str(err.value))
        params.append(_param_bytes(pair.augmented) + _param_bytes(pair.onehot))
    assert messages[0] == messages[1] == "lockstep step 5: non-finite dense pre-activation"
    assert params[0] == params[1]


def test_probe_with_matching_target_changes_nothing():
    net = _aug_net(seed=4)
    x = np.array([0.5, -0.5])
    target = net.predict(6, x)  # zero error signal, zero step
    probe = isolation_probe(net, 6, x, target, 0.1)
    assert np.max(np.abs(probe.encoder_delta)) == 0.0
    assert np.max(np.abs(probe.deltas)) <= 1e-15


def test_probe_on_augmented_moves_only_trained_category():
    net = _aug_net(seed=7, n_categories=3)
    probe = isolation_probe(net, 3, np.array([0.2, 0.2]), np.array([1.0]), 0.1)
    off, on = isolation_errors(probe)
    assert off <= 1e-12
    assert on <= 1e-12
    assert np.max(np.abs(probe.encoder_delta)) > 0.0


def test_probe_on_binary_matches_overlap_prediction():
    net = build_network(
        NetworkConfig(
            encoder_kind="binary",
            n_categories=3,
            n_numeric=2,
            k=4,
            hidden=(1,),
            encoder_activation=Activation.SIGMOID,
            output_activation=Activation.IDENTITY,
            seed=7,
        )
    )
    probe = isolation_probe(net, 3, np.array([0.2, 0.2]), np.array([1.0]), 0.1)
    err, witnessed = interference_errors(probe, net.encoder.width)
    assert err <= 1e-12
    assert witnessed > 1e-12  # categories 1 and 2 both share a bit with 3


def _popcount_predicted(n_categories, category, encoder_delta):
    """The control's predicted deltas, each overlap counted on the Python integers."""
    overlap = np.array([bin(c & category).count("1") for c in range(1, n_categories + 1)])
    return -encoder_delta * overlap[:, None]


@pytest.mark.parametrize("n_categories", [1, 2, 3, 7, 8, 255, 256, 65536])
def test_interference_errors_predict_the_oracle_deltas_exactly(n_categories):
    width = n_categories.bit_length()
    stream = SplitMix64(n_categories)
    encoder_delta = stream.symmetric_array((1, 3), 0.5)[0]
    drawn = stream.next_below(n_categories) + 1
    for category in sorted({1, n_categories // 2 + 1, n_categories, drawn}):
        predicted = _popcount_predicted(n_categories, category, encoder_delta)
        # Deltas equal to the prediction leave no deviation unless a predicted entry differs.
        exact = ProbeResult(category, predicted.copy(), encoder_delta, predicted)
        assert interference_errors(exact, width)[0] == 0.0
    # The loop oracle makes two encode calls per category: once per size.
    predicted = _popcount_predicted(n_categories, drawn, encoder_delta)
    noisy = ProbeResult(drawn, predicted + stream.symmetric_array(predicted.shape, 1e-3), encoder_delta, predicted)
    assert interference_errors(noisy, width) == loop_interference_errors(noisy, width)


def test_interference_errors_reject_an_unrepresentable_category():
    probe = ProbeResult(1, np.zeros((8, 2)), np.ones(2), np.zeros((8, 2)))
    assert interference_errors(probe, 4) == loop_interference_errors(probe, 4)  # 8 fits in 4 bits
    with pytest.raises(RangeError):
        interference_errors(probe, 3)  # 8 needs 4 bits
    with pytest.raises(InvalidArgumentError):
        interference_errors(probe, 0)


@given(
    n_categories=st.sampled_from([1, 2, 3] + [2**n + d for n in range(2, 8) for d in (-1, 0)]),
    k=st.integers(1, 10),
    n_numeric=st.integers(0, 3),
    hidden=st.sampled_from([(1,), (3, 2)]),
    steps=st.integers(0, 5),
    seed=st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_array_checks_match_loop_oracles_exactly(n_categories, k, n_numeric, hidden, steps, seed):
    nets = {
        kind: build_network(
            NetworkConfig(
                encoder_kind=kind, n_categories=n_categories, n_numeric=n_numeric, k=k,
                hidden=hidden, seed=seed,
            )
        )
        for kind in ("augmented", "binary")
    }
    probes = probe_inputs(seed + 1, n_categories, n_numeric, 20)
    stream = synthetic_stream(seed + 2, n_categories, n_numeric, hidden[-1], steps + 1)
    for category, numerics, target in stream[:steps]:
        nets["augmented"].sgd_step(category, numerics, target, 0.3)
    pair = build_onehot_twin(nets["augmented"])
    assert twin_forward_max_diff(pair, probes) == loop_twin_forward_max_diff(pair, probes)
    category, numerics, target = stream[-1]
    for net in nets.values():
        probe = isolation_probe(net, category, numerics, target, 0.3)
        assert isolation_errors(probe) == loop_isolation_errors(probe)
        width = net.encoder.width
        assert interference_errors(probe, width) == loop_interference_errors(probe, width)


def _nan_probe():
    deltas = np.zeros((5, 2))
    deltas[3, 1] = np.nan  # category 4 moved by NaN
    return ProbeResult(category=2, deltas=deltas, encoder_delta=np.zeros(2), after=np.zeros((5, 2)))


def test_isolation_errors_propagate_nan():
    off, on = isolation_errors(_nan_probe())
    assert math.isnan(off)
    assert not off <= 1e-12
    assert on == 0.0


def test_isolation_errors_leave_the_trained_row_to_on():
    deltas = _nan_probe().deltas  # NaN in category 4, now the trained one
    probe = ProbeResult(category=4, deltas=deltas, encoder_delta=np.zeros(2), after=deltas)
    kept = deltas.copy()
    off, on = isolation_errors(probe)
    assert off == 0.0  # the NaN sits in the trained row, which ``off`` skips
    assert math.isnan(on)
    assert np.array_equal(probe.deltas, kept, equal_nan=True)


def test_interference_errors_propagate_nan():
    worst, _ = interference_errors(_nan_probe(), 3)
    assert math.isnan(worst)
    assert not worst <= 1e-12


def test_one_plan_serves_both_twins_bit_for_bit():
    net = _aug_net(seed=3, n_categories=13)
    for category, numerics, target in synthetic_stream(5, 13, 2, 1, 30):
        net.sgd_step(category, numerics, target, 0.2)
    pair = build_onehot_twin(net)
    probes = probe_inputs(6, 13, 2, 40)
    plan = pair.augmented.encoder.plan_batch([category for category, _ in probes], np.stack([x for _, x in probes]))
    for twin in (pair.augmented, pair.onehot):
        outputs = twin.predict_plan(plan)
        for row, (category, numerics) in enumerate(probes):
            assert outputs[row].tobytes() == twin.predict(category, numerics).tobytes()
    assert twin_forward_max_diff(pair, probes) == 0.0


def test_twin_forward_max_diff_propagates_nan():
    class NanOutputs:
        def predict_plan(self, plan):
            return np.full((plan.ids.shape[0], 1), np.nan)

    pair = TwinPair(augmented=_aug_net(), onehot=NanOutputs())
    diff = twin_forward_max_diff(pair, probe_inputs(1, 9, 2, 3))
    assert math.isnan(diff)
    assert not diff <= 1e-12


_SMALL_VERIFY = VerifyConfig(seed=0, steps=10, isolation_probes=5, forward_probes=10)


def test_nan_contribution_change_fails_isolation_and_control_suites(monkeypatch):
    real_probe = augbin.harness.isolation_probe

    def nan_probe(net, category, *args):
        probe = real_probe(net, category, *args)
        probe.deltas[category % net.encoder.n_categories] = np.nan  # another category
        return probe

    monkeypatch.setattr(augbin.harness, "isolation_probe", nan_probe)
    outcome = run_verification(_SMALL_VERIFY)
    assert not outcome.suites["isolation"].passed
    assert not outcome.suites["negative_control"].passed
    assert outcome.suites["twin_forward_agreement"].passed


def test_nan_twin_output_fails_twin_suite(monkeypatch):
    real_predict_plan = Network.predict_plan

    def nan_predict_plan(self, plan):
        out = real_predict_plan(self, plan)
        if isinstance(self.encoder, OneHotLayer):
            out[-1, 0] = np.nan
        return out

    monkeypatch.setattr(Network, "predict_plan", nan_predict_plan)
    outcome = run_verification(_SMALL_VERIFY)
    assert not outcome.suites["twin_forward_agreement"].passed
    assert math.isnan(outcome.suites["twin_forward_agreement"].max_err)


def test_harness_looks_up_contributions_matrix_by_module_name(monkeypatch):
    # The benchmark tracer patches this name in both modules; a call that
    # bypassed the module global would go untraced.
    assert "contributions_matrix" in vars(augbin.layers)
    assert "contributions_matrix" in vars(augbin.harness)
    calls = []
    real = augbin.harness.contributions_matrix
    monkeypatch.setattr(augbin.harness, "contributions_matrix", lambda e, **out: calls.append(e) or real(e, **out))
    net = _aug_net()
    build_onehot_twin(net)
    isolation_probe(net, 2, np.zeros(2), np.zeros(1), 0.1)
    assert len(calls) == 3


def test_disjoint_category_updates_commute():
    d1 = np.array([0.11, -0.07, 0.05, 0.02])
    d2 = np.array([-0.03, 0.09, -0.01, 0.04])
    x = ()

    first = build_network(
        NetworkConfig(
            encoder_kind="augmented", n_categories=8, n_numeric=0, k=4,
            encoder_activation=Activation.SIGMOID, seed=12,
        )
    )
    second = build_network(
        NetworkConfig(
            encoder_kind="augmented", n_categories=8, n_numeric=0, k=4,
            encoder_activation=Activation.SIGMOID, seed=12,
        )
    )
    first.encoder.apply_update(3, x, d1)
    first.encoder.apply_update(5, x, d2)
    second.encoder.apply_update(5, x, d2)
    second.encoder.apply_update(3, x, d1)
    gap = np.max(np.abs(contributions_matrix(first.encoder) - contributions_matrix(second.encoder)))
    assert gap <= 1e-10


def test_replay_passes_for_seeded_runs():
    for seed in (0, 1, 2):
        report = brute_force_check(8, 4, 50, seed)
        assert report.passed, report
        assert report.max_abs_err <= 1e-12
        assert report.first_failure is None


def test_replay_zero_steps_trivially_passes():
    report = brute_force_check(3, 1, 0, 9)
    assert report.passed
    assert report.max_abs_err == 0.0


def test_replay_small_case():
    report = brute_force_check(3, 1, 10, 7)
    assert report.passed


def test_replay_detects_injected_corruption():
    report = brute_force_check(8, 4, 50, 0, corrupt_at=(10, 5, 2))
    assert not report.passed
    step, category, neuron = report.first_failure
    assert step >= 10
    assert (category, neuron) == (5, 2)


def test_replay_fails_on_a_nan_contribution(monkeypatch):
    real = AugmentedBinaryLayer.all_contributions

    def nan_for_category_3(self, out=None):
        out = real(self, out)
        out[2] = np.nan
        return out

    monkeypatch.setattr(AugmentedBinaryLayer, "all_contributions", nan_for_category_3)
    report = brute_force_check(8, 4, 50, 0)
    assert not report.passed
    assert report.first_failure == (0, 3, 0)
    assert math.isnan(report.max_abs_err)


def test_replay_enforces_bounds():
    with pytest.raises(InvalidArgumentError):
        brute_force_check(9, 4, 50, 0)
    with pytest.raises(InvalidArgumentError):
        brute_force_check(8, 5, 50, 0)
    with pytest.raises(InvalidArgumentError):
        brute_force_check(8, 4, 51, 0)


def _replay_fields(report):
    return report.passed, report.steps, float.hex(report.max_abs_err), report.first_failure


@pytest.mark.parametrize("n_categories", range(1, 9))
def test_replay_equals_full_history_oracle(n_categories):
    for k in range(1, 5):
        for steps in (0, 1, 50):
            for seed in range(10):
                got = brute_force_check(n_categories, k, steps, seed)
                expected = loop_brute_force_check(n_categories, k, steps, seed)
                assert _replay_fields(got) == _replay_fields(expected), (k, steps, seed)


@pytest.mark.parametrize("corrupt_step", [0, 10, 49])
@pytest.mark.parametrize("n_categories, k", [(8, 4), (3, 2), (1, 1)])
def test_corrupted_replay_equals_full_history_oracle(corrupt_step, n_categories, k):
    for seed in range(10):
        corrupt_at = (corrupt_step, seed % n_categories + 1, seed % k)
        got = brute_force_check(n_categories, k, 50, seed, corrupt_at=corrupt_at)
        expected = loop_brute_force_check(n_categories, k, 50, seed, corrupt_at=corrupt_at)
        assert not got.passed
        assert _replay_fields(got) == _replay_fields(expected), seed


def test_synthetic_stream_is_deterministic():
    a = synthetic_stream(5, 10, 2, 1, 20)
    b = synthetic_stream(5, 10, 2, 1, 20)
    for (ca, xa, ta), (cb, xb, tb) in zip(a, b):
        assert ca == cb
        assert np.array_equal(xa, xb)
        assert np.array_equal(ta, tb)


def loop_synthetic_stream(seed, n_categories, n_numeric, target_width, count):
    """Reference oracle for ``synthetic_stream``: one scalar draw per value."""
    stream = SplitMix64(seed)
    examples = []
    for _ in range(count):
        category = stream.next_below(n_categories) + 1
        numerics = np.array([stream.next_symmetric(1.0) for _ in range(n_numeric)])
        target = np.array([stream.next_symmetric(1.0) for _ in range(target_width)])
        examples.append((category, numerics, target))
    return examples


def _assert_same_examples(got, expected):
    assert len(got) == len(expected)
    for row, reference in zip(got, expected):
        assert len(row) == len(reference)
        assert type(row[0]) is int and row[0] == reference[0]
        for value, ref in zip(row[1:], reference[1:]):
            assert type(value) is np.ndarray and value.dtype == ref.dtype == np.float64
            assert value.shape == ref.shape
            assert value.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "seed, n_categories, n_numeric, target_width, count",
    [(0, 1, 0, 0, 5), (5, 10, 2, 1, 1), (3, 37, 3, 1, 200), (2**64 - 1, 65536, 3, 1, 300),
     (7, 2, 0, 2, 0), (9, 5, 4, 0, 7)],
)
def test_synthetic_stream_and_probes_equal_scalar_draws(seed, n_categories, n_numeric, target_width, count):
    expected = loop_synthetic_stream(seed, n_categories, n_numeric, target_width, count)
    _assert_same_examples(synthetic_stream(seed, n_categories, n_numeric, target_width, count), expected)
    probes = loop_synthetic_stream(seed, n_categories, n_numeric, 0, count)
    _assert_same_examples(probe_inputs(seed, n_categories, n_numeric, count), [row[:2] for row in probes])


def test_probe_inputs_do_not_call_synthetic_stream(monkeypatch):
    # The benchmark tracer times harness.synthetic_stream; probes must stay out of it.
    monkeypatch.setattr(augbin.harness, "synthetic_stream", None)
    assert len(probe_inputs(1, 9, 2, 3)) == 3


def test_synthetic_stream_recipe_matches_documentation():
    stream = SplitMix64(5)
    category = stream.next_below(10) + 1
    x = [stream.next_symmetric(1.0), stream.next_symmetric(1.0)]
    target = [stream.next_symmetric(1.0)]
    first = synthetic_stream(5, 10, 2, 1, 1)[0]
    assert first[0] == category
    assert first[1].tolist() == x
    assert first[2].tolist() == target


def test_run_verification_default_suites_pass():
    outcome = run_verification(VerifyConfig(seed=0, steps=40, isolation_probes=15, forward_probes=30))
    assert outcome.passed
    assert list(outcome.suites) == [
        "twin_forward_agreement",
        "lockstep_divergence",
        "isolation",
        "negative_control",
        "folded_agreement",
        "brute_force_replay",
        "gradient_check",
    ]
    assert len(outcome.divergence) == 40
    assert outcome.counters.encoding_param_updates > 0
    assert all(outcome.verdicts().values())


def test_run_verification_passes_at_4096_categories():
    tracemalloc.start()
    try:
        outcome = run_verification(VerifyConfig(n_categories=4096))  # width 13
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.verdicts() == dict.fromkeys(outcome.suites, True)
    # Each suite frees its networks and N x K tables when it returns.
    assert peak <= 6 * 4096 * 8 * 8, peak / (4096 * 8 * 8)


def test_run_verification_passes_at_65536_categories():
    outcome = run_verification(VerifyConfig(n_categories=65536))  # width 17
    assert outcome.verdicts() == dict.fromkeys(outcome.suites, True)


def test_run_verification_reuses_each_probe_after_matrix(monkeypatch):
    # 5 isolation and 5 control probes: one "before" build per loop and one
    # "after" build per probe, plus the two twins and the lockstep row distance,
    # plus one build per step of the 50-step brute-force replay.
    calls = []
    real = augbin.harness.contributions_matrix
    monkeypatch.setattr(augbin.harness, "contributions_matrix", lambda e, **out: calls.append(e) or real(e, **out))
    run_verification(_SMALL_VERIFY)
    assert len(calls) == 3 + 2 * (1 + 5) + 50


def test_run_verification_lockstep_makes_two_forwards_per_step(monkeypatch):
    calls = []
    real = Network.forward
    monkeypatch.setattr(Network, "forward", lambda self, *args: calls.append(self) or real(self, *args))
    for index in range(_SMALL_VERIFY.gradcheck_configs):
        run_gradcheck_config(_SMALL_VERIFY.seed + 6, index)
    gradcheck = len(calls)
    calls.clear()
    run_verification(_SMALL_VERIFY)
    # Lockstep: one forward per network per step, whose cache feeds its update.
    # Then one per isolation and control probe, one per 5th of the 50 folded
    # states, one per replay step, and the gradient checks.
    assert len(calls) == 2 * 10 + 2 * 5 + 50 // 5 + 50 + gradcheck


def test_run_verification_fault_caught_by_isolation_suite():
    outcome = run_verification(
        VerifyConfig(seed=0, steps=20, isolation_probes=10, forward_probes=10,
                     fault="skip-category-memory")
    )
    assert not outcome.passed
    assert not outcome.suites["isolation"].passed
    assert outcome.suites["twin_forward_agreement"].passed


def test_run_verification_rejects_unknown_fault():
    with pytest.raises(InvalidArgumentError):
        run_verification(VerifyConfig(fault="flip-bits"))


def test_zero_tolerance_fails_verification():
    outcome = run_verification(
        VerifyConfig(seed=0, steps=20, isolation_probes=10, forward_probes=10, tolerance=0.0)
    )
    assert not outcome.passed


@pytest.mark.parametrize(
    "field, value", [("tolerance", math.nan), ("tolerance", -1e-12), ("tolerance", math.inf), ("steps", -1)]
)
def test_verify_config_rejects_bad_settings(field, value):
    with pytest.raises(InvalidArgumentError, match=field):
        VerifyConfig(**{field: value})


def test_fault_hook_is_off_by_default():
    net = _aug_net()
    assert isinstance(net.encoder, AugmentedBinaryLayer)
    assert net.encoder.skip_category_memory_update is False
