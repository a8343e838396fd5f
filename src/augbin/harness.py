"""Equivalence harness: one-hot twin, lockstep training, isolation probes.

The central claim under test is that a network using the augmented binary
encoder behaves, category by category, exactly like a one-hot network whose
category rows equal the augmented encoder's effective contributions.  The
harness makes that concrete three ways:

* build the one-hot twin and compare forward outputs directly;
* train both networks in lockstep on one example stream and track how far
  floating-point rounding lets them drift;
* probe isolation: one training step must move only the trained category's
  effective contribution, and by exactly the applied step vector.

Both forwards sum the whole category term first, so a freshly built twin's
outputs equal the augmented network's bit for bit.  Training then subtracts
each step from one one-hot row but from three augmented families, which
round differently; so every check carries an explicit tolerance and the
lockstep drift gets a growth budget rather than a fixed bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitcode import bit_matrix, encode
from .counters import OpCounters
from .errors import InvalidArgumentError, NumericError
from .gradcheck import check_gradients
from .layers import (
    AugmentedBinaryLayer,
    BinaryLayer,
    OneHotLayer,
    contributions_matrix,
)
from .network import (
    Activation,
    DenseLayer,
    Network,
    NetworkConfig,
    SgdConfig,
    build_network,
    mse_loss,
)
from .rng import SplitMix64, below_draws, symmetric_draws


@dataclass
class TwinPair:
    """An augmented-binary network and its one-hot equivalent."""

    augmented: Network
    onehot: Network


def build_onehot_twin(net: Network) -> TwinPair:
    """Construct the one-hot network that matches ``net`` category for category.

    The twin's category weight rows are the augmented encoder's effective
    contributions; numeric weights, biases, and every downstream layer are
    copied bit-exactly.  This makes the two networks agree at construction
    regardless of how the augmented network was initialized or how long it
    has already been trained.  The contributions are written straight into
    the twin's rows, so no second N x K block is built.
    """
    encoder = net.encoder
    if not isinstance(encoder, AugmentedBinaryLayer):
        raise InvalidArgumentError("twin construction requires an augmented-binary encoder")
    onehot_encoder = OneHotLayer(
        cat_weights=np.broadcast_to(0.0, encoder.cat_memory.shape),  # not copied: the rows stay unwritten
        num_weights=encoder.num_weights,
        bias=encoder.bias,
    )
    contributions_matrix(encoder, out=onehot_encoder.cat_weights)
    layers = [
        DenseLayer(weights=layer.weights.copy(), bias=layer.bias.copy(), activation=layer.activation)
        for layer in net.layers
    ]
    twin = Network(encoder=onehot_encoder, encoder_activation=net.encoder_activation, layers=layers)
    return TwinPair(augmented=net, onehot=twin)


def _draw_examples(seed: int, n_categories: int, count: int, *widths: int) -> list:
    """``count`` rows of draws from one stream seeded with ``seed``, in row order.

    Each row is one category draw from 1..N, then one uniform(-1, 1) draw per
    entry of each width.  Returns the Python ``int`` categories, then one
    list of (width,) float64 arrays per width.
    """
    u = SplitMix64(seed).next_u64_block(count * (1 + sum(widths))).reshape(count, 1 + sum(widths))
    categories = (below_draws(u[:, 0], n_categories) + 1).tolist()
    values = symmetric_draws(u[:, 1:], 1.0)
    bounds = np.cumsum((0, *widths))
    return [categories, *(list(values[:, start:stop]) for start, stop in zip(bounds, bounds[1:]))]


def synthetic_stream(
    seed: int, n_categories: int, n_numeric: int, target_width: int, count: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Deterministic (category, numerics, target) examples.

    Recipe, per example in order: one uniform category draw from 1..N, then
    n_numeric uniform(-1, 1) feature draws, then target_width uniform(-1, 1)
    target draws, all from one stream seeded with ``seed``.
    """
    return list(zip(*_draw_examples(seed, n_categories, count, n_numeric, target_width)))


def probe_inputs(seed: int, n_categories: int, n_numeric: int, count: int):
    """Deterministic (category, numerics) pairs for forward-agreement probes.

    The recipe is :func:`synthetic_stream`'s without the targets.
    """
    return list(zip(*_draw_examples(seed, n_categories, count, n_numeric)))


def _worst(values) -> float:
    """Largest of ``values``, 0.0 when there are none; a NaN anywhere gives NaN.

    Python's ``max(0.0, nan)`` is 0.0, which would let a NaN error pass a
    ``<= tolerance`` check; one array reduction propagates it instead.
    """
    return float(np.max(values, initial=0.0))


def twin_forward_max_diff(pair: TwinPair, probes) -> float:
    """Largest per-component output difference over (category, numerics) probes."""
    categories = [category for category, _ in probes]
    numerics = np.reshape([x for _, x in probes], (len(categories), pair.augmented.encoder.n_numeric))
    out_a = pair.augmented.predict_batch(categories, numerics)
    out_o = pair.onehot.predict_batch(categories, numerics)
    return _worst(np.abs(out_a - out_o))


@dataclass
class DivergenceTrace:
    """Per-step lockstep measurements, taken before each update."""

    max_output_diffs: list[float] = field(default_factory=list)
    loss_pairs: list[tuple[float, float]] = field(default_factory=list)
    final_row_distance: float = 0.0

    def __len__(self) -> int:
        return len(self.max_output_diffs)


def lockstep_train(
    pair: TwinPair,
    stream,
    config: SgdConfig,
    counters: OpCounters | None = None,
) -> DivergenceTrace:
    """Feed both networks the identical stream; record pre-update divergence.

    Per step: forward both on the example, record max |output difference| and
    the loss pair, then update each network from that same forward.  The
    pre-update output is the step's own forward (its ``ForwardCache``), so
    each network runs one forward per step, as ``sgd_step`` would.
    ``counters`` sees only the augmented network's training work.  Afterward
    the trace carries the largest gap between the one-hot category rows and
    the augmented encoder's effective contributions, which measures drift in
    parameter space.
    """
    stream = list(stream)[: config.steps]
    if len(stream) < config.steps:
        raise InvalidArgumentError(f"stream has {len(stream)} examples, need {config.steps}")
    trace = DivergenceTrace()
    for step, (category, numerics, target) in enumerate(stream):
        try:
            cache_a = pair.augmented.forward(category, numerics, counters)
            cache_o = pair.onehot.forward(category, numerics)
            out_a, out_o = cache_a.output, cache_o.output
            trace.max_output_diffs.append(float(np.max(np.abs(out_a - out_o))))
            target = np.asarray(target, dtype=np.float64)
            trace.loss_pairs.append((mse_loss(out_a, target), mse_loss(out_o, target)))
            pair.augmented.update(cache_a, target, config.learning_rate, counters)
            pair.onehot.update(cache_o, target, config.learning_rate)
        except NumericError as err:
            raise NumericError(f"lockstep step {step}: {err}") from err
    rows = pair.onehot.encoder.cat_weights
    contributions = contributions_matrix(pair.augmented.encoder)
    trace.final_row_distance = float(np.max(np.abs(rows - contributions)))
    return trace


def divergence_budget(step: int, base: float = 1e-12) -> float:
    """Empirical growth budget for lockstep drift after ``step`` steps."""
    return base * (1 + step) ** 2


@dataclass
class ProbeResult:
    """Effect of one training step on every category's effective contribution."""

    category: int
    deltas: np.ndarray  # (N, K): contribution after minus before
    encoder_delta: np.ndarray  # (K,): the step vector handed to the encoder
    after: np.ndarray  # (N, K): every contribution after the step


def isolation_probe(
    net: Network, category: int, numerics, target, learning_rate: float, before: np.ndarray | None = None
) -> ProbeResult:
    """One training step on ``category``; measure all contribution changes.

    ``before``, when given, must equal ``contributions_matrix(net.encoder)``:
    a loop of probes passes the previous probe's ``after``, since nothing
    changes the network in between.
    """
    if before is None:
        before = contributions_matrix(net.encoder)
    encoder_delta = net.sgd_step(category, numerics, target, learning_rate)
    after = contributions_matrix(net.encoder)
    return ProbeResult(int(category), after - before, encoder_delta, after)


def isolation_errors(probe: ProbeResult) -> tuple[float, float]:
    """(worst off-category movement, worst on-category deviation from -step)."""
    on = probe.deltas[probe.category - 1] + probe.encoder_delta
    off = np.abs(probe.deltas)
    off[probe.category - 1] = 0.0  # the trained category's own move is checked by ``on``
    return _worst(off), _worst(np.abs(on))


def interference_errors(probe: ProbeResult, width: int) -> tuple[float, float]:
    """Check the plain-binary control against the bit-overlap prediction.

    Returns (worst deviation from predicted interference, largest predicted
    off-category interference magnitude).  The prediction: a step on c' moves
    category c's contribution by -step * |shared one bits of c and c'|, the
    popcount of ``c & c'``.
    """
    categories = np.arange(1, probe.deltas.shape[0] + 1)
    bit_matrix(categories[-1:], width)  # range check: the width must represent category N
    overlap = np.bitwise_count(categories & probe.category)
    predicted = -probe.encoder_delta * overlap[:, None]
    # In place: at large N each (N, K) temporary costs more than the arithmetic.
    errors = probe.deltas - predicted
    np.abs(errors, out=errors)
    np.abs(predicted, out=predicted)
    predicted[probe.category - 1] = 0.0  # the trained category's own move is not interference
    return _worst(errors), _worst(predicted)


@dataclass(frozen=True)
class ReplayReport:
    passed: bool
    steps: int
    max_abs_err: float
    first_failure: tuple[int, int, int] | None  # (step, category, neuron)


def brute_force_check(
    n_categories: int,
    k: int,
    steps: int,
    seed: int,
    tolerance: float = 1e-12,
    learning_rate: float = 0.1,
    corrupt_at: tuple[int, int, int] | None = None,
) -> ReplayReport:
    """Replay the update history independently and compare every category.

    Trains a small encoder-only augmented network.  A second implementation
    keeps its own copy of every parameter matrix as a running sum over the
    (category, step-vector) history in step order: after each step it
    subtracts that step's vector from the trained category's bit rows,
    memory row and bit-memory columns.  These are the subtractions, in the
    same order, of a replay of the whole history from the initial values,
    and like it they use nothing of the layer's code but the step vectors.
    It then sums every category's contribution in the scalar order and
    compares the (N, K) result, then the matrices, with the live layer
    within ``tolerance``; a failure names the first bad entry, row-major.
    ``corrupt_at`` = (step, category, neuron) injects a deliberate memory
    corruption after that step, for testing the check itself.
    """
    if not (1 <= n_categories <= 8 and 1 <= k <= 4 and 0 <= steps <= 50):
        raise InvalidArgumentError("replay check is bounded to N <= 8, K <= 4, steps <= 50")
    net = build_network(
        NetworkConfig(
            encoder_kind="augmented",
            n_categories=n_categories,
            n_numeric=0,
            k=k,
            encoder_activation=Activation.IDENTITY,
            seed=seed,
        )
    )
    encoder = net.encoder
    width = encoder.width
    bits_replay = encoder.bit_weights.copy()
    catmem_replay = encoder.cat_memory.copy()
    bitmem_replay = encoder.bit_memory.copy()
    positions = {c: encode(c, width).positions for c in range(1, n_categories + 1)}
    bits = bit_matrix(np.arange(1, n_categories + 1), width)

    categories, targets = _draw_examples(seed + 1, n_categories, steps, k)
    max_err = 0.0
    for step, (category, target) in enumerate(zip(categories, targets)):
        delta = net.sgd_step(category, (), target, learning_rate)
        if corrupt_at is not None and corrupt_at[0] == step:
            encoder.cat_memory[corrupt_at[1] - 1, corrupt_at[2]] += 1e-3

        # Independent replay: plain running sums over the history, in step order.
        for i in positions[category]:
            bits_replay[i - 1] -= delta
            bitmem_replay[:, i - 1] -= delta
        catmem_replay[category - 1] -= delta

        # Every category's sum in the scalar order; masked adds skip the zero bits.
        expected = np.zeros((n_categories, k))
        for i in range(width):
            np.add(expected, bits_replay[i], out=expected, where=bits[:, i, None])
        expected += catmem_replay
        for i in range(width):
            np.subtract(expected, bitmem_replay[:, i], out=expected, where=bits[:, i, None])
        errs = np.abs(contributions_matrix(encoder) - expected).ravel()
        failing = np.flatnonzero(~(errs <= tolerance))  # a NaN error fails
        if failing.size:  # every earlier error passed, so this one is the largest (or NaN)
            first = int(failing[0])
            return ReplayReport(False, steps, float(errs[first]), (step, first // k + 1, first % k))
        matrix_err = _worst(
            [
                _worst(np.abs(encoder.bit_weights - bits_replay)),
                _worst(np.abs(encoder.cat_memory - catmem_replay)),
                _worst(np.abs(encoder.bit_memory - bitmem_replay)),
            ]
        )
        max_err = _worst([max_err, _worst(errs), matrix_err])
        if not matrix_err <= tolerance:
            return ReplayReport(False, steps, max_err, (step, 0, 0))
    return ReplayReport(True, steps, max_err, None)


@dataclass(frozen=True)
class VerifyConfig:
    """Settings for one full verification run.

    The architecture is encoder (k units, sigmoid), then the listed hidden
    widths (sigmoid), then one identity output unit.  ``tolerance`` bounds
    the twin-agreement, isolation, replay, and folded-path suites; lockstep
    drift uses the quadratic growth budget and the gradient check uses its
    own finite-difference tolerances.  ``steps`` and ``tolerance`` must be
    >= 0; a NaN tolerance is rejected too, since no suite could pass it.
    """

    seed: int = 0
    n_categories: int = 37
    k: int = 8
    n_numeric: int = 3
    hidden: tuple[int, ...] = ()
    steps: int = 100
    tolerance: float = 1e-12
    learning_rate: float = 0.1
    forward_probes: int = 100
    isolation_probes: int = 50
    gradcheck_configs: int = 10
    fault: str | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise InvalidArgumentError(f"steps must be >= 0, got {self.steps}")
        if not self.tolerance >= 0.0:
            raise InvalidArgumentError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass
class SuiteOutcome:
    passed: bool
    max_err: float
    detail: str


@dataclass
class VerificationOutcome:
    suites: dict[str, SuiteOutcome]
    divergence: DivergenceTrace
    counters: OpCounters

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.suites.values())

    def verdicts(self) -> dict[str, bool]:
        return {name: outcome.passed for name, outcome in self.suites.items()}


def _network_config(cfg: VerifyConfig, kind: str) -> NetworkConfig:
    return NetworkConfig(
        encoder_kind=kind,
        n_categories=cfg.n_categories,
        n_numeric=cfg.n_numeric,
        k=cfg.k,
        hidden=(*cfg.hidden, 1),
        encoder_activation=Activation.SIGMOID,
        hidden_activation=Activation.SIGMOID,
        output_activation=Activation.IDENTITY,
        seed=cfg.seed,
    )


def run_verification(cfg: VerifyConfig) -> VerificationOutcome:
    """Run every suite in a fixed order with seed-derived sub-streams.

    Sub-seeds: probes cfg.seed+1, training stream cfg.seed+2, isolation
    stream cfg.seed+3, control stream cfg.seed+4, folded stream cfg.seed+5,
    gradient-check base cfg.seed+6.  The run is fully deterministic.
    """
    if cfg.fault not in (None, "skip-category-memory"):
        raise InvalidArgumentError(f"unknown fault {cfg.fault!r}")
    suites: dict[str, SuiteOutcome] = {}
    counters = OpCounters()

    # Twin forward agreement on a fresh network, then again after training.
    net = build_network(_network_config(cfg, "augmented"))
    pair = build_onehot_twin(net)
    probes = probe_inputs(cfg.seed + 1, cfg.n_categories, cfg.n_numeric, cfg.forward_probes)
    fresh_diff = twin_forward_max_diff(pair, probes)

    stream = synthetic_stream(cfg.seed + 2, cfg.n_categories, cfg.n_numeric, 1, cfg.steps)
    trace = lockstep_train(pair, stream, SgdConfig(cfg.learning_rate, cfg.steps), counters)
    drift_ok = all(
        diff <= divergence_budget(step) for step, diff in enumerate(trace.max_output_diffs)
    )
    max_drift = _worst(trace.max_output_diffs)

    retrained_pair = build_onehot_twin(pair.augmented)
    trained_diff = twin_forward_max_diff(retrained_pair, probes)
    twin_diff = _worst([fresh_diff, trained_diff])
    suites["twin_forward_agreement"] = SuiteOutcome(
        twin_diff <= cfg.tolerance,
        twin_diff,
        f"fresh {fresh_diff:.3e}, after {cfg.steps} steps {trained_diff:.3e}",
    )
    suites["lockstep_divergence"] = SuiteOutcome(
        drift_ok,
        max_drift,
        f"max drift {max_drift:.3e} over {cfg.steps} steps, "
        f"final row distance {trace.final_row_distance:.3e}",
    )

    # Isolation on an evolving augmented network.
    iso_net = build_network(_network_config(cfg, "augmented"))
    if cfg.fault == "skip-category-memory":
        iso_net.encoder.skip_category_memory_update = True
    iso_stream = synthetic_stream(cfg.seed + 3, cfg.n_categories, cfg.n_numeric, 1, cfg.isolation_probes)
    iso_errors = []
    before = None  # each probe's after matrix is the next probe's before
    for category, numerics, target in iso_stream:
        probe = isolation_probe(iso_net, category, numerics, target, cfg.learning_rate, before)
        before = probe.after
        iso_errors.append(isolation_errors(probe))
    offs, ons = np.reshape(iso_errors, (-1, 2)).T
    worst_off, worst_on = _worst(offs), _worst(ons)
    iso_err = _worst([worst_off, worst_on])
    suites["isolation"] = SuiteOutcome(
        iso_err <= cfg.tolerance,
        iso_err,
        f"off-category {worst_off:.3e}, on-category {worst_on:.3e}",
    )

    # Negative control: plain binary must interfere exactly per bit overlap.
    control_net = build_network(_network_config(cfg, "binary"))
    control_stream = synthetic_stream(
        cfg.seed + 4, cfg.n_categories, cfg.n_numeric, 1, cfg.isolation_probes
    )
    control_errors = []
    before = None
    for category, numerics, target in control_stream:
        probe = isolation_probe(control_net, category, numerics, target, cfg.learning_rate, before)
        before = probe.after
        control_errors.append(interference_errors(probe, control_net.encoder.width))
    errs, predicted = np.reshape(control_errors, (-1, 2)).T
    worst_control, witnessed = _worst(errs), _worst(predicted)
    control_ok = worst_control <= cfg.tolerance and (
        cfg.n_categories < 3 or witnessed > cfg.tolerance
    )
    suites["negative_control"] = SuiteOutcome(
        control_ok,
        worst_control,
        f"overlap-prediction error {worst_control:.3e}, "
        f"largest off-category interference {witnessed:.3e}",
    )

    # Folded forward path against the plain path while memories evolve.
    folded_net = build_network(_network_config(cfg, "augmented"))
    folded_stream = synthetic_stream(cfg.seed + 5, cfg.n_categories, cfg.n_numeric, 1, 50)
    folded_gaps = []
    for index, (category, numerics, target) in enumerate(folded_stream):
        plain = folded_net.encoder.forward(category, numerics)
        folded = folded_net.encoder.forward_folded(category, numerics)
        folded_gaps.append(np.abs(plain - folded))
        if index % 5 == 0:
            folded_net.sgd_step(category, numerics, target, cfg.learning_rate)
    worst_folded = _worst(folded_gaps)
    suites["folded_agreement"] = SuiteOutcome(
        worst_folded <= cfg.tolerance,
        worst_folded,
        f"max path difference {worst_folded:.3e} over {len(folded_stream)} states",
    )

    # Brute-force replay at fixed small dimensions.
    replay = brute_force_check(8, 4, 50, cfg.seed, tolerance=cfg.tolerance)
    suites["brute_force_replay"] = SuiteOutcome(
        replay.passed,
        replay.max_abs_err,
        f"replay max err {replay.max_abs_err:.3e}, first failure {replay.first_failure}",
    )

    # Gradient checks across encoder kinds and smooth activations.
    worst_grad = 0.0
    grad_ok = True
    for index in range(cfg.gradcheck_configs):
        result = run_gradcheck_config(cfg.seed + 6, index)
        grad_ok = grad_ok and result.passed
        worst_grad = _worst([worst_grad, result.max_abs_diff])
    suites["gradient_check"] = SuiteOutcome(
        grad_ok,
        worst_grad,
        f"max analytic/numeric gap {worst_grad:.3e} over {cfg.gradcheck_configs} configs",
    )

    return VerificationOutcome(suites=suites, divergence=trace, counters=counters)


_GRADCHECK_KINDS = ("augmented", "onehot", "binary")
_GRADCHECK_ACTIVATIONS = (Activation.SIGMOID, Activation.TANH, Activation.IDENTITY)


def run_gradcheck_config(base_seed: int, index: int):
    """Gradient-check one small seeded configuration.

    Cycles encoder kinds fastest and activations slower, so any consecutive
    block of nine indices covers every (kind, activation) combination.  Kept
    to smooth activations; the relu kink needs input-specific care and is
    exercised separately.
    """
    kind = _GRADCHECK_KINDS[index % 3]
    activation = _GRADCHECK_ACTIVATIONS[(index // 3) % 3]
    stream = SplitMix64(base_seed * 1_000_003 + index)
    n_categories = 3 + stream.next_below(10)
    k = 1 + stream.next_below(4)
    n_numeric = stream.next_below(3)
    hidden = (1 + stream.next_below(3),) if index % 2 == 0 else ()
    config = NetworkConfig(
        encoder_kind=kind,
        n_categories=n_categories,
        n_numeric=n_numeric,
        k=k,
        hidden=hidden,
        encoder_activation=activation,
        hidden_activation=activation,
        output_activation=Activation.IDENTITY if hidden else activation,
        seed=stream.next_u64() % (2**32),
    )
    net = build_network(config)
    u = stream.next_u64_block(1 + n_numeric + net.output_width)
    category = int(below_draws(u[:1], n_categories)[0]) + 1
    values = symmetric_draws(u[1:], 1.0)
    return check_gradients(net, category, values[:n_numeric], values[n_numeric:])
