"""Small deterministic feed-forward engine around one encoder layer.

The network is: encoder (categorical + numeric input -> K pre-activations),
an activation on those K units, then zero or more dense layers.  Training is
plain SGD on mean squared error, one example per step.

Determinism contract: all parameters come from one seeded stream in a fixed
draw order, all accumulations run in ascending index order, and the per-step
encoder delta ``lr * dLoss/dz_k`` is computed once and handed to the encoder
verbatim.  Two networks built from the same seed and fed the same examples
produce bit-identical parameter trajectories.

The training step :meth:`Network.sgd_step` is ``update(forward(...))``:
:meth:`Network.forward` returns a :class:`ForwardCache`, and
:meth:`Network.update` runs the backward pass and every update from it, so a
caller that needs the pre-update output (the lockstep harness) reads it off
the cache instead of running a second forward.

The step is array-form: the dense fan-in sum and the backprop sum over
output columns each stack their terms and add them with one
:func:`~augbin.layers.ordered_sum`, a sequential
``np.add.accumulate`` from +0.0, never a pairwise reduction or a BLAS
product, so each equals its ascending ``+=`` loop bit for bit.  The
backprop sum runs along the contiguous axis of the (fan_in, fan_out)
product ``weights * dz``, and a one-column sum (a single output) needs no
accumulate at all.  The tests keep those loops as oracles.  Each piece of
the step runs once: no helper re-reads a shape through a property, and the
encoder's update reuses the rows its forward listed.

Evaluation (:func:`mean_loss`, :meth:`Network.predict_batch`) is batched over
rows: each layer runs once on a (B, width) array instead of once per row.
The batch axis is the only new axis; every element is still accumulated in
the per-example order (the whole category term, numerics, bias; dense fan-in
ascending; output columns ascending; rows summed left to right), so the
batched loss equals the one-row-at-a-time loop bit for bit.  That loop,
``predict`` plus ``mse_loss`` per row, is kept in the tests as the oracle.

A batch is checked and planned once: :func:`plan_loss` turns a
:class:`Batch` into a :class:`LossPlan`, the encoder's
:class:`~augbin.layers.BatchPlan` (checked int64 ids, numerics, distinct
categories, inverse, bits) plus the targets.  It depends on the batch and on
the encoder's shape, never on parameters, so :func:`run_sgd` builds one and
hands it to each of its ``steps + 1`` :func:`mean_loss` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .counters import OpCounters
from .errors import InvalidArgumentError, NumericError
from .layers import ENCODERS, AugmentedBinaryLayer, BatchPlan, Encoder, category_index, ordered_sum
from .rng import SplitMix64


class Activation(str, Enum):
    IDENTITY = "identity"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    RELU = "relu"

    # The members are compared with module aliases: reading one off the class
    # costs an enum descriptor call, and the training step makes a dozen.
    def apply(self, z: np.ndarray) -> np.ndarray:
        if self is _IDENTITY:
            return z.copy()
        if self is _SIGMOID:  # 1.0 / (1.0 + np.exp(-z)), in one new array
            a = np.negative(z)
            np.exp(a, out=a)
            np.add(1.0, a, out=a)
            return np.divide(1.0, a, out=a)
        if self is _TANH:
            return np.tanh(z)
        return np.maximum(z, 0.0)

    def derivative(self, z: np.ndarray, activated: np.ndarray) -> np.ndarray:
        """Derivative at z, reusing the already-computed activation value."""
        if self is _IDENTITY:
            return np.ones_like(z)
        if self is _SIGMOID:
            return activated * (1.0 - activated)
        if self is _TANH:
            return 1.0 - activated * activated
        return np.where(z > 0.0, 1.0, 0.0)  # derivative taken as 0 at the kink


_IDENTITY, _SIGMOID, _TANH = Activation.IDENTITY, Activation.SIGMOID, Activation.TANH


def _check_finite(z: np.ndarray, stage: str) -> None:
    """Raise NumericError unless every entry of the ``stage`` pre-activation ``z`` is finite."""
    if np.count_nonzero(np.isfinite(z)) != z.size:
        raise NumericError(f"non-finite {stage} pre-activation")


@dataclass
class DenseLayer:
    """Fully connected layer: out = activation(weights.T @ x + bias)."""

    weights: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)
    activation: Activation

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise InvalidArgumentError("weights must be 2-d")
        if self.bias.shape != (self.weights.shape[1],):
            raise InvalidArgumentError("bias length must match weights fan_out")
        self.activation = Activation(self.activation)

    @property
    def fan_in(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[1]

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size

    def forward(self, x: np.ndarray, counters: OpCounters | None = None) -> np.ndarray:
        """Fan-in terms ``weights[i] * x[i]`` in ascending i from +0.0, then the bias."""
        z = ordered_sum(self.weights * x[:, None]) + self.bias
        if counters is not None:
            counters.downstream_madds += self.weights.size
        return z

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` of B rows at once, bit for bit: (B, fan_in) in, (B, fan_out) out."""
        z = np.zeros((x.shape[0], self.fan_out))
        for i in range(self.fan_in):
            z += self.weights[i] * x[:, i, None]
        z += self.bias
        return z


@dataclass
class ForwardCache:
    """Everything backprop needs from one forward pass."""

    category: int
    numerics: np.ndarray
    pre_activations: list[np.ndarray]  # encoder z first, then each dense z
    activations: list[np.ndarray]  # matching post-activation values

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class Network:
    encoder: Encoder
    encoder_activation: Activation
    layers: list[DenseLayer] = field(default_factory=list)
    folded_forward: bool = False

    def __post_init__(self):
        self.encoder_activation = Activation(self.encoder_activation)
        fan = self.encoder.k
        for idx, layer in enumerate(self.layers):
            if layer.fan_in != fan:
                raise InvalidArgumentError(
                    f"layer {idx} expects fan_in {layer.fan_in}, previous width is {fan}"
                )
            fan = layer.fan_out

    @property
    def output_width(self) -> int:
        return self.layers[-1].fan_out if self.layers else self.encoder.k

    @property
    def param_count(self) -> int:
        return self.encoder.param_count + sum(layer.param_count for layer in self.layers)

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> ForwardCache:
        numerics = np.asarray(numerics, dtype=np.float64)
        if self.folded_forward and isinstance(self.encoder, AugmentedBinaryLayer):
            z = self.encoder.forward_folded(category, numerics, counters)
        else:
            z = self.encoder.forward(category, numerics, counters)
        _check_finite(z, "encoder")
        a = self.encoder_activation.apply(z)
        pre = [z]
        post = [a]
        for layer in self.layers:
            z = layer.forward(a, counters)
            _check_finite(z, "dense")
            a = layer.activation.apply(z)
            pre.append(z)
            post.append(a)
        return ForwardCache(int(category), numerics, pre, post)

    def backprop_deltas(self, cache: ForwardCache, target: np.ndarray) -> list[np.ndarray]:
        """Per-stage dLoss/dz, output layer last reversed to encoder first.

        Reads only pre-update weights, so the caller may apply updates in any
        stage order afterwards.
        """
        grad = mse_gradient(cache.activations[-1], target)
        deltas: list[np.ndarray] = []
        layers = self.layers
        # Stage idx is dense layer idx - 1, or the encoder at idx 0.
        for idx in range(len(layers), -1, -1):
            activation = layers[idx - 1].activation if idx else self.encoder_activation
            dz = grad  # the identity's derivative is 1.0, and grad * 1.0 is grad exactly
            if activation is not _IDENTITY:
                dz = grad * activation.derivative(cache.pre_activations[idx], cache.activations[idx])
            deltas.append(dz)
            if idx:
                # Terms weights[:, k] * dz[k], added in ascending output column k
                # along the contiguous axis of the (fan_in, fan_out) product.
                grad = ordered_sum(layers[idx - 1].weights * dz, axis=1)
        deltas.reverse()
        return deltas

    def update(
        self,
        cache: ForwardCache,
        target,
        learning_rate: float,
        counters: OpCounters | None = None,
    ) -> np.ndarray:
        """Backward pass and every update from one forward's cache; returns the encoder delta used.

        ``cache`` must come from :meth:`forward` on the current parameters.
        """
        deltas = self.backprop_deltas(cache, target)
        for idx in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[idx]
            step = learning_rate * deltas[idx + 1]
            layer.weights -= cache.activations[idx][:, None] * step
            layer.bias -= step
        encoder_delta = learning_rate * deltas[0]
        self.encoder.apply_update(cache.category, cache.numerics, encoder_delta, counters)
        return encoder_delta

    def sgd_step(
        self,
        category: int,
        numerics,
        target,
        learning_rate: float,
        counters: OpCounters | None = None,
    ) -> np.ndarray:
        """One forward/backward/update pass, ``update(forward(...))``; returns the encoder delta used."""
        return self.update(self.forward(category, numerics, counters), target, learning_rate, counters)

    def predict(self, category: int, numerics=()) -> np.ndarray:
        return self.forward(category, numerics).output

    def predict_batch(self, categories, numerics) -> np.ndarray:
        """Outputs of B rows, (B, output_width).

        Row r equals ``predict(categories[r], numerics[r])`` bit for bit.
        """
        return self.predict_plan(self.encoder.plan_batch(categories, numerics))

    def predict_plan(self, plan: BatchPlan) -> np.ndarray:
        """:meth:`predict_batch` of a batch the encoder has planned."""
        if self.folded_forward and isinstance(self.encoder, AugmentedBinaryLayer):
            z = self.encoder.forward_batch_folded(plan)
        else:
            z = self.encoder.forward_batch(plan)
        _check_finite(z, "encoder")
        a = self.encoder_activation.apply(z)
        for layer in self.layers:
            z = layer.forward_batch(a)
            _check_finite(z, "dense")
            a = layer.activation.apply(z)
        return a


def mse_loss(output: np.ndarray, target: np.ndarray) -> float:
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise InvalidArgumentError("output and target shapes differ")
    total = 0.0
    for j in range(output.shape[0]):
        diff = output[j] - target[j]
        total += diff * diff
    return total / output.shape[0]


def mse_gradient(output: np.ndarray, target: np.ndarray) -> np.ndarray:
    output = np.asarray(output, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if output.shape != target.shape:
        raise InvalidArgumentError("output and target shapes differ")
    return 2.0 * (output - target) / output.shape[0]


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture plus initialization seed for :func:`build_network`.

    ``hidden`` lists dense-layer widths after the K encoder units; the final
    entry is the output width.  Empty means the encoder's K units are the
    output.  ``encoder_activation`` applies to the K units; hidden layers use
    ``hidden_activation`` except the last, which uses ``output_activation``.
    """

    encoder_kind: str
    n_categories: int
    n_numeric: int
    k: int
    hidden: tuple[int, ...] = ()
    encoder_activation: Activation = Activation.SIGMOID
    hidden_activation: Activation = Activation.SIGMOID
    output_activation: Activation = Activation.IDENTITY
    seed: int = 0

    def __post_init__(self):
        if self.encoder_kind not in tuple(ENCODERS):  # the kind may be unhashable
            raise InvalidArgumentError(f"unknown encoder kind {self.encoder_kind!r}")
        if self.n_categories < 1:
            raise InvalidArgumentError("n_categories must be >= 1")
        if self.n_numeric < 0:
            raise InvalidArgumentError("n_numeric must be >= 0")
        if self.k < 1:
            raise InvalidArgumentError("k must be >= 1")
        for width in self.hidden:
            if width < 1:
                raise InvalidArgumentError("hidden widths must be >= 1")


def build_network(config: NetworkConfig) -> Network:
    """Build and initialize a network from one seeded stream.

    Draw order (normative): encoder categorical matrix row-major, encoder
    numeric matrix row-major, then each dense layer's weight matrix row-major
    in layer order.  All biases are zero-initialized and draw nothing.  The
    same seed therefore gives the same dense weights across encoder kinds
    with equal categorical parameter counts, and bit-weight draws are shared
    between the binary and augmented encoders exactly.
    """
    stream = SplitMix64(config.seed)
    encoder = ENCODERS[config.encoder_kind].fresh(config.n_categories, config.n_numeric, config.k, stream)
    layers = []
    fan = config.k
    for idx, width in enumerate(config.hidden):
        last = idx == len(config.hidden) - 1
        activation = config.output_activation if last else config.hidden_activation
        radius = 1.0 / math.sqrt(fan)
        layers.append(
            DenseLayer(
                weights=stream.symmetric_array((fan, width), radius),
                bias=np.zeros(width),
                activation=activation,
            )
        )
        fan = width
    return Network(encoder=encoder, encoder_activation=config.encoder_activation, layers=layers)


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    steps: int

    def __post_init__(self):
        if not self.learning_rate > 0.0:
            raise InvalidArgumentError("learning_rate must be positive")
        if not math.isfinite(self.learning_rate):
            raise InvalidArgumentError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.steps < 0:
            raise InvalidArgumentError("steps must be >= 0")


@dataclass(frozen=True)
class Batch:
    """Examples stacked once for :func:`mean_loss` and :func:`run_sgd`.

    B categories, (B, d) numerics, (B, w) targets.
    """

    categories: np.ndarray
    numerics: np.ndarray
    targets: np.ndarray


def _stack_rows(rows, name: str) -> np.ndarray:
    """Equal-length vectors as one (B, length) float array."""
    message = f"{name} must be numeric vectors of one length"
    try:
        stacked = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        raise InvalidArgumentError(message) from None
    if stacked.ndim != 2:
        raise InvalidArgumentError(message)
    return stacked


def stack_examples(examples) -> Batch:
    """Stack (category, numerics, target) triples into a :class:`Batch`."""
    examples = list(examples)
    if not examples:
        raise InvalidArgumentError("no examples")
    categories, numerics, targets = zip(*examples)
    ids = [category_index(c) for c in categories]
    try:
        ids = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id beyond int64: the encoder's batch check names it
        ids = np.array(ids, dtype=object)
    return Batch(
        ids,
        _stack_rows(numerics, "numerics"),
        _stack_rows(targets, "targets"),
    )


@dataclass(frozen=True)
class LossPlan:
    """A :class:`Batch` checked once against a network's encoder, for :func:`mean_loss`.

    ``inputs`` is the encoder's plan of the rows, ``targets`` the (B, w) targets.
    """

    inputs: BatchPlan
    targets: np.ndarray


def plan_loss(network: Network, examples) -> LossPlan:
    """Check and plan ``examples``, a :class:`Batch` or (category, numerics, target) triples."""
    batch = examples if isinstance(examples, Batch) else stack_examples(examples)
    if not len(batch.categories):
        raise InvalidArgumentError("no examples")
    return LossPlan(network.encoder.plan_batch(batch.categories, batch.numerics), batch.targets)


def mean_loss(network: Network, examples) -> float:
    """Mean MSE over (category, numerics, target) triples, in row order.

    ``examples`` is an iterable of triples, a :class:`Batch` or a
    :class:`LossPlan`.  All rows go through :meth:`Network.predict_plan` at
    once; the per-row MSE sums the output columns in ascending order and the
    rows are summed strictly left to right, as the one-row-at-a-time loop does.
    """
    plan = examples if isinstance(examples, LossPlan) else plan_loss(network, examples)
    outputs = network.predict_plan(plan.inputs)
    if outputs.shape != plan.targets.shape:
        raise InvalidArgumentError("output and target shapes differ")
    diff = outputs - plan.targets
    row_losses = np.zeros(outputs.shape[0])
    for j in range(outputs.shape[1]):
        row_losses += diff[:, j] * diff[:, j]
    row_losses /= outputs.shape[1]
    loss = np.add.accumulate(row_losses)[-1] / outputs.shape[0]
    if not math.isfinite(loss):
        raise NumericError(f"non-finite mean loss {loss}")
    return loss


def run_sgd(
    network: Network,
    examples,
    config: SgdConfig,
    counters: OpCounters | None = None,
) -> list[float]:
    """Train by cycling through examples in order for config.steps steps.

    ``examples`` is a :class:`Batch` or an iterable of (category, numerics,
    target) triples, which is stacked into one.  Step ``s`` trains on row
    ``s % B`` of the batch.  Returns the mean batch loss before training and
    after every step (length steps + 1), each one batched pass over the one
    :class:`LossPlan` built here.
    """
    plan = plan_loss(network, examples)
    ids, numerics = plan.inputs.ids, plan.inputs.numerics
    losses = [mean_loss(network, plan)]
    for step in range(config.steps):
        row = step % len(ids)
        network.sgd_step(int(ids[row]), numerics[row], plan.targets[row], config.learning_rate, counters)
        losses.append(mean_loss(network, plan))
    return losses
