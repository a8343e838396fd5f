"""Analytic gradients and a central-finite-difference oracle.

The analytic side states the true loss gradient for every parameter family,
including both memory matrices.  Note the sign asymmetry: the forward pass
subtracts the per-bit memory entries, so their loss gradient is the negative
of the per-neuron error signal, even though the training rule steps both
memories in the same direction.  The finite-difference oracle perturbs raw
parameters and re-evaluates the loss, so it is blind to any such convention
and catches a wrong sign immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitcode import encode
from .layers import AugmentedBinaryLayer, OneHotLayer
from .network import Network, mse_loss


def param_arrays(network: Network) -> list[tuple[str, np.ndarray]]:
    """Named live parameter arrays, in a stable order."""
    out = [(f"encoder.{name}", arr) for name, arr in network.encoder.params()]
    for idx, layer in enumerate(network.layers):
        out.append((f"layers[{idx}].weights", layer.weights))
        out.append((f"layers[{idx}].bias", layer.bias))
    return out


def analytic_gradients(network: Network, category: int, numerics, target) -> dict[str, np.ndarray]:
    """dLoss/dparam for one example, from one backward pass."""
    cache = network.forward(category, numerics)
    deltas = network.backprop_deltas(cache, np.asarray(target, dtype=np.float64))
    dz0 = deltas[0]
    enc = network.encoder
    grads: dict[str, np.ndarray] = {}
    if isinstance(enc, OneHotLayer):
        g = np.zeros_like(enc.cat_weights)
        g[cache.category - 1] = dz0
        grads["encoder.cat_weights"] = g
    else:
        positions = encode(cache.category, enc.width).positions
        g = np.zeros_like(enc.bit_weights)
        for i in positions:
            g[i - 1] += dz0
        grads["encoder.bit_weights"] = g
        if isinstance(enc, AugmentedBinaryLayer):
            gc = np.zeros_like(enc.cat_memory)
            gc[cache.category - 1] = dz0
            grads["encoder.cat_memory"] = gc
            gb = np.zeros_like(enc.bit_memory)
            for i in positions:
                gb[:, i - 1] -= dz0  # forward subtracts these entries
            grads["encoder.bit_memory"] = gb
    grads["encoder.num_weights"] = np.outer(cache.numerics, dz0)
    grads["encoder.bias"] = dz0.copy()
    for idx, _ in enumerate(network.layers):
        dz = deltas[idx + 1]
        grads[f"layers[{idx}].weights"] = np.outer(cache.activations[idx], dz)
        grads[f"layers[{idx}].bias"] = dz.copy()
    return grads


def numeric_gradients(
    network: Network, category: int, numerics, target, step: float = 1e-6
) -> dict[str, np.ndarray]:
    """Central differences (loss(p+h) - loss(p-h)) / 2h, parameter by parameter.

    Each entry is perturbed by its own index, so the write reaches the live
    array even when it is not contiguous (``ravel`` would perturb a copy).
    """
    target = np.asarray(target, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}
    for name, arr in param_arrays(network):
        grad = np.zeros(arr.shape)
        for idx in np.ndindex(arr.shape):
            original = arr[idx]
            arr[idx] = original + step
            plus = mse_loss(network.predict(category, numerics), target)
            arr[idx] = original - step
            minus = mse_loss(network.predict(category, numerics), target)
            arr[idx] = original
            grad[idx] = (plus - minus) / (2.0 * step)
        grads[name] = grad
    return grads


@dataclass(frozen=True)
class GradCheckResult:
    passed: bool
    entries_checked: int
    max_abs_diff: float
    worst_param: str

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"gradcheck {status}: {self.entries_checked} entries, "
            f"max abs diff {self.max_abs_diff:.3e} at {self.worst_param}"
        )


def check_gradients(
    network: Network,
    category: int,
    numerics,
    target,
    step: float = 1e-6,
    rel_tol: float = 1e-5,
    abs_tol: float = 1e-8,
) -> GradCheckResult:
    """Compare analytic against central-difference gradients entry by entry.

    An entry passes when |analytic - numeric| <= abs_tol + rel_tol * scale
    with scale = max(|analytic|, |numeric|); a NaN on either side fails, and
    makes ``max_abs_diff`` NaN.  ``worst_param`` is the first parameter that
    holds the largest difference ("" when every difference is zero).
    """
    analytic = analytic_gradients(network, category, numerics, target)
    numeric = numeric_gradients(network, category, numerics, target, step)
    passed = True
    entries = 0
    names, worst = [], []
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        diff = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        passed = passed and bool(np.all(diff <= abs_tol + rel_tol * scale))
        entries += a.size
        names.append(name)
        worst.append(np.max(diff, initial=0.0))
    index = int(np.argmax(worst))  # the first maximum, or the first NaN
    worst_diff = float(worst[index])
    worst_param = names[index] if worst_diff != 0.0 else ""
    return GradCheckResult(passed, entries, worst_diff, worst_param)


def relu_margin(network: Network, category: int, numerics) -> float:
    """Smallest |pre-activation| over relu stages; inf when no stage is relu.

    Central differences near a relu kink are meaningless, so callers should
    only gradient-check relu networks at inputs where this margin comfortably
    exceeds the difference step.
    """
    cache = network.forward(category, numerics)
    stages = [network.encoder_activation] + [layer.activation for layer in network.layers]
    margin = float("inf")
    for idx, activation in enumerate(stages):
        if activation.value == "relu":
            local = float(np.min(np.abs(cache.pre_activations[idx])))
            margin = min(margin, local)
    return margin
