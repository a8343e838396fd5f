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
    """Central differences (loss(p+h) - loss(p-h)) / 2h, parameter by parameter."""
    target = np.asarray(target, dtype=np.float64)
    grads: dict[str, np.ndarray] = {}
    for name, arr in param_arrays(network):
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        grad_flat = grad.ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = mse_loss(network.predict(category, numerics), target)
            flat[idx] = original - step
            minus = mse_loss(network.predict(category, numerics), target)
            flat[idx] = original
            grad_flat[idx] = (plus - minus) / (2.0 * step)
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
    with scale = max(|analytic|, |numeric|).
    """
    analytic = analytic_gradients(network, category, numerics, target)
    numeric = numeric_gradients(network, category, numerics, target, step)
    passed = True
    worst_diff = 0.0
    worst_param = ""
    entries = 0
    for name in analytic:
        a = analytic[name].ravel()
        n = numeric[name].ravel()
        for idx in range(a.size):
            entries += 1
            diff = abs(a[idx] - n[idx])
            scale = max(abs(a[idx]), abs(n[idx]))
            if diff > abs_tol + rel_tol * scale:
                passed = False
            if diff > worst_diff:
                worst_diff = diff
                worst_param = name
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
