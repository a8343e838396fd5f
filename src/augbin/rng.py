"""Deterministic pseudo-random stream used for every seeded draw in the package.

The generator is SplitMix64: a 64-bit counter state advanced by the golden
gamma 0x9E3779B97F4A7C15, with the output mixed through two xor-shift
multiply rounds.  It is tiny, splittable by construction, and bit-identical
across languages, which is the property the reproducibility contract leans
on.  Reference outputs (state mixing per the published algorithm):

    seed 0  -> 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    seed 42 -> 13679457532755275413, 2949826092126892291, 5139283748462763858

Derived draws are defined once here and are normative for the package:

* unit interval:  ``u = (next_u64() >> 11) * 2.0**-53`` in [0, 1)
* symmetric:      ``(2*u - 1) * radius`` in (-radius, radius)
* integer 0..n-1: ``next_u64() % n`` (modulo; the tiny bias is accepted
  in exchange for a one-line cross-language recipe)
* gaussian:       Box-Muller on two consecutive draws,
                  ``u1 = ((a >> 11) + 1) * 2.0**-53`` in (0, 1],
                  ``u2 = (b >> 11) * 2.0**-53`` in [0, 1),
                  returning ``r*cos(t)`` then ``r*sin(t)`` with
                  ``r = sqrt(-2 ln u1)`` and ``t = 2 pi u2``; the pair is
                  consumed in that fixed order before new draws are made.

Block draws are normative too, and equal to the scalar ones.  SplitMix64 is
counter-based: draw i from state s mixes ``s + i*gamma mod 2**64``.  So
:meth:`SplitMix64.next_u64_block` computes the next ``count`` draws at once
with wrapping ``uint64`` arithmetic and the same shifts and multipliers as
:meth:`SplitMix64.next_u64`, and advances the state by ``count*gamma``;
the result equals ``count`` calls of ``next_u64``.  The derived draws map a
block element-wise with the same IEEE operations as the scalar recipes:

* :func:`below_draws`:     ``u % n``
* :func:`unit_draws`:      ``(u >> 11) * 2.0**-53``, the shift result
  converted to float64 (exact, since it is below 2**53)
* :func:`symmetric_draws`: ``(2*unit - 1) * radius``

Gaussian draws stay scalar: their pairs interleave with other draws and
use libm ``log``/``cos``/``sin``, which numpy does not promise to match.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TO_UNIT = 2.0 ** -53


class SplitMix64:
    """Seeded 64-bit stream; every method documents its draw recipe."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._pending_gaussian: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_u64_block(self, count: int) -> np.ndarray:
        """The next ``count`` draws as a ``uint64`` array, equal to ``count`` :meth:`next_u64` calls.

        Like :meth:`next_u64`, it leaves a pending Gaussian in place.
        """
        if count < 0:
            raise InvalidArgumentError(f"draw count must be >= 0, got {count}")
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def next_unit(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * _TO_UNIT

    def next_symmetric(self, radius: float) -> float:
        """Uniform double in (-radius, radius)."""
        return (2.0 * self.next_unit() - 1.0) * radius

    def next_below(self, n: int) -> int:
        """Integer in 0..n-1 by modulo reduction."""
        return self.next_u64() % n

    def next_gaussian(self) -> float:
        """Standard normal; Box-Muller pairs consumed in fixed order."""
        if self._pending_gaussian is not None:
            value = self._pending_gaussian
            self._pending_gaussian = None
            return value
        u1 = ((self.next_u64() >> 11) + 1) * _TO_UNIT  # (0, 1], keeps log finite
        u2 = (self.next_u64() >> 11) * _TO_UNIT
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._pending_gaussian = radius * math.sin(theta)
        return radius * math.cos(theta)

    def symmetric_array(self, shape: tuple[int, ...], radius: float) -> np.ndarray:
        """float64 array filled in row-major order with symmetric draws."""
        return symmetric_draws(self.next_u64_block(math.prod(shape)), radius).reshape(shape)


def below_draws(u: np.ndarray, n) -> np.ndarray:
    """:meth:`SplitMix64.next_below` of each draw of a block: ``u % n`` as ``uint64``.

    ``n`` is one modulus or one per draw.
    """
    n = np.asarray(n, dtype=np.uint64)
    if not n.all():
        raise InvalidArgumentError("modulus must be >= 1")
    return u % n


def unit_draws(u: np.ndarray) -> np.ndarray:
    """:meth:`SplitMix64.next_unit` of each draw of a block, as float64."""
    return (u >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def symmetric_draws(u: np.ndarray, radius: float) -> np.ndarray:
    """:meth:`SplitMix64.next_symmetric` of each draw of a block, as float64."""
    return (2.0 * unit_draws(u) - 1.0) * radius
