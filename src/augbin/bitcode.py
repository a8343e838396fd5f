"""Category numbering and bit-level code conventions.

These conventions are normative for the whole package:

* category ids are 1-based; id 0 (the all-zeros code) is never assigned,
  which is why ``width`` is the smallest n with 2**n - 1 >= N
* bit vectors are least-significant-bit first
* one-positions are 1-indexed, listed ascending

Example: category 13 at width 4 has vector [1, 0, 1, 1] and one-positions
{1, 3, 4}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, RangeError, VocabMissError


def bit_width(n_categories: int) -> int:
    """Smallest width n with 2**n - 1 >= n_categories."""
    if n_categories < 1:
        raise InvalidArgumentError("need at least one category to encode")
    return int(n_categories).bit_length()


@dataclass(frozen=True)
class BitCode:
    """Bit representation of one category id.

    ``positions`` holds the 1-indexed one-positions ascending; ``vector``
    is the LSB-first 0/1 expansion padded to ``width``.
    """

    width: int
    positions: tuple[int, ...]
    vector: tuple[int, ...]

    def __post_init__(self):
        if self.width < 1 or len(self.vector) != self.width:
            raise InvalidArgumentError("vector length must equal width")
        if any(bit not in (0, 1) for bit in self.vector):
            raise InvalidArgumentError("vector entries must be 0 or 1")
        derived = tuple(i + 1 for i, bit in enumerate(self.vector) if bit == 1)
        if derived != tuple(self.positions):
            raise InvalidArgumentError("positions do not match vector")
        if not self.positions:
            raise RangeError("all-zero code: id 0 is never assigned")

    @property
    def value(self) -> int:
        return sum(1 << (i - 1) for i in self.positions)


def encode(category: int, width: int) -> BitCode:
    """LSB-first binary expansion of ``category`` padded to ``width``."""
    if width < 1:
        raise InvalidArgumentError("width must be positive")
    if category < 1 or category >= (1 << width):
        raise RangeError(f"category {category} not representable at width {width}")
    vector = tuple((category >> i) & 1 for i in range(width))
    positions = tuple(i + 1 for i, bit in enumerate(vector) if bit == 1)
    return BitCode(width=width, positions=positions, vector=vector)


def bit_matrix(categories, width: int) -> np.ndarray:
    """Batched :func:`encode`: row r is ``encode(categories[r], width).vector``.

    ``categories`` is 1-d; returns a ``(len(categories), width)`` bool array,
    LSB first, with the same checks as :func:`encode` over the whole batch.
    """
    if width < 1:
        raise InvalidArgumentError("width must be positive")
    ids = np.asarray(categories, dtype=np.int64)
    bad = (ids < 1) | (ids >= 1 << width)
    if bad.any():
        raise RangeError(f"category {ids[bad][0]} not representable at width {width}")
    return ((ids[:, None] >> np.arange(width)) & 1).astype(bool)


def decode(code: BitCode) -> int:
    """Inverse of :func:`encode`; the BitCode constructor enforces validity."""
    return code.value


@dataclass(frozen=True)
class CategoryVocab:
    """Immutable label <-> id mapping with its bit width.

    ``labels[i]`` carries id ``i + 1``; ids are dense in 1..size.
    """

    labels: tuple[str, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.labels:
            raise InvalidArgumentError("vocabulary needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidArgumentError("vocabulary labels must be distinct")
        object.__setattr__(
            self, "_index", {label: i + 1 for i, label in enumerate(self.labels)}
        )

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def width(self) -> int:
        return bit_width(self.size)

    def id_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise VocabMissError(f"unknown category label {label!r}") from None

    def label_of(self, category: int) -> str:
        if category < 1 or category > self.size:
            raise RangeError(f"category id {category} out of 1..{self.size}")
        return self.labels[category - 1]

    def __contains__(self, label: str) -> bool:
        return label in self._index


def build_vocab(raw_labels) -> CategoryVocab:
    """Deduplicate, sort lexicographically, number 1..N in sorted order.

    Sorting makes the mapping a function of the label multiset alone, so
    any permutation of the same input yields the identical vocabulary.
    """
    distinct = sorted(set(raw_labels))
    if not distinct:
        raise InvalidArgumentError("no category labels given")
    return CategoryVocab(labels=tuple(distinct))
