"""First-layer encoders for one categorical feature plus dense numeric features.

Every encoder derives from :class:`Encoder` and keeps one contract:

    forward(category, numerics, counters=None)       -> pre-activation (K,)
    forward_batch(categories, numerics)               -> (B, K), row r == forward(...)
    apply_update(category, numerics, delta, counters=None)
    all_contributions()                               -> (N, K), row c-1 == effective_contribution(c)
    effective_contribution(category)                  -> (K,), reference for all_contributions

The three encoders differ only in how they build the category term: one-hot
reads one weight row per category, binary sums one weight row per one-bit of
the category's code, and augmented binary adds two correction memories to
the binary sum.  :data:`ENCODERS` maps each ``kind`` name to its class and is
the one list of encoder kinds.

The base owns what the three share: input validation, ``k``,
``n_numeric``, the named parameter arrays (``params``) and their count,
the numeric terms of the forward pass, and the numeric-then-bias update.
``_BitEncoder`` adds what binary and augmented share: the bit width, the
one-bit rows of a category, the distinct categories of a batch and their
bits, the batched bit-row sum, the table of every category's bit-row sum,
and the seeded draws of a fresh layer.  A concrete
encoder supplies ``kind``, its array fields (every
``np.ndarray`` field is a trained parameter), ``n_categories``, validation
of its own categorical arrays, and defines ``forward``, ``apply_update``,
``effective_contribution`` and ``all_contributions`` itself, so that each
method can be patched on its own class.

``delta`` is the per-neuron step ``lr * dLoss/dz_k`` computed once by the
engine and consumed verbatim by every parameter family an encoder owns.
Re-using the identical float for the bit-weight, category-memory, and
bit-memory updates is what makes their cancellation exact to working
precision.

A category's effective contribution is the category-dependent part of the
pre-activation (everything except the numeric-feature terms and the shared
bias); category isolation is stated and tested on this quantity, not on raw
weights, because bit-weight entries legitimately change for overlapping
categories while the forward-pass value does not.  The package reads it only
through :func:`contributions_matrix`; ``effective_contribution`` is the
per-category reference that ``all_contributions`` must equal bit for bit,
and only the tests call it.

Evaluation order is normative and load-bearing for cross-implementation
equality, and each ``forward`` spells it out: categorical terms in ascending
bit/row order, then numeric terms in ascending feature order, then bias,
then the memory corrections.  Every accumulation below runs in ascending
index order with one accumulator per output neuron.

The per-example methods, which are the training step, are array-form: each
stacks its terms in that order (gathered bit rows, numeric terms, bias,
category memory, negated bit-memory columns) and adds them with one
:func:`ordered_sum`, a sequential ``np.add.accumulate`` that starts from
+0.0 where the ascending loop starts from zeros.  So each equals the loop of
one ``+=`` per term bit for bit (``a - b`` is ``a + (-b)`` exactly in IEEE
arithmetic); no pairwise reduction (``np.sum``) or BLAS product regroups
the terms.  Updates subtract ``delta`` from the gathered rows and columns
by fancy indexing; the one-bit rows are distinct, so each entry still gets
one subtraction.

``forward_batch`` (and ``forward_batch_folded`` on the augmented encoder)
evaluates B rows at once for loss evaluation.  What depends on the category
alone, the bit-row sums and the folded path's adjusted bias, it builds once
per distinct category of the batch (U <= min(B, N) rows) and gathers to the
B rows.  Its bit-memory pass gathers one row per bit for every row, and a
zero bit picks a +0.0 pad row, whose subtraction leaves the row exactly as
it was.  ``all_contributions`` evaluates every category's contribution at
once for the harness, building the bit-row sums of categories 0..N by
doubling.  Both keep that order for every row, applying a bit's row only
where the bit is set, so each row equals the per-example method bit for
bit.  They count no operations: the counters describe training steps.  The
per-example methods stay the training path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields

import numpy as np

# encode is no longer called here; it stays bound because perfbench/spans.py traces layers.encode.
from .bitcode import bit_matrix, bit_width, encode  # noqa: F401
from .counters import OpCounters
from .errors import InvalidArgumentError, RangeError
from .rng import SplitMix64


def _as_matrix(value, rows, cols, name) -> np.ndarray:
    """``value`` as a float (rows, cols) array; ``rows=None`` accepts any row count."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != cols or (rows is not None and arr.shape[0] != rows):
        raise InvalidArgumentError(
            f"{name} must have shape {(rows if rows is not None else 'any', cols)}, got {arr.shape}"
        )
    return arr


def _as_vector(value, length, name) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.shape != (length,):
        raise InvalidArgumentError(f"{name} must have shape {(length,)}, got {arr.shape}")
    return arr


def category_index(category) -> int:
    """A category id as a Python int: any Python or numpy integer; a bool, float or string is refused, not truncated."""
    if not isinstance(category, bool):  # numpy's bool_ has no __index__, Python's bool is an int
        try:
            return operator.index(category)
        except TypeError:
            pass
    raise InvalidArgumentError(f"category must be an integer, got {category!r}")


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (m, K) array, bit for bit ``z = zeros(K); for t in terms: z += t``.

    ``np.add.accumulate`` adds strictly one row after another.  Adding +0.0
    to the first row is the loop's first step: without it a -0.0 first term
    would leave a -0.0 sum where the loop gives +0.0.  ``terms`` is scratch;
    its first row is overwritten.
    """
    if not terms.shape[0]:
        return np.zeros(terms.shape[1:])
    terms[0] += 0.0
    return np.add.accumulate(terms, axis=0)[-1]


class Encoder:
    """Base of the first-layer encoders; see the module docstring."""

    kind: str  # key in ENCODERS
    num_weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)

    def __post_init__(self):
        self.bias = np.asarray(self.bias, dtype=np.float64)
        self.num_weights = _as_matrix(self.num_weights, None, self.k, "num_weights")

    @property
    def k(self) -> int:
        return self.bias.shape[0]

    @property
    def n_numeric(self) -> int:
        return self.num_weights.shape[0]

    def params(self) -> list[tuple[str, np.ndarray]]:
        """Named live parameter arrays: the array fields, in declaration order."""
        named = ((f.name, getattr(self, f.name)) for f in fields(self))
        return [(name, value) for name, value in named if isinstance(value, np.ndarray)]

    @property
    def param_count(self) -> int:
        return sum(arr.size for _, arr in self.params())

    def _check_category(self, category: int) -> None:
        if not 1 <= category_index(category) <= self.n_categories:
            raise RangeError(f"category {category} out of 1..{self.n_categories}")

    def _check_example(self, category: int, numerics) -> np.ndarray:
        """Validate one input; returns the numeric features as a float vector."""
        self._check_category(category)
        x = np.asarray(numerics, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] != self.n_numeric:
            raise InvalidArgumentError(f"expected {self.n_numeric} numeric features, got shape {x.shape}")
        return x

    def _check_batch(self, categories, numerics) -> tuple[np.ndarray, np.ndarray]:
        """Validate a batch of B inputs; returns (B,) int categories and (B, d) float numerics.

        The ids must be integers: a float, bool or string array is refused, not truncated.
        """
        ids = np.asarray(categories)
        if ids.ndim != 1:
            raise InvalidArgumentError(f"categories must be 1-d, got shape {ids.shape}")
        if ids.dtype == object:  # numpy keeps a Python int beyond int64 as an object
            values = [category_index(category) for category in ids]
            bad = [category for category in values if not 1 <= category <= self.n_categories]
            if bad:
                raise RangeError(f"category {bad[0]} out of 1..{self.n_categories}")
            ids = np.array(values, dtype=np.int64)
        if ids.size and ids.dtype.kind not in "iu":
            raise InvalidArgumentError(f"categories must be integers, got dtype {ids.dtype}")
        bad = (ids < 1) | (ids > self.n_categories)
        if bad.any():
            raise RangeError(f"category {ids[bad][0]} out of 1..{self.n_categories}")
        ids = ids.astype(np.int64, copy=False)  # after the range check, so no uint64 id wraps
        x = np.asarray(numerics, dtype=np.float64)
        if x.shape != (ids.shape[0], self.n_numeric):
            raise InvalidArgumentError(
                f"expected {ids.shape[0]} rows of {self.n_numeric} numeric features, got shape {x.shape}"
            )
        return ids, x

    def _numeric_terms(self, x: np.ndarray) -> np.ndarray:
        """(d, K) numeric terms, row j = ``num_weights[j] * x[j]``."""
        return self.num_weights * x[:, None]

    def _add_numerics_and_bias_batch(self, z: np.ndarray, x: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Batched forward tail, in the same order for every row."""
        for j in range(self.n_numeric):
            z += self.num_weights[j] * x[:, j, None]
        z += bias
        return z

    def _update_numerics_and_bias(self, x: np.ndarray, delta: np.ndarray) -> None:
        self.num_weights -= x[:, None] * delta
        self.bias -= delta


@dataclass
class OneHotLayer(Encoder):
    """One weight row per category; updates touch only the active row."""

    kind = "onehot"

    cat_weights: np.ndarray  # (N, K)
    num_weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)

    def __post_init__(self):
        super().__post_init__()
        self.cat_weights = _as_matrix(self.cat_weights, None, self.k, "cat_weights")

    @classmethod
    def fresh(cls, n_categories: int, n_numeric: int, k: int, stream: SplitMix64) -> "OneHotLayer":
        radius = 1.0 / np.sqrt(n_categories)
        return cls(
            cat_weights=stream.symmetric_array((n_categories, k), radius),
            num_weights=stream.symmetric_array((n_numeric, k), radius),
            bias=np.zeros(k),
        )

    @property
    def n_categories(self) -> int:
        return self.cat_weights.shape[0]

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        x = self._check_example(category, numerics)
        terms = np.concatenate((self.cat_weights[category - 1 : category], self._numeric_terms(x), self.bias[None]))
        z = np.add.accumulate(terms, axis=0)[-1]  # starts from the row itself, not from +0.0
        if counters is not None:
            counters.encoding_madds_dense += self.n_categories * self.k
            counters.encoding_madds_sparse += self.k
        return z

    def forward_batch(self, categories, numerics) -> np.ndarray:
        """:meth:`forward` of B rows at once, bit for bit: (B,) and (B, d) in, (B, K) out."""
        ids, x = self._check_batch(categories, numerics)
        return self._add_numerics_and_bias_batch(self.cat_weights[ids - 1], x, self.bias)

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        x = self._check_example(category, numerics)
        delta = _as_vector(delta, self.k, "delta")
        self.cat_weights[category - 1] -= delta
        self._update_numerics_and_bias(x, delta)
        if counters is not None:
            counters.encoding_param_updates += self.k

    def effective_contribution(self, category: int) -> np.ndarray:
        self._check_category(category)
        return self.cat_weights[category - 1].copy()

    def all_contributions(self) -> np.ndarray:
        return self.cat_weights.copy()


class _BitEncoder(Encoder):
    """Shared level of the encoders that sum one weight row per one-bit.

    A subclass supplies ``_from_draws(n_categories, **arrays)``, which builds
    the layer from the arrays that :meth:`fresh` drew.
    """

    bit_weights: np.ndarray  # (n, K)

    def __post_init__(self):
        super().__post_init__()
        self.bit_weights = _as_matrix(self.bit_weights, bit_width(self.n_categories), self.k, "bit_weights")

    @classmethod
    def fresh(cls, n_categories: int, n_numeric: int, k: int, stream: SplitMix64) -> "_BitEncoder":
        """Draw bit rows, then numeric rows, at radius 1/sqrt(width); the rest start at zero."""
        width = bit_width(n_categories)
        radius = 1.0 / np.sqrt(width)
        return cls._from_draws(
            n_categories,
            bit_weights=stream.symmetric_array((width, k), radius),
            num_weights=stream.symmetric_array((n_numeric, k), radius),
            bias=np.zeros(k),
        )

    @property
    def width(self) -> int:
        return self.bit_weights.shape[0]

    def _rows(self, category: int) -> np.ndarray:
        """0-based rows of the category's one-bits, ascending: ``encode(category, width).positions`` - 1.

        Read off the Python integer, so any width works; callers range-check first.
        """
        return np.array([i for i in range(self.width) if category >> i & 1])

    def _bit_sum_table(self) -> np.ndarray:
        """(N+1, K) table whose row c is category c's bit-row sum, ascending; row 0 is +0.0.

        Doubling: ``S[2**h + r] = S[r] + w[h]`` for r < 2**h, so ``width``
        vector adds fill every row, each adding the high bit last as the
        scalar sum does.  Only rows with bit h set get ``w[h]``, so an
        infinite row stays out of the other categories.
        """
        table = np.empty((self.n_categories + 1, self.k))
        table[0] = 0.0
        for h in range(self.width):
            low = 1 << h
            high = min(2 * low, table.shape[0])
            np.add(table[: high - low], self.bit_weights[h], out=table[low:high])
        return table

    def _distinct_bits(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The batch's U distinct categories, each row's index among them, and their (U, width) bits.

        Work that depends on the category alone runs on these U <= min(B, N)
        rows; ``np.take(..., inverse, axis=0)`` gathers it to the B rows.
        """
        distinct, inverse = np.unique(ids, return_inverse=True)
        return distinct, inverse, bit_matrix(distinct, self.width)

    def _bit_sum_batch(self, bits: np.ndarray) -> np.ndarray:
        """Categorical term of each row of ``bits``: it adds the weight rows of its one-bits, ascending.

        The batched forwards pass the bits of the distinct categories, so each
        sum is built once per category and then gathered to the B rows.  A
        masked add skips the zero bits, as the scalar loop does; multiplying
        by the 0/1 bit would turn an infinite weight into NaN.
        """
        z = np.zeros((bits.shape[0], self.k))
        for i in range(self.width):
            np.add(z, self.bit_weights[i], out=z, where=bits[:, i, None])
        return z


@dataclass
class BinaryLayer(_BitEncoder):
    """One weight row per bit; the deliberate negative control.

    A step for one category moves every other category that shares a one-bit
    with it, by exactly the bit-overlap count times delta.
    """

    kind = "binary"

    n_categories: int
    bit_weights: np.ndarray  # (n, K)
    num_weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)

    @classmethod
    def _from_draws(cls, n_categories: int, **arrays) -> "BinaryLayer":
        return cls(n_categories=n_categories, **arrays)

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        x = self._check_example(category, numerics)
        rows = self._rows(category)
        z = ordered_sum(np.concatenate((self.bit_weights[rows], self._numeric_terms(x), self.bias[None])))
        if counters is not None:
            counters.encoding_madds_dense += self.width * self.k
            counters.encoding_madds_sparse += len(rows) * self.k
        return z

    def forward_batch(self, categories, numerics) -> np.ndarray:
        """:meth:`forward` of B rows at once, bit for bit: (B,) and (B, d) in, (B, K) out."""
        ids, x = self._check_batch(categories, numerics)
        _, inverse, bits = self._distinct_bits(ids)
        z = np.take(self._bit_sum_batch(bits), inverse, axis=0)
        return self._add_numerics_and_bias_batch(z, x, self.bias)

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        x = self._check_example(category, numerics)
        delta = _as_vector(delta, self.k, "delta")
        rows = self._rows(category)
        self.bit_weights[rows] -= delta
        self._update_numerics_and_bias(x, delta)
        if counters is not None:
            counters.encoding_param_updates += len(rows) * self.k

    def effective_contribution(self, category: int) -> np.ndarray:
        self._check_category(category)
        rows = self._rows(category)
        return ordered_sum(self.bit_weights[rows])

    def all_contributions(self) -> np.ndarray:
        return self._bit_sum_table()[1:]


@dataclass
class AugmentedBinaryLayer(_BitEncoder):
    """Binary encoding plus two correction memories that restore isolation.

    ``cat_memory`` (N x K) accumulates, per category, the same deltas that
    were applied to that category's bit-weight rows; ``bit_memory`` (K x n)
    accumulates them per bit regardless of category.  The forward pass adds
    the active category's memory row and subtracts the memory of its one
    bits, so the net category contribution behaves as if each category owned
    a private weight row.

    ``skip_category_memory_update`` is a fault-injection hook for harness
    self-tests; it must stay False in real use.
    """

    kind = "augmented"

    bit_weights: np.ndarray  # (n, K)
    num_weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)
    cat_memory: np.ndarray  # (N, K)
    bit_memory: np.ndarray  # (K, n)
    skip_category_memory_update: bool = field(default=False, repr=False)

    def __post_init__(self):
        # Checked first: n_categories, and so the bit width, come from it.
        self.cat_memory = _as_matrix(self.cat_memory, None, len(self.bias), "cat_memory")
        super().__post_init__()
        self.bit_memory = _as_matrix(self.bit_memory, self.k, self.width, "bit_memory")

    @classmethod
    def _from_draws(cls, n_categories: int, **arrays) -> "AugmentedBinaryLayer":
        k, width = arrays["bias"].shape[0], arrays["bit_weights"].shape[0]
        # Both memories start at zero.
        return cls(**arrays, cat_memory=np.zeros((n_categories, k)), bit_memory=np.zeros((k, width)))

    @property
    def n_categories(self) -> int:
        return self.cat_memory.shape[0]

    def _memory_terms(self, category: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The category's memory row (1, K), then the negated memory of each one-bit (ones, K)."""
        return self.cat_memory[category - 1 : category], -self.bit_memory[:, rows].T

    def _memory_rows(self, bits: np.ndarray) -> np.ndarray:
        """(width, U) rows for :meth:`_add_memories_batch`: i where bit i is set, ``width`` where it is not."""
        return np.where(bits.T, np.arange(self.width)[:, None], self.width)

    def _add_memories_batch(self, z: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Add each row's category memory, then subtract its one-bits' memories, ascending.

        Bit i subtracts row ``rows[i]`` of ``bit_memory.T`` with a +0.0 pad row
        stacked under it: its memory where the bit is set, the pad row where it
        is not.  ``z - (+0.0)`` is ``z`` exactly, for +-0.0, +-inf and NaN
        alike, so each row equals the scalar loop that skips its zero bits.
        One bit is gathered at a time, so no (width, B, K) stack is built.
        """
        z += np.take(self.cat_memory, ids - 1, axis=0)
        table = np.vstack((self.bit_memory.T, np.zeros((1, self.k))))
        for i in range(self.width):
            z -= np.take(table, rows[i], axis=0)
        return z

    def _count_forward(self, counters: OpCounters | None, ones: int) -> None:
        if counters is not None:
            counters.encoding_madds_dense += (2 * self.width + 1) * self.k
            counters.encoding_madds_sparse += (2 * ones + 1) * self.k

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        """Bit rows + numeric terms + bias + category memory - bit memories."""
        x = self._check_example(category, numerics)
        rows = self._rows(category)
        memories = self._memory_terms(category, rows)
        z = ordered_sum(np.concatenate((self.bit_weights[rows], self._numeric_terms(x), self.bias[None], *memories)))
        self._count_forward(counters, len(rows))
        return z

    def forward_folded(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        """Same value, regrouped: memory terms folded into the bias first.

        Agrees with :meth:`forward` to within accumulated rounding noise
        (budgeted at 1e-12 absolute per component).
        """
        x = self._check_example(category, numerics)
        rows = self._rows(category)
        # The adjusted bias starts from the bias itself, not from +0.0.
        adjusted = np.add.accumulate(np.concatenate((self.bias[None], *self._memory_terms(category, rows))), axis=0)
        z = ordered_sum(np.concatenate((self.bit_weights[rows], self._numeric_terms(x), adjusted[-1:])))
        self._count_forward(counters, len(rows))
        return z

    def forward_batch(self, categories, numerics) -> np.ndarray:
        """:meth:`forward` of B rows at once, bit for bit: (B,) and (B, d) in, (B, K) out."""
        ids, x = self._check_batch(categories, numerics)
        _, inverse, bits = self._distinct_bits(ids)
        z = self._add_numerics_and_bias_batch(np.take(self._bit_sum_batch(bits), inverse, axis=0), x, self.bias)
        return self._add_memories_batch(z, ids, self._memory_rows(bits)[:, inverse])

    def forward_batch_folded(self, categories, numerics) -> np.ndarray:
        """:meth:`forward_folded` of B rows at once, bit for bit.

        The adjusted bias depends on the category alone, so it is built once
        per distinct category and gathered, as the bit sums are.
        """
        ids, x = self._check_batch(categories, numerics)
        distinct, inverse, bits = self._distinct_bits(ids)
        adjusted = np.tile(self.bias, (distinct.shape[0], 1))
        adjusted = self._add_memories_batch(adjusted, distinct, self._memory_rows(bits))
        z = np.take(self._bit_sum_batch(bits), inverse, axis=0)
        return self._add_numerics_and_bias_batch(z, x, np.take(adjusted, inverse, axis=0))

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        """Subtract the same delta from bit rows, category memory, bit memory.

        The bit-row and bit-memory changes cancel in every forward pass, so
        only the category-memory change survives, and only for this category.
        """
        x = self._check_example(category, numerics)
        delta = _as_vector(delta, self.k, "delta")
        rows = self._rows(category)
        self.bit_weights[rows] -= delta
        if not self.skip_category_memory_update:
            self.cat_memory[category - 1] -= delta
        self.bit_memory[:, rows] -= delta[:, None]
        self._update_numerics_and_bias(x, delta)
        if counters is not None:
            counters.encoding_param_updates += (2 * len(rows) + 1) * self.k

    def effective_contribution(self, category: int) -> np.ndarray:
        """Category-dependent part of the pre-activation."""
        self._check_category(category)
        rows = self._rows(category)
        return ordered_sum(np.concatenate((self.bit_weights[rows], *self._memory_terms(category, rows))))

    def all_contributions(self) -> np.ndarray:
        """Bit sums, plus each category's memory, minus its one-bits' memories, ascending.

        Row c of the table has bit i set in the second half of each block of
        2**(i+1) rows: a strided view of the full blocks and a slice of the
        partial last block reach exactly those rows, without a mask.
        """
        table = self._bit_sum_table()
        table[1:] += self.cat_memory
        for i in range(self.width):
            half = 1 << i
            full = table.shape[0] // (2 * half) * 2 * half
            table[:full].reshape(-1, 2, half, self.k)[:, 1] -= self.bit_memory[:, i]
            table[full + half :] -= self.bit_memory[:, i]
        return table[1:]


ENCODERS: dict[str, type[Encoder]] = {
    cls.kind: cls for cls in (OneHotLayer, BinaryLayer, AugmentedBinaryLayer)
}


def contributions_matrix(encoder: Encoder) -> np.ndarray:
    """The (N, K) matrix whose row c-1 is effective_contribution(c), bit for bit."""
    return encoder.all_contributions()
