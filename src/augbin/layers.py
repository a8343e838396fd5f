"""First-layer encoders for one categorical feature plus dense numeric features.

Every encoder derives from :class:`Encoder` and keeps one contract:

    forward(category, numerics, counters=None)       -> pre-activation (K,)
    plan_batch(categories, numerics)                  -> BatchPlan of B rows
    forward_batch(plan)                               -> (B, K), row r == forward(...)
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
batch plans, the batched forward, the numeric terms of the forward pass, and
the numeric-then-bias update.  ``_BitEncoder`` adds what binary and
augmented share: the bit width, the bits a plan keeps, the batched bit-row
sum, the table of every category's bit-row sum, and the seeded draws of a
fresh layer.  A concrete encoder supplies ``kind``, its array fields (every
``np.ndarray`` field is a trained parameter), ``n_categories``, validation
of its own categorical arrays, ``_category_rows`` for the batched forward,
and defines ``forward``, ``apply_update``, ``effective_contribution`` and
``all_contributions`` itself, so that each method can be patched on its own
class.

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
equality, and each ``forward`` spells it out: first the whole category term,
exactly as ``effective_contribution`` sums it (one-hot: its row; binary: the
bit rows ascending; augmented: the bit rows ascending, the category memory,
then the bit memories subtracted ascending), then the numeric terms in
ascending feature order, then the bias.  So a one-hot layer whose rows are
an augmented layer's contributions computes the augmented forward bit for
bit.  ``forward_folded`` keeps its own grouping: bit rows, numeric terms,
then the bias with the memories folded into it.  Every accumulation below
runs in ascending index order with one accumulator per output neuron.

The per-example methods, which are the training step, are array-form: each
stacks its terms in that order (gathered bit rows, category memory, negated
bit-memory rows, numeric terms, bias) and adds them with one
:func:`ordered_sum`, a sequential ``np.add.accumulate`` plus +0.0, which
equals the loop of one ``+=`` per term from zeros bit for bit (``a - b`` is
``a + (-b)`` exactly in IEEE arithmetic); no pairwise reduction (``np.sum``)
or BLAS product regroups the terms.  The binary encoder gathers and updates
its bit rows by fancy indexing.  The input check hands back the category as
a Python int, and the methods list its one-bits off that int one set bit at
a time (``c & -c``), never in a numpy integer's own dtype, where
``width + category - 1`` could wrap.

The augmented encoder keeps every parameter in one (n + N + n + d + 1, K)
buffer: the n bit-weight rows, the N category-memory rows, the n bit-memory
rows, the d numeric rows, then the bias row.  ``bit_weights``,
``cat_memory``, ``bit_memory``, ``num_weights`` and ``bias`` are views of
it, ``bit_memory`` the (K, n) transpose of its block, and construction
copies the caller's arrays into it; a copy or a pickle builds the layer
anew from its parameters, on a buffer of its own.  ``_step_rows`` lists a
step's rows: the 2*ones+1 rows of its category term, then the numeric rows
and the bias row.  It keeps its last listing with the category and tail it
was made for, so a step lists its rows once: the forward lists them and the
update reuses them.  The forward gathers the whole sum with one ``take`` of
2*ones+1+d+1 rows, negates the bit-memory block and scales the numeric
block in place, and adds it with one ``ordered_sum``; nothing is
concatenated.  The update gathers the same rows, subtracts delta from each
(``x[j] * delta`` from numeric row j), and scatters them back.  The rows
are distinct, so each entry gets one subtraction.

Batched evaluation is one-hot evaluation for every kind.  ``plan_batch``
checks B inputs once and keeps what depends on the categories alone: the
U <= min(B, N) distinct categories, each row's index among them and, for a
bit encoder, their bits (:class:`BatchPlan`).  ``forward_batch(plan)``, on
the base, builds the category term of each distinct category
(``_category_rows``: a one-hot row, or a masked bit-row sum, plus for
augmented the category memory and the masked bit-memory subtractions),
gathers those U rows to the B rows and adds the numeric terms and the bias.
``forward_batch_folded`` builds the folded path's adjusted bias per distinct
category the same way.  ``all_contributions`` evaluates every category's
contribution at once for the harness, building the bit-row sums of
categories 0..N by doubling.  Each keeps the order above for every row,
applying a bit's row only where the bit is set, so each row equals the
per-example method bit for bit.  They count no operations: the counters
describe training steps.  The per-example methods stay the training path.
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


def _one_bits(category: int) -> list[int]:
    """0-based positions of the one-bits of a positive Python int, ascending.

    One pass per set bit (``c & -c`` is the lowest), not one per bit of the
    width, and any width works.
    """
    bits = []
    while category:
        low = category & -category
        bits.append(low.bit_length() - 1)
        category -= low
    return bits


def ordered_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sum of a (m, K) array along ``axis``, bit for bit the ascending loop from zeros.

    Along axis 0 that is the (K,) sum of the rows, ``z = zeros(K); for t in
    terms: z += t``; along axis 1 the (m,) sum of the columns, ``z =
    zeros(m); for k in range(K): z += terms[:, k]``.  ``np.add.accumulate``
    adds strictly one term after another.  The loop's +0.0 start matters only
    where every term is -0.0: no sum that starts from +0.0 is ever -0.0, and
    a run of -0.0 terms is absorbed by the first other term either way.  So
    adding +0.0 at the end, which turns only -0.0 into +0.0, gives the
    loop's sum.  With no terms the sum is zeros.  One term is its own running
    sum, so it skips the accumulate, which would make one inner-loop call
    per row of a (fan_in, 1) backprop sum.
    """
    count = terms.shape[axis]
    if not count:
        return np.zeros(terms.shape[1 - axis])
    total = np.add.accumulate(terms, axis=axis) if count > 1 else terms
    return (total[:, -1] if axis else total[-1]) + 0.0


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that refuses writes; ``arr`` itself stays writable."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class BatchPlan:
    """B inputs checked once against an encoder's shape, with the category-only work done.

    ``ids`` (B,) int64 and ``numerics`` (B, d) float are the checked inputs.
    ``distinct`` holds the U <= min(B, N) distinct categories, ascending,
    ``inverse`` each row's index among them, and ``bits`` their (U, width)
    bits for a bit encoder (None for one-hot).  ``key`` is what the plan was
    built for: N, d and a bit encoder's width.  Nothing here depends on
    parameters, so one plan serves every evaluation of its batch while the
    encoder trains.  Build it with :meth:`Encoder.plan_batch`; its arrays are
    read-only views.
    """

    key: tuple[int, ...]
    ids: np.ndarray
    numerics: np.ndarray
    distinct: np.ndarray
    inverse: np.ndarray
    bits: np.ndarray | None


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

    def _check_category(self, category: int) -> int:
        """Range-check a category id; returns it as a Python int, whatever integer type it came as."""
        index = category_index(category)
        if not 1 <= index <= self.n_categories:
            raise RangeError(f"category {category} out of 1..{self.n_categories}")
        return index

    def _check_step(self, category: int, numerics) -> tuple[int, np.ndarray]:
        """Validate one input; returns the category as a Python int and the numeric features as a float vector.

        The per-example methods compute with that int, never with the
        caller's object: a numpy integer would do their index arithmetic in
        its own dtype, where ``width + category - 1`` can wrap.  This is
        :meth:`_check_category` inlined, with a Python int passed through:
        the training step checks twice, so it calls no helper.
        """
        index = category if type(category) is int else category_index(category)
        if not 1 <= index <= self.n_categories:
            raise RangeError(f"category {category} out of 1..{self.n_categories}")
        x = np.asarray(numerics, dtype=np.float64)
        if x.shape != self.num_weights.shape[:1]:
            raise InvalidArgumentError(f"expected {self.n_numeric} numeric features, got shape {x.shape}")
        return index, x

    def _check_example(self, category: int, numerics) -> np.ndarray:
        """:meth:`_check_step`'s numeric features alone, for callers that keep their own category (the tests' reference loops)."""
        return self._check_step(category, numerics)[1]

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

    def _plan_key(self) -> tuple[int, ...]:
        """What a plan must be built for to serve this encoder: N and d."""
        return (self.n_categories, self.n_numeric)

    def _plan_bits(self, distinct: np.ndarray) -> np.ndarray | None:
        """The bits a plan keeps of its distinct categories; one-hot keeps none."""
        return None

    def plan_batch(self, categories, numerics) -> BatchPlan:
        """Check B inputs once, (B,) ids and (B, d) numerics, and plan their category-only work."""
        ids, x = self._check_batch(categories, numerics)
        distinct, inverse = np.unique(ids, return_inverse=True)
        bits = self._plan_bits(distinct)
        return BatchPlan(
            self._plan_key(),
            *(_read_only(arr) for arr in (ids, x, distinct, inverse)),
            None if bits is None else _read_only(bits),
        )

    def _check_plan(self, plan: BatchPlan) -> None:
        if plan.key != self._plan_key():
            raise InvalidArgumentError(f"plan built for {plan.key}, this encoder needs {self._plan_key()}")

    def forward_batch(self, plan: BatchPlan) -> np.ndarray:
        """:meth:`forward` of the plan's B rows at once, bit for bit: (B, K) out.

        The category term is built once per distinct category and gathered
        to the rows; the numeric terms and the bias follow, as in ``forward``.
        """
        self._check_plan(plan)
        z = np.take(self._category_rows(plan), plan.inverse, axis=0)
        return self._add_numerics_and_bias_batch(z, plan.numerics, self.bias)

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
        category, x = self._check_step(category, numerics)
        terms = np.concatenate((self.cat_weights[category - 1 : category], self._numeric_terms(x), self.bias[None]))
        z = np.add.accumulate(terms, axis=0)[-1]  # starts from the row itself, not from +0.0
        if counters is not None:
            counters.encoding_madds_dense += self.cat_weights.size
            counters.encoding_madds_sparse += z.shape[0]
        return z

    def _category_rows(self, plan: BatchPlan) -> np.ndarray:
        return self.cat_weights[plan.distinct - 1]

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        category, x = self._check_step(category, numerics)
        delta = _as_vector(delta, self.bias.shape[0], "delta")
        self.cat_weights[category - 1] -= delta
        self._update_numerics_and_bias(x, delta)
        if counters is not None:
            counters.encoding_param_updates += delta.shape[0]

    def effective_contribution(self, category: int) -> np.ndarray:
        return self.cat_weights[self._check_category(category) - 1].copy()

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

    def _plan_key(self) -> tuple[int, ...]:
        return (*super()._plan_key(), self.width)

    def _plan_bits(self, distinct: np.ndarray) -> np.ndarray:
        return bit_matrix(distinct, self.width)

    def _bit_sum_batch(self, bits: np.ndarray) -> np.ndarray:
        """Bit-row sum of each row of ``bits``: it adds the weight rows of its one-bits, ascending, from +0.0.

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

    def _rows(self, category: int) -> np.ndarray:
        """0-based rows of the category's one-bits, ascending: ``encode(category, width).positions`` - 1.

        Callers range-check first and pass the Python int the check returns.
        """
        return np.array(_one_bits(category))

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        category, x = self._check_step(category, numerics)
        rows = self._rows(category)
        z = ordered_sum(np.concatenate((self.bit_weights[rows], self._numeric_terms(x), self.bias[None])))
        if counters is not None:
            counters.encoding_madds_dense += self.bit_weights.size
            counters.encoding_madds_sparse += len(rows) * z.shape[0]
        return z

    def _category_rows(self, plan: BatchPlan) -> np.ndarray:
        return self._bit_sum_batch(plan.bits)

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        category, x = self._check_step(category, numerics)
        delta = _as_vector(delta, self.bias.shape[0], "delta")
        rows = self._rows(category)
        self.bit_weights[rows] -= delta
        self._update_numerics_and_bias(x, delta)
        if counters is not None:
            counters.encoding_param_updates += len(rows) * delta.shape[0]

    def effective_contribution(self, category: int) -> np.ndarray:
        return ordered_sum(self.bit_weights[self._rows(self._check_category(category))])

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

    Every parameter is a view of one (n + N + n + d + 1, K) buffer (see
    the module docstring); construction copies the caller's arrays into it,
    so the layer never aliases them.  Write them in place, never rebind them.

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
        cat_memory = self.cat_memory = _as_matrix(self.cat_memory, None, len(self.bias), "cat_memory")
        super().__post_init__()
        bit_memory = _as_matrix(self.bit_memory, self.k, self.width, "bit_memory")
        n, bits_end = self.width, self.width + self.n_categories
        memory_end = bits_end + n
        # np.zeros leaves its pages unwritten; an all +0.0 category memory (a
        # fresh layer's) is not copied, so its N x K block stays unwritten too.
        buffer = self._buffer = np.zeros((memory_end + self.n_numeric + 1, self.k))
        buffer[:n] = self.bit_weights
        if cat_memory.view(np.uint64).any():  # any bit set: not all +0.0
            buffer[n:bits_end] = cat_memory
        buffer[bits_end:memory_end] = bit_memory.T
        buffer[memory_end:-1] = self.num_weights
        buffer[-1] = self.bias
        self.bit_weights = buffer[:n]
        self.cat_memory = buffer[n:bits_end]
        self.bit_memory = buffer[bits_end:memory_end].T
        self.num_weights = buffer[memory_end:-1]
        self.bias = buffer[-1]
        self._rows_record = (0, 0, None)  # (category, tail, rows) of the last _step_rows listing

    def __reduce__(self):
        """Copies and pickles rebuild the layer from its parameters, so a copy's views share the copy's own buffer.

        Copied one by one, each view would leave the buffer, and writes
        through ``params()`` would no longer reach ``forward``.
        """
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @classmethod
    def _from_draws(cls, n_categories: int, **arrays) -> "AugmentedBinaryLayer":
        k, width = arrays["bias"].shape[0], arrays["bit_weights"].shape[0]
        # Both memories start at zero.  A broadcast zero allocates nothing N x K:
        # the constructor copies no all +0.0 category memory into its buffer.
        zero = np.broadcast_to(0.0, (n_categories, k))
        return cls(**arrays, cat_memory=zero, bit_memory=np.zeros((k, width)))

    @property
    def n_categories(self) -> int:
        return self.cat_memory.shape[0]

    def _step_rows(self, category: int, tail: int) -> np.ndarray:
        """Buffer rows of one step, each block ascending; the caller must not write to them.

        The one-bits' weight rows, the category memory row, the one-bits'
        memory rows, then the buffer's last ``tail`` rows: the numeric rows
        and the bias row, or none.  Callers range-check first and pass the
        Python int the check returns.

        The rows depend on the category and the tail alone, so the last
        listing is kept and a call for the same pair returns it: a step's
        forward lists them and its update reuses them.
        """
        record = self._rows_record
        if record[0] == category and record[1] == tail:
            return record[2]
        width = self.bit_weights.shape[0]
        memory = width + self.cat_memory.shape[0]  # the first bit-memory row
        end = self._buffer.shape[0]
        bits = _one_bits(category)
        rows = [*bits, width + category - 1, *map(memory.__add__, bits), *range(end - tail, end)]
        rows = np.array(rows, np.intp)
        self._rows_record = (category, tail, rows)
        return rows

    def _step_terms(self, category: int, x: np.ndarray | None = None) -> tuple[np.ndarray, int]:
        """The step's terms in one gather, and the number of one-bits.

        Rows: the one-bits' weight rows, the category memory row, the
        negated memory of each one-bit and, given the numeric features
        ``x``, the numeric terms ``num_weights[j] * x[j]`` and the bias.
        The caller owns the array.
        """
        ones = category.bit_count()
        tail = 0 if x is None else x.shape[0] + 1
        terms = self._buffer.take(self._step_rows(category, tail), axis=0)
        memories = terms[ones + 1 : 2 * ones + 1]
        np.negative(memories, out=memories)
        if x is not None:
            numeric = terms[2 * ones + 1 : -1]
            numeric *= x[:, None]
        return terms, ones

    def _add_memories(self, z: np.ndarray, plan: BatchPlan) -> np.ndarray:
        """Add each distinct category's memory to its row of ``z``, then subtract its one-bits' memories, ascending.

        A masked subtract skips the zero bits, as the scalar loop does.
        """
        z += self.cat_memory[plan.distinct - 1]
        for i in range(self.width):
            np.subtract(z, self.bit_memory[:, i], out=z, where=plan.bits[:, i, None])
        return z

    def _count_forward(self, counters: OpCounters | None, ones: int) -> None:
        if counters is not None:
            width, k = self.bit_weights.shape
            counters.encoding_madds_dense += (2 * width + 1) * k
            counters.encoding_madds_sparse += (2 * ones + 1) * k

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        """Bit rows + category memory - bit memories, then numeric terms, then bias."""
        category, x = self._check_step(category, numerics)
        terms, ones = self._step_terms(category, x)
        z = ordered_sum(terms)
        self._count_forward(counters, ones)
        return z

    def forward_folded(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        """Same value, regrouped: memory terms folded into the bias first.

        Agrees with :meth:`forward` to within accumulated rounding noise
        (budgeted at 1e-12 absolute per component).
        """
        category, x = self._check_step(category, numerics)
        terms, ones = self._step_terms(category, x)
        # The adjusted bias starts from the bias itself, not from +0.0.
        adjusted = np.add.accumulate(np.concatenate((terms[-1:], terms[ones : 2 * ones + 1])), axis=0)
        z = ordered_sum(np.concatenate((terms[:ones], terms[2 * ones + 1 : -1], adjusted[-1:])))
        self._count_forward(counters, ones)
        return z

    def _category_rows(self, plan: BatchPlan) -> np.ndarray:
        return self._add_memories(self._bit_sum_batch(plan.bits), plan)

    def forward_batch_folded(self, plan: BatchPlan) -> np.ndarray:
        """:meth:`forward_folded` of the plan's B rows at once, bit for bit.

        The adjusted bias depends on the category alone, so it is built once
        per distinct category and gathered, as the bit sums are.
        """
        self._check_plan(plan)
        adjusted = self._add_memories(np.tile(self.bias, (plan.distinct.shape[0], 1)), plan)
        z = np.take(self._bit_sum_batch(plan.bits), plan.inverse, axis=0)
        return self._add_numerics_and_bias_batch(z, plan.numerics, np.take(adjusted, plan.inverse, axis=0))

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        """Subtract the same delta from bit rows, category memory, bit memory and bias in one scatter.

        The bit-row and bit-memory changes cancel in every forward pass, so
        only the category-memory change survives, and only for this category.
        The rows are the forward's listing, so the scatter also takes the
        numeric rows, each stepped by its own ``x[j] * delta``.
        """
        category, x = self._check_step(category, numerics)
        delta = _as_vector(delta, self.bias.shape[0], "delta")
        ones = category.bit_count()
        rows = self._step_rows(category, x.shape[0] + 1)
        if self.skip_category_memory_update:
            rows = np.delete(rows, ones)  # the category memory row
        stepped = self._buffer.take(rows, axis=0)  # buffer[rows] -= delta, gathering with the cheaper take
        stepped -= delta
        # The numeric rows take x[j] * delta instead, from their values before the step.
        np.subtract(self.num_weights, x[:, None] * delta, out=stepped[-x.shape[0] - 1 : -1])
        self._buffer[rows] = stepped
        if counters is not None:
            counters.encoding_param_updates += (2 * ones + 1) * delta.shape[0]

    def effective_contribution(self, category: int) -> np.ndarray:
        """Category-dependent part of the pre-activation."""
        return ordered_sum(self._step_terms(self._check_category(category))[0])

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
