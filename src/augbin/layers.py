"""First-layer encoders for one categorical feature plus dense numeric features.

Every encoder derives from :class:`Encoder` and keeps one contract:

    forward(category, numerics, counters=None)       -> pre-activation (K,)
    plan_batch(categories, numerics)                  -> BatchPlan of B rows
    forward_batch(plan)                               -> (B, K), row r == forward(...)
    apply_update(category, numerics, delta, counters=None)
    all_contributions(out=None)                       -> (N, K), row c-1 == effective_contribution(c)
    effective_contribution(category)                  -> (K,), reference for all_contributions

The three encoders differ only in which rows a step reads and writes: one-hot
its category's weight row, binary one weight row per one-bit of the
category's code, and augmented binary those bit rows, the category's memory
row and, negated, the memory row of each one-bit.  :data:`ENCODERS` maps each
``kind`` name to its class and is the one list of encoder kinds.

One layout.  Every encoder keeps all its parameters in one (R + d + 1, K)
buffer: its R category rows, the d numeric rows, then the bias row.  The
category rows are one-hot's N weight rows; binary's n bit rows; augmented's
n bit rows, N category-memory rows and n bit-memory rows.  The named
parameters (``params()``) are views of the buffer, augmented's
``bit_memory`` the (K, n) transpose of its block.  :meth:`Encoder._into_buffer`
builds it from copies of the caller's arrays, so a layer never aliases them:
write parameters in place, never rebind them.  np.zeros leaves its pages
unwritten and an all +0.0 block is not copied, so a fresh layer's category
memory, or a one-hot twin's rows until its contributions are written, stays
unwritten.  A copy or a pickle builds the layer anew from its parameters, on
a buffer of its own.

One step kernel.  ``forward``, ``apply_update`` and
``effective_contribution`` are written once, on the base.  A kind supplies
four things: the buffer rows of its category term in sum order and how many
of the last of them are negated, both from ``_term_rows(category)``
(one-hot: its row, none; binary: the one-bits' rows, none; augmented:
2*ones+1 rows, the last ``ones`` negated); the N, n or 2n+1 rows a dense
evaluation would read, which it hands to ``_into_buffer`` for the counters;
and where its sum starts, ``_from_zero`` (below).  ``_step_rows`` lists a
step's rows: the term rows, then the numeric rows and the bias row, written
into one index array that is reused, its numeric and bias rows written
once.  It keeps its last listing with the category and tail it was made for,
so a step lists its rows once: the forward lists them and the update reuses
them.  The forward gathers the whole sum with one ``take``, negates the
negated block and scales the numeric block in place, and adds it with one
accumulate; nothing is concatenated.  The update subtracts delta from every
listed row, ``x[j] * delta`` from numeric row j: in place, block by block,
when the term has one row (one-hot's, or a single one-bit's), and by one
gather and one scatter of all the rows when it has several, the form
measured faster for each.  The rows are distinct, so each entry gets one
subtraction.

Each class binds the shared methods by name in its own ``__dict__``
(``forward, apply_update, effective_contribution = _SHARED_STEP``, the
base's three functions), so that a method can be patched on one class alone:
the benchmark's tracer times each kind under its own name, and the tests'
loop oracles replace one kind's method at a time.

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
equality: first the whole category term, exactly as
``effective_contribution`` sums it (one-hot: its row; binary: the bit rows
ascending; augmented: the bit rows ascending, the category memory, then the
bit memories subtracted ascending), then the numeric terms in ascending
feature order, then the bias.  So a one-hot layer whose rows are an
augmented layer's contributions computes the augmented forward bit for bit.
``forward_folded`` keeps its own grouping: bit rows, numeric terms, then the
bias with the memories folded into it.  Every accumulation below runs in
ascending index order with one accumulator per output neuron.  The bit
kinds' sums start from +0.0 (:func:`ordered_sum`, a sequential
``np.add.accumulate`` plus +0.0, which equals the loop of one ``+=`` per
term from zeros bit for bit); one-hot's starts from its own row, with no
trailing +0.0, so a -0.0 row stays -0.0.  ``a - b`` is ``a + (-b)`` exactly
in IEEE arithmetic, and no pairwise reduction (``np.sum``) or BLAS product
regroups the terms.  The input check hands back the category as a Python
int, and the bit kinds list its one-bits off that int one set bit at a time
(``c & -c``), never in a numpy integer's own dtype, where
``width + category - 1`` could wrap.

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
categories 1..N by doubling, into ``out`` when given, so that a one-hot
twin's rows are computed where they live.  Each keeps the order above for
every row, applying a bit's row only where the bit is set, so each row
equals the per-example method bit for bit.  They count no operations: the
counters describe training steps.  The per-example methods stay the
training path.
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
    """Base of the first-layer encoders; see the module docstring.

    A concrete encoder supplies ``kind``, its array fields (every
    ``np.ndarray`` field is a trained parameter), ``n_categories``, a
    ``__post_init__`` that checks its category arrays and hands them to
    :meth:`_into_buffer` with its dense-row count, the step's
    ``_term_rows`` and, where it differs, ``_from_zero``, the bindings of
    the shared step methods, ``_category_rows`` for the batched forward, and
    ``all_contributions``.
    """

    kind: str  # key in ENCODERS
    num_weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)
    _from_zero = True  # the step's sum starts from +0.0
    skip_category_memory_update = False  # AugmentedBinaryLayer's fault hook; no other kind has the row

    def __post_init__(self):
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.bias.ndim != 1:  # K comes from it
            raise InvalidArgumentError(f"bias must be 1-d, got shape {self.bias.shape}")
        self.num_weights = _as_matrix(self.num_weights, None, self.k, "num_weights")

    def _into_buffer(self, dense_rows: int, **blocks: np.ndarray) -> None:
        """Copy the category ``blocks``, each (rows, K), then the numeric rows and the bias row, into one new buffer.

        Each name, ``num_weights`` and ``bias`` included, becomes a view of
        its block.  An all +0.0 block is not copied: the zeroed buffer holds
        it already, in pages not yet written.  ``dense_rows`` is the kind's
        N, n or 2n+1: a dense evaluation reads ``dense_rows * K`` entries.
        """
        self._dense_size = dense_rows * self.k
        blocks = {**blocks, "num_weights": self.num_weights, "bias": self.bias[None]}
        buffer = self._buffer = np.zeros((sum(map(len, blocks.values())), self.k))
        end = 0
        for name, block in blocks.items():
            view = buffer[end : end + len(block)]
            end += len(block)
            if block.view(np.uint64).any():  # any bit set: not all +0.0
                view[...] = block
            setattr(self, name, view)
        self.bias = buffer[-1]
        # _step_rows writes a step's term rows into the room before the numeric and bias rows.
        self._row_index = np.arange(end - self.num_weights.shape[0] - 1, end, dtype=np.intp)
        self._rows_record = (0, 0, None)  # (category, tail, listing) of the last _step_rows call

    def __reduce__(self):
        """Copies and pickles rebuild the layer from its parameters, so a copy's views share the copy's own buffer.

        Copied one by one, each view would leave the buffer, and writes
        through ``params()`` would no longer reach ``forward``.
        """
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

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

    def _step_rows(self, category: int, tail: int) -> tuple[np.ndarray, int, int]:
        """A step's buffer rows, the number of category-term rows among them and how many of those are negated.

        The rows are the category term's (:meth:`_term_rows`), then the
        buffer's last ``tail`` rows: the numeric rows and the bias row, or
        none.  They are a view of one index array, whose numeric and bias
        rows are written once and whose term rows each listing overwrites,
        so they hold until the next listing; the caller must not write to
        them.  Callers range-check first and pass the Python int the check
        returns.

        The listing depends on the category and the tail alone, so the last
        one is kept and a call for the same pair returns it: a step's
        forward lists its rows and its update reuses them.
        """
        record = self._rows_record
        if record[0] == category and record[1] == tail:
            return record[2]
        term, negated = self._term_rows(category)
        count, rows = len(term), self._row_index
        start = rows.shape[0] - self.num_weights.shape[0] - 1 - count
        if start < 0:  # more term rows than any listing before
            rows = self._row_index = np.concatenate((np.zeros(-start, np.intp), rows))
            start = 0
        rows[start : start + count] = term
        listing = rows[start : start + count + tail], count, negated
        self._rows_record = (category, tail, listing)
        return listing

    def _step_terms(
        self, category: int, x: np.ndarray | None = None, counters: OpCounters | None = None
    ) -> tuple[np.ndarray, int]:
        """The step's terms in one gather, and the number of category-term rows; counts a forward into ``counters``.

        Rows: the category term, with its negated rows negated, then, given
        the numeric features ``x``, the numeric terms ``num_weights[j] *
        x[j]`` and the bias.  The caller owns the array.
        """
        rows, count, negated = self._step_rows(category, 0 if x is None else x.shape[0] + 1)
        if counters is not None:
            counters.encoding_madds_dense += self._dense_size
            counters.encoding_madds_sparse += count * self._buffer.shape[1]
        terms = self._buffer.take(rows, axis=0)
        if negated:
            memories = terms[count - negated : count]
            np.negative(memories, out=memories)
        if x is not None:
            numeric = terms[count:-1]
            numeric *= x[:, None]
        return terms, count

    def forward(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        """The category term, then the numeric terms ascending, then the bias."""
        category, x = self._check_step(category, numerics)
        terms = self._step_terms(category, x, counters)[0]
        return ordered_sum(terms) if self._from_zero else np.add.accumulate(terms, axis=0)[-1]

    def apply_update(self, category: int, numerics, delta: np.ndarray, counters: OpCounters | None = None) -> None:
        """Subtract delta from the step's rows, ``x[j] * delta`` from numeric row j.

        The forward's negated rows are stepped like the others: augmented's
        bit-row and bit-memory changes cancel in every forward pass, so only
        the category-memory change survives, and only for this category.
        """
        category, x = self._check_step(category, numerics)
        delta = _as_vector(delta, self.bias.shape[0], "delta")
        rows, count, negated = self._step_rows(category, x.shape[0] + 1)
        if count == 1:  # one term row: every block stepped in place
            self._buffer[rows[0]] -= delta
            self.num_weights -= x[:, None] * delta
            self.bias -= delta
        else:  # several: one gather and one scatter of all the step's rows
            if self.skip_category_memory_update:  # the category memory row, which follows augmented's bit rows
                rows = np.delete(rows, negated)
            stepped = self._buffer.take(rows, axis=0)
            stepped -= delta
            np.subtract(self.num_weights, x[:, None] * delta, out=stepped[-x.shape[0] - 1 : -1])
            self._buffer[rows] = stepped
        if counters is not None:
            counters.encoding_param_updates += count * delta.shape[0]

    def effective_contribution(self, category: int) -> np.ndarray:
        """Category-dependent part of the pre-activation: the category term, summed as ``forward`` sums it."""
        terms, _ = self._step_terms(self._check_category(category))
        return ordered_sum(terms) if self._from_zero else np.add.accumulate(terms, axis=0)[-1]

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

    def _add_numerics_and_bias_batch(self, z: np.ndarray, x: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Batched forward tail, in the same order for every row."""
        for j in range(self.n_numeric):
            z += self.num_weights[j] * x[:, j, None]
        z += bias
        return z


_SHARED_STEP = (Encoder.forward, Encoder.apply_update, Encoder.effective_contribution)


@dataclass
class OneHotLayer(Encoder):
    """One weight row per category; a step reads and writes only its category's row."""

    kind = "onehot"
    _from_zero = False  # the sum starts from the row itself, so a -0.0 row stays -0.0

    cat_weights: np.ndarray  # (N, K)
    num_weights: np.ndarray  # (d, K)
    bias: np.ndarray  # (K,)

    forward, apply_update, effective_contribution = _SHARED_STEP

    def __post_init__(self):
        super().__post_init__()
        self.cat_weights = _as_matrix(self.cat_weights, None, self.k, "cat_weights")
        self._into_buffer(self.n_categories, cat_weights=self.cat_weights)

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

    def _term_rows(self, category: int) -> tuple[list[int], int]:
        return [category - 1], 0

    def _category_rows(self, plan: BatchPlan) -> np.ndarray:
        return self.cat_weights[plan.distinct - 1]

    def all_contributions(self, out: np.ndarray | None = None) -> np.ndarray:
        return np.positive(self.cat_weights, out=out)  # a copy bit for bit, -0.0 and NaN payloads included


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

    def _bit_sum_table(self, out: np.ndarray | None = None) -> np.ndarray:
        """(N, K) table whose row c-1 is category c's bit-row sum, ascending from +0.0; ``out`` if given.

        Doubling, with S[0] = +0.0: S[2**h] is ``w[h] + 0.0``, and
        ``S[2**h + r] = S[r] + w[h]`` for 0 < r < 2**h, so ``width`` steps
        fill every row, each adding the high bit last as the scalar sum
        does.  Only rows with bit h set get ``w[h]``, so an infinite row
        stays out of the other categories.
        """
        table = np.empty((self.n_categories, self.k)) if out is None else out
        table[(1 << np.arange(self.width)) - 1] = self.bit_weights + 0.0
        for h, row in enumerate(self.bit_weights):
            low = 1 << h
            high = min(2 * low, table.shape[0] + 1)
            np.add(table[: high - low - 1], row, out=table[low : high - 1])
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

    forward, apply_update, effective_contribution = _SHARED_STEP

    def __post_init__(self):
        super().__post_init__()
        self._into_buffer(self.width, bit_weights=self.bit_weights)

    @classmethod
    def _from_draws(cls, n_categories: int, **arrays) -> "BinaryLayer":
        return cls(n_categories=n_categories, **arrays)

    def _term_rows(self, category: int) -> tuple[list[int], int]:
        """The one-bits' rows, ascending: ``encode(category, width).positions`` - 1."""
        return _one_bits(category), 0

    def _category_rows(self, plan: BatchPlan) -> np.ndarray:
        return self._bit_sum_batch(plan.bits)

    def all_contributions(self, out: np.ndarray | None = None) -> np.ndarray:
        return self._bit_sum_table(out)


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

    forward, apply_update, effective_contribution = _SHARED_STEP

    def __post_init__(self):
        # Checked first: n_categories, and so the bit width, come from it.
        self.cat_memory = _as_matrix(self.cat_memory, None, np.size(self.bias), "cat_memory")
        super().__post_init__()
        bit_memory = _as_matrix(self.bit_memory, self.k, self.width, "bit_memory")
        self._into_buffer(
            2 * self.width + 1, bit_weights=self.bit_weights, cat_memory=self.cat_memory, bit_memory=bit_memory.T
        )
        self.bit_memory = self.bit_memory.T

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

    def _term_rows(self, category: int) -> tuple[list[int], int]:
        """The one-bits' weight rows, the category memory row, then the one-bits' memory rows, which are negated."""
        bits = _one_bits(category)
        width = self.bit_weights.shape[0]
        memory = width + self.cat_memory.shape[0]  # the first bit-memory row
        return [*bits, width + category - 1, *map(memory.__add__, bits)], len(bits)

    def _add_memories(self, z: np.ndarray, plan: BatchPlan) -> np.ndarray:
        """Add each distinct category's memory to its row of ``z``, then subtract its one-bits' memories, ascending.

        A masked subtract skips the zero bits, as the scalar loop does.
        """
        z += self.cat_memory[plan.distinct - 1]
        for i in range(self.width):
            np.subtract(z, self.bit_memory[:, i], out=z, where=plan.bits[:, i, None])
        return z

    def forward_folded(self, category: int, numerics=(), counters: OpCounters | None = None) -> np.ndarray:
        """Same value, regrouped: memory terms folded into the bias first.

        Agrees with :meth:`forward` to within accumulated rounding noise
        (budgeted at 1e-12 absolute per component).
        """
        category, x = self._check_step(category, numerics)
        terms, count = self._step_terms(category, x, counters)
        ones = count // 2
        # The adjusted bias starts from the bias itself, not from +0.0.
        adjusted = np.add.accumulate(np.concatenate((terms[-1:], terms[ones:count])), axis=0)
        return ordered_sum(np.concatenate((terms[:ones], terms[count:-1], adjusted[-1:])))

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

    def all_contributions(self, out: np.ndarray | None = None) -> np.ndarray:
        """Bit sums, plus each category's memory, minus its one-bits' memories, ascending.

        Row r of ``table[half - 1:]`` is category half + r, which has bit i
        set in the first half of each block of 2**(i+1) rows: a strided view
        of the full blocks and a slice of the partial last block reach
        exactly those rows, without a mask.  ``out`` must be C-contiguous,
        so that the strided view is a view.
        """
        table = self._bit_sum_table(out)
        table += self.cat_memory
        for i in range(self.width):
            half = 1 << i
            rows = table[half - 1 :]
            full = rows.shape[0] // (2 * half) * 2 * half
            rows[:full].reshape(-1, 2, half, self.k)[:, 0] -= self.bit_memory[:, i]
            rows[full : full + half] -= self.bit_memory[:, i]
        return table


ENCODERS: dict[str, type[Encoder]] = {
    cls.kind: cls for cls in (OneHotLayer, BinaryLayer, AugmentedBinaryLayer)
}


def contributions_matrix(encoder: Encoder, out: np.ndarray | None = None) -> np.ndarray:
    """The (N, K) matrix whose row c-1 is effective_contribution(c), bit for bit; written into ``out`` if given."""
    return encoder.all_contributions(out)
