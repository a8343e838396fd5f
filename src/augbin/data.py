"""Dataset loading, vocabulary plumbing, and seeded synthetic generation.

CSV convention: UTF-8, comma separated, one header row.  Numeric cells are
never quoted; categorical cells are quoted only when they contain a comma.
Floats are written with 17 significant digits so a save/load cycle reproduces
the exact 64-bit values.

The first column is the categorical feature, the last column is the target,
and everything between is numeric; column names must be distinct.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bitcode import CategoryVocab, build_vocab
from .errors import InvalidArgumentError, ParseError
from .rng import SplitMix64, below_draws, symmetric_draws


@dataclass(frozen=True)
class DatasetSchema:
    """Column roles: one categorical feature, numeric features, one target."""

    categorical: str
    numerics: tuple[str, ...]
    target: str

    def __post_init__(self):
        names = [self.categorical, *self.numerics, self.target]
        if len(set(names)) != len(names):
            raise InvalidArgumentError("schema column names must be distinct")

    @classmethod
    def from_header(cls, header) -> "DatasetSchema":
        if len(header) < 2:
            raise ParseError("header needs at least a categorical and a target column")
        if len(set(header)) != len(header):
            raise ParseError("header column names must be distinct")
        return cls(
            categorical=header[0],
            numerics=tuple(header[1:-1]),
            target=header[-1],
        )


@dataclass
class Dataset:
    """Parsed rows plus the vocabulary their category ids refer to."""

    vocab: CategoryVocab
    categories: list[int]
    numerics: np.ndarray  # (rows, d)
    targets: np.ndarray  # (rows, t)
    schema: DatasetSchema

    def __post_init__(self):
        self.numerics = np.asarray(self.numerics, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        rows = len(self.categories)
        if self.numerics.shape[0] != rows or self.targets.shape[0] != rows:
            raise InvalidArgumentError("row counts disagree across dataset fields")
        width = len(self.schema.numerics)
        if self.numerics.shape[1:] != (width,):
            raise InvalidArgumentError(f"numerics of shape {self.numerics.shape} for {width} schema numeric columns")
        ids = np.asarray(self.categories)
        bad = (ids < 1) | (ids > self.vocab.size)
        if bad.any():
            raise InvalidArgumentError(f"category id {ids[bad][0]} outside vocabulary")
        if not np.all(np.isfinite(self.numerics)) or not np.all(np.isfinite(self.targets)):
            raise InvalidArgumentError("dataset contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.categories)

    @property
    def n_numeric(self) -> int:
        return self.numerics.shape[1]

    @property
    def target_width(self) -> int:
        return self.targets.shape[1]

    def examples(self):
        """Yield (category, numerics, target) triples in row order."""
        for row in range(self.n_rows):
            yield self.categories[row], self.numerics[row], self.targets[row]


def _parse_float(token: str, row: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"cannot parse {token!r} as a number", row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {token!r}", row=row, column=column)
    return value


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            rows = list(csv.reader(handle))
        except UnicodeDecodeError as err:
            raise ParseError(f"file is not UTF-8: {err}") from None
    if not rows:
        raise ParseError("file is empty")
    return rows[0], rows[1:]


def _parse_table(path):
    """Header schema, raw labels, (rows, d) numerics and (rows, 1) targets.

    Python's ``float`` converts every numeric and target cell in one
    ``np.fromiter`` pass over the rows of the right length.  Only when that
    pass or a bulk check fails (a cell ``float`` rejects, a row of the wrong
    length, an empty label, a non-finite value) does a second pass walk the
    rows in order and raise the ParseError of the first bad cell.
    """
    header, rows = _read_rows(path)
    schema = DatasetSchema.from_header(header)
    if not rows:
        raise ParseError("no data rows")
    width = len(header)
    raw_labels = [row[0] if row else "" for row in rows]  # csv yields [] for a blank line
    try:
        values = np.fromiter(
            (float(cell) for row in rows if len(row) == width for cell in row[1:]),
            dtype=np.float64,
            count=len(rows) * (width - 1),
        ).reshape(len(rows), width - 1)
    except ValueError:  # a cell that float rejects, or too few cells
        values = None
    if values is None or not all(raw_labels) or not np.isfinite(values).all():
        for row_number, row in enumerate(rows, start=1):
            if len(row) != width:
                raise ParseError(f"expected {width} cells, found {len(row)}", row=row_number)
            if not row[0]:
                raise ParseError("empty category", row=row_number, column=schema.categorical)
            for name, token in zip((*schema.numerics, schema.target), row[1:]):
                _parse_float(token, row_number, name)
    return schema, raw_labels, values[:, :-1], values[:, -1:]


def load_csv(path) -> Dataset:
    """Parse a CSV file into a dataset, building the vocabulary as specified.

    The vocabulary sorts distinct labels lexicographically, so ids are
    independent of row order.
    """
    schema, raw_labels, numerics, targets = _parse_table(path)
    vocab = build_vocab(raw_labels)
    categories = [vocab.id_of(label) for label in raw_labels]
    return Dataset(vocab=vocab, categories=categories, numerics=numerics, targets=targets, schema=schema)


def load_csv_split(path, eval_fraction: float, seed: int):
    """Load with a deterministic held-out split; vocab from training rows only.

    Returns (train dataset, eval examples).  An eval row whose category never
    appears in the training rows raises VocabMissError, since the model has
    no id for it.
    """
    schema, raw_labels, numerics, targets = _parse_table(path)
    train_idx, eval_idx = split_rows(len(raw_labels), eval_fraction, seed)
    vocab = build_vocab([raw_labels[i] for i in train_idx])
    train = Dataset(
        vocab=vocab,
        categories=[vocab.id_of(raw_labels[i]) for i in train_idx],
        numerics=numerics[train_idx],
        targets=targets[train_idx],
        schema=schema,
    )
    eval_examples = [(vocab.id_of(raw_labels[i]), numerics[i], targets[i]) for i in eval_idx]
    return train, eval_examples


def _render_float(value: float) -> str:
    return format(float(value), ".17g")


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back to CSV; a reload reproduces the exact values."""
    if dataset.target_width != 1:
        raise InvalidArgumentError(f"a CSV holds one target column, the dataset has {dataset.target_width}")
    schema = dataset.schema
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
        writer.writerow([schema.categorical, *schema.numerics, schema.target])
        for category, numerics, target in dataset.examples():
            row = [dataset.vocab.label_of(category)]
            row.extend(_render_float(x) for x in numerics)
            row.append(_render_float(target[0]))
            writer.writerow(row)


def category_label(index: int, n_categories: int) -> str:
    """Zero-padded label whose lexicographic order matches numeric order."""
    return f"c{index:0{len(str(n_categories))}d}"


def synth_gen(seed: int, n_categories: int, n_numeric: int, rows: int, noise: float = 0.0) -> Dataset:
    """Deterministic synthetic regression data.

    One stream seeded with ``seed`` drives everything, in this order: a per
    category level for c = 1..N (uniform in (-1, 1)), one coefficient per
    numeric feature (same range), then per row: the category draw, the
    numeric features, and one Gaussian noise draw (consumed even when noise
    is 0, so the category sequence does not depend on the noise setting).
    Target = level[category] + sum_j coefficient[j] * x[j] + noise * gauss.
    """
    if n_categories < 1:
        raise InvalidArgumentError("need at least one category")
    if rows < 1:
        raise InvalidArgumentError("need at least one row")
    if n_numeric < 0:
        raise InvalidArgumentError("numeric feature count must be >= 0")
    if noise < 0:
        raise InvalidArgumentError("noise must be >= 0")
    if not math.isfinite(noise):
        raise InvalidArgumentError(f"noise must be finite, got {noise}")
    stream = SplitMix64(seed)
    levels = symmetric_draws(stream.next_u64_block(n_categories), 1.0).tolist()
    coefficients = symmetric_draws(stream.next_u64_block(n_numeric), 1.0).tolist()
    categories = []
    numerics = np.zeros((rows, n_numeric))
    targets = np.zeros((rows, 1))
    for row in range(rows):
        category = stream.next_below(n_categories) + 1
        categories.append(category)
        total = levels[category - 1]
        for j in range(n_numeric):
            x = stream.next_symmetric(1.0)
            numerics[row, j] = x
            total += coefficients[j] * x
        total += noise * stream.next_gaussian()
        targets[row, 0] = total
    labels = tuple(category_label(c, n_categories) for c in range(1, n_categories + 1))
    vocab = CategoryVocab(labels=labels)
    schema = DatasetSchema(
        categorical="category",
        numerics=tuple(f"x{j}" for j in range(1, n_numeric + 1)),
        target="target",
    )
    return Dataset(vocab=vocab, categories=categories, numerics=numerics, targets=targets, schema=schema)


def split_rows(n_rows: int, eval_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic row split: shuffled indices, last fraction held out."""
    if not 0.0 <= eval_fraction < 1.0:
        raise InvalidArgumentError("eval fraction must be in [0, 1)")
    order = list(range(n_rows))
    moduli = np.arange(n_rows, 1, -1)  # Fisher-Yates with seeded draws: i + 1 for i = n-1..1
    swaps = below_draws(SplitMix64(seed).next_u64_block(moduli.size), moduli)
    for i, j in zip(range(n_rows - 1, 0, -1), swaps.tolist()):
        order[i], order[j] = order[j], order[i]
    n_eval = int(n_rows * eval_fraction)
    n_train = n_rows - n_eval
    if n_train < 1:
        raise InvalidArgumentError("split leaves no training rows")
    return order[:n_train], order[n_train:]
