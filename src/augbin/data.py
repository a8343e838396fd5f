"""Dataset loading, vocabulary plumbing, and seeded synthetic generation.

CSV convention: UTF-8, comma separated, one header row.  Numeric cells are
never quoted; categorical cells are quoted only when they contain a comma.
Floats are written with 17 significant digits so a save/load cycle reproduces
the exact 64-bit values.

When no explicit schema is given, the first column is the categorical
feature, the last column is the target, and everything between is numeric.
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
        for category in self.categories:
            if not 1 <= category <= self.vocab.size:
                raise InvalidArgumentError(f"category id {category} outside vocabulary")
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
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty") from None
        return header, list(reader)


def _parse_table(path, schema: DatasetSchema | None):
    header, rows = _read_rows(path)
    if schema is None:
        schema = DatasetSchema.from_header(header)
    for name in (schema.categorical, *schema.numerics, schema.target):
        if name not in header:
            raise ParseError(f"missing column {name!r}")
    if not rows:
        raise ParseError("no data rows")
    cat_idx = header.index(schema.categorical)
    num_idx = [header.index(name) for name in schema.numerics]
    target_idx = header.index(schema.target)

    raw_labels: list[str] = []
    numerics = np.zeros((len(rows), len(num_idx)))
    targets = np.zeros((len(rows), 1))
    for row_number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, found {len(row)}", row=row_number
            )
        cell = row[cat_idx]
        if not cell:
            raise ParseError("empty category", row=row_number, column=schema.categorical)
        raw_labels.append(cell)
        for j, idx in enumerate(num_idx):
            numerics[row_number - 1, j] = _parse_float(row[idx], row_number, schema.numerics[j])
        targets[row_number - 1, 0] = _parse_float(row[target_idx], row_number, schema.target)
    return schema, raw_labels, numerics, targets


def load_csv(path, schema: DatasetSchema | None = None) -> Dataset:
    """Parse a CSV file into a dataset, building the vocabulary as specified.

    The vocabulary sorts distinct labels lexicographically, so ids are
    independent of row order.
    """
    schema, raw_labels, numerics, targets = _parse_table(path, schema)
    vocab = build_vocab(raw_labels)
    categories = [vocab.id_of(label) for label in raw_labels]
    return Dataset(vocab=vocab, categories=categories, numerics=numerics, targets=targets, schema=schema)


def load_csv_split(path, eval_fraction: float, seed: int, schema: DatasetSchema | None = None):
    """Load with a deterministic held-out split; vocab from training rows only.

    Returns (train dataset, eval examples).  An eval row whose category never
    appears in the training rows raises VocabMissError, since the model has
    no id for it.
    """
    schema, raw_labels, numerics, targets = _parse_table(path, schema)
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
