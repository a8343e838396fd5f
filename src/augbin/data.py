"""Dataset loading, vocabulary plumbing, and seeded synthetic generation.

CSV convention: UTF-8, comma separated, one header row, as Python's ``csv``
module writes it (``save_csv`` ends lines with CRLF and quotes a label only
when it holds a comma, a quote or a line break).  Floats are written with 17
significant digits so a save/load cycle reproduces the exact 64-bit values.

The first column is the categorical feature, the last column is the target,
and everything between is numeric; column names must be distinct.

Python's ``csv.reader`` and ``float`` define a valid file: every record has
the header's length, no label is empty, and every other cell is a number
``float`` reads as finite.  Reading takes two tiers.  numpy's C reader
(``np.loadtxt``) converts the numeric block of a file in one call; the row
walk reads the ``csv.reader`` records with one ``float`` per cell.  The walk
reads every file the C tier declines, and it raises the first bad cell's
ParseError.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bitcode import CategoryVocab, build_vocab
from .errors import InvalidArgumentError, ParseError
from .layers import as_floats, category_index
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
        rows = len(self.categories)
        message = "numerics must be a numeric matrix: a row per id, the schema's numeric columns"
        self.numerics = as_floats(self.numerics, (rows, len(self.schema.numerics)), message)
        self.targets = as_floats(self.targets, (rows, None), "targets must be a numeric matrix with a row per id")
        if set(map(type, self.categories)) - {int}:  # the loaders' ids, Python ints, pass as they are
            self.categories = [category_index(category) for category in self.categories]
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
    """The file's records as ``csv.reader`` yields them: (header, data rows)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            rows.extend(csv.reader(handle))  # keeps the records read before an error
        except UnicodeDecodeError as err:
            raise ParseError(f"file is not UTF-8: {err}") from None
        except csv.Error as err:  # a field longer than csv.field_size_limit()
            raise ParseError(str(err), row=len(rows) or None) from None
    if not rows:
        raise ParseError("file is empty")
    return rows[0], rows[1:]


def _walk_rows(path):
    """``_parse_table`` by ``csv.reader`` records and one ``_parse_float`` per cell.

    Raises the ParseError of the first bad cell in row order.
    """
    header, rows = _read_rows(path)
    schema = DatasetSchema.from_header(header)
    if not rows:
        raise ParseError("no data rows")
    width = len(header)
    names = (*schema.numerics, schema.target)
    values = np.empty((len(rows), width - 1))
    for row_number, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ParseError(f"expected {width} cells, found {len(row)}", row=row_number)
        if not row[0]:
            raise ParseError("empty category", row=row_number, column=schema.categorical)
        values[row_number - 1] = [_parse_float(token, row_number, name) for name, token in zip(names, row[1:])]
    return schema, [row[0] for row in rows], values[:, :-1], values[:, -1:]


# Where str.splitlines breaks a line; csv.reader breaks only at LF, CR and CRLF.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# NUL, and U+001C-U+001F: loadtxt strips these as space around a number, float refuses them.
_DECLINED = "\0\x1c\x1d\x1e\x1f"


def _read_bulk(path):
    """Header cells, labels and (rows, columns - 1) values read by numpy's C reader.

    Returns None for any file whose records or numbers that reader might not
    reproduce exactly as ``csv.reader`` and ``float`` do: text that is not
    UTF-8, a line break other than LF or CRLF, a NUL or U+001C-U+001F, no data
    line, a blank line (loadtxt skips it, csv reads a row of no cells), a
    line longer than ``csv.field_size_limit()``, a quoted cell that runs past
    its line, a row of the wrong length, or a cell ``np.loadtxt`` refuses.
    In a file with a quote, ``csv.reader`` reads each line's label and
    length, and loadtxt's ``quotechar`` splits the line into the same cells;
    ``comments=None`` keeps a ``#`` in a label.
    """
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        return None
    lines = text.splitlines()
    breaks = len(lines) - (text[-1:] not in _LINE_BREAKS)
    if (breaks != text.count("\n") or any(char in text for char in _DECLINED) or len(lines) < 2
            or "" in lines or max(map(len, lines)) > csv.field_size_limit()):
        return None
    if '"' in text:  # csv.reader gives each label and row length; loadtxt splits quotes as it does
        del text
        try:
            records = list(csv.reader(lines, strict=True))
        except csv.Error:  # strict refuses text after a closing quote, which the default reader keeps
            return None
        if len(records) != len(lines) or len(set(map(len, records))) != 1:  # a quoted cell ran on
            return None
        header = records[0]
        labels = [cells[0] for cells in records]
    else:
        header = lines[0].split(",")
        # loadtxt refuses a line of fewer cells than the header, so with this total no line has more.
        if text.count(",") != (len(header) - 1) * len(lines):
            return None
        del text
        labels = [line.partition(",")[0] for line in lines]
    width = len(header)
    if width < 2:
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', skiprows=1,
                            usecols=range(1, width), ndmin=2)
    except ValueError:
        return None
    return header, labels[1:], values


def _parse_table(path):
    """Header schema, raw labels, (rows, d) numerics and (rows, 1) targets.

    One ``np.loadtxt`` call (numpy's C reader) converts every numeric and
    target cell; where it accepts a cell its value equals Python's ``float``
    bit for bit.  Python's ``csv`` and ``float`` still define what a valid
    file is.  When the C tier declines a file (see ``_read_bulk``) or finds an
    empty label or a non-finite value, the row walk reads it again: the
    ``csv.reader`` records, one ``_parse_float`` per cell, and the ParseError
    of the first bad cell in row order.
    """
    table = _read_bulk(path)
    if table is None or not all(table[1]) or not np.isfinite(table[2]).all():
        return _walk_rows(path)
    header, raw_labels, values = table
    return DatasetSchema.from_header(header), raw_labels, values[:, :-1], values[:, -1:]


def load_csv(path) -> Dataset:
    """Parse a CSV file into a dataset, building the vocabulary as specified.

    The vocabulary sorts distinct labels lexicographically, so ids are
    independent of row order.
    """
    schema, raw_labels, numerics, targets = _parse_table(path)
    vocab = build_vocab(raw_labels)
    categories = [vocab.id_of(label) for label in raw_labels]
    return Dataset(vocab=vocab, categories=categories, numerics=numerics, targets=targets, schema=schema)


def load_csv_split(path, eval_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Load with a deterministic held-out split; vocab from training rows only.

    Returns (train dataset, held-out dataset), both on the training
    vocabulary.  A held-out row whose category never appears in the training
    rows raises VocabMissError, since the model has no id for it.
    """
    schema, raw_labels, numerics, targets = _parse_table(path)
    train_idx, eval_idx = split_rows(len(raw_labels), eval_fraction, seed)
    vocab = build_vocab([raw_labels[i] for i in train_idx])
    return tuple(
        Dataset(vocab, [vocab.id_of(raw_labels[i]) for i in rows], numerics[rows], targets[rows], schema)
        for rows in (train_idx, eval_idx)
    )


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
