"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class RangeError(ValueError):
    """A category id or bit code lies outside its valid range."""


class NumericError(ArithmeticError):
    """A forward or backward pass produced a non-finite value."""


class ParseError(ValueError):
    """A CSV file or a run report failed structural or numeric parsing.

    Carries the 1-based data row index and the column name when known.
    """

    def __init__(self, message, row=None, column=None):
        detail = message
        if row is not None:
            if column is not None:
                detail = f"{message} (data row {row}, column {column!r})"
            else:
                detail = f"{message} (data row {row})"
        super().__init__(detail)
        self.row = row
        self.column = column


class VocabMissError(LookupError):
    """A category label or id is not part of the vocabulary."""
