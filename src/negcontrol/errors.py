"""Exception types shared across the library.

Every error that callers are expected to catch programmatically gets its own
class; messages carry the offending coordinates (row/column, variable name,
pair) so failures in batch runs are attributable.
"""
from __future__ import annotations


class NegcontrolError(Exception):
    """Base class for all library-specific errors."""


class MissingValueError(NegcontrolError):
    """A CSV cell is empty or does not parse as a finite number."""

    def __init__(self, row: int, column: int, cell: str = ""):
        self.row = row
        self.column = column
        self.cell = cell
        super().__init__(
            f"empty or non-numeric cell at row {row}, column {column}: {cell!r}"
        )


class DuplicateHeaderError(NegcontrolError):
    """Two CSV header fields carry the same variable name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"duplicate variable name in header: {name!r}")


class TooFewRowsError(NegcontrolError):
    """A CSV file has fewer than two data rows."""


class UnknownVariableError(NegcontrolError):
    """A requested variable name is not present in the data."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown variable: {name!r}")


class TooFewSamplesError(NegcontrolError):
    """An operation needs more observations than the data provides."""


class DegenerateVarianceError(NegcontrolError):
    """The estimated variance of a tetrad statistic is not positive.

    The test is inapplicable; callers must treat the tetrad as NOT vanishing.
    """


class TooFewCandidatesError(NegcontrolError):
    """Fewer than three candidate variables were supplied to the search."""


class SingularDenominatorError(NegcontrolError):
    """The closed-form effect denominator is numerically zero."""


class SingularMomentMatrixError(NegcontrolError):
    """The moment system is singular or near-singular: ``cond`` is the
    condition number of its correlation-scale form (of the raw system in
    ``solve_linear_moments`` and ``joint_gmm_triplet``)."""

    def __init__(self, message: str, cond: float | None = None, pair=None):
        self.cond = cond
        self.pair = pair
        detail = message
        if cond is not None:
            detail += f" (condition number ~{cond:.3e})"
        if pair is not None:
            detail += f" [pair {pair}]"
        super().__init__(detail)


class EmptyDnctListError(NegcontrolError):
    """An aggregation step received no validated triplets."""


class BootstrapDegenerateError(NegcontrolError):
    """Too many bootstrap resamples failed to produce an estimate."""


class GraphSpecError(NegcontrolError):
    """A structural-model description violates the required shape."""
