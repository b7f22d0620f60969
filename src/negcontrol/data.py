"""Tabular datasets, sample covariance, and 2x2 subcovariance determinants.

Everything downstream (tetrad tests, the triplet search, the moment
estimators) consumes the two immutable containers defined here, so the
loading rules are strict: named numeric columns, no missing values, and a
covariance matrix that is symmetric by construction and safe to share.

A dataset's second moments are computed once, in one place: its columns
centred in two passes, their means and their cross products.  The search
reads them through ``covariance``; every pair fit, the naive fit and the
bootstrap read them directly.  So both stages see the same statistic, and
a constant column has zero variance in both.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateHeaderError,
    MissingValueError,
    TooFewRowsError,
    TooFewSamplesError,
    UnknownVariableError,
)

__all__ = [
    "Dataset",
    "CovMatrix",
    "load_csv",
    "write_csv",
    "covariance",
    "sub_determinant",
]

_WRITE_BLOCK = 8192  # rows per tolist() in write_csv


def _build_index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns; rows are observations.

    Parameters
    ----------
    variable_names : tuple of str
        Unique, non-empty column names.
    values : ndarray of shape (n, p)
        Finite float values; stored read-only.
    """

    variable_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        names = tuple(self.variable_names)
        if any(not n for n in names):
            raise ValueError("variable names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d array")
        if values.shape[1] != len(names):
            raise ValueError(
                f"{len(names)} names for {values.shape[1]} columns"
            )
        if values.shape[0] < 1:
            raise ValueError("at least one row required")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_pos", _build_index(names))

    @property
    def n(self) -> int:
        """Number of observations."""
        return self.values.shape[0]

    @property
    def p(self) -> int:
        """Number of variables."""
        return self.values.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise UnknownVariableError(name) from None

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column."""
        return self.values[:, self.index_of(name)]

    def columns(self, names) -> np.ndarray:
        """New, writeable (n, k) array of the named columns, in the given
        order."""
        idx = [self.index_of(name) for name in names]
        return self.values[:, idx]

    @cached_property
    def _centred(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every column centred, the column means and the cross products
        ``xc.T @ xc``: the one second-moment statistic of the dataset.

        Formed on first use and read-only, so every caller shares one
        copy.  The second pass removes what rounding left of the means, so
        a constant column centres to zero and stays singular next to
        columns with large offsets."""
        means = self.values.mean(axis=0)
        xc = self.values - means
        residue = xc.mean(axis=0)
        xc -= residue
        means += residue
        gram = xc.T @ xc
        for array in (xc, means, gram):
            array.flags.writeable = False
        return xc, means, gram


@dataclass(frozen=True)
class CovMatrix:
    """Sample covariance matrix with a variable-name index.

    ``covariance`` fills it from a dataset's centred cross products.
    Symmetric by construction (stored as the average of the product
    matrix and its transpose) and read-only, so one instance can back many
    concurrent tetrad evaluations.
    """

    variable_index: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        names = tuple(self.variable_index)
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must be square")
        if entries.shape[0] != len(names):
            raise ValueError("index length must match entry dimension")
        entries.flags.writeable = False
        object.__setattr__(self, "variable_index", names)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_pos", _build_index(names))

    def index_of(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise UnknownVariableError(name) from None

    def value(self, a: str, b: str) -> float:
        """cov(a, b)."""
        return float(self.entries[self.index_of(a), self.index_of(b)])

    def square_determinant(self, names) -> float:
        """Determinant of the subcovariance over ``names`` (rows = cols)."""
        idx = [self.index_of(name) for name in names]
        return float(np.linalg.det(self.entries[np.ix_(idx, idx)]))


def load_csv(path) -> Dataset:
    """Load a strict numeric CSV (RFC-4180 subset, header required).

    The data rows are parsed by ``np.loadtxt``, streamed line by line from
    the open file.  Its result is kept only when it parsed every line, found
    one value per header name on each, and every value is finite.  Any other
    file (a blank line, a quoted cell, a missing or non-finite value, a
    cell such as ``1_0`` that only ``float`` reads) is parsed again by the
    per-cell scan, which accepts what ``float`` accepts and reports the
    exact position of the first bad cell.  Both parsers round every cell
    as ``float`` does, so a file written by ``write_csv`` loads back bit for
    bit.

    Raises
    ------
    MissingValueError
        An empty, missing, or non-finite cell, reported with its 1-based
        row and column.
    DuplicateHeaderError
        A repeated header name.
    TooFewRowsError
        Fewer than two data rows.
    """
    with open(path, newline="") as handle:
        names = _read_header(csv.reader(handle))
        lines = 0

        def counted():
            # loadtxt skips blank lines, which the scan rejects
            nonlocal lines
            for line in handle:
                lines += 1
                yield line

        try:
            with warnings.catch_warnings():
                # a header-only file; the scan raises TooFewRowsError
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(counted(), delimiter=",", dtype=float,
                                    comments=None, ndmin=2)
        except ValueError:
            values = None
    if (values is None or values.shape != (lines, len(names)) or lines < 2
            or not np.isfinite(values).all()):
        return _scan_csv(path)
    return Dataset(tuple(names), values)


def _read_header(reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise TooFewRowsError("empty file") from None
    names: list[str] = []
    for col, name in enumerate(header, start=1):
        name = name.strip()
        if not name:
            raise MissingValueError(1, col, "")
        if name in names:
            raise DuplicateHeaderError(name)
        names.append(name)
    return names


def _scan_csv(path) -> Dataset:
    """``load_csv`` parsed cell by cell with ``float``; the reference."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        names = _read_header(reader)
        rows: list[list[float]] = []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise MissingValueError(row_no, len(row) + 1, "")
            parsed: list[float] = []
            for col, cell in enumerate(row, start=1):
                text = cell.strip()
                try:
                    value = float(text)
                except ValueError:
                    raise MissingValueError(row_no, col, cell) from None
                if not math.isfinite(value):
                    raise MissingValueError(row_no, col, cell)
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 2:
        raise TooFewRowsError(f"need at least 2 data rows, found {len(rows)}")
    return Dataset(tuple(names), np.asarray(rows, dtype=float))


def write_csv(data: Dataset, path) -> None:
    """Write a dataset as a strict numeric CSV that ``load_csv`` round-trips.

    Floats are written with ``repr`` so the round trip is exact.
    """
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(data.variable_names)
        # a block of rows at a time: one tolist() of a 200k-row set
        # costs about 65 MB of Python floats
        for start in range(0, data.n, _WRITE_BLOCK):
            block = data.values[start:start + _WRITE_BLOCK].tolist()
            handle.writelines(",".join(map(repr, row)) + "\r\n"
                              for row in block)


def covariance(data: Dataset) -> CovMatrix:
    """Sample covariance of all columns, denominator n - 1: the dataset's
    centred cross products times 1 / (n - 1), symmetrised."""
    if data.n < 2:
        raise TooFewSamplesError("covariance requires at least 2 rows")
    raw = data._centred[2] * (1.0 / (data.n - 1))
    return CovMatrix(data.variable_names, (raw + raw.T) / 2.0)


def sub_determinant(cov: CovMatrix, rows, cols) -> float:
    """Determinant of the 2x2 subcovariance picked by two row and two
    column variables:

        cov(r1, c1) * cov(r2, c2) - cov(r1, c2) * cov(r2, c1)

    Rows and columns are ordered pairs; swapping the rows (or the columns)
    flips the sign.
    """
    (r1, r2), (c1, c2) = rows, cols
    return (
        cov.value(r1, c1) * cov.value(r2, c2)
        - cov.value(r1, c2) * cov.value(r2, c1)
    )
