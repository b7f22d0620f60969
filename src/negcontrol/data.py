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

A CSV body is cut at line ends into byte ranges, one per CPU for a large
body, and the rows into contiguous ranges for a write; ``_fork.map_parts``
runs the ranges after the first in forked children.  Every range runs the
same parse code, or the same formatting code, so neither the values read
nor the bytes written depend on how the work was cut.  A pipe is read
once, into memory, and a file whose lines all end in a bare carriage
return is held in memory with those made line feeds; such a body is cut
as a file's is, and each child parses its range from the copy of the
bytes the fork gave it, so a piped or CR-only body is parsed over the CPUs
as a file is.  This process fills one array with every range's rows, a
child's read from its pipe straight into place, and the dataset keeps
that array without a copy.

A range is parsed a piece of whole lines at a time, by the first of three
tiers that takes the piece; each gives every cell the bits ``float``
gives it.  (1) ``_numparse.parse_lines`` reads the digits of each plain
cell (an optional ``-``, up to 19 digits, at most one dot) into an exact
integer ``M`` with ``k`` digits after the dot, and divides
``longdouble(M) / longdouble(10**k)``.  Where long double is x87 extended
both operands are exact and the quotient is rounded once to 64 bits, so
its cast to float64 is the correctly rounded value unless the quotient
sits exactly at a double's halfway point; such cells, and cells that are
not plain (an exponent, a ``+``, more digits), are read by ``float``
itself.  (2) ``np.loadtxt`` reads a piece the first tier refuses (a
structural fault, too many cells for ``float``) and every piece where
long double is not x87 extended or the text encoding is not ASCII
compatible.  (3) A body that some range does not parse clean, or whose
header holds a quote or a bare carriage return, is parsed again by the
per-cell scan, which names the first bad cell; for a pipe the scan reads
the bytes the parse read.

Nearly all of a write goes to the shortest ``repr`` of each float, which
holds the interpreter lock, so it splits at most one range per
``_FORMAT_CHUNK`` cells: below that a fork costs more than it saves.
"""
from __future__ import annotations

import csv
import io
import itertools
import locale
import math
import os
import stat
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _numparse
from ._fork import (
    _copy_payload,
    _payload_size,
    _read_into,
    _workers,
    map_parts,
)
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
# cells per forked process in write_csv: 72k cells write in 38 ms as two
# ranges against 59 ms as one, 18k cells in 15 ms either way (2 vCPUs,
# a 150 MB process: the fork copies its page tables)
_FORMAT_CHUNK = 1 << 15
# the body per forked process: a 3 MiB body parses in 20 ms as two ranges
# against 25 ms as one (2 vCPUs)
_PARSE_CHUNK = 1 << 20
# bytes per parse call: one process parses the 35 MB 200k-row CSV in
# 95 ms at 128 KiB or 256 KiB a piece, 105 ms at 64 KiB and 108 ms at
# 1 MiB, and a piece's temporaries peak at 1.0, 2.0, 0.5 and 9.4 MB
_PARSE_PIECE = 1 << 17
_BOM = "\ufeff"  # opens the header of a spreadsheet's "CSV UTF-8" export


def _build_index(names: tuple[str, ...]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


@dataclass(frozen=True, eq=False)
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
        self._store(np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, variable_names, values: np.ndarray) -> "Dataset":
        """A dataset that keeps ``values``, a new float array no caller
        holds, rather than a copy of it: ``load_csv``'s rows."""
        data = cls.__new__(cls)
        object.__setattr__(data, "variable_names", variable_names)
        data._store(values)
        return data

    def _store(self, values: np.ndarray) -> None:
        """Check the names and the float array ``values``, then keep both,
        the values read-only."""
        names = tuple(self.variable_names)
        if any(not n for n in names):
            raise ValueError("variable names must be non-empty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
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

    @cached_property
    def _centred(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_centre`` of the values: the one second-moment statistic of
        the dataset, formed on first use and read-only, so every caller
        shares one copy."""
        centred = _centre(self.values)
        for array in centred:
            array.flags.writeable = False
        return centred


def _centre(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every column of the (..., n, p) ``values`` centred, the column means
    (..., p) and the cross products ``xc.T @ xc`` (..., p, p), of each
    matrix of a stack alike; each matrix's results have the bits it has
    alone.

    The second pass removes what rounding left of the means, so a constant
    column centres to zero and stays singular next to columns with large
    offsets."""
    means = values.mean(axis=-2)
    xc = values - means[..., None, :]
    residue = xc.mean(axis=-2)
    xc -= residue[..., None, :]
    means += residue
    return xc, means, np.matmul(xc.swapaxes(-1, -2), xc)


@dataclass(frozen=True, eq=False)
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

    One byte-order mark that opens the header is dropped.  The body after
    the header is cut at line ends into ``k`` byte ranges of about equal
    size, ``k`` the smaller of the CPUs this process may use and the
    body's size in ``_PARSE_CHUNK`` (1 MiB) units, at least one, and parsed
    by ``_fork.map_parts``; below two chunks (2 MiB) the one range is
    parsed here.  A pipe is read once, whole, and every parser below reads
    those bytes.  A file whose line ends are all bare carriage returns (no
    line feed in it) is read whole too, with those made line feeds.  Bytes
    in memory are cut into ranges as a file's are, and a forked child
    parses its range from its own copy of them.  The rows of every range
    go, in order, into one array that the dataset keeps.

    Each range is parsed ``_PARSE_PIECE`` bytes (128 KiB, rounded up to a
    line end) at a time.  A piece is read by the exact decimal parse of
    ``_numparse`` where long double is x87 extended and the text encoding
    is ASCII compatible, and by ``np.loadtxt`` elsewhere or when the exact
    parse refuses the piece: a byte outside ASCII, a bare carriage return,
    a blank or ragged line, a cell ``float`` rejects, a non-finite value,
    or more than one cell in four that is not a plain decimal.  After a
    refusal the rest of the range goes to ``np.loadtxt`` as well.  The exact
    parse forms ``longdouble(M) / longdouble(10**k)`` from a cell's digits
    ``M`` and its ``k`` digits after the dot, exact operands and one
    rounding to 64 bits, so its cast to float64 is correctly rounded except
    at a double's halfway point, and a cell there goes to ``float``.  A
    range is kept only when every line parsed into one finite value per
    header name.  Each cell gets the same bits whichever tier or range
    reads it, so the values do not depend on ``k``.

    Any other file (a quote in the header; a bare carriage return in a file
    that also holds a line feed; a blank line, a quoted cell or a missing
    or non-finite value in any range; a cell such as ``1_0`` that only
    ``float`` reads, in a piece ``np.loadtxt`` parses; a child that fails)
    is parsed again by the per-cell scan, which accepts what ``float``
    accepts and reports the exact position of the first bad cell.  All
    three round every cell as ``float`` does, so a file written by
    ``write_csv`` loads back bit for bit.

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
    encoding = locale.getpreferredencoding(False)  # as open() decodes
    with open(path, "rb") as handle:
        # a pipe cannot be read twice, so the scan must see these bytes
        raw = None if _is_file(handle) else handle.read()
        body = handle if raw is None else io.BytesIO(raw)
        line = body.readline()
        if b"\r" in line and b"\n" not in line:
            # bare CR line ends and no LF, so ``line`` holds the whole file:
            # its lines, split at LF instead, parse as any other body
            body = io.BytesIO(line.replace(b"\r", b"\n"))
            line = body.readline()
        names = _plain_header(line, encoding)
        values = (_parse_body(body, path, len(names), encoding)
                  if names else None)
    if values is None or len(values) < 2:
        return _scan_csv(path if raw is None else io.TextIOWrapper(
            io.BytesIO(raw), encoding=encoding, newline=""))
    return Dataset._adopt(tuple(names), values)


def _plain_header(line: bytes, encoding: str) -> list[str] | None:
    """The names in a header line without quotes or bare carriage returns,
    after one leading byte-order mark; None for any other line, which only
    the scan reads."""
    line = line.removesuffix(b"\n").removesuffix(b"\r")
    if b'"' in line or b"\r" in line:
        return None
    try:
        text = line.decode(encoding)
    except ValueError:
        return None
    return _read_header(csv.reader([text.removeprefix(_BOM)]))


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


def _is_file(handle) -> bool:
    """Whether ``handle`` is a regular file, whose bytes other processes
    can reach by offset; a pipe or a terminal passes its bytes once, in
    order, and bytes in memory have no descriptor."""
    return (not isinstance(handle, io.BytesIO)
            and stat.S_ISREG(os.fstat(handle.fileno()).st_mode))


def _line_ranges(handle) -> list[tuple[int, int]]:
    """(offset, length) byte ranges that cut the rest of ``handle``, a
    regular file or bytes in memory, at line ends into about equal runs of
    whole lines, one per process.  The handle is left where it was."""
    start, size = handle.tell(), handle.seek(0, io.SEEK_END)
    k = max(1, min(_workers(), (size - start) // _PARSE_CHUNK))
    cuts = [start]
    for i in range(1, k):
        handle.seek(start + i * (size - start) // k)
        handle.readline()  # to the end of the line the seek landed in
        if cuts[-1] < handle.tell() < size:
            cuts.append(handle.tell())
    cuts.append(size)
    handle.seek(start)
    return [(a, b - a) for a, b in zip(cuts, cuts[1:])]


def _parse_body(handle, path, width: int, encoding: str):
    """The rows of the rest of ``handle`` (the open ``path``, or its bytes
    in memory), or None unless every range of it parsed clean; ranges after
    the first are parsed by forked children.  A child parses its range of
    bytes in memory from its own copy of them, and opens a file anew.
    This process fills one array with every range's rows, in order, each
    child's read from its pipe straight into place."""
    ranges = _line_ranges(handle)
    rows = _Rows(width, sum(length for _, length in ranges))
    child_lengths = iter([length for _, length in ranges[1:]])
    in_file = _is_file(handle)

    def parse_here(bounds, into=rows):
        handle.seek(bounds[0])
        return _parse_range(handle, bounds[1], width, encoding, into)

    def parse_child(bounds):
        own = _Rows(width, bounds[1])
        parsed = (_parse_file(path, *bounds, width, encoding, own)
                  if in_file else parse_here(bounds, own))
        return own.array() if parsed else None

    done = map_parts(ranges, parse_here, parse_child,
                     lambda fd: rows.receive(fd, next(child_lengths)))
    return rows.array() if all(done) else None


def _parse_file(path, offset: int, length: int, width: int, encoding: str,
                rows: "_Rows"):
    """``_parse_range`` of ``length`` bytes of ``path`` from ``offset``,
    through a handle of its own: a forked child's copy of ``handle`` would
    share its offset with this process."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        return _parse_range(handle, length, width, encoding, rows)


def _parse_range(handle, length: int, width: int, encoding: str,
                 rows: "_Rows"):
    """Add to ``rows`` the rows of the next ``length`` bytes of ``handle``,
    whole lines read and parsed ``_PARSE_PIECE`` bytes (rounded up to a
    line end) at a time; True, or None unless every line parsed into
    ``width`` finite values.

    A piece is read by ``_numparse.parse_lines`` where ``exact_division``
    allows it, and by ``np.loadtxt`` where not or when the piece is
    refused; after a refusal the rest of the range goes to ``np.loadtxt``
    too, so a range of cells in exponent form costs one piece's attempt."""
    exact = _numparse.exact_division(encoding)
    while length > 0:
        piece = handle.read(min(_PARSE_PIECE, length))
        if not piece:
            break
        if not piece.endswith(b"\n"):
            piece += handle.readline()
        length -= len(piece)
        block = _numparse.parse_lines(piece, width) if exact else None
        if block is None:
            # the rest of the range too: a refused attempt costs 40 % of
            # np.loadtxt's time on the same piece, so trying on would make a
            # range of exponent cells half as slow again as np.loadtxt alone
            exact = False
            block = _loadtxt_lines(piece, width, encoding)
            if block is None:
                return None
        rows.claim(len(block), len(piece))[...] = block
    return True


class _Rows:
    """A body's rows, filled in order into one float array.

    The array is sized at the first block, for the ``length`` bytes of the
    body at that block's bytes per row and a sixteenth more; a block that
    overruns it grows it the same way for the bytes still to come.
    ``array`` cuts it to the rows filled, in place.  A forked child's rows
    are read from its pipe straight into the array, so no child's payload
    and no concatenation is held beside it."""

    def __init__(self, width: int, length: int):
        self.width = width
        self.left = length  # bytes of the body whose rows are not yet in
        self.values = np.empty((0, width))
        self.filled = 0

    def claim(self, count: int, size: int) -> np.ndarray:
        """The next ``count`` rows of the array, for the rows of the next
        ``size`` bytes of the body."""
        self.left -= size
        end = self.filled + count
        if end > len(self.values):
            more = -(-count * self.left * 17 // (16 * size))
            grown = np.empty((end + more, self.width))
            grown[:self.filled] = self.values[:self.filled]
            self.values = grown
        start, self.filled = self.filled, end
        return self.values[start:end]

    def receive(self, fd: int, size: int) -> bool | None:
        """Read into the array the rows a child sent on ``fd`` for ``size``
        bytes of the body; None if it sent a part of a row or too few
        bytes."""
        count = _payload_size(fd)
        if count is None or count % (8 * self.width):
            return None
        room = self.claim(count // (8 * self.width), size)
        return _read_into(fd, room) or None

    def array(self) -> np.ndarray:
        """The rows filled so far: the array, cut to them in place."""
        if self.filled < len(self.values):
            self.values.resize((self.filled, self.width), refcheck=False)
        return self.values


def _loadtxt_lines(piece: bytes, width: int, encoding: str):
    """``np.loadtxt`` rows of ``piece``, whole lines split at LF; None
    unless every line parsed into ``width`` finite values.

    A bare carriage return inside a line is an embedded newline that
    ``np.loadtxt`` rejects, and a blank line, which it skips, leaves fewer
    rows than lines."""
    with warnings.catch_warnings():
        # a piece of blank lines; the scan rejects it
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        try:
            lines = piece.decode(encoding).split("\n")
            if not lines[-1]:
                lines.pop()
            block = np.loadtxt(lines, delimiter=",", dtype=float,
                               comments=None, ndmin=2)
        except ValueError:
            return None
    if block.shape != (len(lines), width) or not np.isfinite(block).all():
        return None
    return block


def _scan_csv(source) -> Dataset:
    """``load_csv`` parsed cell by cell with ``float``; the reference.
    ``source`` is a path, or a text stream over the bytes of a pipe
    already read, decoded as ``open`` decodes.  One byte-order mark that
    opens the text is dropped, as ``load_csv`` drops it."""
    with (source if isinstance(source, io.TextIOBase)
          else open(source, newline="")) as handle:
        lines = iter(handle)
        first = next(lines, "").removeprefix(_BOM)
        reader = csv.reader(itertools.chain([first] if first else [], lines))
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

    Floats are written with ``repr`` so the round trip is exact.  The rows
    are cut into ``k`` contiguous ranges of about equal length, ``k`` the
    smallest of the CPUs this process may use, the number of rows, and the
    cell count in ``_FORMAT_CHUNK`` units (at least one), and formatted by
    ``_fork.map_parts``: this process formats the first range into the
    file, then copies each child's bytes after it, in order.  Every range
    is formatted by the same code, so the bytes do not depend on ``k``.

    An output that is not a regular file (a pipe, a terminal) is one range.
    When a child fails, the file is cut back to where that child's range
    began and the rest is formatted here, so the bytes are the same
    whatever failed.
    """
    encoding = locale.getpreferredencoding(False)  # as open() encodes
    header = io.StringIO()
    csv.writer(header).writerow(data.variable_names)
    with open(path, "wb") as handle:
        handle.write(header.getvalue().encode(encoding))
        _write_rows(handle, data.values, encoding)


def _row_ranges(handle, values: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) row ranges that cut ``values`` into about equal runs,
    one per process; one range for anything but a regular file."""
    n, p = values.shape
    k = (max(1, min(_workers(), n, n * p // _FORMAT_CHUNK))
         if _is_file(handle) else 1)
    cuts = [i * n // k for i in range(k + 1)]
    return list(zip(cuts, cuts[1:]))


def _write_rows(handle, values: np.ndarray, encoding: str) -> None:
    """Write the CSV lines of ``values`` to ``handle``: ranges after the
    first formatted by forked children and copied in order, and from the
    first range that failed on, the file cut back and formatted here."""
    ranges = _row_ranges(handle, values)
    marks: list[int] = []  # where each child's bytes begin

    def format_here(bounds):
        handle.writelines(_row_blocks(values[slice(*bounds)], encoding))
        return True

    def copy(fd):
        marks.append(handle.tell())
        return _copy_payload(fd, handle.write) or None

    done = map_parts(
        ranges, format_here,
        lambda bounds: _format_rows(values[slice(*bounds)], encoding), copy)
    if None in done:
        kept = done.index(None)  # a child's range, never the first
        handle.seek(marks[kept - 1])
        handle.truncate()
        for bounds in ranges[kept:]:
            format_here(bounds)


def _row_blocks(values: np.ndarray, encoding: str):
    """The encoded CSV lines of ``values``, ``_WRITE_BLOCK`` rows at a
    time: one tolist() of a 200k-row set costs about 65 MB of Python
    floats."""
    for start in range(0, len(values), _WRITE_BLOCK):
        block = values[start:start + _WRITE_BLOCK].tolist()
        yield "".join([",".join(map(repr, row)) + "\r\n"
                       for row in block]).encode(encoding)


def _format_rows(values: np.ndarray, encoding: str) -> bytes:
    """All the encoded CSV lines of ``values``, as a child sends them."""
    return b"".join(_row_blocks(values, encoding))


def covariance(data: Dataset) -> CovMatrix:
    """Sample covariance of all columns, denominator n - 1: the dataset's
    centred cross products times 1 / (n - 1), symmetrised."""
    if data.n < 2:
        raise TooFewSamplesError("covariance requires at least 2 rows")
    return CovMatrix(data.variable_names,
                     _covariance_entries(data._centred[2], data.n))


def _covariance_entries(gram: np.ndarray, n: int) -> np.ndarray:
    """The cross products ``gram`` (..., p, p) of samples of ``n`` rows
    times 1 / (n - 1), symmetrised: each matrix of a stack alike."""
    raw = gram * (1.0 / (n - 1))
    return (raw + raw.swapaxes(-1, -2)) / 2.0


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
