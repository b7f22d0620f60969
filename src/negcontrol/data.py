"""Tabular datasets, sample covariance, and 2x2 subcovariance determinants.

Everything downstream (tetrad tests, the triplet search, the moment
estimators) consumes the two immutable containers defined here, so the
loading rules are strict: named numeric columns, no missing values, and a
covariance matrix that is symmetric by construction and safe to share.

A dataset's second moments are computed once, in one place: ``_centre``
forms its ``_Moments``, the columns centred in two passes, their means and
their cross products.  The search reads them through ``covariance``; every
pair fit, the naive fit and the bootstrap ask the statistic for what they
read, and only ``_Moments`` knows how it stores them.  So both stages see
the same statistic, and a constant column has zero variance in both.

A CSV body is cut at line ends into the byte ranges of ``_fork.cuts``, at
least ``_PARSE_CHUNK`` bytes each, and the rows of a write into its row
ranges, at least ``_FORMAT_CHUNK`` cells each; forked children run the
ranges after the first, through ``_fork.map_parts`` for a parse and
``_fork.stream_parts`` for a write.  Every range runs the same parse code,
or the same formatting code, so neither the values read nor the bytes
written depend on how the work was cut.  A pipe is read once, into
memory, and a file whose lines all end in a bare carriage return is held
in memory with those made line feeds; such a body is cut as a file's is,
and each child parses its range from the copy of the bytes the fork gave
it, so a piped or CR-only body is parsed over the CPUs as a file is.
This process fills one array with every range's rows, a child's read
from its pipe straight into place, and the dataset keeps that array
without a copy.

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

A write gives every cell the bytes of its shortest ``repr``.  Where
``exact_division`` holds, ``_numparse.format_lines`` writes them for a
block of ``_WRITE_BLOCK`` cells at a time, with numpy alone: one long
double product per cell scales it to 17 digits, integer division gives
its 15-, 16- and 17-digit candidates, and a candidate reads back when it
lies inside the cell's half-gaps by more than the product's error; any
closer decision, and any subnormal, goes to ``repr``.  Elsewhere ``repr``
writes every cell.  The formatting holds the interpreter lock, so a write
splits at most one range per ``_FORMAT_CHUNK`` cells: below that a fork
costs more than it saves.
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
from typing import NamedTuple

import numpy as np
import numpy.random  # noqa: F401  loaded on import, not on the first draw

from . import _numparse
from ._fork import _payload_size, _read_into, cuts, map_parts, stream_parts
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

# cells per format_lines call in write_csv, in whole rows: one process
# writes the 200k-row 9-column CSV in 350 ms at 9 216 cells a block
# (1 024 rows), 386 ms at 4 608, 490 ms at 18 432 and 518 ms at 36 864
# (2 vCPUs).  From 18 432 glibc hands a block's freed temporaries (4 MB)
# back to the system and 100k page faults bring them in again; at 9 216
# they peak at 2.0 MB, against 6.2 MB for the tolist() of 8 192 rows
# that repr formatted
_WRITE_BLOCK = 9216
# cells per forked process in write_csv: 184k cells write in 27 ms as two
# ranges against 33 ms as one, 147k cells in 38 ms against 27 ms (2 vCPUs,
# a 150 MB process: the fork copies its page tables)
_FORMAT_CHUNK = 90_000
# the body per forked process: a 3 MiB body parses in 20 ms as two ranges
# against 25 ms as one (2 vCPUs)
_PARSE_CHUNK = 1 << 20
# bytes per parse call: one process parses the 35 MB 200k-row CSV in
# 95 ms at 128 KiB or 256 KiB a piece, 105 ms at 64 KiB and 108 ms at
# 1 MiB, and a piece's temporaries peak at 1.0, 2.0, 0.5 and 9.4 MB
_PARSE_PIECE = 1 << 17
# rows per block of the centring's residue sum, of the influence GEMMs and
# of a bootstrap draw's moment sums, which keeps their temporaries a few MB
# however large n is
_ROW_BLOCK = 8192
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
        Finite float values; stored C-ordered and read-only, so results
        do not depend on the layout of the array given.
    """

    variable_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        self._store(np.array(self.values, dtype=float, order="C"))

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
        if values.shape[1] < 1:
            raise ValueError("at least one column required")
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
    def _centred(self) -> _Moments:
        """``_centre`` of the values: the one second-moment statistic of
        the dataset, formed on first use, so every caller shares one
        read-only copy."""
        return _centre(self.values)


class _Moments(NamedTuple):
    """The centred statistic of a dataset, or of each of a stack of R
    datasets of n rows: the centred columns ``xc`` (..., n, p), the column
    means (..., p) and the cross products ``gram`` (..., p, p).  Readers
    ask it for what they need, so only this module knows its layout: the
    centred columns of each dataset are the (n, p) ``swapaxes`` view of
    one C-contiguous (p, n) array, stored column-major, which ``resampled``
    reads row by row in place and ``subset`` gathers as whole rows.
    Every method gives each dataset of a stack the bits it has alone."""

    xc: np.ndarray
    means: np.ndarray
    gram: np.ndarray

    @property
    def n(self) -> int:
        """The rows of each dataset."""
        return self.xc.shape[-2]

    def members(self, rows) -> _Moments:
        """The statistic of the datasets ``rows`` of a stack: a view for a
        slice or one position, a copy for a list."""
        return _Moments(*(array[rows] for array in self))

    def covariance(self) -> np.ndarray:
        """The sample covariance, denominator n - 1: the cross products
        times 1 / (n - 1), symmetrised."""
        raw = self.gram * (1.0 / (self.n - 1))
        return (raw + raw.swapaxes(-1, -2)) / 2.0

    def subset(self, used: np.ndarray) -> _Moments:
        """The statistic of the sorted columns ``used``: itself if they are
        all of its columns, else their centred columns gathered once, as
        rows of the column-major storage, so the subset stays column-major
        and the GEMMs and draws that read it do not grow with the columns
        left out.  Every entry kept is the same float."""
        if len(used) == self.means.shape[-1]:
            return self
        columns = self.xc.swapaxes(-1, -2)[..., used, :]
        return _Moments(columns.swapaxes(-1, -2), self.means[..., used],
                        self.gram[..., used[:, None], used])

    def resampled(self, seeds) -> np.ndarray:
        """The (B, p, p) centred second moments over n of B row resamples
        of one dataset, not a stack: resample b takes row i as often as
        ``default_rng(SeedSequence(seeds[b]))`` draws i in n draws.  Sums
        run over blocks of ``_ROW_BLOCK`` rows in one (2, p, ``_ROW_BLOCK``
        or n) buffer, reading the centred columns in place, and a resample
        holds two n-length integer arrays at most: its draws and counts.

        The means are blocked GEMVs of the counts, and the moments the sum
        of ``(d * c) @ d.T`` over blocks, ``d`` the block less the means.
        Each block's products are small enough that BLAS keeps them on one
        thread, so their bits do not depend on how many it has: one GEMV
        over all n rows sums in another order on two threads."""
        n, columns = self.n, self.xc.T
        blocks = [slice(start, start + _ROW_BLOCK)
                  for start in range(0, n, _ROW_BLOCK)]
        buffer = np.empty((2, len(columns), min(n, _ROW_BLOCK)))
        stack = np.zeros((len(seeds), len(columns), len(columns)))
        for moments, seed in zip(stack, seeds):
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            means = np.zeros(len(columns))
            for rows in blocks:
                means += columns[:, rows] @ counts[rows]
            means /= n
            # centred at the resample's means, not by subtracting their
            # outer product: a column it holds constant keeps rounding-level
            # correlations, not a variance of rounding noise, and is rejected
            for rows in blocks:
                block = columns[:, rows]
                dev, scaled = buffer[:, :, :block.shape[1]]
                np.subtract(block, means[:, None], out=dev)
                moments += np.multiply(dev, counts[rows], out=scaled) @ dev.T
            moments /= n
            del counts
        return stack


def _centre(values: np.ndarray) -> _Moments:
    """The read-only ``_Moments`` of the (..., n, p) ``values``: every
    column centred, the column means and the cross products ``xc.T @ xc``,
    of each matrix of a stack alike; each matrix's results have the bits it
    has alone.

    The centred columns are written once, into one C-contiguous (..., p, n)
    array, and ``xc`` is its (..., n, p) ``swapaxes`` view.  The second
    pass removes what rounding left of the means, so a constant column
    centres to zero and stays singular next to columns with large
    offsets.  Its sum runs over C-order blocks of ``_ROW_BLOCK`` rows
    of ``values - means`` in one buffer whose first row carries the running
    total, so it adds row by row, as the mean of a C-order ``values -
    means`` does; a sum along the contiguous rows of the storage would be
    pairwise and round otherwise."""
    *stack, n, p = values.shape
    means = values.mean(axis=-2)
    columns = np.empty((*stack, p, n))
    xc = columns.swapaxes(-1, -2)
    if values.flags.c_contiguous and not xc.flags.c_contiguous:
        buffer = np.empty((*stack, min(n, _ROW_BLOCK) + 1, p))
        total = np.zeros((*stack, p))
        for start in range(0, n, _ROW_BLOCK):
            rows = values[..., start:start + _ROW_BLOCK, :]
            end = rows.shape[-2] + 1
            buffer[..., 0, :] = total
            np.subtract(rows, means[..., None, :], out=buffer[..., 1:end, :])
            xc[..., start:start + _ROW_BLOCK, :] = buffer[..., 1:end, :]
            np.add.reduce(buffer[..., :end, :], axis=-2, out=total)
        residue = total / n
    else:
        # p or n is 1, so both layouts are one, or ``values`` is not
        # C-ordered: the sum of ``values - means`` in its own layout
        np.subtract(values, means[..., None, :], out=xc)
        residue = (values - means[..., None, :]).mean(axis=-2)
    xc -= residue[..., None, :]
    means += residue
    centred = _Moments(xc, means, columns @ xc)
    for array in centred:
        array.flags.writeable = False
    return centred


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
    the header is cut at line ends into the byte ranges of ``_fork.cuts``
    with a floor of ``_PARSE_CHUNK`` (1 MiB), and parsed by
    ``_fork.map_parts``; below two chunks (2 MiB) the one range is parsed
    here.  A pipe is read once, whole, and every parser below reads
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
    bounds = [start]
    for offset, _ in cuts(size - start, _PARSE_CHUNK)[1:]:
        handle.seek(start + offset)
        handle.readline()  # to the end of the line the seek landed in
        if bounds[-1] < handle.tell() < size:
            bounds.append(handle.tell())
    bounds.append(size)
    handle.seek(start)
    return [(a, b - a) for a, b in zip(bounds, bounds[1:])]


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

    Each float is written as its ``repr`` so the round trip is exact: by
    ``_numparse.format_lines``, ``_WRITE_BLOCK`` cells at a time, where long
    double is x87 extended and the text encoding is ASCII compatible, and
    by ``repr`` itself elsewhere; both write the same bytes.  The rows are
    cut into the ranges of ``_fork.cuts``, each of at least
    ``_FORMAT_CHUNK`` cells, and written by ``_fork.stream_parts``: this
    process formats the first range into the file, then copies each
    child's bytes after it, in order.  Every range is formatted by the
    same code, so the bytes do not depend on the split.

    An output that is not a regular file (a pipe, a terminal) is one range.
    When a child fails, the file is cut back to the first row and every
    row is formatted here, so the bytes are the same whatever failed.
    """
    encoding = locale.getpreferredencoding(False)  # as open() encodes
    header = io.StringIO()
    csv.writer(header).writerow(data.variable_names)
    with open(path, "wb") as handle:
        handle.write(header.getvalue().encode(encoding))
        _write_rows(handle, data.values, encoding)


def _row_ranges(handle, values: np.ndarray) -> list[tuple[int, int]]:
    """The ``_fork.cuts`` [start, stop) row ranges of ``values``, each of
    at least ``_FORMAT_CHUNK`` cells; one range for anything but a regular
    file."""
    n, p = values.shape
    return cuts(n, -(-_FORMAT_CHUNK // p)) if _is_file(handle) else [(0, n)]


def _write_rows(handle, values: np.ndarray, encoding: str) -> None:
    """Write the CSV lines of ``values`` to ``handle`` by
    ``_fork.stream_parts``; when a child fails, cut the file back to the
    first row and format every row here."""
    ranges = _row_ranges(handle, values)
    first = handle.tell() if len(ranges) > 1 else None  # a pipe cannot tell

    def format_here(bounds):
        handle.writelines(_row_blocks(values[slice(*bounds)], encoding))

    try:
        stream_parts(
            ranges, format_here,
            lambda bounds: _format_rows(values[slice(*bounds)], encoding),
            handle.write)
    except ChildProcessError:  # only a regular file, which can be cut back
        handle.seek(first)
        handle.truncate()
        format_here((0, len(values)))


def _row_blocks(values: np.ndarray, encoding: str):
    """The encoded CSV lines of ``values``, whole rows of at most
    ``_WRITE_BLOCK`` cells (one row at least) at a time, each cell as
    ``repr`` writes it: by ``_numparse.format_lines`` where
    ``exact_division`` holds, else by ``repr`` itself."""
    exact = _numparse.exact_division(encoding)
    rows = max(_WRITE_BLOCK // values.shape[1], 1)
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        if exact:
            yield _numparse.format_lines(block)
        else:
            yield "".join([",".join(map(repr, row)) + "\r\n"
                           for row in block.tolist()]).encode(encoding)


def _format_rows(values: np.ndarray, encoding: str) -> bytes:
    """All the encoded CSV lines of ``values``, as a child sends them."""
    return b"".join(_row_blocks(values, encoding))


def covariance(data: Dataset) -> CovMatrix:
    """Sample covariance of all columns, denominator n - 1: the dataset's
    centred cross products times 1 / (n - 1), symmetrised."""
    if data.n < 2:
        raise TooFewSamplesError("covariance requires at least 2 rows")
    return CovMatrix(data.variable_names, data._centred.covariance())


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
