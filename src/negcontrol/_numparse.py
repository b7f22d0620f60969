"""Plain decimal CSV cells read exactly with numpy alone, without strtod.

``parse_lines(piece, width)`` reads a piece of whole CSV lines into a
(rows, width) float array whose every value is bit for bit what ``float``
gives for its cell, or returns None for a piece that only a slower parser
may read.  A plain cell is an optional leading ``-``, then digits with at
most one ``.`` among them, 1 to 19 digits in all.  Its digits, read as
little-endian 8-byte words from a copy of the piece, are folded by the
SWAR multiply-shift steps x10, x100 and x10^4 into one exact integer
``M < 10**19`` with ``k`` digits after the dot, and the cell's value is
``longdouble(M) / longdouble(10**k)`` cast to float64.

That value is exact where long double is the x87 extended format (a
64-bit significand): ``M`` and ``10**k`` (``5**19 < 2**64``) are exact in
it, and the division is rounded once, correctly, to 64 bits.  The cast to
53 bits rounds a second time, and can only differ from one correct
rounding when the 64-bit quotient lies exactly halfway between two
doubles, its low 11 bits ``0x400``.  Such a cell, and any cell that is not
plain (an exponent, a ``+``, a space or ``_``, a second dot or an inner
sign, more than 19 digits, no digit), is read by ``float`` itself.  So
every value is the correctly rounded one that ``float`` gives.

A piece is refused (None) when it holds a byte outside ASCII, a carriage
return not followed by a line feed, a blank or ragged line, a cell
``float`` rejects, or a non-finite value; when more than one cell in
``_FLOAT_SHARE`` is not plain, which ``np.loadtxt`` reads faster than a
loop of ``float``.  It must not be called where ``exact_division`` is
False: long double is not x87 extended, or the text encoding does not
read ASCII bytes as ASCII.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_PAD = 24  # zero bytes before a piece, so a word ending in its first cell
_MAX_DIGITS = 19  # 10**19 - 1 < 2**64
# refuse a piece where more than 1 cell in 4 needs float: a 128 KiB piece
# of 9-column repr cells parses here in 0.26 ms, against 0.91 ms by
# np.loadtxt, and each cell in %.16e form for float adds about 0.3 ms per
# tenth of the cells, each with a '+' about 0.2 ms, so the two cost the
# same at 24 % and 32 % of cells in those forms (2 vCPUs)
_FLOAT_SHARE = 4
_POW10 = np.array([10 ** k for k in range(_MAX_DIGITS + 1)], dtype=np.uint64)
_POW10_LD = _POW10.astype(np.longdouble)  # exact where exact_division holds
_HALF_BITS = np.uint64(0x7FF)  # the bits a 64-bit significand drops at 53
_HALF = np.uint64(0x400)
_SIGN_BIT = np.uint64(63)


def _keep_masks(words: int) -> np.ndarray:
    """Row n: for a window of ``words`` 8-byte words whose last n bytes are
    digits, the mask per word that keeps those bytes, and of each only the
    low nibble, the digit's value."""
    table = np.zeros((_MAX_DIGITS + 1, words), dtype=np.uint64)
    for n in range(min(8 * words, _MAX_DIGITS) + 1):
        mask = int.from_bytes(bytes(8 * words - n) + b"\x0f" * n, "little")
        table[n] = [mask >> 64 * j & (1 << 64) - 1 for j in range(words)]
    return table


_KEEP = {words: _keep_masks(words) for words in (1, 2, 3)}


@functools.cache
def exact_division(encoding: str) -> bool:
    """Whether ``parse_lines`` may run here on text in ``encoding``: long
    double is the 16-byte x87 extended format and rounds to its 64 bits,
    and ``encoding`` reads every ASCII byte as that character."""
    longdouble = np.finfo(np.longdouble)
    ascii_ = bytes(range(128))
    try:
        same = ascii_.decode(encoding) == ascii_.decode("ascii")
    except (LookupError, ValueError):
        return False
    return bool(same and longdouble.nmant == 63
                and np.dtype(np.longdouble).itemsize == 16
                and np.longdouble(1) + np.longdouble(2.0 ** -60) != 1)


def parse_lines(piece: bytes, width: int) -> np.ndarray | None:
    """The values of ``piece``, whole lines of ``width`` comma-separated
    cells each ending in LF or CRLF (the last may have no end), as a
    (rows, width) float64 array; None for a piece refused as the module
    docstring says."""
    if not piece.endswith(b"\n"):
        piece += b"\n"
    buf = np.frombuffer(bytes(_PAD) + piece, dtype=np.uint8)
    body = buf[_PAD:]
    # field ends: every comma and LF, and each LF ends the width-th cell
    is_lf = buf == 10
    seps = np.flatnonzero(is_lf | (buf == 44))
    line_end = is_lf[seps]
    rows = len(seps) // width
    if (len(seps) != rows * width or not line_end[width - 1::width].all()
            or np.count_nonzero(line_end) != rows):
        return None
    starts = np.empty_like(seps)
    starts[0] = _PAD
    starts[1:] = seps[:-1] + 1
    ends = seps
    crs = np.count_nonzero(body == 13)
    if crs:  # each must end a cell that an LF ends
        crlf = line_end & (buf[seps - 1] == 13)
        if np.count_nonzero(crlf) != crs:
            return None
        ends = seps - crlf
    # a cell of only '-', '.' and digits is plain unless its digits or
    # signs say otherwise; any other byte sends its cell to float
    rest = len(body) - len(seps) - crs - np.count_nonzero(
        np.less_equal(body - np.uint8(45), 12)) + np.count_nonzero(body == 47)
    odd = np.zeros(len(seps), dtype=bool)
    if rest:
        other = body - np.uint8(44)
        bad = np.flatnonzero(((other > 13) | (body == 47)) & ~is_lf[_PAD:]
                             & (body != 13)) + _PAD
        if buf[bad].max() >= 128:
            return None
        odd[np.searchsorted(seps, bad)] = True
    sign = buf[starts] == 45
    minus = np.count_nonzero(body == 45)
    if minus != np.count_nonzero(sign):
        inner = np.flatnonzero(buf == 45)
        cell = np.searchsorted(seps, inner)
        odd[cell[inner != starts[cell]]] = True
    dots = np.flatnonzero(buf == 46)
    if (len(dots) == len(seps) and (dots < ends).all()
            and (dots >= starts).all()):
        dot, k = dots, ends - dots - 1
    else:
        cell = np.searchsorted(seps, dots)
        count = np.bincount(cell, minlength=len(seps))
        odd |= count > 1
        dot = ends.copy()
        dot[cell] = dots
        k = np.where(count > 0, ends - dot - 1, 0)
    n_int = dot - starts - sign
    digits = n_int + k
    odd |= (digits == 0) | (digits > _MAX_DIGITS)
    if np.count_nonzero(odd) * _FLOAT_SHARE > len(seps):
        return None
    n_int[odd] = 0
    k[odd] = 0
    mantissa = _digits(buf, dot, n_int) * _POW10[k] + _digits(buf, ends, k)
    quotient = mantissa.astype(np.longdouble)
    quotient /= _POW10_LD[k]
    significand = quotient.view(np.uint64)[::2]  # the low 8 of 16 bytes
    odd |= (significand & _HALF_BITS) == _HALF
    values = quotient.astype(np.float64)
    values.view(np.uint64)[...] |= sign.astype(np.uint64) << _SIGN_BIT
    redo = np.flatnonzero(odd)
    for i, a, b in zip(redo.tolist(), (starts[redo] - _PAD).tolist(),
                       (ends[redo] - _PAD).tolist()):
        try:
            value = float(piece[a:b])
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        values[i] = value
    return values.reshape(rows, width)


def _digits(buf: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The value of the ``n`` (at most 19) digits that end before byte
    ``end`` of ``buf`` in each cell: one gather of the 8, 16 or 24 bytes
    before each end, as the fewest whole words that hold the longest run,
    then the SWAR steps on every word at once."""
    words = -(-int(n.max(initial=1)) // 8)
    window = np.ndarray((len(buf) - 8 * words + 1,), dtype=f"V{8 * words}",
                        buffer=buf.data, strides=(1,))
    word = window[end - 8 * words].view("<u8").reshape(len(end), words)
    word &= np.take(_KEEP[words], n, axis=0)
    word *= np.uint64(10 << 8 | 1)
    word >>= np.uint64(8)
    word &= np.uint64(0x00FF00FF00FF00FF)
    word *= np.uint64(100 << 16 | 1)
    word >>= np.uint64(16)
    word &= np.uint64(0x0000FFFF0000FFFF)
    word *= np.uint64(10000 << 32 | 1)
    word >>= np.uint64(32)
    value = word[:, -1].copy()
    for j in range(2, words + 1):
        value += word[:, -j] * _POW10[8 * (j - 1)]
    return value
