"""CSV cells read and written exactly with numpy alone, without strtod
or repr.

Both directions run only where ``exact_division`` holds: long double is
the x87 extended format (a 64-bit significand) and the text encoding reads
ASCII bytes as ASCII.  Elsewhere the callers keep ``np.loadtxt`` and
``repr``.

Reading.  ``parse_lines(piece, width)`` reads a piece of whole CSV lines
into a (rows, width) float array whose every value is bit for bit what
``float`` gives for its cell, or returns None for a piece that only a
slower parser may read.  A plain cell is an optional leading ``-``, then
digits with at most one ``.`` among them, 1 to 19 digits in all.  Its
digits, read as little-endian 8-byte words from a copy of the piece, are
folded by the SWAR multiply-shift steps x10, x100 and x10^4 into one exact
integer ``M < 10**19`` with ``k`` digits after the dot, and the cell's
value is ``longdouble(M) / longdouble(10**k)`` cast to float64.

That value is exact: ``M`` and ``10**k`` (``5**19 < 2**64``) are exact in
long double, and the division is rounded once, correctly, to 64 bits.
The cast to 53 bits rounds a second time, and can only differ from one
correct rounding when the 64-bit quotient lies exactly halfway between
two doubles, its low 11 bits ``0x400``.  Such a cell, and any cell that is
not plain (an exponent, a ``+``, a space or ``_``, a second dot or an
inner sign, more than 19 digits, no digit), is read by ``float`` itself.
So every value is the correctly rounded one that ``float`` gives.

A piece is refused (None) when it holds a byte outside ASCII, a carriage
return not followed by a line feed, a blank or ragged line, a cell
``float`` rejects, or a non-finite value; when more than one cell in
``_FLOAT_SHARE`` is not plain, which ``np.loadtxt`` reads faster than a
loop of ``float``.

Writing.  ``format_lines(block)`` writes a (rows, width) block of finite
float64 cells as the bytes ``repr`` gives each, comma-joined, each row
ended by CRLF.  repr writes the shortest digits that read back as x, the
nearest such to x, in fixed form for decimal exponents -4 to 15 and in
exponent form (``1e-05``, ``1.5e-30``, ``1e+16``) otherwise.  One long
double product scales |x| to ``y = |x| * 10**s`` in [1e16, 1e17).  Where
``10**s`` is exact (``s`` up to 27, which covers the fixed form) the
product is rounded once, so ``y`` is within 2**-8 of its 17th digit's unit
of the exact value; elsewhere the rounded ``10**s`` adds less than 2**-7.
The 15-, 16- and 17-digit candidates are ``y``'s integer part rounded
down or up to a multiple of 100, 10 or 1, by integer division; each reads
back as x when its distance to ``y`` is under x's half-gap on that side,
in the same units, with the lower half-gap halved at a power of two.  A
normal double's gap is under a quarter of the spacing of 15-digit
decimals, so at most one 15-digit candidate reads back and any shorter
digits pad to it; of two 16- or 17-digit ones repr takes the nearer.
Every decision closer to its bound than ``y``'s error, and every
subnormal, whose gap may let fewer digits read back in more than one way,
goes to ``repr``, so every byte is the byte repr writes.  The digits come
from SWAR words, each cell's text is laid out from byte windows of them
and masks from a table of layouts, and the texts are joined by windows
written over the output in order.
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
    """Whether ``parse_lines`` and ``format_lines`` may run here on text
    in ``encoding``: long double is the 16-byte x87 extended format and
    rounds to its 64 bits, and ``encoding`` reads every ASCII byte as that
    character."""
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


def _windows(buf: np.ndarray, size: int) -> np.ndarray:
    """Every ``size``-byte window of the uint8 array ``buf``, one a byte."""
    return np.ndarray((len(buf) - size + 1,), dtype=f"V{size}",
                      buffer=buf.data, strides=(1,))


def _digits(buf: np.ndarray, end: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The value of the ``n`` (at most 19) digits that end before byte
    ``end`` of ``buf`` in each cell: one gather of the 8, 16 or 24 bytes
    before each end, as the fewest whole words that hold the longest run,
    then the SWAR steps on every word at once."""
    words = -(-int(n.max(initial=1)) // 8)
    window = _windows(buf, 8 * words)
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


# -- the write: float64 cells to the bytes repr gives ----------------------

_TEXT = 32  # bytes of a cell's text: sign, digits, exponent, separator
_CELL = 32  # digit-source bytes per cell: 8 NUL, 17 digit values, 7 NUL
_SEPARATORS = (b",", b"\r\n")  # after a cell, after a row's last cell
_FIXED = range(-4, 16)  # repr writes these decimal exponents without one
_FRACTION = np.uint64((1 << 52) - 1)
_UNIT = np.uint64(1 << 52)  # the implicit bit of a normal double
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0
_E17 = np.uint64(10 ** 17)
_E16 = np.uint64(10 ** 16)
_E8 = np.uint64(10 ** 8)
# the most a scaled value can be off, in units of its 17th digit; a
# decision nearer its bound than this goes to repr.  Where 10**s is exact
# (s up to 27: 5**27 < 2**64) the product is rounded once to 64 bits below
# 2**57, so by at most 2**-8; elsewhere the rounding of 10**s adds under
# 10**17 * 2**-64 < 2**-7.  The half-gaps, in float64, add under 2**-49.
_TOL_EXACT = 2.0 ** -8 + 2.0 ** -40
_TOL_ROUNDED = 2.0 ** -6
_EXACT_SCALES = range(0, 28)


def _nearest(num: int, den: int) -> np.longdouble:
    """The long double nearest ``num / den`` (ties to even), from a 64-bit
    integer significand formed exactly."""
    k = 64 - num.bit_length() + den.bit_length()
    while True:
        top, bottom = (num << k, den) if k >= 0 else (num, den << -k)
        m, rem = divmod(top, bottom)
        if m >> 64:
            k -= 1
        elif not m >> 63:
            k += 1
        else:
            break
    if 2 * rem > bottom or 2 * rem == bottom and m & 1:
        m += 1
        if m >> 64:
            m, k = m >> 1, k - 1
    return np.ldexp(np.longdouble(np.uint64(m)), -k)


# scales 10**s for s = 16 - e over every decimal exponent e of a double,
# -324 to 308, and one beyond each end
_SCALES = range(16 - 309, 16 + 326)


@functools.cache
def _scales() -> np.ndarray:
    """Long double ``10**s`` for each ``s`` in ``_SCALES``, each the
    nearest to the exact power; built on first use, where long double is
    x87 extended, since 10**341 overflows a float64."""
    scales = np.array([_nearest(10 ** s, 1) if s >= 0
                       else _nearest(1, 10 ** -s) for s in _SCALES],
                      dtype=np.longdouble)
    scales.flags.writeable = False  # one array, shared by every call
    return scales


# the decimal exponents of the exponent form, and a few beyond
_SUFFIXES = range(-330, 320)


@functools.cache
def _layouts():
    """The text of a cell of ``d`` digits (1 to 17) at decimal exponent
    ``e``, with its sign and the separator after it, as windows of its
    digit values and constants, one layout each: layout
    ``(base * 2 + minus) * 2 + last`` for the base layout
    ``(e + 4) * 17 + d - 1`` of a ``_FIXED`` exponent or ``340 + d - 1``
    of the exponent form, ``minus`` 1 for a negative cell and ``last`` 1
    for a row's last.

    Each table holds a ``_TEXT``-byte word a layout: ``low`` keeps the
    bytes taken from the digits shifted right by ``shift`` bytes, ``high``
    those taken from them shifted one byte more (the digits after the
    dot), and ``const`` is OR'ed in: the sign, the dot, zeros, 0x30 at
    each digit's place, which makes a digit value its ASCII digit, and
    the separator.  The exponent form's suffix and separator are in the
    digits, after the last: ``suffix`` holds it, 8 bytes, in row
    ``(e - _SUFFIXES.start) * 2 + last``, and ``suffix_length`` its length.
    ``length`` is the text's length in bytes, without that suffix.
    Returns ``low, high, const, suffix, length, suffix_length, shift``,
    built on first use."""
    low, high, const, shift = [], [], [], []
    bases = [(e, d) for e in _FIXED for d in range(1, 18)]
    for e, d in bases + [(None, d) for d in range(1, 18)]:
        # the unsigned text, the dot's place (_TEXT: no digit after a dot)
        # and the digits' shift right
        if e is None:  # d.ddd, or d alone
            text, split, move = b"0." + b"0" * (d - 1), 1, 0
            if d == 1:
                text, split = b"0", _TEXT
        elif e < 0:  # 0.000ddd
            text, split, move = b"0." + b"0" * (d - 1 - e), _TEXT, 1 - e
        else:  # ddd.ddd or ddd00.0
            text = b"0" * (e + 1) + b"." + b"0" * max(d - e - 1, 1)
            split, move = e + 1, 0
        for sign in (b"", b"-"):
            cut = min(len(sign) + split, _TEXT)
            for sep in _SEPARATORS:
                low.append(b"\xff" * cut + bytes(_TEXT - cut))
                high.append((bytes(cut + 1) + b"\xff" * _TEXT)[:_TEXT])
                const.append(sign + text + (b"" if e is None else sep))
                shift.append(move + len(sign))
    suffix = [f"e{e:+03d}".encode() + sep for e in _SUFFIXES
              for sep in _SEPARATORS]
    tables = [np.frombuffer(b"".join(t.ljust(size, b"\0") for t in table),
                            dtype=f"V{size}")
              for table, size in ((low, _TEXT), (high, _TEXT),
                                  (const, _TEXT), (suffix, 8))]
    tables += [np.array([len(t) for t in table], dtype=np.intp)
               for table in (const, suffix)]
    return (*tables, np.array(shift, dtype=np.intp))


def format_lines(block: np.ndarray) -> bytes:
    """The CSV lines of ``block``, a (rows, width) array of finite floats:
    each cell the bytes ``repr`` gives it, joined by commas, each row
    ended by CRLF.  It must not be called where ``exact_division`` is
    False: the scaled values would not be exact enough."""
    rows, width = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    if not len(x):
        return b"\r\n" * rows
    digits, e, redo = _shortest(x)
    minus = (x.view(np.uint64) >> np.uint64(63)).astype(np.intp)
    text, length = _texts(digits, e, minus, width)
    redo = np.flatnonzero(redo)
    if len(redo):
        again = [repr(v).encode() + _SEPARATORS[i % width == width - 1]
                 for i, v in zip(redo.tolist(), x[redo].tolist())]
        text[redo] = np.frombuffer(
            b"".join(t.ljust(_TEXT, b"\0") for t in again), dtype=text.dtype)
        length[redo] = [len(t) for t in again]
    stop = np.cumsum(length)
    out = np.empty(stop[-1] + _TEXT, dtype=np.uint8)
    # each window writes its text and NULs over the start of the cells
    # after it, which write after it, in order
    _windows(out, _TEXT)[stop - length] = text
    return out[:stop[-1]].tobytes()


def _shortest(x: np.ndarray):
    """The shortest digits that read back as each entry of ``x``, as repr
    finds them: a 17-digit integer ``digits`` (with the trailing zeros
    that pad shorter ones; 0 for a zero), the decimal exponent ``e`` of
    its first digit, and ``redo``, the cells repr must write.

    |x| is scaled by one long double product to ``y = |x| * 10**s`` in
    [1e16, 1e17), so its integer part ``N`` and fraction ``r`` place x
    between 17-digit integers.  The candidates of 15, 16 and 17 digits
    are ``N`` rounded down and up to a multiple of 100, 10 and 1; one
    reads back as x when its distance to ``y`` is under x's half-gap on
    that side, scaled alike: ``y / 2m`` for x's 53-bit significand ``m``,
    halved below a power of two.  A normal double's gap is under a quarter
    of the spacing of 15-digit candidates, so at most one of them reads
    back, and shorter digits pad to it; of two 16- or 17-digit ones that
    both read back repr takes the nearer.

    A cell is redone when a decision lies within the scaled value's error
    of its bound (``_TOL_EXACT``, or ``_TOL_ROUNDED`` where ``10**s`` is
    not exact), and when it is subnormal: its gap is a larger share of
    it, so shorter digits than the 15-digit candidate may read back."""
    magnitude = x.view(np.uint64) & ~np.uint64(1 << 63)
    zero = magnitude == 0
    magnitude[zero] = _ONE  # scaled as 1.0, then written as 0.0
    a = magnitude.view(np.float64)
    e = np.floor(np.log10(a)).astype(np.int64)
    whole, r = _scaled(a, e)
    off = (whole < _E16) | (whole >= _E17)  # log10 rounded past a power
    if off.any():
        e[off] += np.where(whole[off] >= _E17, 1, -1)
        whole[off], r[off] = _scaled(a[off], e[off])
        off = (whole < _E16) | (whole >= _E17)
    fraction = magnitude & _FRACTION
    exponent = magnitude >> np.uint64(52)
    power = (fraction == 0) & (exponent > 1)  # x's lower gap is halved
    above = whole.astype(np.float64)
    above /= 2.0 * (fraction + (exponent > 0) * _UNIT).astype(np.float64)
    below = above - power * (above / 2)
    scale = 16 - e
    tol = np.where((scale >= _EXACT_SCALES.start)
                   & (scale < _EXACT_SCALES.stop), _TOL_EXACT, _TOL_ROUNDED)
    redo = off | (exponent == 0) & ~zero
    digits = np.zeros_like(whole)
    open_ = ~zero  # cells whose length is not yet found
    for unit in (100, 10, 1):  # 15, 16 and 17 digits
        step = np.uint64(unit)
        floor = whole // step * step if unit > 1 else whole
        gone = (whole - floor).astype(np.float64) + r if unit > 1 else r
        # each candidate's half-gap less its distance to y
        down = below - gone
        up = above - unit + gone
        near = (np.abs(down) <= tol) | (np.abs(up) <= tol)
        if unit < 100:  # both read back, and y is about as near to each
            near |= ((down > -tol) & (up > -tol)
                     & (np.abs(gone - unit / 2) <= tol))
        redo |= open_ & near
        down = down > 0
        up = up > 0
        if unit < 100:  # the nearer, of two that read back
            up &= ~down | (gone > unit / 2)
        fits = open_ & (down | up)
        digits += fits * (floor + up * step)
        open_ &= ~fits
    redo |= open_
    carry = digits == _E17
    digits -= carry * (_E17 - _E16)
    e += carry
    e *= ~zero
    return digits, e, redo


def _scaled(a: np.ndarray, e: np.ndarray):
    """``y = a * 10**(16 - e)``, one long double product, as its integer
    part (uint64) and its fraction (float64, exact): read from the 64-bit
    significand of ``y``, whose low ``63 - exponent`` bits are the
    fraction."""
    y = a.astype(np.longdouble)
    y *= np.take(_scales(), 16 - e - _SCALES.start)
    significand = y.view(np.uint64)[::2]
    shift = (63 + 16383 - y.view(np.uint16)[4::8]).astype(np.uint64)
    whole = significand >> shift
    r = np.ldexp((significand - (whole << shift)).astype(np.float64),
                 -shift.astype(np.int32))
    return whole, r


def _texts(digits: np.ndarray, e: np.ndarray, minus: np.ndarray,
           width: int):
    """The text of each cell of 17-digit ``digits`` at decimal exponent
    ``e``, negative where ``minus``, in rows of ``width`` cells, as repr
    lays it out and followed by its separator, NUL-padded to a
    ``_TEXT``-byte void; and its length in bytes."""
    n = len(digits)
    padded, count = _digit_source(digits)
    fixed = (e >= _FIXED.start) & (e < _FIXED.stop)
    layout = np.where(fixed, (e - _FIXED.start) * 17, len(_FIXED) * 17)
    layout += count - 1
    layout *= 2
    layout += minus
    layout *= 2
    layout.reshape(-1, width)[:, -1] += 1  # a row's last cell
    low, high, const, suffixes, length, suffix_length, shift = _layouts()
    length = np.take(length, layout)
    flat = padded.view(np.uint8)
    where = np.arange(8, n * _CELL, _CELL)
    power = np.flatnonzero(~fixed)
    if len(power):  # the exponent's text and the separator, after the digits
        suffix = (e[power] - _SUFFIXES.start) * 2 + (layout[power] & 1)
        _windows(flat, 8)[where[power] + count[power]] = suffixes[suffix]
        length[power] += suffix_length[suffix]
    where -= np.take(shift, layout)
    windows = _windows(flat, _TEXT)
    text = windows[where].view(np.uint64).reshape(n, _TEXT // 8)
    taken = np.empty(n, dtype=low.dtype)  # each table's words in turn
    mask = taken.view(np.uint64).reshape(n, _TEXT // 8)
    np.take(low, layout, out=taken)
    text &= mask
    shifted = windows[where - 1].view(np.uint64).reshape(n, _TEXT // 8)
    np.take(high, layout, out=taken)
    shifted &= mask
    text |= shifted
    np.take(const, layout, out=taken)
    text |= mask
    return text.view(f"V{_TEXT}").ravel(), length


def _digit_source(digits: np.ndarray):
    """The 17 digit values of each entry of ``digits``, the first at byte 8
    of a ``_CELL``-byte row, as a flat uint64 array with a word more for
    the last cell's windows past its digits; and the count of digits to
    the last that is not 0."""
    first = digits // _E16
    rest = digits - first * _E16
    groups = np.empty((2, len(digits)), dtype=np.uint64)
    np.floor_divide(rest, _E8, out=groups[0])
    np.subtract(rest, groups[0] * _E8, out=groups[1])
    words = _digit_words(groups)
    padded = np.zeros(len(digits) * _CELL // 8 + 1, dtype=np.uint64)
    source = padded[:-1].reshape(len(digits), _CELL // 8)
    source[:, 1] = first | words[0] << np.uint64(8)
    source[:, 2] = words[0] >> np.uint64(56) | words[1] << np.uint64(8)
    source[:, 3] = words[1] >> np.uint64(56)
    # from the bit length of the two words as one 128-bit number, which a
    # float's exponent gives, as each byte is below 16
    span = words[1].astype(np.float64) * 2.0 ** 64 + words[0]
    return padded, 1 + (np.frexp(span)[1] + 7) // 8


def _digit_words(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``v < 10**8`` as byte values 0 to 9 of
    a uint64, the first digit in the low byte: SWAR divisions by 10**4,
    100 and 10 on every lane at once, each a multiply-shift."""
    top = v // np.uint64(10 ** 4)
    w = top | (v - top * np.uint64(10 ** 4)) << np.uint64(32)
    q = w * np.uint64(10486) >> np.uint64(20) & np.uint64(0x0000007F0000007F)
    w = q | (w - q * np.uint64(100)) << np.uint64(16)
    q = w * np.uint64(103) >> np.uint64(10) & np.uint64(0x000F000F000F000F)
    return q | (w - q * np.uint64(10)) << np.uint64(8)
