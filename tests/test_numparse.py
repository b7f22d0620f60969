"""Tests for the exact decimal parse of CSV pieces (``negcontrol._numparse``)
against ``float``, and for ``load_csv`` over each of its parse tiers against
the per-cell scan."""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negcontrol._numparse import exact_division, parse_lines
from negcontrol.data import _scan_csv, load_csv
from test_data import _outcome

needs_x87 = pytest.mark.skipif(
    not exact_division("utf-8"),
    reason="long double is not x87 extended: load_csv uses np.loadtxt")

# cells whose 64-bit quotient rounds to a double's halfway point, where a
# plain cast of the quotient to float64 rounds the wrong way
_MISROUNDED = ["94.55574934915788532", "6376479.763789175544",
               "823.6128617739087190", "3918230.23091188143",
               "552.052349937093652"]

# cells that are not plain decimals, or sit at its limits, which the
# parse hands to float or reads at full length
_AWKWARD = ["-0.0", "-0", ".5", "5.", "-.5", "007", "+1.5", "1_0", " 1.5",
            "1.5 ", "\t2", "9007199254740993", "1234567890123456789",
            "12345678901234567890", "0.1234567890123456789",
            "-0.12345678901234567890", "0000000000000000000001.5", "1e5",
            "-2.5E-3", "1.7976931348623157e308", "5e-324", "0.0"]

_FAULTS = ["", "x", "-", ".", "-.", "1.2.3", "--1", "1-2", "nan", "inf",
           "1e400", "-1e400", '"', "1,5"]


def _quotient(cells) -> np.ndarray:
    """``longdouble(M) / longdouble(10**k)`` of each plain cell, as the
    parse forms it."""
    digits = [cell.lstrip("-").replace(".", "") for cell in cells]
    mantissa = np.array([int(d) for d in digits], dtype=np.uint64)
    k = np.array([len(c) - c.index(".") - 1 if "." in c else 0
                  for c in cells])
    power = np.array([10 ** j for j in range(20)], dtype=np.uint64)
    return mantissa.astype(np.longdouble) / power.astype(np.longdouble)[k]


@functools.cache
def _halfway_cells() -> tuple[str, ...]:
    """Random 17- to 19-digit decimals whose 64-bit quotient ends in the
    halfway bits 0x400; none where long double is not x87 extended."""
    if not exact_division("utf-8"):
        return ()
    rng = np.random.default_rng(0)
    cells = []
    for length in rng.integers(17, 20, size=20_000).tolist():
        text = "".join(map(str, rng.integers(0, 10, size=length).tolist()))
        dot = int(rng.integers(1, length))
        cells.append(text[:dot] + "." + text[dot:])
    low = _quotient(cells).view(np.uint64)[::2] & np.uint64(0x7FF)
    return tuple(c for c, bits in zip(cells, low) if bits == 0x400)


def _piece(cells, width=1, end="\n") -> bytes:
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    return "".join(",".join(row) + end for row in rows).encode()


def _float_bits(cells) -> bytes:
    return np.array([float(c) for c in cells]).tobytes()


@pytest.fixture
def every_cell_parsed_here(monkeypatch):
    """Let a piece hand any share of its cells to ``float`` rather than
    refusing it for ``np.loadtxt``."""
    monkeypatch.setattr("negcontrol._numparse._FLOAT_SHARE", 1)


# ---------------------------------------------------------------------------
# parse_lines against float
# ---------------------------------------------------------------------------


@needs_x87
@pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "none"])
def test_plain_cells_parse_to_the_bits_float_gives(end):
    rng = np.random.default_rng(1)
    values = rng.normal(size=(500, 4)) * 10.0 ** rng.integers(
        -3, 12, size=(500, 4))
    values[0] = [-0.0, 0.0, 1.0, -123456789.0]
    cells = [repr(v) for v in values.ravel().tolist()]
    cells += [str(int(v)) for v in values[1:50].ravel().tolist()]
    cells += ["%.12g" % v for v in values[50:100].ravel().tolist()]
    piece = _piece(cells, 4, end or "\n")
    if not end:  # the last line of a file without a final line end
        piece = piece.removesuffix(b"\n")
    parsed = parse_lines(piece, 4)
    assert parsed is not None and parsed.shape == (len(cells) // 4, 4)
    assert parsed.tobytes() == _float_bits(cells)


@needs_x87
def test_random_bit_patterns_parse_to_the_bits_float_gives(
        every_cell_parsed_here):
    rng = np.random.default_rng(2)
    values = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64).view(
        np.float64)
    values = values[np.isfinite(values)].tolist()
    for form in (repr, "%.17g".__mod__, "%.20f".__mod__, "%.6f".__mod__):
        cells = [form(v) for v in values]
        parsed = parse_lines(_piece(cells), 1)
        assert parsed.tobytes() == _float_bits(cells)


@needs_x87
def test_halfway_quotients_are_read_by_float(every_cell_parsed_here):
    halfway = _halfway_cells()
    assert len(halfway) >= 5  # about 1 cell in 500 of 20 000
    cells = list(halfway) + _MISROUNDED
    # without the guard, the cast of these quotients rounds the wrong way
    plain_cast = _quotient(_MISROUNDED).astype(np.float64)
    assert (plain_cast != [float(c) for c in _MISROUNDED]).all()
    assert parse_lines(_piece(cells), 1).tobytes() == _float_bits(cells)


@needs_x87
def test_awkward_cells_are_read_as_float_reads_them(every_cell_parsed_here):
    cells = _AWKWARD * 3
    assert parse_lines(_piece(cells, 3), 3).tobytes() == _float_bits(cells)


@needs_x87
@pytest.mark.parametrize("cell", _FAULTS)
def test_a_cell_float_rejects_refuses_the_piece(every_cell_parsed_here, cell):
    cells = ["1.5", "2", cell, "-3.25"]
    assert parse_lines(_piece(cells, 2), 2) is None


@needs_x87
@pytest.mark.parametrize("piece", [
    b"1.5,2\n3,\xc3\xa9\n",  # a byte outside ASCII
    b"1.5,2\r3,4\n",  # a bare CR between lines
    b"1.5\r,2\n3,4\n",  # a bare CR inside a line
    b"1.5,2\n\n3,4\n",  # a blank line
    b"1.5,2\r\n\r\n3,4\r\n",  # a blank CRLF line
    b"1.5,2\n3\n",  # a short row
    b"1.5,2\n3,4,5\n",  # a long row
    b"1.5,2,3\n4\n",  # a long row, then a short one: the cells add up
], ids=["non-ascii", "cr-line", "cr-cell", "blank", "blank-crlf", "short",
        "long", "long-short"])
def test_structural_faults_refuse_the_piece(piece):
    assert parse_lines(piece, 2) is None


@needs_x87
def test_a_blank_line_of_one_column_refuses_the_piece():
    assert parse_lines(b"1.5\n\n2\n", 1) is None


@needs_x87
def test_many_cells_for_float_send_the_piece_to_loadtxt():
    # 1 cell in 4 of 64 may go to float; a 17th sends the piece on
    plain = [repr(0.1 * i) for i in range(64)]
    assert parse_lines(_piece(plain[:48] + ["1e-5"] * 16), 1) is not None
    assert parse_lines(_piece(plain[:47] + ["1e-5"] * 17), 1) is None


@needs_x87
def test_a_refused_piece_sends_the_rest_of_its_range_to_loadtxt(
        tmp_path, monkeypatch):
    # exponent cells fill the first piece; the plain ones after it are
    # not tried again
    lines = ["a,b"] + ["1e-5,2.5e-7"] * 8 + ["0.25,-1.5"] * 40
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    calls = []

    def parse(piece, width):
        calls.append(piece)
        return parse_lines(piece, width)

    monkeypatch.setattr("negcontrol.data._PARSE_PIECE", 64)
    monkeypatch.setattr("negcontrol._numparse.parse_lines", parse)
    assert load_csv(path).values.tobytes() == _scan_csv(
        path).values.tobytes()
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# where the parse may run
# ---------------------------------------------------------------------------


def test_exact_division_needs_x87_long_double():
    info = np.finfo(np.longdouble)
    x87 = bool(info.nmant == 63 and np.dtype(np.longdouble).itemsize == 16
               and np.longdouble(1) + np.longdouble(2.0 ** -60) != 1)
    assert exact_division("utf-8") is x87
    if info.nmant != 63:
        assert not exact_division("utf-8")


@pytest.mark.parametrize("nmant", [52, 112])
def test_exact_division_is_off_for_other_long_doubles(monkeypatch, nmant):
    finfo = np.finfo

    def fake(dtype):
        if dtype is np.longdouble:
            return SimpleNamespace(nmant=nmant)
        return finfo(dtype)

    exact_division.cache_clear()
    monkeypatch.setattr(np, "finfo", fake)
    try:
        assert not exact_division("utf-8")
    finally:
        exact_division.cache_clear()


@pytest.mark.parametrize("encoding, ascii_", [
    ("utf-8", True), ("latin-1", True), ("cp1252", True),
    ("utf-16", False), ("cp500", False), ("no-such-codec", False)])
def test_exact_division_needs_an_ascii_encoding(encoding, ascii_):
    if exact_division("utf-8"):
        assert exact_division(encoding) is ascii_
    else:
        assert not exact_division(encoding)


def test_load_csv_without_exact_division_never_calls_the_parse(
        tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,b\n1.5,2\n3,4\n")

    def refuse(piece, width):
        raise AssertionError("parse_lines ran")

    monkeypatch.setattr("negcontrol._numparse.exact_division",
                        lambda encoding: False)
    monkeypatch.setattr("negcontrol._numparse.parse_lines", refuse)
    assert load_csv(path).values.tolist() == [[1.5, 2.0], [3.0, 4.0]]


# ---------------------------------------------------------------------------
# load_csv over each tier against the scan
# ---------------------------------------------------------------------------

_TIERS = {
    # the default: the exact parse, np.loadtxt for a refused piece
    "exact-first": {},
    # the exact parse reads every piece it can, float for any cell
    "exact-only": {"negcontrol._numparse._FLOAT_SHARE": 1},
    # np.loadtxt alone, as where long double is not x87 extended
    "loadtxt": {"negcontrol._numparse.exact_division": lambda e: False},
}


def _cell_forms():
    floats = st.floats(allow_nan=False, allow_infinity=False)
    forms = [
        floats.map(repr),
        floats.map("%.17g".__mod__),
        floats.map("{:e}".format),
        st.integers(-10 ** 20, 10 ** 20).map(str),
        st.floats(-1e6, 1e6).map(repr),
        st.sampled_from(_AWKWARD),
        st.sampled_from(_MISROUNDED),
    ]
    if _halfway_cells():
        forms.append(st.sampled_from(_halfway_cells()))
    return st.one_of(forms)


@st.composite
def _decimal_files(draw):
    """A grid of cells in many decimal forms, then maybe one fault, as file
    bytes."""
    rows, cols = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    cell = _cell_forms()
    grid = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    fault = draw(st.sampled_from(
        ["none", "none", "cell", "blank", "cr", "quote", "short", "long",
         "inf"]))
    if fault == "cell":
        grid[r][c] = draw(st.sampled_from(_FAULTS))
    elif fault == "cr":
        grid[r][c] += "\r"
    elif fault == "quote":
        grid[r][c] = f'"{grid[r][c]}"'
    elif fault == "short":
        grid[r].pop()
    elif fault == "long":
        grid[r].append("1")
    elif fault == "inf":
        grid[r][c] = "1e400"
    lines = [",".join(f"c{j}" for j in range(cols))]
    lines += [",".join(row) for row in grid]
    if fault == "blank":
        lines.insert(r + 1, "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return (end.join(lines) + draw(st.sampled_from(["", end]))).encode()


@settings(deadline=None, max_examples=150)
@given(_decimal_files(), st.sampled_from([1, 40, 1 << 17]))
@example(b"a,b\n" + _piece(_MISROUNDED[:4], 2), 1 << 17)
@example(b"a\n1e400\n2\n", 1 << 17)
@example(b"a,b\r\n1,2\r\n\r\n3,4\r\n", 1 << 17)
def test_load_csv_matches_scan_on_every_tier(tmp_path_factory, raw, piece):
    path = tmp_path_factory.mktemp("tiers") / "data.csv"
    path.write_bytes(raw)
    reference = _outcome(_scan_csv, path)
    for tier, patches in _TIERS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("negcontrol.data._PARSE_PIECE", piece)
            for target, value in patches.items():
                mp.setattr(target, value)
            assert _outcome(load_csv, path) == reference, tier
