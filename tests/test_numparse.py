"""Tests for the exact decimal parse of CSV pieces (``negcontrol._numparse``)
against ``float``, for ``load_csv`` over each of its parse tiers against
the per-cell scan, and for the vectorised write of CSV cells against
``repr``."""

from __future__ import annotations

import ast
import functools
import json
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from negcontrol import _numparse
from negcontrol._numparse import exact_division, format_lines, parse_lines
from negcontrol.data import Dataset, _scan_csv, load_csv, write_csv
from negcontrol.search import _numbers
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


# ---------------------------------------------------------------------------
# format_lines against repr
# ---------------------------------------------------------------------------

# normal cells whose choice of digits lies within the scaled value's error
# of its bound: with no margin the kernel writes other digits for each
_CLOSE = [-1.762462046391296, 1.528330717803562, -2.258046968995157,
          -0.4611668396584995, -1.093229365166, -3.394095430428507e-05,
          -0.25568236188397647, 0.4062684534656891, 7509699.0206368975]

_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
          2.225073858507201e-308, 1.7976931348623157e308,
          -1.7976931348623157e308, 9.999999999999999e-05, 0.0001, 0.001,
          9999999999999998.0, 1e16, 1e15, 123456789012345.67, 1e-05, 1.5e-30,
          0.1, 0.5, 1.0, 2.0, 100.0, 1e22, 1e23, 5e-310]


def _repr_lines(values) -> bytes:
    """The reference: each row's cells by ``repr``, comma-joined, CRLF."""
    return "".join(",".join(map(repr, row)) + "\r\n"
                   for row in np.asarray(values).tolist()).encode()


def _hard_doubles() -> np.ndarray:
    """Random bit patterns, powers of two and of ten with the doubles
    three steps either side of each, integers and short decimals."""
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64)
    families = [bits.view(np.float64),
                rng.integers(-2 ** 53, 2 ** 53, size=5_000).astype(float),
                np.array([round(v, k) for v, k in zip(
                    rng.normal(scale=1e3, size=5_000).tolist(),
                    rng.integers(0, 12, size=5_000).tolist())])]
    for base in (2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)):
        up = down = base
        families.append(base)
        for _ in range(3):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
            families += [up, down]
    values = np.concatenate(families)
    return values[np.isfinite(values)]


@needs_x87
@settings(deadline=None, max_examples=300)
@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([[0.0, -0.0, 5e-324, -5e-324]]))
@example(np.array([[1.7976931348623157e308], [-1.7976931348623157e308]]))
@example(np.array([[2.0 ** k for k in (-1074, -1022, -1, 0, 1, 52, 53, 1023)]]))
@example(np.array([[9.999999999999999e-05, 0.0001]]))
@example(np.array([[9999999999999998.0, 1e16]]))
def test_format_lines_writes_the_bytes_repr_gives(values):
    assert format_lines(values) == _repr_lines(values)


@needs_x87
def test_format_lines_matches_repr_on_hard_doubles():
    values = _hard_doubles()
    values = values[:len(values) // 7 * 7].reshape(-1, 7)
    assert format_lines(values) == _repr_lines(values)
    assert format_lines(-values) == _repr_lines(-values)


@needs_x87
def test_format_lines_edges_and_empty_blocks():
    assert format_lines(np.array([_EDGES])) == _repr_lines([_EDGES])
    column = np.array(_EDGES)[:, None]
    assert format_lines(column) == _repr_lines(column)
    assert format_lines(np.empty((0, 3))) == b""
    assert format_lines(np.empty((3, 0))) == _repr_lines(np.empty((3, 0)))
    strided = np.arange(24.0).reshape(4, 6)[:, ::2] / 7
    assert format_lines(strided) == _repr_lines(strided)


@needs_x87
def test_close_decisions_go_to_repr(monkeypatch):
    values = np.array([_CLOSE])
    assert _numparse._shortest(values.ravel().copy())[2].all()
    assert format_lines(values) == _repr_lines(values)
    monkeypatch.setattr(_numparse, "_TOL_EXACT", 0.0)
    digits = format_lines(values)[:-2].split(b",")
    assert all(got != repr(v).encode() for got, v in zip(digits, _CLOSE))


@needs_x87
def test_scales_are_the_nearest_long_doubles():
    # exact where 5**s < 2**64, and within half a unit of 64 bits elsewhere
    for s, scale in zip(_numparse._SCALES, _numparse._scales()):
        fraction, exponent = np.frexp(scale)
        value = Fraction(int(np.ldexp(fraction, 64))) * Fraction(2) ** (
            int(exponent) - 64)
        error = abs(value - Fraction(10) ** s) / Fraction(10) ** s
        assert error == 0 if 0 <= s <= 27 else error <= Fraction(1, 2 ** 64)


@needs_x87
def test_most_normal_cells_need_no_repr():
    x = np.random.default_rng(4).normal(size=20_000)
    assert np.count_nonzero(_numparse._shortest(x.copy())[2]) < 200


@needs_x87
def test_format_lines_raises_no_floating_point_warning():
    values = np.concatenate([_hard_doubles(), _EDGES])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        format_lines(values.reshape(1, -1))
        _numbers(np.array([np.inf, -np.inf, np.nan, 1e300, 5e-324]),
                 json.dumps)


def test_numbers_are_the_json_of_each_float():
    values = np.concatenate([_hard_doubles()[::50], _EDGES,
                             [np.inf, -np.inf, np.nan]])
    values = values[len(values) % 3:]
    assert _numbers(values.reshape(-1, 3), json.dumps) == [
        json.dumps(v) for v in values.tolist()]
    assert _numbers(np.array([np.nan, 0.5]), lambda v: "null") == [
        "null", "0.5"]
    assert _numbers(np.empty((0, 6)), json.dumps) == []


def test_without_exact_division_the_writers_use_repr(tmp_path, monkeypatch):
    def refuse(block):
        raise AssertionError("format_lines ran")

    monkeypatch.setattr("negcontrol._numparse.exact_division",
                        lambda encoding: False)
    monkeypatch.setattr("negcontrol._numparse.format_lines", refuse)
    values = np.array([_EDGES, _EDGES[::-1]])
    write_csv(Dataset(tuple(f"c{i}" for i in range(len(_EDGES))), values),
              tmp_path / "data.csv")
    body = (tmp_path / "data.csv").read_bytes().split(b"\r\n", 1)[1]
    assert body == _repr_lines(values)
    assert _numbers(values, json.dumps) == [
        json.dumps(v) for v in values.ravel().tolist()]


# numpy attributes newer than the oldest numpy the package declares (1.23)
_NEWER_NUMPY = {"bitwise_count", "bitwise_left_shift", "bitwise_right_shift",
                "bitwise_invert", "concat", "pow", "astype", "unstack",
                "cumulative_sum", "cumulative_prod", "isdtype", "vecdot",
                "permute_dims", "matrix_transpose", "unique_values"}


def test_numparse_uses_no_numpy_newer_than_declared():
    source = Path(_numparse.__file__).read_text()
    used = {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "np"}
    assert not used & _NEWER_NUMPY
