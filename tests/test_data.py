"""Tests for CSV loading, Dataset validation, and covariance helpers."""

from __future__ import annotations

import csv
import errno
import io
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from negcontrol import data as data_module
from negcontrol._fork import _send
from negcontrol.data import (
    CovMatrix,
    Dataset,
    _format_rows,
    _line_ranges,
    _parse_range,
    _row_blocks,
    _row_ranges,
    _scan_csv,
    covariance,
    load_csv,
    sub_determinant,
    write_csv,
)
from negcontrol.errors import (
    DuplicateHeaderError,
    MissingValueError,
    NegcontrolError,
    TooFewRowsError,
    TooFewSamplesError,
    UnknownVariableError,
)

# A small hand-checkable table used throughout: 5 rows, 4 columns.
TABLE = np.array(
    [
        [2.0, 1.0, 4.0, 3.0],
        [3.0, 5.0, 1.0, 2.0],
        [7.0, 2.0, 6.0, 4.0],
        [1.0, 8.0, 3.0, 9.0],
        [5.0, 4.0, 2.0, 6.0],
    ]
)
NAMES = ("a", "b", "c", "d")

# Sample covariance (denominator n-1) of TABLE, computed independently.
COV_ROWS = [
    [5.800000000000001, -3.25, 2.0999999999999996, -1.85],
    [-3.25, 7.5, -2.75, 5.25],
    [2.0999999999999996, -2.75, 3.7, 0.05],
    [-1.85, 5.25, 0.05, 7.7],
]


@pytest.fixture()
def table_dataset():
    return Dataset(NAMES, TABLE)


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n")
    data = load_csv(path)
    assert data.variable_names == ("a", "b")
    assert data.n == 2
    np.testing.assert_array_equal(data.values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_strips_header_whitespace(tmp_path):
    path = _write(tmp_path, " a , b \n1,2\n3,4\n")
    assert load_csv(path).variable_names == ("a", "b")


def test_load_csv_missing_cell_reports_position(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,\n")
    with pytest.raises(MissingValueError) as err:
        load_csv(path)
    # 1-based file coordinates (header is row 1): third line, second column.
    assert err.value.row == 3
    assert err.value.column == 2


def test_load_csv_non_numeric_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\nx,4\n")
    with pytest.raises(MissingValueError) as err:
        load_csv(path)
    assert err.value.row == 3
    assert err.value.column == 1


def test_load_csv_non_finite_cell(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\ninf,4\n")
    with pytest.raises(MissingValueError):
        load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4,5\n")
    with pytest.raises(MissingValueError):
        load_csv(path)


def test_load_csv_duplicate_header(tmp_path):
    path = _write(tmp_path, "a,b,a\n1,2,3\n4,5,6\n")
    with pytest.raises(DuplicateHeaderError):
        load_csv(path)


def test_load_csv_too_few_rows(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n")
    with pytest.raises(TooFewRowsError):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(TooFewRowsError):
        load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(tmp_path / "nope.csv")


def test_write_csv_round_trip(tmp_path, table_dataset):
    path = tmp_path / "round.csv"
    write_csv(table_dataset, path)
    back = load_csv(path)
    assert back.variable_names == table_dataset.variable_names
    np.testing.assert_array_equal(back.values, table_dataset.values)


def test_write_csv_preserves_float_precision(tmp_path):
    values = np.array([[0.1 + 0.2, 1.0 / 3.0], [np.pi, np.e]])
    data = Dataset(("x", "y"), values)
    path = tmp_path / "prec.csv"
    write_csv(data, path)
    np.testing.assert_array_equal(load_csv(path).values, values)


def test_load_csv_blank_line_mid_file(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n\n3,4\n")
    with pytest.raises(MissingValueError) as err:
        load_csv(path)
    assert (err.value.row, err.value.column) == (3, 1)


def test_load_csv_trailing_blank_line(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,4\n\n")
    with pytest.raises(MissingValueError) as err:
        load_csv(path)
    assert (err.value.row, err.value.column) == (4, 1)


def test_load_csv_quoted_cell(tmp_path):
    path = _write(tmp_path, 'a,b\n1,"2"\n3,4\n')
    np.testing.assert_array_equal(load_csv(path).values[0], [1.0, 2.0])


def test_load_csv_underscore_digits_read_as_float_does(tmp_path):
    path = _write(tmp_path, "a,b\n1_0,2\n3,4\n")
    assert load_csv(path).values[0, 0] == 10.0


@pytest.mark.parametrize("cell", ["#2", "2#3"])
def test_load_csv_hash_is_not_a_comment(tmp_path, cell):
    path = _write(tmp_path, f"a,b\n1,{cell}\n3,4\n")
    with pytest.raises(MissingValueError) as err:
        load_csv(path)
    assert (err.value.row, err.value.column) == (2, 2)


def test_load_csv_nan_cell_reports_position(tmp_path):
    path = _write(tmp_path, "a,b\n1,nan\n3,4\n")
    with pytest.raises(MissingValueError) as err:
        load_csv(path)
    assert (err.value.row, err.value.column) == (2, 2)


@pytest.mark.parametrize(
    "raw",
    [
        b"a,b\r\n1,2\r\n3,4\r\n",
        b"a,b\r1,2\r3,4\r",
        b"a,b\n1,2\n3,4",
    ],
    ids=["crlf", "cr", "no-final-newline"],
)
def test_load_csv_line_endings(tmp_path, raw):
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    np.testing.assert_array_equal(load_csv(path).values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_single_column(tmp_path):
    path = _write(tmp_path, "a\n1\n2\n3\n")
    data = load_csv(path)
    assert data.variable_names == ("a",)
    np.testing.assert_array_equal(data.values, [[1.0], [2.0], [3.0]])


def test_load_csv_header_only_raises_without_warning(tmp_path):
    path = _write(tmp_path, "a,b\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TooFewRowsError):
            load_csv(path)


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("source", [
    "file", "scan", "quoted-header", "cr-only",
    pytest.param("pipe", marks=pytest.mark.skipif(
        not hasattr(os, "mkfifo"), reason="no os.mkfifo"))])
def test_load_csv_drops_a_byte_order_mark(tmp_path, source):
    # as a spreadsheet's "CSV UTF-8" export opens
    header = b'"a",b' if source == "quoted-header" else b"a,b"
    end = b"\r" if source == "cr-only" else b"\r\n"
    raw = _BOM + end.join([header, b"1.5,2", b"3,-4"]) + end
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    if source == "pipe":
        data = _load_piped(tmp_path / "fifo", raw)
    else:
        data = (_scan_csv if source == "scan" else load_csv)(path)
    assert data.variable_names == ("a", "b")
    assert data.values.tolist() == [[1.5, 2.0], [3.0, -4.0]]


@pytest.mark.parametrize("load", [load_csv, _scan_csv])
def test_load_csv_drops_only_the_first_byte_order_mark(tmp_path, load):
    path = tmp_path / "data.csv"
    path.write_bytes(_BOM * 2 + b"a," + _BOM + b"b\n1,2\n3,4\n")
    assert load(path).variable_names == ("\ufeffa", "\ufeffb")


@pytest.mark.parametrize("load", [load_csv, _scan_csv])
def test_load_csv_of_a_lone_byte_order_mark_is_empty(tmp_path, load):
    path = tmp_path / "data.csv"
    path.write_bytes(_BOM)
    with pytest.raises(TooFewRowsError):
        load(path)


def _reference_write_csv(data, path):
    # the byte reference: one csv.writer row of repr(float(v)) per row
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(data.variable_names)
        for row in data.values:
            writer.writerow([repr(float(v)) for v in row])


def test_write_csv_bytes_match_reference_writer(tmp_path):
    values = np.array(
        [[0.1 + 0.2, -0.0, 5e-324], [1e300, -1.7976931348623157e308, 3.0]]
    )
    data = Dataset(("x,1", 'say "y"', "z"), values)
    write_csv(data, tmp_path / "new.csv")
    _reference_write_csv(data, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    back = load_csv(tmp_path / "new.csv")
    assert back.variable_names == data.variable_names
    assert back.values.tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# load_csv / write_csv against the per-cell reference scan
# ---------------------------------------------------------------------------

_MAX = 1.7976931348623157e308


@settings(deadline=None, max_examples=60)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6).map(
            lambda shape: (shape[0] + 1, shape[1])
        ),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(np.array([[-0.0, 5e-324, _MAX], [2.2250738585072014e-308, -_MAX, 0.0]]))
@example(np.array([[-0.0], [1e-310]]))
def test_write_load_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("rt") / "data.csv"
    names = tuple(f"v{j}" for j in range(values.shape[1]))
    write_csv(Dataset(names, values), path)
    back = load_csv(path)
    assert back.variable_names == names
    assert back.values.tobytes() == values.tobytes()


_BAD_CELLS = ["", "x", "nan", "inf", "2#3"]


@st.composite
def _csv_files(draw):
    """A valid numeric grid, then maybe one injected fault, as file bytes."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 4))
    cell = st.one_of(
        st.integers(-99, 99).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
    grid = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    fault = draw(st.sampled_from(["none", "cell", "short", "long", "blank"]))
    if fault == "cell":
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        grid[r][c] = draw(st.sampled_from(_BAD_CELLS))
    elif fault == "short":
        grid[draw(st.integers(0, rows - 1))].pop()
    elif fault == "long":
        grid[draw(st.integers(0, rows - 1))].append("1")
    lines = [",".join(f"c{j}" for j in range(cols))]
    lines += [",".join(row) for row in grid]
    if fault == "blank":
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return text.encode()


def _outcome(load, path):
    try:
        data = load(path)
    except NegcontrolError as exc:  # compared by class and coordinates
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return data.variable_names, data.values.tobytes()


@settings(deadline=None, max_examples=200)
@given(_csv_files())
def test_load_csv_matches_scan_reference(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("ref") / "data.csv"
    path.write_bytes(raw)
    assert _outcome(load_csv, path) == _outcome(_scan_csv, path)


# ---------------------------------------------------------------------------
# load_csv split into byte ranges parsed by forked children
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _force_split(mp, k, chunk=16):
    """Cut bodies of a few hundred bytes into ``k`` ranges, parsed ``chunk``
    bytes (rounded up to a line end) at a time."""
    mp.setattr("negcontrol.data._PARSE_CHUNK", chunk)
    mp.setattr("negcontrol.data._PARSE_PIECE", chunk)
    mp.setattr("negcontrol.data._workers", lambda: k)


def _no_scan(path):
    raise AssertionError("load_csv fell back to the scan")


def _grid_lines(rows=40, cols=3):
    """A header and ``rows`` rows of floats of mixed magnitude, so lines
    differ in length."""
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(
        -3, 4, size=(rows, cols))
    return [",".join(f"c{j}" for j in range(cols))] + [
        ",".join(map(repr, row)) for row in grid.tolist()
    ]


def _write_lines(path, lines, end="\n", final=True):
    path.write_bytes((end.join(lines) + end * final).encode())
    return path


def _ranges(path):
    """The [start, stop) byte ranges load_csv cuts the body of ``path``
    into."""
    with open(path, "rb") as handle:
        handle.readline()
        return [(a, a + n) for a, n in _line_ranges(handle)]


def _line_offset(lines, i):
    """Byte offset of line ``i`` in a file of ``lines`` ended by LF."""
    return sum(len(text) + 1 for text in lines[:i])


def _range_of_line(path, lines, i):
    start = _line_offset(lines, i)
    return next(r for r, (a, b) in enumerate(_ranges(path)) if a <= start < b)


@needs_fork
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "end, final", [("\n", True), ("\r\n", True), ("\n", False)],
    ids=["lf", "crlf", "no-final-newline"],
)
def test_split_load_csv_matches_scan(tmp_path, monkeypatch, k, end, final):
    path = _write_lines(tmp_path / "data.csv", _grid_lines(), end, final)
    _force_split(monkeypatch, k)
    assert len(_ranges(path)) == k
    reference = _scan_csv(path)
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    data = load_csv(path)
    assert data.variable_names == reference.variable_names
    assert data.values.tobytes() == reference.values.tobytes()


@pytest.mark.parametrize("final", [True, False],
                         ids=["final-cr", "no-final-cr"])
def test_cr_only_load_csv_takes_the_fast_parse(tmp_path, monkeypatch, final):
    # the header "line" of a CR-only file was the whole file, and held a
    # bare CR, so every such file went to the scan
    path = _write_lines(tmp_path / "data.csv", _grid_lines(), "\r", final)
    reference = _scan_csv(path)
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    data = load_csv(path)
    assert data.variable_names == reference.variable_names
    assert data.values.tobytes() == reference.values.tobytes()


@needs_fork
@pytest.mark.parametrize("chunks, parts", [(2.5, 2), (1.0, 1)])
def test_parse_chunk_splits_a_body_of_two_and_a_half_chunks(
        tmp_path, monkeypatch, chunks, parts):
    # on 2 CPUs a body of 2.5 chunks (such as a 3 MiB one) is cut in two,
    # and a body of one chunk stays whole
    from negcontrol.data import _PARSE_CHUNK

    monkeypatch.setattr("negcontrol.data._workers", lambda: 2)
    line = b"1.25,-2.5,3.75\n"
    rows = int(chunks * _PARSE_CHUNK) // len(line)
    path = tmp_path / "data.csv"
    path.write_bytes(b"a,b,c\n" + line * rows)
    assert len(_ranges(path)) == parts
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    values = load_csv(path).values
    assert values.shape == (rows, 3)
    assert (values == [1.25, -2.5, 3.75]).all()


@needs_fork
def test_split_load_csv_one_row_last_range(tmp_path, monkeypatch):
    # the second cut lands in the long row, so the last range is one row
    lines = ["a,b", *["1.5,2.5"] * 6, "0." + "0" * 200 + "1,3.0", "4.0,5.0"]
    path = _write_lines(tmp_path / "data.csv", lines)
    _force_split(monkeypatch, 2)
    (_, cut), (_, end) = _ranges(path)
    assert path.read_bytes()[cut:end] == b"4.0,5.0\n"
    reference = _scan_csv(path)
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    assert load_csv(path).values.tobytes() == reference.values.tobytes()


@needs_fork
@pytest.mark.parametrize("target", [1, 2], ids=["range2", "range3"])
@pytest.mark.parametrize("fault", ["cell", "blank", "short", "long"])
def test_split_load_csv_fault_reports_scan_position(tmp_path, monkeypatch,
                                                    target, fault):
    _force_split(monkeypatch, 4)
    lines = _grid_lines()
    path = _write_lines(tmp_path / "data.csv", lines)
    inside = [i for i in range(1, len(lines))
              if _range_of_line(path, lines, i) == target]
    line = inside[len(inside) // 2]
    cells = lines[line].split(",")
    if fault == "cell":
        lines[line] = ",".join([cells[0], "x", *cells[2:]])
    elif fault == "blank":
        lines.insert(line, "")
    elif fault == "short":
        lines[line] = ",".join(cells[:-1])
    else:
        lines[line] += ",1"
    _write_lines(path, lines)
    assert _range_of_line(path, lines, line) == target
    with pytest.raises(MissingValueError) as got:
        load_csv(path)
    with pytest.raises(MissingValueError) as ref:
        _scan_csv(path)
    assert (got.value.row, got.value.column) == (ref.value.row,
                                                 ref.value.column)
    assert got.value.row == line + 1


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="no /proc/self/fd")


class _ParentRangeError(Exception):
    pass


@needs_fork
@needs_proc
@pytest.mark.parametrize("outcome", ["loads", "bad-cell", "parent-raises"])
def test_split_load_csv_leaves_no_child_or_descriptor(tmp_path, monkeypatch,
                                                      outcome):
    k = 4
    lines = _grid_lines()
    if outcome == "bad-cell":
        lines[-2] = "x,1,2"  # in the last range
    path = _write_lines(tmp_path / "data.csv", lines)
    _force_split(monkeypatch, k)
    forked = _count_forks(monkeypatch)
    if outcome == "parent-raises":
        parent = os.getpid()

        def parse(*args):
            if os.getpid() == parent:
                raise _ParentRangeError
            return _parse_range(*args)

        monkeypatch.setattr("negcontrol.data._parse_range", parse)
    before = _open_descriptors()
    if outcome == "loads":
        load_csv(path)
    else:
        with pytest.raises(MissingValueError if outcome == "bad-cell"
                           else _ParentRangeError):
            load_csv(path)
    assert len(forked) == k - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_descriptors() == before


def _no_fork():
    raise OSError(errno.EAGAIN, "no process to spare")


@needs_fork
@needs_proc
def test_split_load_csv_parses_unforked_ranges_itself(tmp_path, monkeypatch):
    path = _write_lines(tmp_path / "data.csv", _grid_lines())
    _force_split(monkeypatch, 4)
    reference = _scan_csv(path)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    before = _open_descriptors()
    assert load_csv(path).values.tobytes() == reference.values.tobytes()
    assert _open_descriptors() == before


@needs_fork
def test_split_load_csv_child_exit_status_sends_file_to_scan(tmp_path,
                                                             monkeypatch):
    # every child sends its rows, then exits 3: the rows are not trusted
    path = _write_lines(tmp_path / "data.csv", _grid_lines())
    _force_split(monkeypatch, 3)
    reference, scans = _scan_csv(path), []
    real_exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
    monkeypatch.setattr("negcontrol.data._scan_csv",
                        lambda p: scans.append(p) or reference)
    assert load_csv(path) is reference
    assert scans == [path]


@needs_fork
@needs_proc
@pytest.mark.parametrize("failing", [0, 1, 2], ids=["child1", "child2",
                                                    "child3"])
def test_split_load_csv_short_payload_sends_file_to_scan(tmp_path,
                                                         monkeypatch, failing):
    # one child announces its rows and sends half of them
    path = _write_lines(tmp_path / "data.csv", _grid_lines())
    _force_split(monkeypatch, 4)
    forked = _count_forks(monkeypatch)
    reference, scans = _scan_csv(path), []

    def send(fd, payload):
        view = memoryview(payload).cast("B")
        if len(forked) == failing and len(view) > 8:  # not the count
            view = view[:len(view) // 2]
        _send(fd, view)

    monkeypatch.setattr("negcontrol._fork._send", send)
    monkeypatch.setattr("negcontrol.data._scan_csv",
                        lambda p: scans.append(p) or _scan_csv(p))
    before = _open_descriptors()
    data = load_csv(path)
    assert len(forked) == 3
    _assert_no_leak(before)
    assert scans == [path]
    assert data.values.tobytes() == reference.values.tobytes()


@needs_fork
def test_split_load_csv_part_of_a_row_sends_file_to_scan(tmp_path,
                                                         monkeypatch):
    # the child announces and sends one cell more than its whole rows
    path = _write_lines(tmp_path / "data.csv", _grid_lines())
    _force_split(monkeypatch, 2)
    reference, scans = _scan_csv(path), []

    def send(fd, payload):
        view = bytes(memoryview(payload).cast("B"))
        if len(view) == 8:  # the count
            view = (int.from_bytes(view, "little") + 8).to_bytes(8, "little")
        else:
            view += bytes(8)
        _send(fd, view)

    monkeypatch.setattr("negcontrol._fork._send", send)
    monkeypatch.setattr("negcontrol.data._scan_csv",
                        lambda p: scans.append(p) or _scan_csv(p))
    data = load_csv(path)
    assert scans == [path]
    assert data.values.tobytes() == reference.values.tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_load_csv_pipe_parses_unforked_ranges_itself(tmp_path,
                                                    monkeypatch):
    # a piped body is held in memory and cut into ranges as a file's is;
    # with no process to spare, this process parses every range
    raw = "\n".join(_grid_lines()).encode() + b"\n"
    reference = _scan_csv(_write_lines(tmp_path / "data.csv", _grid_lines()))
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(raw,),
                              daemon=True)
    writer.start()
    _force_split(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    try:
        data = load_csv(path)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert data.values.tobytes() == reference.values.tobytes()


@needs_fork
@settings(deadline=None, max_examples=100)
@given(_csv_files())
def test_split_load_csv_matches_scan_reference(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("split") / "data.csv"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp, 4, chunk=1)
        assert _outcome(load_csv, path) == _outcome(_scan_csv, path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_load_csv_pipe_bad_cell_reports_position(tmp_path):
    # a pipe is read once, so the scan must read the bytes the parse read
    path = tmp_path / "fifo"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes,
                              args=(b"a,b\n1,x\n3,4\n",), daemon=True)
    writer.start()
    try:
        with pytest.raises(MissingValueError) as got:
            load_csv(path)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert (got.value.row, got.value.column) == (2, 2)


def _load_piped(path, raw: bytes):
    """``load_csv`` of ``raw`` written into the new FIFO ``path``."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(raw,),
                              daemon=True)
    writer.start()
    try:
        return load_csv(path)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()


def _load_in_memory(tmp_path, lines, source):
    """``load_csv`` of ``lines`` as a CR-only file or through a pipe: both
    bodies are held in memory."""
    if source == "cr":
        return load_csv(_write_lines(tmp_path / "cr.csv", lines, "\r"))
    return _load_piped(tmp_path / "fifo", ("\n".join(lines) + "\n").encode())


def _in_memory_ranges(lines):
    """The [start, stop) ranges load_csv cuts the in-memory body of
    ``lines`` into, as offsets from the start of the body."""
    body = io.BytesIO(("\n".join(lines[1:]) + "\n").encode())
    return [(a, a + n) for a, n in _line_ranges(body)]


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"),
                                reason="no os.mkfifo")


@needs_fork
@needs_fifo
@pytest.mark.parametrize("source", ["cr", "pipe"])
def test_in_memory_body_is_parsed_over_forked_ranges(tmp_path, monkeypatch,
                                                      source):
    # a CR-only or piped body is cut at line ends as a file is, and a
    # child parses its range from its copy of the bytes: the same bits
    # on one CPU and on two
    lines = _grid_lines()
    reference = _scan_csv(_write_lines(tmp_path / "data.csv", lines))
    monkeypatch.setattr("negcontrol.data._scan_csv", _no_scan)
    loaded = []
    for k in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            _force_split(mp, k)
            forked = _count_forks(mp)
            assert len(_in_memory_ranges(lines)) == k
            (tmp_path / str(k)).mkdir()
            loaded.append(_load_in_memory(tmp_path / str(k), lines, source))
            assert len(forked) == k - 1
    for data in loaded:
        assert data.variable_names == reference.variable_names
        assert data.values.tobytes() == reference.values.tobytes()


@needs_fork
@needs_fifo
@pytest.mark.parametrize("source", ["cr", "pipe"])
def test_in_memory_bad_cell_in_second_range_reports_scan_position(
        tmp_path, monkeypatch, source):
    lines = _grid_lines()
    _force_split(monkeypatch, 2)
    (_, cut), _ = _in_memory_ranges(lines)
    line = 3 * len(lines) // 4
    assert _line_offset(lines[1:], line - 1) >= cut  # in the second range
    cells = lines[line].split(",")
    lines[line] = ",".join([cells[0], "x", *cells[2:]])
    forked = _count_forks(monkeypatch)
    with pytest.raises(MissingValueError) as got:
        _load_in_memory(tmp_path, lines, source)
    assert len(forked) == 1
    assert (got.value.row, got.value.column) == (line + 1, 2)


# ---------------------------------------------------------------------------
# write_csv split into row ranges formatted by forked children
# ---------------------------------------------------------------------------


def _force_write_split(mp, k):
    """Cut every dataset into ``k`` row ranges, or one per row if fewer."""
    mp.setattr("negcontrol.data._FORMAT_CHUNK", 1)
    mp.setattr("negcontrol.data._workers", lambda: k)


def _count_forks(mp):
    """The pids of the children forked from here on.  A child sees the
    pids of the siblings forked before it, so ``len`` is its own index."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    mp.setattr(os, "fork", counting_fork)
    return forked


def _awkward_dataset(rows):
    """Floats of every magnitude, with -0.0, the smallest subnormal and
    +-max in the first and last rows, under header names csv must quote."""
    rng = np.random.default_rng(rows)
    values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(
        -300, 300, size=(rows, 3))
    values[0] = [-0.0, 5e-324, _MAX]
    values[-1, :2] = [-_MAX, 0.1 + 0.2]
    return Dataset(("x,1", 'say "y"', "z"), values)


def _reference_bytes(data, tmp_path):
    _reference_write_csv(data, tmp_path / "ref.csv")
    return (tmp_path / "ref.csv").read_bytes()


def _assert_no_leak(before):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_descriptors() == before


@needs_fork
@needs_proc
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("rows", ["k", 9], ids=["one-row-ranges", "9-rows"])
def test_split_write_csv_matches_reference(tmp_path, monkeypatch, k, rows):
    rows = k if rows == "k" else rows
    data = _awkward_dataset(rows)
    path = tmp_path / "data.csv"
    _force_write_split(monkeypatch, k)
    with open(path, "wb") as handle:
        ranges = _row_ranges(handle, data.values)
    assert len(ranges) == k and ranges[-1][1] == rows
    if rows == k:
        assert ranges[-1] == (k - 1, k)  # a last range of one row
    forked = _count_forks(monkeypatch)
    before = _open_descriptors()
    write_csv(data, path)
    assert len(forked) == k - 1
    _assert_no_leak(before)
    assert path.read_bytes() == _reference_bytes(data, tmp_path)


@needs_fork
@settings(deadline=None, max_examples=40)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.integers(1, 4),
)
def test_split_write_csv_matches_reference_any_shape(tmp_path_factory, values,
                                                     k):
    tmp_path = tmp_path_factory.mktemp("split-write")
    data = Dataset(tuple(f"v{j}" for j in range(values.shape[1])), values)
    with pytest.MonkeyPatch.context() as mp:
        _force_write_split(mp, k)
        write_csv(data, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == _reference_bytes(
        data, tmp_path)


@needs_fork
@needs_proc
def test_split_write_csv_formats_unforked_ranges_itself(tmp_path,
                                                        monkeypatch):
    data = _awkward_dataset(9)
    _force_write_split(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", _no_fork)
    before = _open_descriptors()
    write_csv(data, tmp_path / "data.csv")
    _assert_no_leak(before)
    assert (tmp_path / "data.csv").read_bytes() == _reference_bytes(
        data, tmp_path)


@needs_fork
@needs_proc
@pytest.mark.parametrize("failing", [0, 1, 2], ids=["child1", "child2",
                                                    "child3"])
@pytest.mark.parametrize("how", ["exit-3-after-sending", "exit-3-after-more",
                                 "short-payload"])
def test_split_write_csv_redoes_a_failed_child(tmp_path, monkeypatch,
                                               failing, how):
    # from the failed child's range on, the parent formats the rows itself
    data = _awkward_dataset(40)
    _force_write_split(monkeypatch, 4)
    with open(tmp_path / "data.csv", "wb") as handle:
        ranges = _row_ranges(handle, data.values)
    parent, formatted = os.getpid(), []

    def blocks(values, encoding):
        if os.getpid() == parent:
            formatted.append(values.tobytes())
        return _row_blocks(values, encoding)

    monkeypatch.setattr("negcontrol.data._row_blocks", blocks)
    forked = _count_forks(monkeypatch)
    if how.startswith("exit-3"):
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(
            3 if len(forked) == failing else code))
        if how == "exit-3-after-more":  # the file must be cut back
            monkeypatch.setattr(
                "negcontrol.data._format_rows",
                lambda *args: _format_rows(*args)
                + b"1,2,3\r\n" * 50 * (len(forked) == failing))
    else:
        def send(fd, payload):
            view = memoryview(payload).cast("B")
            if len(forked) == failing and len(view) > 8:  # not the count
                view = view[:len(view) // 2]
            _send(fd, view)

        monkeypatch.setattr("negcontrol._fork._send", send)
    before = _open_descriptors()
    write_csv(data, tmp_path / "data.csv")
    assert len(forked) == 3
    _assert_no_leak(before)
    assert formatted == [data.values[start:stop].tobytes()
                         for start, stop in ranges[:1] + ranges[failing + 1:]]
    assert (tmp_path / "data.csv").read_bytes() == _reference_bytes(
        data, tmp_path)


@needs_fork
@needs_proc
def test_split_write_csv_reaps_children_when_the_parent_fails(tmp_path,
                                                              monkeypatch):
    data = _awkward_dataset(40)
    _force_write_split(monkeypatch, 4)
    forked = _count_forks(monkeypatch)
    parent = os.getpid()

    def blocks(*args):
        if os.getpid() == parent:
            raise _ParentRangeError
        return _row_blocks(*args)

    monkeypatch.setattr("negcontrol.data._row_blocks", blocks)
    before = _open_descriptors()
    with pytest.raises(_ParentRangeError):
        write_csv(data, tmp_path / "data.csv")
    assert len(forked) == 3
    _assert_no_leak(before)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_write_csv_to_a_pipe_forks_nothing(tmp_path, monkeypatch):
    data = _awkward_dataset(9)
    path = tmp_path / "fifo"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_bytes()),
                              daemon=True)
    reader.start()
    _force_write_split(monkeypatch, 4)
    forked = _count_forks(monkeypatch)
    try:
        write_csv(data, path)
    finally:
        reader.join(timeout=30)
    assert not reader.is_alive()
    assert forked == []
    assert got == [_reference_bytes(data, tmp_path)]


@needs_fork
def test_split_write_csv_streams_child_bytes(tmp_path, monkeypatch):
    # the parent copies a child's bytes through one fixed chunk; holding
    # them whole would cost it a child's share of the file
    data = Dataset(("a", "b", "c", "d"),
                   np.random.default_rng(1).normal(size=(40_000, 4)))
    _force_write_split(monkeypatch, 2)
    # small blocks keep the parent's own formatting far below that share
    monkeypatch.setattr("negcontrol.data._WRITE_BLOCK", 256)
    path = tmp_path / "data.csv"
    tracemalloc.start()
    try:
        write_csv(data, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    child_share = path.stat().st_size // 2
    assert child_share > 1_000_000
    assert peak < child_share / 4


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------


def test_dataset_duplicate_names():
    with pytest.raises(ValueError):
        Dataset(("a", "a"), np.zeros((3, 2)))


def test_dataset_name_count_mismatch():
    with pytest.raises(ValueError):
        Dataset(("a",), np.zeros((3, 2)))


def test_dataset_rejects_nan():
    values = np.zeros((3, 2))
    values[1, 0] = np.nan
    with pytest.raises(ValueError):
        Dataset(("a", "b"), values)


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        Dataset(("a", "b"), np.zeros((0, 2)))


def test_dataset_single_row_allowed():
    data = Dataset(("a", "b"), np.array([[1.0, 2.0]]))
    assert data.n == 1


def test_dataset_values_read_only(table_dataset):
    with pytest.raises(ValueError):
        table_dataset.values[0, 0] = 99.0


def test_dataset_copies_a_callers_array():
    values = TABLE.copy()
    data = Dataset(NAMES, values)
    assert not np.shares_memory(data.values, values)
    assert values.flags.writeable
    values[0, 0] = 99.0
    assert data.values[0, 0] == TABLE[0, 0]


@pytest.mark.parametrize("make", [lambda: Dataset(NAMES, TABLE),
                                  lambda: covariance(Dataset(NAMES, TABLE)),
                                  lambda: CovMatrix(NAMES, COV_ROWS)],
                         ids=["Dataset", "covariance", "CovMatrix"])
def test_equality_is_identity_and_hash_works(make):
    # comparing the array fields would raise on their ambiguous truth value
    one, other = make(), make()
    assert one == one and one != other
    assert len({one, other, one}) == 2
    assert hash(one) == hash(one)


@pytest.mark.parametrize("k", [1, pytest.param(2, marks=needs_fork)])
def test_load_csv_keeps_the_array_it_parsed(tmp_path, monkeypatch, k):
    # the rows are filled into one array, which the dataset keeps uncopied
    path = _write_lines(tmp_path / "data.csv", _grid_lines())
    _force_split(monkeypatch, k)
    parsed = []

    def parse_body(*args):
        parsed.append(real_parse_body(*args))
        return parsed[-1]

    real_parse_body = data_module._parse_body
    monkeypatch.setattr("negcontrol.data._parse_body", parse_body)
    data = load_csv(path)
    assert data.values is parsed[0]
    assert data.values.flags.owndata and not data.values.flags.writeable
    assert data.values.tobytes() == _scan_csv(path).values.tobytes()


def test_dataset_column_lookup(table_dataset):
    np.testing.assert_array_equal(table_dataset.column("c"), TABLE[:, 2])
    with pytest.raises(UnknownVariableError):
        table_dataset.column("zz")


def test_centred_statistic_is_cached_and_read_only(table_dataset):
    # every fit reads this one copy, so no caller may write to it
    xc, means, gram = table_dataset._centred
    assert table_dataset._centred[0] is xc
    for array in (xc, means, gram):
        with pytest.raises(ValueError):
            array[0] = 0.0
    np.testing.assert_allclose(means, TABLE.mean(axis=0), rtol=1e-15)
    np.testing.assert_allclose(xc, TABLE - TABLE.mean(axis=0), atol=1e-15)
    np.testing.assert_allclose(gram / 4, COV_ROWS, atol=1e-14)


# ---------------------------------------------------------------------------
# covariance / CovMatrix / sub_determinant
# ---------------------------------------------------------------------------


def test_covariance_matches_hand_computation(table_dataset):
    cov = covariance(table_dataset)
    assert cov.variable_index == NAMES
    np.testing.assert_allclose(cov.entries, COV_ROWS, rtol=0, atol=1e-14)


def test_covariance_equals_numpy_cov():
    rng = np.random.default_rng(11)
    values = rng.normal(size=(200, 3))
    data = Dataset(("x", "y", "z"), values)
    cov = covariance(data)
    np.testing.assert_allclose(cov.entries, np.cov(values, rowvar=False), atol=1e-12)


def test_covariance_exactly_symmetric():
    rng = np.random.default_rng(12)
    data = Dataset(("x", "y", "z"), rng.normal(size=(50, 3)))
    mat = covariance(data).entries
    np.testing.assert_array_equal(mat, mat.T)


def test_covariance_invariant_under_row_permutation():
    rng = np.random.default_rng(13)
    values = rng.normal(size=(80, 3))
    base = covariance(Dataset(("x", "y", "z"), values)).entries
    shuffled = values[rng.permutation(80)]
    permuted = covariance(Dataset(("x", "y", "z"), shuffled)).entries
    np.testing.assert_allclose(permuted, base, atol=1e-12)


def test_covariance_requires_two_rows():
    data = Dataset(("a", "b"), np.array([[1.0, 2.0]]))
    with pytest.raises(TooFewSamplesError):
        covariance(data)


def test_cov_value_lookup(table_dataset):
    cov = covariance(table_dataset)
    assert cov.value("a", "c") == COV_ROWS[0][2]
    assert cov.value("c", "a") == COV_ROWS[0][2]
    with pytest.raises(UnknownVariableError):
        cov.value("a", "q")


def test_sub_determinant_known_matrix():
    # Covariance entries 1..16 laid out row-major; the (v1,v2)x(v3,v4) minor
    # is [[3, 4], [7, 8]] with determinant -4.
    names = ("v1", "v2", "v3", "v4")
    mat = np.arange(1.0, 17.0).reshape(4, 4)
    cov = CovMatrix(names, mat)
    assert sub_determinant(cov, ("v1", "v2"), ("v3", "v4")) == -4.0


def test_sub_determinant_row_swap_flips_sign(table_dataset):
    cov = covariance(table_dataset)
    d1 = sub_determinant(cov, ("a", "b"), ("c", "d"))
    d2 = sub_determinant(cov, ("b", "a"), ("c", "d"))
    assert d1 == -d2


def test_square_determinant_matches_manual(table_dataset):
    cov = covariance(table_dataset)
    want = cov.value("a", "a") * cov.value("b", "b") - cov.value("a", "b") ** 2
    assert cov.square_determinant(("a", "b")) == pytest.approx(want, abs=1e-12)
