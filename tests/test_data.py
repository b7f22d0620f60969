"""Tests for CSV loading, Dataset validation, and covariance helpers."""

from __future__ import annotations

import csv
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from negcontrol.data import (
    CovMatrix,
    Dataset,
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


def test_dataset_column_lookup(table_dataset):
    np.testing.assert_array_equal(table_dataset.column("c"), TABLE[:, 2])
    got = table_dataset.columns(("d", "a"))
    np.testing.assert_array_equal(got, TABLE[:, [3, 0]])
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
