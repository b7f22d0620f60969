"""Tests for the columnar search report: its streamed JSON writer, the
verdict objects it builds on demand, and its equality."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negcontrol import _fork, _numparse, search
from negcontrol.pipeline import DanceResult
from negcontrol.search import FindNcReport, find_nc
from test_data import (
    _assert_no_leak,
    _count_forks,
    _open_descriptors,
    needs_fork,
    needs_proc,
)

SIMPLE_CANDIDATES = ("Z1", "Z2", "Z3", "Z4")


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# the writer against json.dumps
# ---------------------------------------------------------------------------

# a quote, a backslash, control characters, non-ASCII (one character outside
# the basic plane) and the characters the writer's templates are made of
_NAMES = st.text(
    alphabet=st.sampled_from(
        ["a", "Z", "1", '"', "\\", "\x00", "\x07", "\n", "é", "☃",
         "\U0001f600", "{", "}", "%", "[", ","]),
    min_size=1,
    max_size=4,
)
_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
    math.nan, 1.0, 0.1, 1 / 3,
])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=True))


@st.composite
def _reports(draw):
    names = draw(st.lists(_NAMES, min_size=5, max_size=7, unique=True))
    treatment, outcome, *candidates = names
    candidates = sorted(candidates)
    triples = np.array(list(combinations(range(len(candidates)), 3)))
    shape = (len(triples), 6)

    def column(elements):
        values = draw(st.lists(elements, min_size=6 * len(triples),
                               max_size=6 * len(triples)))
        return np.array(values, dtype=float).reshape(shape)

    p, w = column(_FLOATS), column(_FLOATS)
    # some sub-tests inapplicable: w = +-inf, p = 0
    inapplicable = np.array(draw(st.lists(
        st.booleans(), min_size=p.size, max_size=p.size))).reshape(shape)
    p[inapplicable] = 0.0
    w[inapplicable] = np.where(np.arange(p.size).reshape(shape) % 2, np.inf,
                               -np.inf)[inapplicable]
    return FindNcReport(
        treatment=treatment,
        outcome=outcome,
        alpha_used=draw(st.floats(min_value=5e-324, max_value=0.5)),
        candidates=candidates,
        triples=triples,
        d_hat=column(_FLOATS),
        sigma_hat=column(_FLOATS),
        w=w,
        p=p,
    )


@settings(max_examples=150, deadline=None)
@given(_reports())
def test_to_json_matches_json_dumps(report):
    assert report.to_json() == _reference(report.to_json_dict())
    # nested one level down, after the estimate, in the dance document
    nested = DanceResult(report=report, estimate=None)
    assert nested.to_json() == _reference(nested.to_json_dict())


def test_to_json_empty_and_all_passed(simple_data):
    # every triple passes at a tiny alpha, none at an alpha near one
    for alpha, expected in ((1e-300, 4), (0.9999, 0)):
        report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O", alpha=alpha)
        assert len(report.dncts) == expected
        assert report.to_json() == _reference(report.to_json_dict())


def test_numpy_scalars_print_as_json_numbers(simple_data):
    report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O",
                     alpha=np.float64(0.01))
    plain = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O", alpha=0.01)
    assert type(report.alpha_used) is float
    text = report.to_json()
    assert "np." not in text
    assert text == _reference(report.to_json_dict())
    assert text == plain.to_json()
    assert report == plain


# ---------------------------------------------------------------------------
# the streamed writer: block boundaries and memory
# ---------------------------------------------------------------------------

_BLOCKS = (1, 2, 3, 7)


def _assert_matches_json_dumps(report):
    assert report.to_json() == _reference(report.to_json_dict())
    nested = DanceResult(report=report, estimate=None)
    assert nested.to_json() == _reference(nested.to_json_dict())


@pytest.mark.parametrize("block", _BLOCKS)
@settings(max_examples=25, deadline=None)
@given(report=_reports())
def test_to_json_matches_json_dumps_at_every_block_size(block, report):
    with mock.patch.object(search, "_JSON_BLOCK", block):
        _assert_matches_json_dumps(report)


def _random_report(k: int, seed: int = 0) -> FindNcReport:
    """A hand-built report over ``k`` candidates with non-ASCII names, in
    which most triples pass and some sub-tests are inapplicable."""
    rng = np.random.default_rng(seed)
    names = [f"Z{i}é" for i in range(k)]
    triples = np.array(list(combinations(range(k), 3)), dtype=np.intp)
    shape = (len(triples), 6)
    p, w = rng.random(shape), rng.normal(size=shape)
    inapplicable = rng.random(shape) < 0.05
    p[inapplicable], w[inapplicable] = 0.0, np.inf
    return FindNcReport("T", "O", 0.01, names, triples,
                        rng.normal(size=shape), rng.random(shape), w, p)


def test_to_json_formats_p_and_w_of_a_block_in_one_call():
    # format_lines costs about as much a call as for a thousand cells
    report = _random_report(10)  # 120 triples, one block
    p, w = report.p.copy(), report.w.copy()
    p[0, 0] = np.inf
    w[1, :2] = [np.nan, -np.inf]
    report = dataclasses.replace(report, p=p, w=w)
    format_lines, calls = _numparse.format_lines, []

    def counting(block):
        calls.append(block.shape)
        return format_lines(block)

    with mock.patch.object(_numparse, "format_lines", counting):
        _assert_matches_json_dumps(report)
    per_call = [(1, 2 * 120 * 6)] if _numparse.exact_division("ascii") else []
    assert calls == per_call * 2  # the report, then the report nested
    assert '"p": Infinity' in report.to_json()
    assert '"w": null' in report.to_json()


@pytest.mark.parametrize("block", [*_BLOCKS, search._JSON_BLOCK])
def test_to_json_when_blocks_do_not_divide_the_triples(block):
    report = _random_report(6)  # 20 triples
    assert 0 < report.passed.sum() < 20
    with mock.patch.object(search, "_JSON_BLOCK", block):
        _assert_matches_json_dumps(report)


@pytest.mark.parametrize("block", [*_BLOCKS, search._JSON_BLOCK])
def test_to_json_without_triples(block):
    empty = np.empty((0, 6))
    report = FindNcReport("T", "O", 0.5, ("A", "B"),
                          np.empty((0, 3), dtype=np.intp),
                          empty, empty, empty, empty)
    with mock.patch.object(search, "_JSON_BLOCK", block):
        _assert_matches_json_dumps(report)
        doc = json.loads(report.to_json())
    assert doc["dncts"] == [] and doc["verdicts"] == []
    assert '"dncts": [],' in report.to_json()


def _streamed_peak(report) -> tuple[int, int, int]:
    """Traced peak memory of streaming ``report`` into a sink that keeps
    only the lengths it receives; also the longest piece and the total."""
    lengths = []
    tracemalloc.start()
    try:
        report._write_json(lambda text: lengths.append(len(text)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, max(lengths), sum(lengths)


def test_streamed_memory_does_not_grow_with_the_report():
    small, large = _random_report(26), _random_report(34)  # 2 600, 5 984
    assert len(small.triples) >= 8 * search._JSON_BLOCK
    small_peak, block, small_total = _streamed_peak(small)
    large_peak, _, large_total = _streamed_peak(large)
    assert large_total > 2 * small_total
    for peak, total in ((small_peak, small_total), (large_peak, large_total)):
        assert peak < 4 * block
        assert peak < total / 2
    assert large_peak < 1.25 * small_peak


# ---------------------------------------------------------------------------
# the report is written in this process, whatever the CPU count
# ---------------------------------------------------------------------------


def split_report(mp, k, block):
    """Write every report in blocks of ``block`` triples on ``k`` CPUs."""
    mp.setattr(search, "_JSON_BLOCK", block)
    mp.setattr(_fork, "_workers", lambda: k)


def _all_failing(report):
    return dataclasses.replace(report, p=np.zeros_like(report.p))


def _no_triples():
    empty = np.empty((0, 6))
    return FindNcReport("T", "O", 0.5, ("A", "B", "C"),
                        np.empty((0, 3), dtype=np.intp),
                        empty, empty, empty, empty)


_SPLIT_REPORTS = {
    "20-triples": lambda: _random_report(6),
    "all-failing": lambda: _all_failing(_random_report(6)),
    "no-triples": _no_triples,
}


@needs_fork
@needs_proc
@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("which", sorted(_SPLIT_REPORTS))
def test_split_report_matches_json_dumps(monkeypatch, which, k, block):
    # a report of up to 20 blocks on up to 4 CPUs forks nothing
    report = _SPLIT_REPORTS[which]()
    split_report(monkeypatch, k, block)
    forked = _count_forks(monkeypatch)
    before = _open_descriptors()
    _assert_matches_json_dumps(report)
    assert forked == []
    _assert_no_leak(before)


# ---------------------------------------------------------------------------
# equality
# ---------------------------------------------------------------------------


def test_report_equality_is_bitwise(simple_data):
    report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O")
    same = dataclasses.replace(report)
    assert same == report and hash(same) == hash(report)

    p = report.p.copy()
    p.view(np.int64)[2, 4] ^= 1  # one bit of one p
    assert dataclasses.replace(report, p=p) != report

    # NaN equals NaN, whatever its payload
    d_hat = report.d_hat.copy()
    d_hat[0, 0] = np.nan
    other = report.d_hat.copy()
    other.view(np.int64)[0, 0] = np.float64(np.nan).view(np.int64) | 1
    assert np.isnan(other[0, 0])
    assert (dataclasses.replace(report, d_hat=d_hat)
            == dataclasses.replace(report, d_hat=other))

    assert dataclasses.replace(report, alpha_used=0.5) != report
    assert dataclasses.replace(report, outcome="Q") != report


def test_report_columns_are_read_only(simple_data):
    report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O")
    with pytest.raises(ValueError):
        report.p[0, 0] = 1.0
    assert report.min_p.tolist() == [v.min_p for v in report.all_verdicts]
    assert report.passed.tolist() == [v.passed for v in report.all_verdicts]
