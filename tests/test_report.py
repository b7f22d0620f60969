"""Tests for the columnar search report: its direct JSON writer, the
verdict objects it builds on demand, and its equality."""

from __future__ import annotations

import dataclasses
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negcontrol.data import covariance, sub_determinant
from negcontrol.errors import DegenerateVarianceError
from negcontrol.pipeline import DanceResult
from negcontrol.search import (
    DnctVerdict,
    FindNcReport,
    dnct_validate,
    find_nc,
    triple_specs,
)
from negcontrol.tetrad import TetradResult, wishart_test

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
    vanishes = draw(st.sampled_from(["none", "all", "mixed"]))
    if vanishes == "mixed":
        vanishes = np.array(draw(st.lists(
            st.booleans(), min_size=p.size, max_size=p.size))).reshape(shape)
    else:
        vanishes = np.full(shape, vanishes == "all")
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
        vanishes=vanishes,
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


# ---------------------------------------------------------------------------
# custom test functions: the same arrays, the old objects
# ---------------------------------------------------------------------------


def _old_verdicts(data, candidates, treatment, outcome, alpha, test_fn):
    """The verdict objects as the search built them one by one, before it
    kept columns."""
    cov = covariance(data)
    verdicts = []
    for triple in combinations(sorted(candidates), 3):
        results = []
        for spec in triple_specs(triple, treatment, outcome):
            try:
                results.append(test_fn(cov, spec, data.n, alpha))
            except DegenerateVarianceError:
                d_hat = sub_determinant(cov, spec.left, spec.right)
                results.append(TetradResult(
                    spec=spec, d_hat=d_hat, sigma_hat=0.0,
                    w_stat=math.inf if d_hat >= 0 else -math.inf,
                    p_value=0.0, alpha=alpha, vanishes=False,
                ))
        verdicts.append(DnctVerdict(
            candidate=triple,
            passed=all(r.vanishes for r in results),
            sub_results=tuple(results),
        ))
    return tuple(verdicts)


def _inverted_test(cov, spec, n, alpha):
    # vanishes exactly where p > alpha does not
    result = wishart_test(cov, spec, n, alpha)
    return dataclasses.replace(result, vanishes=not result.vanishes)


def _degenerate_with_o(cov, spec, n, alpha):
    # every sub-test against the outcome is declared degenerate
    if "O" in spec.right:
        raise DegenerateVarianceError(f"declared degenerate: {spec}")
    return wishart_test(cov, spec, n, alpha)


@pytest.mark.parametrize("test_fn", [_inverted_test, _degenerate_with_o])
def test_custom_test_fn_verdicts_match_old_objects(simple_data, test_fn):
    report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O", alpha=0.01,
                     test_fn=test_fn)
    old = _old_verdicts(simple_data, SIMPLE_CANDIDATES, "T", "O", 0.01,
                        test_fn)
    assert report.all_verdicts == old
    assert report.dncts == tuple(v.candidate for v in old if v.passed)
    assert report.to_json() == _reference(report.to_json_dict())
    cov = covariance(simple_data)
    for verdict in old:
        assert dnct_validate(cov, simple_data.n, verdict.candidate[::-1],
                             "T", "O", 0.01, test_fn=test_fn) == verdict


def test_custom_vanishes_rule_is_kept(simple_data):
    report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O", alpha=0.01,
                     test_fn=_inverted_test)
    assert np.array_equal(report.vanishes, report.p <= 0.01)
    degenerate = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O",
                         alpha=0.01, test_fn=_degenerate_with_o)
    assert degenerate.dncts == ()
    assert np.all(degenerate.p[:, 3:] == 0.0)
    assert np.all(degenerate.sigma_hat[:, 3:] == 0.0)
    assert np.all(np.isinf(degenerate.w[:, 3:]))


def _numpy_scalar_test(cov, spec, n, alpha):
    result = wishart_test(cov, spec, n, alpha)
    return dataclasses.replace(
        result, d_hat=np.float64(result.d_hat),
        sigma_hat=np.float64(result.sigma_hat),
        w_stat=np.float64(result.w_stat), p_value=np.float64(result.p_value),
        vanishes=np.bool_(result.vanishes),
    )


def _plain_test(cov, spec, n, alpha):
    return wishart_test(cov, spec, n, alpha)


@pytest.mark.parametrize("alpha, test_fn, reference_fn", [
    (np.float64(0.01), wishart_test, wishart_test),
    (0.01, _numpy_scalar_test, _plain_test),
])
def test_numpy_scalars_print_as_json_numbers(simple_data, alpha, test_fn,
                                             reference_fn):
    report = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O", alpha=alpha,
                     test_fn=test_fn)
    plain = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O", alpha=0.01,
                    test_fn=reference_fn)
    assert type(report.alpha_used) is float
    text = report.to_json()
    assert "np." not in text
    assert text == _reference(report.to_json_dict())
    assert text == plain.to_json()
    assert report == plain


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
