"""Estimates under shifted and rescaled columns.

In theory a shift of any column leaves the effect estimate and its standard
error unchanged, and rescaling T by s_T or O by s_O multiplies both by
s_O / s_T.  Every estimator solves from centred moments and checks the
correlation-scale system, so the code must follow that theory, and must
reject a singular pair whatever the units.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from negcontrol.aggregate import enumerate_pairs, weighted_estimate
from negcontrol.data import Dataset, covariance
from negcontrol.errors import (
    SingularDenominatorError,
    SingularMomentMatrixError,
)
from negcontrol.estimate import NcPair, closed_form_ate, gmm_linear_ate
from negcontrol.pipeline import dance
from negcontrol.search import find_nc
from negcontrol.simulate import ground_truth_dncts
from test_study import _naive_fit

PAIR = NcPair("Z1", "Z3")
ROLES = ("T", "O", "Z1", "Z2", "Z3", "Z4", "K")


def _transformed(data, name, shift=0.0, exponent=0):
    """Column ``name`` shifted by ``shift`` standard deviations (units of 1
    for a constant column), then scaled by 10**exponent."""
    values = data.values.copy()
    col = data.index_of(name)
    sd = float(values[:, col].std()) or 1.0
    values[:, col] = (values[:, col] + shift * sd) * 10.0**exponent
    return Dataset(data.variable_names, values)


def _theory(name, exponent):
    """Factor by which the estimate and its SE must move."""
    return {"T": 10.0**-exponent, "O": 10.0**exponent}.get(name, 1.0)


@pytest.fixture(scope="module")
def with_constant(simple_data):
    # K is constant, so every pair that holds it is singular
    return Dataset(
        simple_data.variable_names + ("K",),
        np.column_stack([simple_data.values, np.full(simple_data.n, 0.1)]),
    )


def _estimates(data, dncts):
    """Every estimate and SE that must follow the theory."""
    table = enumerate_pairs(dncts)
    fit = gmm_linear_ate(data, PAIR, "T", "O", ("Z2",))
    cov = covariance(data)
    closed = [
        closed_form_ate(cov, PAIR, "T", "O", formula=formula).delta_hat
        for formula in ("primary", "alternate")
    ]
    sandwich = weighted_estimate(data, table, "T", "O")
    boot = weighted_estimate(
        data, table, "T", "O", ci_method="bootstrap", bootstrap_draws=5,
        seed=1,
    )
    naive_delta, naive_se, _, _ = _naive_fit(data, "T", "O", ("Z2",))
    return np.array([
        fit.delta_hat, fit.se, *closed, sandwich.delta_hat, sandwich.se,
        boot.delta_hat, boot.se, naive_delta, naive_se,
    ])


@pytest.fixture(scope="module")
def base_estimates(simple_spec, with_constant):
    return _estimates(with_constant, ground_truth_dncts(simple_spec)[0])


def _singular(data):
    """Verdict of each pair fit that holds the constant column."""
    verdicts = []
    for pair in (NcPair("Z1", "K"), NcPair("K", "Z3")):
        try:
            gmm_linear_ate(data, pair, "T", "O")
        except SingularMomentMatrixError:
            verdicts.append(True)
        else:
            verdicts.append(False)
    return verdicts


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    name=st.sampled_from(ROLES),
    shift=st.floats(-1e6, 1e6),
    exponent=st.integers(-8, 8),
)
def test_estimates_follow_shift_and_scale(
    simple_spec, with_constant, base_estimates, name, shift, exponent
):
    assert _singular(with_constant) == [True, True]
    moved = _transformed(with_constant, name, shift, exponent)
    np.testing.assert_allclose(
        _estimates(moved, ground_truth_dncts(simple_spec)[0]),
        base_estimates * _theory(name, exponent),
        rtol=1e-8,
    )
    assert _singular(moved) == [True, True]


# each of these raised SingularMomentMatrixError before the solve was centred
@pytest.mark.parametrize("ci_method", ["sandwich", "bootstrap"])
@pytest.mark.parametrize(
    "name, shift, scale",
    [("T", 1e3, 1.0), ("T", 0.0, 1e6), ("T", 0.0, 1e-6), ("Z1", 0.0, 1e30)],
)
def test_dance_follows_shifted_or_rescaled_column(
    simple_data, name, shift, scale, ci_method
):
    values = simple_data.values.copy()
    col = simple_data.index_of(name)
    values[:, col] = values[:, col] * scale + shift
    moved = Dataset(simple_data.variable_names, values)
    kwargs = dict(ci_method=ci_method, bootstrap_draws=20, seed=3)
    base = dance(simple_data, "T", "O", **kwargs)
    result = dance(moved, "T", "O", **kwargs)
    assert result.report.dncts == base.report.dncts
    factor = 1.0 / scale if name == "T" else 1.0
    assert result.estimate.delta_hat == pytest.approx(
        base.estimate.delta_hat * factor, rel=1e-8
    )
    assert result.estimate.se == pytest.approx(
        base.estimate.se * factor, rel=1e-8
    )


@pytest.mark.parametrize("formula", ["primary", "alternate"])
def test_closed_form_tiny_control_scale(simple_data, formula):
    # Z1 x 1e-20 put the old ratio's denominator below its fixed threshold
    moved = _transformed(simple_data, "Z1", exponent=-20)
    base = closed_form_ate(covariance(simple_data), PAIR, "T", "O", formula)
    est = closed_form_ate(covariance(moved), PAIR, "T", "O", formula)
    assert est.delta_hat == pytest.approx(base.delta_hat, rel=1e-10)


@pytest.fixture(scope="module")
def base_dncts(with_constant):
    return find_nc(with_constant, ROLES[2:], "T", "O").dncts


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(ROLES), shift=st.floats(-1e6, 1e6))
def test_search_follows_shift(with_constant, base_dncts, name, shift):
    moved = _transformed(with_constant, name, shift)
    assert find_nc(moved, ROLES[2:], "T", "O").dncts == base_dncts


# one-pass centring (np.cov) left the constant K a variance near 1e-27, so
# the search passed six triples holding K and the fit then rejected them
def test_search_marks_constant_column_inapplicable(with_constant):
    report = find_nc(with_constant, ROLES[2:], "T", "O")
    holds_k = (report.triples == report.candidates.index("K")).any(axis=1)
    assert holds_k.sum() == 6
    assert not report.sigma_hat[holds_k].any()
    assert not report.p[holds_k].any()
    assert all("K" not in triple for triple in report.dncts)


def test_dance_ignores_constant_column(simple_data, with_constant):
    base = dance(simple_data, "T", "O")
    result = dance(with_constant, "T", "O")
    assert result.report.dncts == base.report.dncts
    assert result.estimate.delta_hat == pytest.approx(
        base.estimate.delta_hat, rel=1e-12
    )
    assert result.estimate.se == pytest.approx(base.estimate.se, rel=1e-12)


def test_closed_form_rejects_constant_control_beside_shifted_treatment(
    with_constant,
):
    moved = _transformed(with_constant, "T", shift=1e6)
    with pytest.raises(SingularDenominatorError):
        closed_form_ate(covariance(moved), NcPair("Z1", "K"), "T", "O")
