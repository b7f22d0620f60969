"""Tests for the closed-form and moment-based treatment-effect estimators."""

from __future__ import annotations

import numpy as np
import pytest

from negcontrol.data import CovMatrix, Dataset, covariance
from negcontrol.errors import (
    SingularDenominatorError,
    SingularMomentMatrixError,
)
from negcontrol.estimate import (
    DELTA_INDEX,
    NcPair,
    closed_form_ate,
    design_matrices,
    gmm_linear_ate,
    mean_moments,
    moment_jacobian,
    per_observation_moments,
    sandwich_cov,
    solve_linear_moments,
)
from negcontrol.simulate import generate, population_covariance


def test_nc_pair_validation():
    pair = NcPair("Z1", "Z3")
    assert pair.swapped() == NcPair("Z3", "Z1")
    with pytest.raises(ValueError):
        NcPair("Z1", "Z1")


def test_closed_form_rejects_unknown_formula(simple_spec):
    names, mat = population_covariance(simple_spec)
    cov = CovMatrix(tuple(names), mat)
    with pytest.raises(ValueError):
        closed_form_ate(cov, NcPair("Z1", "Z3"), "T", "O", formula="other")


def test_closed_form_exact_on_population_covariance(simple_spec):
    # On the population covariance of the benchmark graph, every pair whose
    # members are disconnected given the confounder returns the true effect
    # exactly, under both formula variants and both orientations.
    names, mat = population_covariance(simple_spec)
    cov = CovMatrix(tuple(names), mat)
    true_delta = simple_spec.edge_coeff("T", "O")
    for z, w in [("Z1", "Z3"), ("Z1", "Z4"), ("Z2", "Z3"), ("Z3", "Z4")]:
        for pair in (NcPair(z, w), NcPair(w, z)):
            for formula in ("primary", "alternate"):
                est = closed_form_ate(cov, pair, "T", "O", formula=formula)
                assert est.delta_hat == pytest.approx(true_delta, abs=1e-12)
                assert est.method == "closed_form"
                assert est.se is None


def test_closed_form_biased_on_connected_pair(simple_spec):
    # Z1 -> Z2 is a real edge, so using that pair as controls must not
    # return the true effect even in population.
    names, mat = population_covariance(simple_spec)
    cov = CovMatrix(tuple(names), mat)
    true_delta = simple_spec.edge_coeff("T", "O")
    est = closed_form_ate(cov, NcPair("Z1", "Z2"), "T", "O")
    assert abs(est.delta_hat - true_delta) > 0.01


def test_closed_form_singular_denominator():
    # cov(Z,W) = cov(T,W) = 0 zeroes the denominator exactly.
    names = ("T", "O", "Z", "W")
    mat = np.eye(4)
    mat[0, 1] = mat[1, 0] = 0.5  # cov(T, O)
    cov = CovMatrix(names, mat)
    with pytest.raises(SingularDenominatorError):
        closed_form_ate(cov, NcPair("Z", "W"), "T", "O")


def test_design_matrices_layout(simple_data):
    pair = NcPair("Z1", "Z3")
    q, m, y = design_matrices(simple_data, pair, "T", "O")
    n = simple_data.n
    assert q.shape == (n, 3) and m.shape == (n, 3) and y.shape == (n,)
    np.testing.assert_array_equal(q[:, 0], np.ones(n))
    np.testing.assert_array_equal(q[:, 1], simple_data.column("Z1"))
    np.testing.assert_array_equal(q[:, 2], simple_data.column("T"))
    np.testing.assert_array_equal(m[:, 1], simple_data.column("Z3"))
    np.testing.assert_array_equal(y, simple_data.column("O"))


def test_design_matrices_require_distinct_roles(simple_data):
    with pytest.raises(ValueError):
        design_matrices(simple_data, NcPair("Z1", "T"), "T", "O")
    with pytest.raises(ValueError):
        design_matrices(simple_data, NcPair("Z1", "Z3"), "T", "O", ("Z1",))


def test_gmm_matches_closed_form(simple_data):
    # The exactly identified moment system inverts to the covariance-ratio
    # formula, so without covariates the two estimates agree to 1e-8.
    cov = covariance(simple_data)
    for z, w in [("Z1", "Z3"), ("Z3", "Z1"), ("Z2", "Z4"), ("Z4", "Z3")]:
        pair = NcPair(z, w)
        closed = closed_form_ate(cov, pair, "T", "O")
        gmm = gmm_linear_ate(simple_data, pair, "T", "O")
        assert gmm.delta_hat == pytest.approx(closed.delta_hat, abs=1e-8)
        assert gmm.method == "gmm_linear"
        assert gmm.params.delta == gmm.delta_hat
        assert gmm.se is not None and gmm.se > 0


def test_gmm_ci_is_plus_minus_196_se(simple_data):
    est = gmm_linear_ate(simple_data, NcPair("Z1", "Z3"), "T", "O")
    assert est.ci_low == pytest.approx(est.delta_hat - 1.96 * est.se, abs=1e-12)
    assert est.ci_high == pytest.approx(est.delta_hat + 1.96 * est.se, abs=1e-12)


def test_gmm_moments_vanish_at_solution(simple_data):
    pair = NcPair("Z2", "Z3")
    q, m, y = design_matrices(simple_data, pair, "T", "O")
    theta, _ = solve_linear_moments(q, m, y, pair=pair)
    np.testing.assert_allclose(mean_moments(q, m, y, theta), 0.0, atol=1e-10)


def test_moment_jacobian_matches_finite_differences(simple_data):
    pair = NcPair("Z1", "Z4")
    q, m, y = design_matrices(simple_data, pair, "T", "O")
    theta, a_n = solve_linear_moments(q, m, y, pair=pair)
    analytic = moment_jacobian(q, m)
    np.testing.assert_allclose(analytic, -a_n, atol=1e-14)
    h = 1e-6
    for j in range(len(theta)):
        bump = theta.copy()
        bump[j] += h
        column = (mean_moments(q, m, y, bump) - mean_moments(q, m, y, theta)) / h
        scale = np.maximum(np.abs(analytic[:, j]), 1.0)
        np.testing.assert_allclose(column / scale, analytic[:, j] / scale, atol=1e-6)


def test_per_observation_moments_average_to_mean(simple_data):
    pair = NcPair("Z1", "Z3")
    q, m, y = design_matrices(simple_data, pair, "T", "O")
    theta, _ = solve_linear_moments(q, m, y, pair=pair)
    g = per_observation_moments(q, m, y, theta)
    assert g.shape == (simple_data.n, 3)
    np.testing.assert_allclose(g.mean(axis=0), mean_moments(q, m, y, theta), atol=1e-12)


def test_sandwich_sign_invariant(simple_data):
    pair = NcPair("Z1", "Z3")
    q, m, y = design_matrices(simple_data, pair, "T", "O")
    theta, a_n = solve_linear_moments(q, m, y, pair=pair)
    g = per_observation_moments(q, m, y, theta)
    np.testing.assert_allclose(
        sandwich_cov(a_n, g), sandwich_cov(-a_n, g), atol=1e-18
    )


def test_solve_linear_moments_singular():
    rng = np.random.default_rng(51)
    n = 200
    t = rng.normal(size=n)
    # A constant control column duplicates the intercept, so the instrument
    # matrix loses rank and the cross-product matrix cannot be inverted.
    data = Dataset(
        ("T", "O", "Z", "W"),
        np.column_stack(
            [t, rng.normal(size=n), np.full(n, 3.0), rng.normal(size=n)]
        ),
    )
    q, m, y = design_matrices(data, NcPair("Z", "W"), "T", "O")
    with pytest.raises(SingularMomentMatrixError):
        solve_linear_moments(q, m, y, pair=NcPair("Z", "W"))


def test_gmm_estimates_true_effect(simple_spec, simple_data):
    true_delta = simple_spec.edge_coeff("T", "O")
    est = gmm_linear_ate(simple_data, NcPair("Z1", "Z3"), "T", "O")
    assert est.delta_hat == pytest.approx(true_delta, abs=4 * est.se)


def test_gmm_with_covariates_recovers_added_effect(simple_spec, simple_data):
    # Append an independent observed covariate X with a known effect on the
    # outcome; adjusting for it must recover both the treatment effect and
    # the X coefficient.
    rng = np.random.default_rng(52)
    n = simple_data.n
    x = rng.normal(size=n)
    values = np.column_stack([simple_data.values, x])
    values[:, simple_data.index_of("O")] = simple_data.column("O") + 0.8 * x
    data = Dataset(simple_data.variable_names + ("X",), values)
    est = gmm_linear_ate(data, NcPair("Z1", "Z3"), "T", "O", covariates=("X",))
    assert est.method == "gmm_linear_x"
    true_delta = simple_spec.edge_coeff("T", "O")
    assert est.delta_hat == pytest.approx(true_delta, abs=4 * est.se)
    assert est.params.beta_x[0] == pytest.approx(0.8, abs=0.05)
    # Without adjustment the bridge is misspecified only in noise here (X is
    # independent), so delta should still be close but the fit noisier.
    plain = gmm_linear_ate(data, NcPair("Z1", "Z3"), "T", "O")
    assert plain.params.beta_x == ()


def test_closed_form_affine_equivariance(simple_data):
    # Rescaling and shifting a control column must not move the estimate:
    # shifts never enter covariances, and the scale cancels between the
    # numerator and denominator.
    cov = covariance(simple_data)
    base = closed_form_ate(cov, NcPair("Z1", "Z3"), "T", "O").delta_hat
    values = np.array(simple_data.values)
    z1 = simple_data.index_of("Z1")
    values[:, z1] = 3.0 * values[:, z1] - 5.0
    rescaled = Dataset(simple_data.variable_names, values)
    moved = closed_form_ate(covariance(rescaled), NcPair("Z1", "Z3"), "T", "O")
    assert moved.delta_hat == pytest.approx(base, rel=1e-10)
    # Same for the other control role.
    values[:, simple_data.index_of("Z3")] *= 0.25
    both = closed_form_ate(
        covariance(Dataset(simple_data.variable_names, values)),
        NcPair("Z1", "Z3"),
        "T",
        "O",
    )
    assert both.delta_hat == pytest.approx(base, rel=1e-10)


def test_estimate_error_shrinks_at_root_n_rate(simple_spec):
    # Mean absolute error against the true effect should fall like
    # n^{-1/2}: the log-log slope over two decades of n sits near -0.5.
    true = simple_spec.edge_coeff("T", "O")
    sizes = (300, 1000, 3000, 10000)
    reps = 60
    mean_abs = []
    for n in sizes:
        errs = []
        for r in range(reps):
            data = generate(simple_spec, n, np.random.SeedSequence((88, 1, n, r)))
            est = closed_form_ate(covariance(data), NcPair("Z1", "Z3"), "T", "O")
            errs.append(abs(est.delta_hat - true))
        mean_abs.append(np.mean(errs))
    slope = np.polyfit(np.log(sizes), np.log(mean_abs), 1)[0]
    assert -0.70 <= slope <= -0.35
    assert mean_abs[-1] < mean_abs[0]


def test_sandwich_is_symmetric_positive_semidefinite(simple_data):
    q, m, y = design_matrices(simple_data, NcPair("Z2", "Z3"), "T", "O", ("Z1",))
    theta, a_n = solve_linear_moments(q, m, y)
    var = sandwich_cov(a_n, per_observation_moments(q, m, y, theta))
    np.testing.assert_array_equal(var, var.T)
    eigenvalues = np.linalg.eigvalsh(var)
    assert eigenvalues.min() >= -1e-10 * max(eigenvalues.max(), 1e-30)
    assert var[DELTA_INDEX, DELTA_INDEX] >= 0.0


def test_delta_index_constant():
    # theta layout is (alpha0, alpha1, delta, beta_x...); downstream code
    # relies on the effect sitting at position 2.
    assert DELTA_INDEX == 2


def test_estimate_json_shape(simple_data):
    est = gmm_linear_ate(simple_data, NcPair("Z1", "Z3"), "T", "O")
    doc = est.to_json_dict()
    assert doc["method"] == "gmm_linear"
    assert doc["pair"] == {"z": "Z1", "w": "Z3"}
    assert set(doc["params"]) == {"alpha0", "alpha1", "delta", "beta_x"}
    assert doc["delta_hat"] == est.delta_hat
    closed = closed_form_ate(covariance(simple_data), NcPair("Z1", "Z3"), "T", "O")
    cdoc = closed.to_json_dict()
    assert cdoc["method"] == "closed_form"
    assert cdoc["se"] is None


@pytest.mark.parametrize("covariates", [(), ("Z2",)])
@pytest.mark.parametrize("z, w", [("Z1", "Z3"), ("Z3", "Z1"), ("Z4", "Z3")])
def test_gmm_linear_ate_matches_raw_sandwich_reference(
    simple_data, z, w, covariates
):
    # The centred solve against the raw design [1, Z, T, X] written out:
    # solve, per-observation moments, sandwich.
    pair = NcPair(z, w)
    est = gmm_linear_ate(simple_data, pair, "T", "O", covariates)
    q, m, y = design_matrices(simple_data, pair, "T", "O", covariates)
    theta, a_n = solve_linear_moments(q, m, y, pair=pair)
    var = sandwich_cov(a_n, per_observation_moments(q, m, y, theta))
    assert est.delta_hat == pytest.approx(theta[DELTA_INDEX], rel=1e-10)
    se = np.sqrt(var[DELTA_INDEX, DELTA_INDEX])
    assert est.se == pytest.approx(se, rel=1e-10)
    assert est.params.alpha0 == pytest.approx(theta[0], rel=1e-10)
    assert est.params.alpha1 == pytest.approx(theta[1], rel=1e-10)
    np.testing.assert_allclose(est.params.beta_x, theta[3:], rtol=1e-10)
    assert len(est.params.beta_x) == len(covariates)
