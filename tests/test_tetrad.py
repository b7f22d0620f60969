"""Tests for the Wishart vanishing-tetrad statistic.

The headline numbers below were computed independently (by hand / separate
script) for the 5-row table shared with test_data, then frozen here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from negcontrol.data import CovMatrix, Dataset, covariance, sub_determinant
from negcontrol.errors import DegenerateVarianceError, TooFewSamplesError
from negcontrol.tetrad import (
    TetradSpec,
    _wishart_batch,
    wishart_test,
    wishart_variance,
)

from test_data import NAMES, TABLE

# Frozen oracle values for TetradSpec(("a", "b"), ("c", "d")) on TABLE (n=5).
D_HAT = 5.937499999999998
SIGMA2 = 398.73684895833327
W_STAT = 0.29734486057181053
P_VALUE = 0.7662032357161702


@pytest.fixture()
def table_cov():
    return covariance(Dataset(NAMES, TABLE))


def test_tetrad_spec_validation():
    TetradSpec(("a", "b"), ("c", "d"))  # fine
    with pytest.raises(ValueError):
        TetradSpec(("a",), ("c", "d"))
    with pytest.raises(ValueError):
        TetradSpec(("a", "b"), ("c", "d", "e"))
    with pytest.raises(ValueError):
        TetradSpec(("a", "b"), ("a", "d"))
    with pytest.raises(ValueError):
        TetradSpec(("a", "a"), ("c", "d"))


def test_tetrad_difference_frozen_value(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    d_hat = sub_determinant(table_cov, spec.left, spec.right)
    assert d_hat == D_HAT


def test_variance_frozen_value(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    assert wishart_variance(table_cov, spec, 5) == pytest.approx(
        SIGMA2, rel=1e-15
    )


def test_statistic_and_p_frozen_values(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    result = wishart_test(table_cov, spec, 5, alpha=0.05)
    assert result.d_hat == D_HAT
    assert result.w_stat == pytest.approx(W_STAT, rel=1e-15)
    assert result.p_value == pytest.approx(P_VALUE, rel=1e-15)
    assert result.p_value == pytest.approx(
        math.erfc(abs(result.w_stat) / math.sqrt(2)), rel=1e-15
    )
    # vanishing means failing to reject the zero-tetrad null: p > alpha.
    assert result.vanishes
    assert result.vanishes == (result.p_value > 0.05)


def test_vanishes_threshold_is_strict(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    assert wishart_test(table_cov, spec, 5, alpha=0.7).vanishes
    assert not wishart_test(table_cov, spec, 5, alpha=0.8).vanishes


def test_variance_identity_covariance():
    # With unit variances and zero correlations both 2x2 determinants are 1
    # and the 4x4 determinant is 1, so at n=100 the variance is
    # (1 * 101/99 - 1) / 98 exactly.
    cov = CovMatrix(("v1", "v2", "v3", "v4"), np.eye(4))
    spec = TetradSpec(("v1", "v2"), ("v3", "v4"))
    want = (101.0 / 99.0 - 1.0) / 98.0
    assert wishart_variance(cov, spec, 100) == pytest.approx(want, rel=1e-15)
    assert want == pytest.approx(0.0002061430632859195, rel=1e-15)


def test_variance_requires_three_samples(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    with pytest.raises(TooFewSamplesError):
        wishart_variance(table_cov, spec, 2)
    with pytest.raises(TooFewSamplesError):
        wishart_test(table_cov, spec, 2, alpha=0.05)


def test_alpha_validation(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            wishart_test(table_cov, spec, 5, alpha=bad)


def test_degenerate_variance_raises():
    # A rank-one covariance (all entries equal) zeroes every determinant in
    # the variance formula, which must be reported rather than divided by.
    cov = CovMatrix(("a", "b", "c", "d"), np.ones((4, 4)))
    spec = TetradSpec(("a", "b"), ("c", "d"))
    with pytest.raises(DegenerateVarianceError):
        wishart_test(cov, spec, 50, alpha=0.05)


def test_statistic_invariant_under_rescaling():
    # Multiplying every variable by a constant scales the tetrad difference
    # by c^4 and its standard error by the same factor, so w and p must not
    # move.
    rng = np.random.default_rng(21)
    values = rng.normal(size=(400, 4))
    spec = TetradSpec(("a", "b"), ("c", "d"))
    base = wishart_test(
        covariance(Dataset(("a", "b", "c", "d"), values)), spec, 400, alpha=0.05
    )
    for scale in (0.01, 7.3):
        scaled = wishart_test(
            covariance(Dataset(("a", "b", "c", "d"), values * scale)),
            spec,
            400,
            alpha=0.05,
        )
        assert scaled.w_stat == pytest.approx(base.w_stat, rel=1e-9)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)


def test_negating_one_variable_flips_d_hat_only():
    rng = np.random.default_rng(23)
    values = rng.normal(size=(300, 4))
    names = ("a", "b", "c", "d")
    spec = TetradSpec(("a", "b"), ("c", "d"))
    base = wishart_test(covariance(Dataset(names, values)), spec, 300, alpha=0.05)
    flipped = values.copy()
    flipped[:, 0] = -flipped[:, 0]
    neg = wishart_test(covariance(Dataset(names, flipped)), spec, 300, alpha=0.05)
    assert neg.d_hat == pytest.approx(-base.d_hat, rel=1e-12)
    assert abs(neg.w_stat) == pytest.approx(abs(base.w_stat), rel=1e-12)
    assert neg.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_swapping_sides_preserves_statistic_magnitude(table_cov):
    spec = TetradSpec(("a", "b"), ("c", "d"))
    mirrored = TetradSpec(("c", "d"), ("a", "b"))
    r1 = wishart_test(table_cov, spec, 5, alpha=0.05)
    r2 = wishart_test(table_cov, mirrored, 5, alpha=0.05)
    assert abs(r2.w_stat) == pytest.approx(abs(r1.w_stat), rel=1e-12)
    assert r2.p_value == pytest.approx(r1.p_value, rel=1e-12)


def test_single_latent_tetrad_shrinks_to_zero():
    # One latent parent with independent noise makes every cross-pair
    # tetrad vanish in population; at n = 100000 the sample value must sit
    # within three standard errors of zero.
    rng = np.random.default_rng(24)
    n = 100000
    u = rng.normal(size=n)
    loadings = (0.7, 1.3, 0.9, 1.1)
    values = u[:, None] * np.array(loadings) + rng.normal(size=(n, 4))
    names = ("a", "b", "c", "d")
    cov = covariance(Dataset(names, values))
    spec = TetradSpec(("a", "b"), ("c", "d"))
    d_hat = sub_determinant(cov, spec.left, spec.right)
    se = math.sqrt(wishart_variance(cov, spec, n))
    assert abs(d_hat) <= 3.0 * se


def test_detects_vanishing_and_non_vanishing_structure():
    # One latent factor drives x1..x4: every tetrad in those four vanishes.
    # An extra direct edge x1 -> x2 breaks the tetrads that pair x1 with x2
    # on opposite sides.
    rng = np.random.default_rng(22)
    n = 20000
    u = rng.normal(size=n)
    cols = {
        f"x{i}": coef * u + rng.normal(size=n)
        for i, coef in zip(range(1, 5), (0.9, 1.1, 0.8, 1.2))
    }
    data = Dataset(tuple(cols), np.column_stack(list(cols.values())))
    cov = covariance(data)
    spec = TetradSpec(("x1", "x2"), ("x3", "x4"))
    assert wishart_test(cov, spec, n, alpha=0.01).vanishes

    cols["x2"] = cols["x2"] + 1.5 * cols["x1"]
    broken = Dataset(tuple(cols), np.column_stack(list(cols.values())))
    bcov = covariance(broken)
    # x1 and x2 on the same side still vanishes; x1 and x2 split across
    # sides does not.
    assert wishart_test(bcov, spec, n, alpha=0.01).vanishes
    split = TetradSpec(("x1", "x3"), ("x2", "x4"))
    assert not wishart_test(bcov, split, n, alpha=0.01).vanishes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowed_variance_raises(table_cov):
    # At this scale the determinants overflow and the variance formula
    # yields inf - inf = NaN, which must not pass as a p-value.
    scaled = CovMatrix(NAMES, table_cov.entries * 1e150)
    spec = TetradSpec(("a", "b"), ("c", "d"))
    with pytest.raises(DegenerateVarianceError):
        wishart_test(scaled, spec, 5, alpha=0.05)


def test_batch_matches_scalar_on_frozen_table(table_cov):
    # Every ordering of the four variables into two pairs, batched on the
    # correlation matrix against the scalar test on the covariance.
    specs = [
        TetradSpec(order[:2], order[2:])
        for order in itertools.permutations(NAMES)
    ]
    quads = np.array([[NAMES.index(v) for v in s.variables] for s in specs])
    d_hat, sigma, w, p = _wishart_batch(table_cov, quads, 5, alpha=0.05)
    for i, spec in enumerate(specs):
        ref = wishart_test(table_cov, spec, 5, alpha=0.05)
        assert d_hat[i] == pytest.approx(ref.d_hat, rel=1e-12)
        assert sigma[i] == pytest.approx(ref.sigma_hat, rel=1e-12)
        assert w[i] == pytest.approx(ref.w_stat, rel=1e-12)
        assert p[i] == pytest.approx(ref.p_value, rel=1e-12)
    assert w[0] == pytest.approx(W_STAT, rel=1e-12)
    assert p[0] == pytest.approx(P_VALUE, rel=1e-12)


def test_batch_validates_alpha_and_n(table_cov):
    quads = np.array([[0, 1, 2, 3]])
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            _wishart_batch(table_cov, quads, 5, alpha=bad)
    with pytest.raises(TooFewSamplesError):
        _wishart_batch(table_cov, quads, 2, alpha=0.05)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batch_nan_is_inapplicable_not_rejected():
    # A NaN covariance entry makes the variance numerator NaN.  The batch
    # must report those sub-tests as inapplicable (sigma 0, p 0, infinite
    # w), exactly where the scalar test raises, never as a NaN p-value.
    names = ("a", "b", "c", "d", "e")
    entries = np.eye(5) + 0.3
    entries[0, 4] = entries[4, 0] = np.nan
    cov = CovMatrix(names, entries)
    specs = [TetradSpec(("a", "b"), ("c", "e")),
             TetradSpec(("b", "c"), ("d", "a")),
             TetradSpec(("b", "c"), ("d", "e"))]
    quads = np.array([[names.index(v) for v in s.variables] for s in specs])
    _, sigma, w, p = _wishart_batch(cov, quads, 50, alpha=0.05)
    for i, spec in enumerate(specs):
        if "a" in spec.variables and "e" in spec.variables:
            with pytest.raises(DegenerateVarianceError):
                wishart_test(cov, spec, 50, alpha=0.05)
            assert (sigma[i], p[i]) == (0.0, 0.0)
            assert math.isinf(w[i])
        else:
            ref = wishart_test(cov, spec, 50, alpha=0.05)
            assert p[i] == pytest.approx(ref.p_value, rel=1e-12)


def test_batch_p_is_math_erfc_bit_for_bit():
    # The batch takes p from math.erfc, the call wishart_test makes, on a
    # stack of covariances whose last has two near-collinear columns: the
    # tetrads pairing them are inapplicable, with w = +-inf and p = 0.
    rng = np.random.default_rng(5)
    values = rng.normal(size=(3, 200, 6))
    values[..., 1] += values[..., 0]
    values[2, :, 5] = values[2, :, 4] + 1e-9 * rng.normal(size=200)
    stack = np.stack([covariance(Dataset(tuple("abcdef"), v)).entries
                      for v in values])
    quads = np.array(list(itertools.permutations(range(6), 4)))
    _, _, w, p = _wishart_batch(stack, quads, 200, alpha=0.05)
    assert w.shape == p.shape == (3, len(quads))
    assert np.isinf(w[2]).any() and not np.isinf(w[:2]).any()
    assert {math.copysign(1.0, x) for x in w[2][np.isinf(w[2])]} == {-1.0, 1.0}
    expected = [math.erfc(abs(x) / math.sqrt(2.0)) for x in w.ravel()]
    assert p.dtype == np.float64
    assert p.ravel().tobytes() == np.array(expected).tobytes()
    assert (p[np.isinf(w)] == 0.0).all()
