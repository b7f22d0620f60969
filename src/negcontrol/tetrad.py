"""Wishart's large-sample test for a vanishing 2x2 subcovariance determinant.

For variable pairs {a, b} and {c, d} the statistic is

    D = cov(a,c) * cov(b,d) - cov(a,d) * cov(b,c)

with estimated variance

    sigma^2 = ( det2(a,b) * det2(c,d) * (n + 1) / (n - 1)
                - det4(a,b,c,d) ) / (n - 2)

where det2 is the determinant of the 2x2 covariance of one pair and det4
the determinant of the 4x4 covariance over all four variables.  The
determinants are taken from the (n - 1)-denominator sample covariance; the
scaling constants use the raw sample size.  Under the null, D / sigma is
asymptotically standard normal, so the two-sided p-value is
2 * (1 - Phi(|W|)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .data import CovMatrix, sub_determinant
from .errors import DegenerateVarianceError, TooFewSamplesError

__all__ = ["TetradSpec", "TetradResult", "wishart_variance", "wishart_test"]


@dataclass(frozen=True)
class TetradSpec:
    """Two disjoint ordered variable pairs: left = (a, b), right = (c, d)."""

    left: tuple[str, str]
    right: tuple[str, str]

    def __post_init__(self):
        left = tuple(self.left)
        right = tuple(self.right)
        if len(left) != 2 or len(right) != 2:
            raise ValueError("left and right must each hold two variables")
        names = left + right
        if len(set(names)) != 4:
            raise ValueError(f"tetrad variables must be distinct: {names}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def variables(self) -> tuple[str, str, str, str]:
        return self.left + self.right


@dataclass(frozen=True)
class TetradResult:
    """Outcome of one Wishart test.

    ``vanishes`` is True when the null (determinant zero) is NOT rejected,
    i.e. ``p_value > alpha``.
    """

    spec: TetradSpec
    d_hat: float
    sigma_hat: float
    w_stat: float
    p_value: float
    alpha: float
    vanishes: bool


def wishart_variance(cov: CovMatrix, spec: TetradSpec, n: int) -> float:
    """Estimated variance of the subcovariance determinant.

    Requires n >= 3; the result may be non-positive in degenerate samples,
    in which case the test is inapplicable.
    """
    if n < 3:
        raise TooFewSamplesError(f"need n >= 3 for the variance, got {n}")
    det_left = cov.square_determinant(spec.left)
    det_right = cov.square_determinant(spec.right)
    det_all = cov.square_determinant(spec.variables)
    return (det_left * det_right * (n + 1) / (n - 1) - det_all) / (n - 2)


def wishart_test(
    cov: CovMatrix, spec: TetradSpec, n: int, alpha: float
) -> TetradResult:
    """Two-sided test of a vanishing subcovariance determinant.

    Raises
    ------
    DegenerateVarianceError
        sigma^2 <= 0 or NaN; callers must treat the tetrad as NOT
        vanishing.
    TooFewSamplesError
        n < 3.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    d_hat = sub_determinant(cov, spec.left, spec.right)
    variance = wishart_variance(cov, spec, n)
    if not variance > 0.0:  # also catches a NaN from overflowed determinants
        raise DegenerateVarianceError(
            f"non-positive variance estimate {variance!r} for {spec}"
        )
    sigma = math.sqrt(variance)
    w = d_hat / sigma
    # two-sided normal p-value: 2 * (1 - Phi(|w|)) = erfc(|w| / sqrt(2))
    p = math.erfc(abs(w) / math.sqrt(2.0))
    return TetradResult(
        spec=spec,
        d_hat=d_hat,
        sigma_hat=sigma,
        w_stat=w,
        p_value=p,
        alpha=alpha,
        vanishes=p > alpha,
    )
