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

``wishart_test`` evaluates one tetrad on the covariance and is the
reference.  ``_wishart_batch`` evaluates many tetrads at once on the
correlation matrix R = S / outer(sd, sd).  Rescaling one variable by
c > 0 scales D and sigma by c, so W and the p-value are the same on either
scale, while on R every determinant lies in [0, 1] and no column scale can
overflow or underflow them.  There a sub-test is inapplicable when the
variance numerator det2 * det2 * (n + 1) / (n - 1) - det4 is NaN or not
above ``_NUMERATOR_FLOOR`` (64 machine epsilons, about 1.4e-14): below that
it is rounding error of terms of size at most 1, as for collinear columns,
whose numerator comes out near 1e-25 rather than exactly 0.  A column of
zero variance is divided by 1, so its tetrads have zero determinants and
are inapplicable too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CovMatrix, sub_determinant
from .errors import DegenerateVarianceError, TooFewSamplesError

__all__ = ["TetradSpec", "TetradResult", "wishart_variance", "wishart_test"]

_NUMERATOR_FLOOR = 64 * np.finfo(float).eps
_erfc = np.frompyfunc(math.erfc, 1, 1)  # object array out; cast to float


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


def _wishart_batch(
    cov, quads: np.ndarray, n: int, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``wishart_test`` for every row (a, b, c, d) of the (m, 4) index array
    ``quads``, computed on the correlation matrix.

    ``cov`` is a ``CovMatrix`` or a stack of covariance entries
    (..., p, p), each of one sample of size ``n``; each covariance gets the
    bits it gets alone.  Returns ``d_hat``, ``sigma_hat`` (both in
    covariance units), ``w`` and ``p``, each (..., m).  An inapplicable
    sub-test (see the module docstring) has ``sigma_hat = 0``, ``p = 0``
    and ``w = +-inf`` by the sign of ``d_hat``, the result the search
    records where ``wishart_test`` raises ``DegenerateVarianceError``.
    ``p`` is ``math.erfc(|w| / sqrt(2))`` element by element, the call
    ``wishart_test`` makes, so both compute p the same way.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 3:
        raise TooFewSamplesError(f"need n >= 3 for the variance, got {n}")
    entries = cov.entries if isinstance(cov, CovMatrix) else cov
    sd = np.sqrt(np.diagonal(entries, axis1=-2, axis2=-1))
    unit = np.where(sd > 0.0, sd, 1.0)
    corr = entries / (unit[..., :, None] * unit[..., None, :])
    a, b, c, d = quads.T

    def minor(r1, r2, c1, c2):
        return (corr[..., r1, c1] * corr[..., r2, c2]
                - corr[..., r1, c2] * corr[..., r2, c1])

    d_corr = minor(a, b, c, d)
    det_left, det_right = minor(a, b, a, b), minor(c, d, c, d)
    det_all = np.linalg.det(corr[..., quads[:, :, None], quads[:, None, :]])
    numerator = det_left * det_right * (n + 1) / (n - 1) - det_all
    applicable = numerator > _NUMERATOR_FLOOR  # False for NaN as well
    sigma_corr = np.sqrt(np.where(applicable, numerator, 1.0) / (n - 2))
    w = np.where(applicable, d_corr / sigma_corr,
                 np.where(d_corr >= 0.0, math.inf, -math.inf))
    p = _erfc(np.abs(w) / math.sqrt(2.0)).astype(float)  # 0 where w is inf
    with np.errstate(over="ignore"):
        # beyond the float range d_hat and sigma_hat are +-inf, which is
        # right; w and p come from the correlation scale and stay finite
        scale = sd[..., a] * sd[..., b] * sd[..., c] * sd[..., d]
    sigma = np.where(applicable, sigma_corr * scale, 0.0)
    return d_corr * scale, sigma, w, p
