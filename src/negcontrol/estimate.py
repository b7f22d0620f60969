"""Average-treatment-effect estimation from one negative-control pair.

Two routes to the same target:

* ``closed_form_ate`` -- a ratio of covariance products, valid for the
  linear structural model.
* ``gmm_linear_ate`` -- the method-of-moments solve of

      E[ q * (O - a0 - a1*W - delta*T - bx'X) ] = 0,
      q = (1, Z, T, X')'

  which is exactly identified and reduces to the closed form when there
  are no covariates.  Standard errors come from the usual sandwich with a
  per-observation outer-product meat.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CovMatrix, Dataset
from .errors import SingularDenominatorError, SingularMomentMatrixError

__all__ = [
    "NcPair",
    "BridgeParams",
    "AteEstimate",
    "closed_form_ate",
    "gmm_linear_ate",
    "fit_pair",
    "design_matrices",
    "solve_linear_moments",
    "mean_moments",
    "moment_jacobian",
    "per_observation_moments",
    "sandwich_cov",
]

# relative condition-number ceiling for treating a moment matrix as usable
_COND_LIMIT = 1e12

# index of delta within theta = (a0, a1, delta, bx...)
DELTA_INDEX = 2


@dataclass(frozen=True)
class NcPair:
    """Ordered negative-control assignment: z plays exposure-side control,
    w plays outcome-side control."""

    z: str
    w: str

    def __post_init__(self):
        if self.z == self.w:
            raise ValueError("the two controls must be distinct variables")

    def swapped(self) -> "NcPair":
        return NcPair(self.w, self.z)


@dataclass(frozen=True)
class BridgeParams:
    """Linear bridge coefficients h(W, T, X) = alpha0 + alpha1*W + delta*T
    + beta_x'X."""

    alpha0: float
    alpha1: float
    delta: float
    beta_x: tuple[float, ...] = ()


@dataclass(frozen=True)
class AteEstimate:
    """Point estimate with optional 95% interval (ci = delta_hat +/- 1.96 se)."""

    delta_hat: float
    method: str
    pair: NcPair | None = None
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    params: BridgeParams | None = None

    def to_json_dict(self) -> dict:
        out = {
            "delta_hat": self.delta_hat,
            "method": self.method,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
        }
        if self.pair is not None:
            out["pair"] = {"z": self.pair.z, "w": self.pair.w}
        if self.params is not None:
            out["params"] = {
                "alpha0": self.params.alpha0,
                "alpha1": self.params.alpha1,
                "delta": self.params.delta,
                "beta_x": list(self.params.beta_x),
            }
        return out


def closed_form_ate(
    cov: CovMatrix,
    pair: NcPair,
    treatment: str,
    outcome: str,
    formula: str = "primary",
) -> AteEstimate:
    """Covariance-ratio estimate of the treatment effect.

        primary:   [cov(T,O) cov(Z,W) - cov(Z,O) cov(T,W)]
                 / [cov(T,T) cov(Z,W) - cov(T,Z) cov(T,W)]

        alternate: same denominator, numerator second term replaced by
                   cov(W,O) cov(T,Z); equal in population when the
                   ({Z,W},{T,O}) determinant vanishes.

    Raises
    ------
    SingularDenominatorError
        |denominator| below 1e-12 * cov(T,T) * (|cov(Z,W)| + |cov(T,W)| + eps).
    """
    if formula not in ("primary", "alternate"):
        raise ValueError(f"unknown formula: {formula!r}")
    z, w, t, o = pair.z, pair.w, treatment, outcome
    c_to = cov.value(t, o)
    c_zw = cov.value(z, w)
    c_tw = cov.value(t, w)
    c_tt = cov.value(t, t)
    c_tz = cov.value(t, z)
    denominator = c_tt * c_zw - c_tz * c_tw
    eps = np.finfo(float).eps
    threshold = 1e-12 * c_tt * (abs(c_zw) + abs(c_tw) + eps)
    if not abs(denominator) > threshold:
        raise SingularDenominatorError(
            f"denominator {denominator!r} below threshold {threshold!r} "
            f"for pair ({z}, {w})"
        )
    if formula == "primary":
        numerator = c_to * c_zw - cov.value(z, o) * c_tw
    else:
        numerator = c_to * c_zw - cov.value(w, o) * c_tz
    return AteEstimate(
        delta_hat=numerator / denominator,
        method="closed_form",
        pair=pair,
    )


def _moment_columns(
    names, pair: NcPair, treatment: str, outcome: str, covariates=()
) -> tuple[list[int], list[int], int]:
    """Positions of Q = [1, Z, T, X], M = [1, W, T, X] and y among the
    columns of A = [1, *names]."""
    index = {name: i + 1 for i, name in enumerate(names)}
    x = [index[name] for name in covariates]
    t = index[treatment]
    return [0, index[pair.z], t, *x], [0, index[pair.w], t, *x], index[outcome]


def design_matrices(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instrument matrix Q = [1, Z, T, X], regressor matrix M = [1, W, T, X],
    and outcome vector y, aligned with theta = (alpha0, alpha1, delta, bx)."""
    covariates = tuple(covariates)
    names = (pair.z, pair.w, treatment, outcome, *covariates)
    if len(set(names)) != len(names):
        raise ValueError(
            "pair, treatment, outcome, and covariates must be distinct"
        )
    a = np.column_stack([np.ones(data.n), data.columns(names)])
    q, m, _ = _moment_columns(names, pair, treatment, outcome, covariates)
    # rounding depends on memory layout: Q and M stay row-major and y a
    # strided view of the data, so the fits are stable to the last bit
    return a.take(q, axis=1), a.take(m, axis=1), data.column(outcome)


def _solve_checked(a_n: np.ndarray, b: np.ndarray, pair=None) -> np.ndarray:
    """Solve a_n theta = b; SingularMomentMatrixError when the condition
    number of a_n is not finite or above 1e12."""
    cond = float(np.linalg.cond(a_n))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMomentMatrixError(
            "moment cross-product matrix is singular or near-singular",
            cond=cond,
            pair=pair,
        )
    return np.linalg.solve(a_n, b)


def solve_linear_moments(
    q: np.ndarray, m: np.ndarray, y: np.ndarray, pair: NcPair | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (1/n) Q'(y - M theta) = 0; returns (theta, a_n = Q'M / n).

    Raises
    ------
    SingularMomentMatrixError
        Cross-product matrix singular or with condition number above 1e12,
        reported with the condition estimate and the offending pair.
    """
    n = q.shape[0]
    a_n = q.T @ m / n
    return _solve_checked(a_n, q.T @ y / n, pair), a_n


def mean_moments(
    q: np.ndarray, m: np.ndarray, y: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """G_n(theta) = (1/n) Q'(y - M theta)."""
    return q.T @ (y - m @ theta) / q.shape[0]


def moment_jacobian(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A_n = d G_n / d theta = -Q'M / n (constant in theta)."""
    return -(q.T @ m) / q.shape[0]


def per_observation_moments(
    q: np.ndarray, m: np.ndarray, y: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """g_i(theta) = q_i * residual_i, stacked as an (n, dim) matrix."""
    resid = y - m @ theta
    return q * resid[:, None]


def sandwich_cov(a_n: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Var(theta_hat) = A^{-1} B A^{-T} / n with B = (1/n) sum g_i g_i'.

    ``a_n`` may be passed with either sign convention; the inverses cancel
    the sign.  The result is symmetrized exactly.
    """
    n = g.shape[0]
    meat = g.T @ g / n
    inv = np.linalg.inv(a_n)
    cov = inv @ meat @ inv.T / n
    return (cov + cov.T) / 2.0


def fit_pair(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> tuple[AteEstimate, np.ndarray]:
    """One pair's moment fit: the estimate and delta's influence vector
    ``psi = g A^{-T} e_delta``, with ``g`` the per-observation moments and
    ``A = Q'M / n``.

    ``sum(psi**2) / n**2`` is delta's sandwich variance, and a weighted sum
    of several pairs' ``psi`` gives the variance of their weighted average
    with the cross-pair covariance included.
    """
    covariates = tuple(covariates)
    q, m, y = design_matrices(data, pair, treatment, outcome, covariates)
    theta, a_n = solve_linear_moments(q, m, y, pair=pair)
    g = per_observation_moments(q, m, y, theta)
    var = sandwich_cov(a_n, g)
    se = float(np.sqrt(var[DELTA_INDEX, DELTA_INDEX]))
    delta = float(theta[DELTA_INDEX])
    params = BridgeParams(
        alpha0=float(theta[0]),
        alpha1=float(theta[1]),
        delta=delta,
        beta_x=tuple(float(v) for v in theta[3:]),
    )
    estimate = AteEstimate(
        delta_hat=delta,
        method="gmm_linear_x" if covariates else "gmm_linear",
        pair=pair,
        se=se,
        ci_low=delta - 1.96 * se,
        ci_high=delta + 1.96 * se,
        params=params,
    )
    return estimate, g @ np.linalg.inv(a_n)[DELTA_INDEX]


def gmm_linear_ate(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> AteEstimate:
    """Exactly identified linear-bridge moment estimate with sandwich SE.

    With no covariates the point estimate equals ``closed_form_ate`` to
    floating-point precision.
    """
    return fit_pair(data, pair, treatment, outcome, covariates)[0]
