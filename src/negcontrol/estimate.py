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

Both routes, every bootstrap draw and the study's naive regression run one
solve on centred moments (Frisch-Waugh-Lovell).  S is the dataset's one
centred statistic, formed once per dataset (``data.Dataset._centred``): the
fits read its cross products over n, ``closed_form_ate`` the same over
n - 1 through ``covariance``, and the sandwich and the bootstrap draws its
centred copy of the columns the pairs read.  With S a centred
second-moment matrix, whose denominator cancels, the slopes (a1, delta, bx)
solve S[q, m] beta = S[q, y] with q = (Z, T, X), m = (W, T, X), and
a0 = mean(y) - mean(m)' beta.  The system is rejected when the condition
number of its correlation-scale form S[q, m] / outer(sd_q, sd_m) is not
finite or above 1e12.  Neither that number nor delta moves when a column
is shifted; rescaling T or O multiplies delta by s_O / s_T.  The raw-design
functions (``design_matrices`` ... ``sandwich_cov``) are the references.

The solve is stacked: P pairs read their (P, d, d) systems as one
fancy-index slice of S, are checked by one stacked ``np.linalg.cond`` and
inverted by one stacked ``np.linalg.inv``; a single fit is a stack of one.
For P pairs at once, delta's influence vectors are psi = (Xc @ B) *
(Xc @ C) on the centred columns Xc, where column k of B holds pair k's
residual weights y - a1*W - delta*T - bx'X and column k of C holds delta's
row of its inverse.  Per-pair SEs are the column norms of psi over n and
the weighted sandwich SE is |psi @ w| / n; both are summed over fixed row
blocks, so no n x P matrix is ever formed.  A single fit forms its one
psi directly and returns it.
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

# rows per block of the influence GEMMs, which keeps their (rows, P)
# temporaries a few MB however large n is
_ROW_BLOCK = 8192


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

    The primary ratio is the centred solve with instruments (Z, T) and
    regressors (W, T); the alternate swaps the two roles.

    Raises
    ------
    SingularDenominatorError
        The correlation-scale system has a condition number that is not
        finite or above 1e12.
    """
    if formula not in ("primary", "alternate"):
        raise ValueError(f"unknown formula: {formula!r}")
    t = cov.index_of(treatment)
    q, m = [cov.index_of(pair.z), t], [cov.index_of(pair.w), t]
    if formula == "alternate":
        q, m = m, q
    try:
        beta, _ = _solve_centred(
            cov.entries, [q], [m], cov.index_of(outcome)
        )
    except SingularMomentMatrixError as exc:
        raise SingularDenominatorError(
            f"denominator is numerically zero for pair ({pair.z}, {pair.w})"
            f": {exc}"
        ) from None
    return AteEstimate(float(beta[0, 1]), method="closed_form", pair=pair)


def _moment_columns(
    data, pair: NcPair, treatment: str, outcome: str, covariates=()
) -> tuple[list[int], list[int], int]:
    """Positions of the instruments (Z, T, X), the regressors (W, T, X) and
    the outcome among the columns of ``data``; ValueError unless the roles
    are distinct."""
    roles = (pair.z, pair.w, treatment, outcome, *covariates)
    if len(set(roles)) != len(roles):
        raise ValueError(
            "pair, treatment, outcome, and covariates must be distinct"
        )
    z, w, t, y, *x = (data.index_of(name) for name in roles)
    return [z, t, *x], [w, t, *x], y


def _stacked_columns(
    data, pairs, treatment: str, outcome: str, covariates=()
) -> tuple[np.ndarray, np.ndarray, int]:
    """Every pair's ``_moment_columns`` stacked: (P, d) instrument and
    regressor positions and the outcome's position."""
    layouts = [
        _moment_columns(data, pair, treatment, outcome, covariates)
        for pair in pairs
    ]
    qs, ms = (np.array([layout[i] for layout in layouts]) for i in (0, 1))
    return qs, ms, layouts[0][2]


def _used_columns(data: Dataset, layout):
    """The centred columns a stacked ``layout`` reads and the layout
    renumbered to their positions.  If the pairs read every column the
    dataset's copy is used as is; otherwise theirs are copied once, so the
    GEMMs and the draws do not grow with the columns no pair reads."""
    qs, ms, y = layout
    used = np.unique(np.concatenate([qs.ravel(), ms.ravel(), [y]]))
    xc = data._centred[0]
    if len(used) == xc.shape[1]:
        return xc, layout
    qs, ms, y = (np.searchsorted(used, pos) for pos in (qs, ms, y))
    return xc[:, used], (qs, ms, int(y))


def _solve_centred(
    moments: np.ndarray, qs, ms, y: int, pairs=None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the P systems ``moments[qs[k], ms[k]] beta_k = moments[qs[k],
    y]`` of a centred second-moment matrix ``moments`` in one stacked pass;
    returns beta (P, d) and the inverses (P, d, d).
    SingularMomentMatrixError names the first of ``pairs`` whose
    correlation-scale system ``moments[q, m] / outer(sd_q, sd_m)`` has a
    condition number that is not finite or above 1e12."""
    qs, ms = np.asarray(qs), np.asarray(ms)
    sd = np.sqrt(np.diag(moments))
    sd[sd == 0.0] = 1.0
    sd_q, sd_m = sd[qs], sd[ms]
    corr = moments[qs[:, :, None], ms[:, None, :]] / (
        sd_q[:, :, None] * sd_m[:, None, :]
    )
    cond = np.linalg.cond(corr)
    failed = np.flatnonzero(~(cond <= _COND_LIMIT))  # NaN as well
    if failed.size:
        k = failed[0]
        raise SingularMomentMatrixError(
            "correlation-scale moment matrix is singular or near-singular",
            cond=float(cond[k]),
            pair=None if pairs is None else pairs[k],
        )
    inv = np.linalg.inv(corr) / (sd_m[:, :, None] * sd_q[:, None, :])
    # a stacked matmul, not einsum, so each beta has a lone solve's bits
    return (inv @ moments[qs, y][:, :, None])[:, :, 0], inv


def _fit_centred(data: Dataset, layout, pairs=None):
    """The stacked fit on the centred moments of ``data`` with ``layout =
    (qs, ms, y)`` column positions: alpha0 (P,), the slopes beta (P, d)
    and the inverses (P, d, d) of the systems."""
    _, means, gram = data._centred
    qs, ms, y = layout
    beta, inv = _solve_centred(gram / data.n, qs, ms, y, pairs)
    alpha0 = means[y] - (means[ms][:, None, :] @ beta[:, :, None])[:, 0, 0]
    return alpha0, beta, inv


def _influence(xc, layout, beta, inv, j: int) -> np.ndarray:
    """beta[0, j]'s influence vector for a stack of one system: the centred
    residual times the centred instruments times its row of the inverse."""
    (q,), (m,), y = layout
    return (xc[:, y] - xc[:, m] @ beta[0]) * (xc[:, q] @ inv[0, j])


def _sandwich_se(xc, layout, beta, inv, j: int, weights):
    """Each system's sandwich SE of beta[:, j] and that of their
    ``weights`` average, from ``psi = (xc @ B) * (xc @ C)``: column k of B
    holds system k's residual weights and column k of C its row j of the
    inverse.  The column norms over n of psi, and the norm over n of
    ``psi @ weights``, are summed over blocks of ``_ROW_BLOCK`` rows, so
    no n x P matrix is formed."""
    qs, ms, y = layout
    n = xc.shape[0]
    cols = np.arange(len(beta))[:, None]
    # the roles are distinct, so y is none of a system's regressors
    resid = np.zeros((xc.shape[1], len(beta)))
    resid[y] = 1.0
    resid[ms, cols] = -beta
    instr = np.zeros_like(resid)
    instr[qs, cols] = inv[:, j]
    sumsq = np.zeros(len(beta))
    total = 0.0
    for start in range(0, n, _ROW_BLOCK):
        rows = xc[start:start + _ROW_BLOCK]
        psi = rows @ resid
        psi *= rows @ instr
        sumsq += np.einsum("ij,ij->j", psi, psi)
        influence = psi @ weights
        total += influence @ influence
    return np.sqrt(sumsq) / n, float(np.sqrt(total)) / n


def design_matrices(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instrument matrix Q = [1, Z, T, X], regressor matrix M = [1, W, T, X],
    and outcome vector y, aligned with theta = (alpha0, alpha1, delta, bx)."""
    q, m, _ = _moment_columns(data, pair, treatment, outcome, covariates)
    ones = np.ones((data.n, 1))
    # rounding depends on memory layout: Q and M stay row-major and y a
    # strided view of the data, so the fits are stable to the last bit
    return (np.hstack([ones, data.values[:, q]]),
            np.hstack([ones, data.values[:, m]]), data.column(outcome))


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
    cond = float(np.linalg.cond(a_n))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMomentMatrixError(
            "moment cross-product matrix is singular or near-singular",
            cond=cond,
            pair=pair,
        )
    return np.linalg.solve(a_n, q.T @ y / n), a_n


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


def _pair_estimate(pair: NcPair, alpha0, beta, se) -> AteEstimate:
    """One pair's estimate from its alpha0, its slopes
    beta = (alpha1, delta, bx) and delta's SE."""
    delta = float(beta[DELTA_INDEX - 1])
    se = float(se)
    return AteEstimate(
        delta_hat=delta,
        method="gmm_linear_x" if len(beta) > 2 else "gmm_linear",
        pair=pair,
        se=se,
        ci_low=delta - 1.96 * se,
        ci_high=delta + 1.96 * se,
        params=BridgeParams(
            float(alpha0), float(beta[0]), delta, tuple(beta[2:].tolist())
        ),
    )


def fit_pair(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> tuple[AteEstimate, np.ndarray]:
    """One pair's moment fit: the estimate and delta's influence vector
    ``psi``, the centred instruments times the residual times delta's row
    of ``S[q, m]^{-1}``; on the raw design it is ``g A^{-T} e_delta``, with
    ``g`` the per-observation moments and ``A = Q'M / n``.

    ``sum(psi**2) / n**2`` is delta's sandwich variance, and a weighted sum
    of several pairs' ``psi`` gives the variance of their weighted average
    with the cross-pair covariance included.
    """
    layout = _stacked_columns(data, [pair], treatment, outcome, covariates)
    alpha0, beta, inv = _fit_centred(data, layout, [pair])
    # beta = (alpha1, delta, bx) has no alpha0
    psi = _influence(data._centred[0], layout, beta, inv, DELTA_INDEX - 1)
    se = float(np.linalg.norm(psi)) / data.n
    return _pair_estimate(pair, alpha0[0], beta[0], se), psi


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
