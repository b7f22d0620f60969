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
centred statistic, ``data._Moments``, formed once per dataset
(``data.Dataset._centred``): the fits read the ``subset`` of the columns
their systems read, its cross products over n and its centred columns for
the sandwich, and ``closed_form_ate`` the cross products over n - 1
through ``covariance``.  With S a centred second-moment matrix, whose
denominator cancels, the slopes (a1, delta, bx) solve S[q, m] beta =
S[q, y] with q = (Z, T, X), m = (W, T, X), and a0 = mean(y) - mean(m)'
beta.  The system is rejected when the
condition number of its correlation-scale form S[q, m] / outer(sd_q, sd_m)
is not finite or above 1e12.  Neither that number nor delta moves when a column
is shifted; rescaling T or O multiplies delta by s_O / s_T.  The raw-design
functions (``design_matrices`` ... ``sandwich_cov``) are the references.

Every system's columns, a pair's or the naive regression's, come from
one builder, ``_layout``, which checks the roles once for all P systems.

The solve is stacked: P systems read their (P, d, d) slices of S as one
fancy-index slice, are checked by one stacked ``np.linalg.cond`` and
inverted by one stacked ``np.linalg.inv``.  ``_fit_stack`` is the one path
from systems to estimates and SEs, and takes the pairs as index arrays
into their names with the roles (treatment, outcome, covariates): a
single pair fit, the majority vote and the naive regression are stacks of
one, whose average takes the system's own SE, and the weighted aggregate
stacks every pair.  ``gmm_linear_ate``, ``aggregate._aggregate`` and the
study call it.  For P systems the influence vectors of a slope are
psi = (Xc @ B) * (Xc @ C) on the centred columns Xc, where column k of B
holds system k's residual weights y - a1*W - delta*T - bx'X and column k
of C holds the slope's row of its inverse.  Per-system SEs are the column norms of
psi over n and the weighted sandwich SE is |psi @ w| / n; both are summed
in ``_sandwich_se``'s one loop over fixed row blocks and their row tiles:
a block is one tile unless that would pass ``_PSI_CELLS`` cells of psi (or,
past ``_PSI_CELLS // _TILE_FLOOR`` systems, ``_TILE_FLOOR`` rows).

``_solve_centred``, ``_sandwich_se`` and ``_fit_stack`` also take a stack
of R datasets' statistics on a leading axis, all solved for the same
systems: a study pass fits its replications' naive and fixed-triplet
systems so.  Each dataset of a stack gets the bits it gets alone.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import _ROW_BLOCK, CovMatrix, Dataset
from .errors import SingularDenominatorError, SingularMomentMatrixError

__all__ = [
    "NcPair",
    "BridgeParams",
    "AteEstimate",
    "closed_form_ate",
    "gmm_linear_ate",
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

# psi cells (datasets x rows x systems) per block of the sandwich, the one
# bound on its working set: a larger stack runs in parts, and a dataset
# whose block alone is larger runs in row tiles.  A study pass's dance fits
# of 16 datasets of 1 000 rows and 32 pairs peaked 7 MB higher as one part
# than one dataset at a time; at this cap, about 1 MB.  At 870 pairs a
# whole 8 192-row block held 114 MB.
_PSI_CELLS = 1 << 17
# rows of a tile are a multiple of this, and at least this.  Measured on
# a Xeon (OpenBLAS SkylakeX kernels), 32 columns times 870 or 3 540
# systems: on one thread, tiles of a multiple of 192 rows gave every cell
# of psi the bits of the whole block's GEMM, and tiles of 64, 128, 256 or
# 1 024 rows shifted 70 to 1 300 of a block's 7 or 29 million cells.  On
# two threads, where the block's own GEMM shifts about 60 cells, multiples
# of 192 shifted about 120, and 64 or 128 rows about 5 000.  Haswell
# kernels kept every cell at any multiple of 8, on one thread or two.
_TILE_FLOOR = 192


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
    ValueError
        The pair, the treatment and the outcome are not distinct.
    """
    if formula not in ("primary", "alternate"):
        raise ValueError(f"unknown formula: {formula!r}")
    qs, ms, y = _layout(cov.index_of, (pair.z, pair.w), [0], [1], treatment,
                        outcome)
    if formula == "alternate":
        qs, ms = ms, qs
    try:
        beta, _ = _solve_centred(cov.entries, qs, ms, y)
    except SingularMomentMatrixError as exc:
        raise SingularDenominatorError(
            f"denominator is numerically zero for pair ({pair.z}, {pair.w})"
            f": {exc}"
        ) from None
    return AteEstimate(float(beta[0, 1]), method="closed_form", pair=pair)


def _check_distinct(*roles: str) -> None:
    """ValueError unless the roles (a pair, the treatment, the outcome and
    the covariates, or some of them) name distinct variables."""
    if len(set(roles)) != len(roles):
        raise ValueError(
            "pair, treatment, outcome, and covariates must be distinct"
        )


def _layout(index_of, names, z, w, treatment: str, outcome: str,
            covariates=()) -> tuple[np.ndarray, np.ndarray, int]:
    """The column positions, by ``index_of``, of the systems of the pairs
    (``names[z[k]]``, ``names[w[k]]``): (P, d) instruments (Z, T, X),
    (P, d) regressors (W, T, X) and the outcome.  (P, 0) arrays ``z`` and
    ``w`` give systems without a pair, the naive regression's (T, X).  One
    ValueError for all P unless the roles are distinct."""
    _check_distinct(*set(names), treatment, outcome, *covariates)
    place = np.array([index_of(name)
                      for name in (*names, treatment, *covariates)])
    common = place[len(names):]
    qs, ms = (np.column_stack([place[np.asarray(ends, dtype=np.intp)],
                               *(np.full(len(ends), at) for at in common)])
              for ends in (z, w))
    return qs, ms, index_of(outcome)


@dataclass(frozen=True)
class _Pairs:
    """The pairs (``names[z[k]]``, ``names[w[k]]``), each made into an
    ``NcPair`` only when indexed, or iterated as a sequence: an error
    names one pair only."""

    names: tuple
    z: Sequence
    w: Sequence

    def __getitem__(self, k: int) -> NcPair:
        return NcPair(self.names[self.z[k]], self.names[self.w[k]])


def _used_columns(layout):
    """The sorted columns a stacked ``layout`` reads and the layout
    renumbered to their positions."""
    qs, ms, y = layout
    # not np.unique: on numpy 2 it loads numpy.ma on first use
    used = np.flatnonzero(
        np.bincount(np.concatenate([qs.ravel(), ms.ravel(), [y]])))
    qs, ms, y = (np.searchsorted(used, pos) for pos in (qs, ms, y))
    return used, (qs, ms, int(y))


def _solve_centred(
    moments: np.ndarray, qs, ms, y: int, pairs=None, errors=None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the P systems ``moments[qs[k], ms[k]] beta_k = moments[qs[k],
    y]`` of a centred second-moment matrix ``moments`` in one stacked pass;
    returns beta (P, d) and the inverses (P, d, d).
    SingularMomentMatrixError names the first of ``pairs`` whose
    correlation-scale system ``moments[q, m] / outer(sd_q, sd_m)`` has a
    condition number that is not finite or above 1e12.

    ``moments`` may be a stack (R, p, p) of such matrices, all solved for
    the same systems: beta is then (R, P, d), the inverses (R, P, d, d),
    and each matrix's results have the bits they have alone.  Given a list
    ``errors``, nothing is raised: each matrix's error, or None, is
    appended to it, and its failing systems are solved as identities."""
    qs, ms = np.asarray(qs), np.asarray(ms)
    sd = np.sqrt(np.diagonal(moments, axis1=-2, axis2=-1))
    sd[sd == 0.0] = 1.0
    sd_q, sd_m = sd[..., qs], sd[..., ms]
    corr = moments[..., qs[:, :, None], ms[:, None, :]] / (
        sd_q[..., :, None] * sd_m[..., None, :]
    )
    try:
        cond = np.linalg.cond(corr)
    except np.linalg.LinAlgError:  # the SVD fails on an inf or NaN entry
        finite = np.isfinite(corr).all(axis=(-2, -1))
        corr[~finite] = np.eye(len(ms[0]))
        cond = np.where(finite, np.linalg.cond(corr), np.inf)
    failed = ~(cond <= _COND_LIMIT)  # NaN as well
    found = [None] * (cond.size // len(qs))
    for member, k in zip(*np.nonzero(failed.reshape(len(found), -1))):
        if found[member] is None:  # the member's first failing system
            found[member] = SingularMomentMatrixError(
                "correlation-scale moment matrix is singular or "
                "near-singular",
                cond=float(cond.reshape(len(found), -1)[member, k]),
                pair=None if pairs is None else pairs[k],
            )
    if errors is None:
        for error in found:
            if error is not None:
                raise error
    else:
        errors += found
        if failed.any():
            corr[failed] = np.eye(len(ms[0]))
    inv = np.linalg.inv(corr) / (sd_m[..., :, None] * sd_q[..., None, :])
    # a stacked matmul, not einsum, so each beta has a lone solve's bits
    return (inv @ moments[..., qs, y][..., None])[..., 0], inv


def _sandwich_se(xc, layout, beta, inv, j: int, weights):
    """Each system's sandwich SE of beta[..., j] and that of their
    ``weights`` average, from ``psi = (xc @ B) * (xc @ C)``: column k of B
    holds system k's residual weights and column k of C its row j of the
    inverse.  The column norms over n of psi, and the norm over n of
    ``psi @ weights``, are summed over blocks of ``_ROW_BLOCK`` rows, each
    formed in row tiles in one buffer allocated once per call.  A block is
    one tile unless it would hold more than ``_PSI_CELLS`` cells of psi;
    then a tile has ``_PSI_CELLS // P`` rows, rounded down to a multiple of
    ``_TILE_FLOOR`` and at least that, and a system's column is never
    split.  A block of several tiles keeps a whole block's bits: the tiles'
    products go to rows 1: of the buffer's two halves, and after the first
    tile psi is copied to the second, with row 0 of the two holding the
    block's running sums of squares and a row of ones, so one einsum over
    both continues the block's own sum in its own order.  Each block's
    ``psi @ weights`` is kept whole and its square summed as one vector.

    ``xc`` may be a stack (R, n, p) of centred columns, one per dataset,
    with beta (R, P, d) and the inverses (R, P, d, d) of its systems; the
    SEs are then (R, P) and (R,), and each dataset's have the bits they
    have alone.  A stack whose block would hold more than ``_PSI_CELLS``
    cells of psi runs in parts of fewer datasets, down to one dataset at a
    time, tiled as a dataset alone.  A lone system is padded with an empty
    second one: numpy and BLAS then run the kernels of a wider stack, whose
    columns do not depend on the others, so a system's SE has the same bits
    in every stack."""
    qs, ms, y = layout
    *stack, n, width = xc.shape
    p = beta.shape[-2]
    cols = np.arange(p)[:, None]
    # the roles are distinct, so y is none of a system's regressors
    resid = np.zeros((*stack, width, max(p, 2)))
    resid[..., y, :] = 1.0
    resid[..., ms, cols] = -beta
    instr = np.zeros_like(resid)
    instr[..., qs, cols] = inv[..., j, :]
    pairs = resid.shape[-1]
    sumsq = np.zeros((*stack, pairs))
    total = np.zeros(stack)
    # the datasets of a part, the rows of a tile, and a row for the sums
    block = min(n, _ROW_BLOCK)
    size = max(1, _PSI_CELLS // (pairs * block))
    tile = _ROW_BLOCK if pairs * block <= _PSI_CELLS else max(
        _TILE_FLOOR, _PSI_CELLS // pairs // _TILE_FLOOR * _TILE_FLOOR)
    extra = int(tile < _ROW_BLOCK)
    parts = ([slice(a, a + size) for a in range(0, stack[0], size)]
             if stack else [...])
    members = min(size, stack[0]) if stack else 1
    buffer = np.empty(2 * members * (min(n, tile) + extra) * pairs)
    kept = np.empty(members * block)
    for part in parts:
        lead = xc[part].shape[:-2]
        for start in range(0, n, _ROW_BLOCK):
            rows = xc[part][..., start:start + _ROW_BLOCK, :]
            length = rows.shape[-2]
            influence = kept[:math.prod(lead) * length].reshape(*lead, length)
            for at in range(0, length, tile):
                tiled = rows[..., at:at + tile, :]
                shape = (2, *lead, tiled.shape[-2] + extra, pairs)
                carried, ones = buffer[:math.prod(shape)].reshape(shape)
                psi, copy = carried[..., extra:, :], ones[..., extra:, :]
                np.matmul(tiled, resid[part], out=psi)
                psi *= np.matmul(tiled, instr[part], out=copy)
                if at == 0:  # nothing carried: the sums start at zero
                    sums = np.einsum("...ij,...ij->...j", psi, psi)
                else:
                    carried[..., 0, :] = sums
                    ones[..., 0, :] = 1.0  # the halves move with the rows
                    copy[...] = psi
                    sums = np.einsum("...ij,...ij->...j", carried, ones)
                np.matmul(psi[..., :p], weights,
                          out=influence[..., at:at + tile])
            sumsq[part] += sums
            total[part] += (influence[..., None, :]
                            @ influence[..., None])[..., 0, 0]
    # a float, or a list of one per dataset
    return np.sqrt(sumsq[..., :p]) / n, (np.sqrt(total) / n).tolist()


def _weighted_delta(weights, beta, j: int = DELTA_INDEX - 1):
    """The ``weights`` average of beta[..., j]: a float, or one per
    matrix of a stack, each with the bits it has alone."""
    # dot a contiguous copy: BLAS sums a strided column in another order
    if beta.ndim == 2:
        return float(weights @ beta[:, j].copy())
    return [_weighted_delta(weights, member, j) for member in beta]


def _fit_stack(centred, index_of, names, z, w, weights, roles,
               j: int = DELTA_INDEX - 1, errors=None):
    """The stacked fit of the pairs (``names[z[k]]``, ``names[w[k]]``),
    laid out by ``_layout`` among the columns ``index_of`` places with
    ``roles = (treatment, outcome, covariates)``, on the ``subset`` of the
    centred statistic ``centred`` (``Dataset._centred``) that the systems
    read, and its sandwich SEs: alpha0 (P,), the slopes beta (P, d), each
    system's SE of beta[:, j] (by default delta, as beta = (alpha1, delta,
    bx) has no alpha0), the ``weights`` average of beta[:, j] and its SE,
    and that subset with the layout renumbered to it (``_used_columns``).
    A lone system's average takes the system's own SE.  Empty ``names``
    with (1, 0) ``z`` and ``w`` give the naive regression, which has no
    pair to name in an error.

    ``centred`` may hold a stack of R datasets of one size (``data._centre``
    of an (R, n, p) array); every result then gains a leading axis of R,
    and ``errors`` is as for ``_solve_centred``."""
    used, layout = _used_columns(_layout(index_of, names, z, w, *roles))
    moments = centred.subset(used)
    qs, ms, y = layout
    beta, inv = _solve_centred(moments.gram / moments.n, qs, ms, y,
                               _Pairs(names, z, w) if names else None, errors)
    alpha0 = moments.means[..., y, None] - (
        moments.means[..., ms][..., None, :] @ beta[..., :, None])[..., 0, 0]
    ses, weighted_se = _sandwich_se(moments.xc, layout, beta, inv, j, weights)
    if len(weights) == 1:
        weighted_se = ses[..., 0].tolist()
    return (alpha0, beta, ses, _weighted_delta(weights, beta, j),
            weighted_se, moments, layout)


def design_matrices(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instrument matrix Q = [1, Z, T, X], regressor matrix M = [1, W, T, X],
    and outcome vector y, aligned with theta = (alpha0, alpha1, delta, bx)."""
    (q,), (m,), _ = _layout(data.index_of, (pair.z, pair.w), [0], [1],
                            treatment, outcome, covariates)
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


def _interval(center: float, se: float) -> tuple[float, float]:
    """The 95% normal interval center -/+ 1.96 se."""
    return center - 1.96 * se, center + 1.96 * se


def _pair_estimate(pair: NcPair, alpha0, beta, se) -> AteEstimate:
    """One pair's estimate from its alpha0, its slopes
    beta = (alpha1, delta, bx) and delta's SE."""
    delta = float(beta[DELTA_INDEX - 1])
    se = float(se)
    ci_low, ci_high = _interval(delta, se)
    return AteEstimate(
        delta_hat=delta,
        method="gmm_linear_x" if len(beta) > 2 else "gmm_linear",
        pair=pair,
        se=se,
        ci_low=ci_low,
        ci_high=ci_high,
        params=BridgeParams(
            float(alpha0), float(beta[0]), delta, tuple(beta[2:].tolist())
        ),
    )


def gmm_linear_ate(
    data: Dataset,
    pair: NcPair,
    treatment: str,
    outcome: str,
    covariates=(),
) -> AteEstimate:
    """Exactly identified linear-bridge moment estimate with sandwich SE:
    the stacked fit of one pair.

    With no covariates the point estimate equals ``closed_form_ate`` to
    floating-point precision.
    """
    alpha0, beta, ses, *_ = _fit_stack(
        data._centred, data.index_of, (pair.z, pair.w), [0], [1], np.ones(1),
        (treatment, outcome, tuple(covariates)))
    return _pair_estimate(pair, alpha0[0], beta[0], ses[0])
