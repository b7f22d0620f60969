"""Combining effect estimates across the negative-control pairs contained
in validated triplets.

Three aggregators:

* ``majority_vote_estimate`` -- estimate once from the most frequent pair.
* ``weighted_estimate`` -- frequency-weighted average of per-pair moment
  estimates; variance from the stacked sandwich (cross-pair meat) or a
  row-resampling bootstrap.
* ``joint_gmm_triplet`` -- one overidentified moment system for a single
  triplet, sharing the effect parameter across all six instrument blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    BootstrapDegenerateError,
    EmptyDnctListError,
    SingularMomentMatrixError,
)
from .estimate import (
    DELTA_INDEX,
    AteEstimate,
    BridgeParams,
    NcPair,
    design_matrices,
    fit_pair,
    gmm_linear_ate,
    solve_linear_moments,
)
from .search import canonical_triple

__all__ = [
    "PairFrequencyTable",
    "AggregateResult",
    "enumerate_pairs",
    "majority_vote_estimate",
    "weighted_estimate",
    "joint_gmm_triplet",
]

# per-slot bootstrap redraw budget; total retries stay below 10x the draws
_BOOT_RETRIES_PER_SLOT = 10


@dataclass(frozen=True)
class PairFrequencyTable:
    """Ordered-pair frequencies accumulated over validated triplets.

    Each triplet {a, b, c} contributes its six ordered pairs once, so the
    frequencies sum to 6 * (number of triplets).
    """

    entries: tuple[tuple[NcPair, int], ...]

    @property
    def total_pairs(self) -> int:
        """Number of distinct ordered pairs."""
        return len(self.entries)

    @property
    def total_frequency(self) -> int:
        return sum(freq for _, freq in self.entries)

    def frequency(self, pair: NcPair) -> int:
        for candidate, freq in self.entries:
            if candidate == pair:
                return freq
        return 0


def enumerate_pairs(dncts) -> PairFrequencyTable:
    """Count ordered control pairs across triplets.

    Raises
    ------
    EmptyDnctListError
        No triplets supplied.
    """
    triples = [canonical_triple(t) for t in dncts]
    if not triples:
        raise EmptyDnctListError("no validated triplets to aggregate")
    counts: dict[tuple[str, str], int] = {}
    for x, y, z in triples:
        for a, b in ((x, y), (y, x), (x, z), (z, x), (y, z), (z, y)):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    entries = tuple(
        (NcPair(z=a, w=b), counts[(a, b)]) for a, b in sorted(counts)
    )
    return PairFrequencyTable(entries=entries)


@dataclass(frozen=True)
class AggregateResult:
    """Aggregated effect estimate with its per-pair contribution table."""

    delta_hat: float
    se: float
    ci_low: float
    ci_high: float
    method: str
    per_pair: tuple[tuple[NcPair, AteEstimate, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "method": self.method,
            "per_pair": [
                {
                    "z": pair.z,
                    "w": pair.w,
                    "weight": weight,
                    "delta_hat": est.delta_hat,
                    "se": est.se,
                }
                for pair, est, weight in self.per_pair
            ],
        }


def _interval(center: float, se: float) -> tuple[float, float]:
    return center - 1.96 * se, center + 1.96 * se


def _unordered_pairs(table: PairFrequencyTable) -> list[tuple[NcPair, int]]:
    """Both orientations of each pair folded into one entry, sorted, with
    the smaller name as z."""
    merged: dict[tuple[str, str], int] = {}
    for pair, freq in table.entries:
        key = tuple(sorted((pair.z, pair.w)))
        merged[key] = merged.get(key, 0) + freq
    return [(NcPair(z=a, w=b), freq) for (a, b), freq in sorted(merged.items())]


def _weighted_pairs(
    table: PairFrequencyTable, pair_space: str
) -> tuple[list[NcPair], np.ndarray]:
    if pair_space == "ordered":
        selected = list(table.entries)
    elif pair_space == "unordered":
        selected = _unordered_pairs(table)
    else:
        raise ValueError(f"unknown pair_space: {pair_space!r}")
    pairs = [pair for pair, _ in selected]
    freqs = np.array([freq for _, freq in selected], dtype=float)
    return pairs, freqs / freqs.sum()


def _stacked_delta_variance(a_blocks, g_blocks, weights: np.ndarray) -> float:
    """omega' V omega for the stacked exactly identified system.

    The Jacobian is block diagonal (each pair has its own parameters), the
    meat is the full cross-pair per-observation outer product, and omega
    holds each pair's weight at its delta coordinate.
    """
    n = g_blocks[0].shape[0]
    dims = [a_n.shape[0] for a_n in a_blocks]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = offsets[-1]
    g_all = np.hstack(g_blocks)
    meat = g_all.T @ g_all / n
    inv_blocks = np.zeros((total, total))
    for a_n, start, dim in zip(a_blocks, offsets[:-1], dims):
        inv_blocks[start:start + dim, start:start + dim] = np.linalg.inv(a_n)
    v = inv_blocks @ meat @ inv_blocks.T / n
    v = (v + v.T) / 2.0
    omega = np.zeros(total)
    for weight, start in zip(weights, offsets[:-1]):
        omega[start + DELTA_INDEX] = weight
    return float(omega @ v @ omega)


def _bootstrap_se(
    data: Dataset,
    pairs: list[NcPair],
    weights: np.ndarray,
    treatment: str,
    outcome: str,
    covariates,
    draws: int,
    seed,
) -> np.ndarray:
    """Bootstrap draws of the weighted estimate, one per slot.

    Each slot derives its own random stream from (seed, slot, attempt), so
    a slot's draw does not depend on how the other slots went.  A slot
    whose resample fails (singular moment matrix) is redrawn, up to a
    per-slot budget that caps total retries below ten times the requested
    draws.
    """
    designs = [
        design_matrices(data, pair, treatment, outcome, covariates)
        for pair in pairs
    ]
    n = data.n

    def one_slot(slot: int) -> float:
        for attempt in range(_BOOT_RETRIES_PER_SLOT):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, slot, attempt))
            )
            idx = rng.integers(0, n, size=n)
            try:
                deltas = np.array(
                    [
                        solve_linear_moments(q[idx], m[idx], y[idx])[0][
                            DELTA_INDEX
                        ]
                        for q, m, y in designs
                    ]
                )
            except SingularMomentMatrixError:
                continue
            return float(weights @ deltas)
        raise BootstrapDegenerateError(
            f"bootstrap slot {slot} failed {_BOOT_RETRIES_PER_SLOT} times"
        )

    return np.asarray([one_slot(slot) for slot in range(draws)])


def weighted_estimate(
    data: Dataset,
    table: PairFrequencyTable,
    treatment: str,
    outcome: str,
    covariates=(),
    ci_method: str = "sandwich",
    bootstrap_draws: int = 500,
    bootstrap_ci: str = "normal",
    seed: int = 0,
    pair_space: str = "ordered",
) -> AggregateResult:
    """Frequency-weighted average of the per-pair moment estimates.

    ``ci_method`` is "sandwich" (stacked sandwich with cross-pair meat) or
    "bootstrap" (row resampling with the pair set held fixed;
    ``bootstrap_ci`` picks a normal or percentile interval).
    """
    if ci_method not in ("sandwich", "bootstrap"):
        raise ValueError(f"unknown ci_method: {ci_method!r}")
    if bootstrap_ci not in ("normal", "percentile"):
        raise ValueError(f"unknown bootstrap_ci: {bootstrap_ci!r}")
    covariates = tuple(covariates)
    pairs, weights = _weighted_pairs(table, pair_space)
    estimates, a_blocks, g_blocks = zip(
        *(fit_pair(data, pair, treatment, outcome, covariates) for pair in pairs)
    )
    deltas = np.array([est.delta_hat for est in estimates])
    delta_hat = float(weights @ deltas)
    per_pair = tuple(
        (est.pair, est, float(weight))
        for est, weight in zip(estimates, weights)
    )
    if ci_method == "sandwich":
        se = math.sqrt(_stacked_delta_variance(a_blocks, g_blocks, weights))
        ci_low, ci_high = _interval(delta_hat, se)
        method = "weighted_sandwich"
    else:
        if bootstrap_draws < 2:
            raise ValueError("bootstrap needs at least 2 draws")
        boot = _bootstrap_se(
            data,
            pairs,
            weights,
            treatment,
            outcome,
            covariates,
            bootstrap_draws,
            seed,
        )
        se = float(np.std(boot, ddof=1))
        if bootstrap_ci == "normal":
            ci_low, ci_high = _interval(delta_hat, se)
        else:
            ci_low = float(np.quantile(boot, 0.025))
            ci_high = float(np.quantile(boot, 0.975))
        method = f"weighted_bootstrap_{bootstrap_ci}"
    return AggregateResult(
        delta_hat=delta_hat,
        se=se,
        ci_low=ci_low,
        ci_high=ci_high,
        method=method,
        per_pair=per_pair,
    )


def majority_vote_estimate(
    data: Dataset,
    table: PairFrequencyTable,
    treatment: str,
    outcome: str,
    covariates=(),
) -> AggregateResult:
    """Estimate from the single most frequent unordered pair.

    Frequencies of the two orientations are combined; ties break to the
    lexicographically smallest pair, oriented with the smaller name as z.
    """
    # max keeps the first of equal frequencies, and the pairs come sorted
    winner, _ = max(_unordered_pairs(table), key=lambda entry: entry[1])
    est = gmm_linear_ate(data, winner, treatment, outcome, covariates)
    return AggregateResult(
        delta_hat=est.delta_hat,
        se=est.se,
        ci_low=est.ci_low,
        ci_high=est.ci_high,
        method="majority_vote",
        per_pair=((winner, est, 1.0),),
    )


def _joint_system(
    data: Dataset, triple, treatment: str, outcome: str, covariates
):
    """Stacked mean-moment system for one triplet.

    Parameters are (alpha0_i, alpha1_i, beta_x_i) per outcome-side control
    plus one shared delta (last coordinate).  Moments are the six
    instrument blocks q(1, Z, T, X) * residual(W).
    """
    x, y, z = canonical_triple(triple)
    if len({x, y, z, treatment, outcome, *covariates}) != 5 + len(covariates):
        raise ValueError(
            "triple, treatment, outcome, and covariates must be distinct"
        )
    combos = [
        (x, y), (x, z), (y, x), (y, z), (z, x), (z, y),
    ]  # (outcome-side W, exposure-side Z)
    n = data.n
    n_cov = len(covariates)
    per_bridge = 2 + n_cov
    n_params = 3 * per_bridge + 1
    block_dim = 3 + n_cov
    bridge_index = {x: 0, y: 1, z: 2}

    ones = np.ones(n)
    t_col = data.column(treatment)
    y_col = data.column(outcome)
    x_cols = data.columns(covariates) if covariates else np.empty((n, 0))

    a_mat = np.zeros((6 * block_dim, n_params))
    c_vec = np.zeros(6 * block_dim)
    q_blocks = []
    w_cols = []
    for row, (w_var, z_var) in enumerate(combos):
        q = np.column_stack([ones, data.column(z_var), t_col, x_cols])
        w_col = data.column(w_var)
        start = row * block_dim
        stop = start + block_dim
        offset = bridge_index[w_var] * per_bridge
        a_mat[start:stop, offset] = q.T @ ones / n
        a_mat[start:stop, offset + 1] = q.T @ w_col / n
        for j in range(n_cov):
            a_mat[start:stop, offset + 2 + j] = q.T @ x_cols[:, j] / n
        a_mat[start:stop, -1] = q.T @ t_col / n
        c_vec[start:stop] = q.T @ y_col / n
        q_blocks.append(q)
        w_cols.append(w_col)
    return combos, a_mat, c_vec, q_blocks, w_cols, bridge_index, per_bridge


def joint_gmm_triplet(
    data: Dataset,
    triple,
    treatment: str,
    outcome: str,
    covariates=(),
) -> AggregateResult:
    """One shared-parameter moment fit for a single validated triplet.

    The mean moments are linear in the parameters, so the overidentified
    system is fitted by one least-squares solve.

    Raises
    ------
    ValueError
        A covariate coincides with a triple member, the treatment or the
        outcome.
    SingularMomentMatrixError
        Stacked system rank-deficient.
    """
    covariates = tuple(covariates)
    combos, a_mat, c_vec, q_blocks, w_cols, bridge_index, per_bridge = (
        _joint_system(data, triple, treatment, outcome, covariates)
    )
    n_params = a_mat.shape[1]
    rank = np.linalg.matrix_rank(a_mat)
    if rank < n_params:
        cond = float(np.linalg.cond(a_mat))
        raise SingularMomentMatrixError(
            f"stacked moment system has rank {rank} < {n_params}", cond=cond
        )

    theta = np.linalg.lstsq(a_mat, c_vec, rcond=None)[0]

    # per-observation moments for the sandwich
    n = data.n
    t_col = data.column(treatment)
    y_col = data.column(outcome)
    x_cols = (
        data.columns(covariates) if covariates else np.empty((n, 0))
    )
    delta = float(theta[-1])
    g_parts = []
    for (w_var, _), q, w_col in zip(combos, q_blocks, w_cols):
        offset = bridge_index[w_var] * per_bridge
        fitted = (
            theta[offset]
            + theta[offset + 1] * w_col
            + (x_cols @ theta[offset + 2 : offset + per_bridge]
               if covariates else 0.0)
            + delta * t_col
        )
        g_parts.append(q * (y_col - fitted)[:, None])
    g_all = np.hstack(g_parts)
    meat = g_all.T @ g_all / n
    h_inv = np.linalg.inv(a_mat.T @ a_mat)
    var = h_inv @ a_mat.T @ meat @ a_mat @ h_inv / n
    se = float(np.sqrt(var[-1, -1]))

    per_pair = []
    for w_var, z_var in combos:
        offset = bridge_index[w_var] * per_bridge
        pair = NcPair(z=z_var, w=w_var)
        est = AteEstimate(
            delta_hat=delta,
            method="joint_gmm",
            pair=pair,
            se=se,
            ci_low=delta - 1.96 * se,
            ci_high=delta + 1.96 * se,
            params=BridgeParams(
                alpha0=float(theta[offset]),
                alpha1=float(theta[offset + 1]),
                delta=delta,
                beta_x=tuple(
                    float(v)
                    for v in theta[offset + 2 : offset + per_bridge]
                ),
            ),
        )
        per_pair.append((pair, est, 1.0 / 6.0))
    ci_low, ci_high = _interval(delta, se)
    return AggregateResult(
        delta_hat=delta,
        se=se,
        ci_low=ci_low,
        ci_high=ci_high,
        method="joint_gmm",
        per_pair=tuple(per_pair),
    )
