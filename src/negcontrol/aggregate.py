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
    _moment_columns,
    _solve_checked,
    fit_pair,
    gmm_linear_ate,
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

    A row resample is fully described by how often it draws each row, so
    a draw weights the rows of A = [1, columns the pairs read] by their
    counts and forms one Gram matrix A' diag(counts) A / n; every pair
    solves its moment system from a slice of it.

    Each slot derives its own random stream from (seed, slot, attempt), so
    a slot's draw does not depend on how the other slots went.  A slot
    whose resample fails (singular moment matrix) is redrawn, up to a
    per-slot budget that caps total retries below ten times the requested
    draws.
    """
    names = [treatment, outcome, *covariates,
             *sorted({name for pair in pairs for name in (pair.z, pair.w)})]
    n = data.n
    a = np.column_stack([np.ones(n), data.columns(names)])
    layouts = [
        _moment_columns(names, pair, treatment, outcome, covariates)
        for pair in pairs
    ]

    def one_slot(slot: int) -> float:
        for attempt in range(_BOOT_RETRIES_PER_SLOT):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, slot, attempt))
            )
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            gram = a.T @ (a * counts[:, None]) / n
            try:
                deltas = [
                    _solve_checked(gram[np.ix_(q, m)], gram[q, y])[DELTA_INDEX]
                    for q, m, y in layouts
                ]
            except SingularMomentMatrixError:
                continue
            return float(weights @ np.array(deltas))
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
    estimates = []
    # the weighted sum of the pairs' influence vectors; its norm gives the
    # stacked sandwich variance omega' V omega
    influence = np.zeros(data.n)
    for pair, weight in zip(pairs, weights):
        est, psi = fit_pair(data, pair, treatment, outcome, covariates)
        estimates.append(est)
        influence += weight * psi
    deltas = np.array([est.delta_hat for est in estimates])
    delta_hat = float(weights @ deltas)
    per_pair = tuple(
        (est.pair, est, float(weight))
        for est, weight in zip(estimates, weights)
    )
    if ci_method == "sandwich":
        se = float(np.linalg.norm(influence)) / data.n
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


def joint_gmm_triplet(
    data: Dataset,
    triple,
    treatment: str,
    outcome: str,
    covariates=(),
) -> AggregateResult:
    """One shared-parameter moment fit for a single validated triplet.

    Parameters are (alpha0, alpha1, beta_x) per outcome-side control plus
    one shared delta (last coordinate).  The moments are the six
    instrument blocks q(1, Z, T, X) * residual(W); they are linear in the
    parameters, so every block is a slice of one Gram matrix A'A / n with
    A = [1, triple, T, O, X], and the overidentified system is fitted by
    one least-squares solve.  The standard error is the norm of delta's
    influence vector.

    Raises
    ------
    ValueError
        A covariate coincides with a triple member, the treatment or the
        outcome.
    SingularMomentMatrixError
        Stacked system rank-deficient.
    """
    covariates = tuple(covariates)
    members = canonical_triple(triple)
    names = (*members, treatment, outcome, *covariates)
    if len(set(names)) != len(names):
        raise ValueError(
            "triple, treatment, outcome, and covariates must be distinct"
        )
    n = data.n
    a = np.column_stack([np.ones(n), data.columns(names)])
    gram = a.T @ a / n
    # (outcome-side W, exposure-side Z)
    combos = [(w, z) for w in members for z in members if z != w]
    per_bridge = 2 + len(covariates)
    n_params = 3 * per_bridge + 1
    block_dim = per_bridge + 1
    # each bridge's parameter positions in the column order of M = [1, W, T, X]
    bridge_params = {
        w: [k * per_bridge, k * per_bridge + 1, n_params - 1,
            *range(k * per_bridge + 2, (k + 1) * per_bridge)]
        for k, w in enumerate(members)
    }
    a_mat = np.zeros((6 * block_dim, n_params))
    c_vec = np.zeros(6 * block_dim)
    blocks = []
    for row, (w_var, z_var) in enumerate(combos):
        q, m, y_col = _moment_columns(
            names, NcPair(z=z_var, w=w_var), treatment, outcome, covariates
        )
        rows = slice(row * block_dim, (row + 1) * block_dim)
        a_mat[rows, bridge_params[w_var]] = gram[np.ix_(q, m)]
        c_vec[rows] = gram[q, y_col]
        blocks.append((rows, w_var, q, m, y_col))
    rank = np.linalg.matrix_rank(a_mat)
    if rank < n_params:
        cond = float(np.linalg.cond(a_mat))
        raise SingularMomentMatrixError(
            f"stacked moment system has rank {rank} < {n_params}", cond=cond
        )

    theta = np.linalg.lstsq(a_mat, c_vec, rcond=None)[0]
    delta = float(theta[-1])

    # sandwich variance of delta: the squared norm of its influence vector
    # G u / n, with G the per-observation moments of all six blocks
    u = a_mat @ np.linalg.inv(a_mat.T @ a_mat)[:, -1]
    psi = np.zeros(n)
    for rows, w_var, q, m, y_col in blocks:
        resid = a[:, y_col] - a[:, m] @ theta[bridge_params[w_var]]
        psi += (a[:, q] @ u[rows]) * resid
    se = float(np.linalg.norm(psi)) / n

    per_pair = []
    for w_var, z_var in combos:
        params = theta[bridge_params[w_var]]
        pair = NcPair(z=z_var, w=w_var)
        est = AteEstimate(
            delta_hat=delta,
            method="joint_gmm",
            pair=pair,
            se=se,
            ci_low=delta - 1.96 * se,
            ci_high=delta + 1.96 * se,
            params=BridgeParams(
                alpha0=float(params[0]),
                alpha1=float(params[1]),
                delta=delta,
                beta_x=tuple(float(v) for v in params[3:]),
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
