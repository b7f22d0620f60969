"""Combining effect estimates across the negative-control pairs contained
in validated triplets.

Two aggregators:

* ``majority_vote_estimate`` -- estimate once from the most frequent pair.
* ``weighted_estimate`` -- frequency-weighted average of per-pair moment
  estimates; variance from the stacked sandwich (cross-pair meat) or a
  row-resampling bootstrap.

Both read the dataset's one centred moment statistic (see ``data``): the
fits solve on its cross products, and the sandwich and every bootstrap
draw read its centred copy of just the columns the pairs use.
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
    NcPair,
    _fit_centred,
    _pair_estimate,
    _sandwich_se,
    _solve_centred,
    _stacked_columns,
    _used_columns,
    gmm_linear_ate,
)
from .search import canonical_triple

__all__ = [
    "PairFrequencyTable",
    "AggregateResult",
    "enumerate_pairs",
    "majority_vote_estimate",
    "weighted_estimate",
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


def _check_interval_options(
    ci_method: str, bootstrap_draws: int, bootstrap_ci: str
) -> None:
    """Reject interval options ``weighted_estimate`` would not accept,
    before any pair is searched for or fitted."""
    if ci_method not in ("sandwich", "bootstrap"):
        raise ValueError(f"unknown ci_method: {ci_method!r}")
    if bootstrap_ci not in ("normal", "percentile"):
        raise ValueError(f"unknown bootstrap_ci: {bootstrap_ci!r}")
    if ci_method == "bootstrap" and bootstrap_draws < 2:
        raise ValueError("bootstrap needs at least 2 draws")


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
    xc: np.ndarray,
    layout,
    weights: np.ndarray,
    draws: int,
    seed,
) -> np.ndarray:
    """Bootstrap draws of the weighted estimate, one per slot.

    A row resample is fully described by how often it draws each row, so
    a draw weights the rows of the centred columns ``xc`` by their counts
    and forms one count-weighted centred moment matrix; one stacked solve
    on that matrix fits every pair, whose systems ``layout`` stacks.

    Each slot derives its own random stream from (seed, slot, attempt), so
    a slot's draw does not depend on how the other slots went.  A slot
    whose resample fails (singular moment matrix) is redrawn, up to a
    per-slot budget that caps total retries below ten times the requested
    draws.
    """
    n = xc.shape[0]

    def one_slot(slot: int) -> float:
        for attempt in range(_BOOT_RETRIES_PER_SLOT):
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, slot, attempt))
            )
            counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
            # centred at the draw's means, not by subtracting their outer
            # product: a column the draw holds constant keeps rounding-level
            # correlations, not a variance of rounding noise, and is rejected
            dev = xc - counts @ xc / n
            dev *= np.sqrt(counts)[:, None]
            moments = dev.T @ dev / n
            try:
                beta, _ = _solve_centred(moments, *layout)
            except SingularMomentMatrixError:
                continue
            return float(weights @ beta[:, DELTA_INDEX - 1].copy())
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

    Every pair is fitted by one stacked solve on the dataset's centred
    moment matrix.  ``ci_method`` is "sandwich" (stacked sandwich with
    cross-pair meat) or "bootstrap" (row resampling with the pair set held
    fixed; ``bootstrap_ci`` picks a normal or percentile interval).
    """
    _check_interval_options(ci_method, bootstrap_draws, bootstrap_ci)
    covariates = tuple(covariates)
    pairs, weights = _weighted_pairs(table, pair_space)
    layout = _stacked_columns(data, pairs, treatment, outcome, covariates)
    alpha0, beta, inv = _fit_centred(data, layout, pairs)
    xc, local = _used_columns(data, layout)
    # each pair's SE and that of the weighted average, omega' V omega with
    # the cross-pair covariance included; beta = (alpha1, delta, bx) has
    # no alpha0
    ses, weighted_se = _sandwich_se(
        xc, local, beta, inv, DELTA_INDEX - 1, weights
    )
    per_pair = tuple(
        (pair, _pair_estimate(pair, a0, slopes, se), float(weight))
        for pair, a0, slopes, se, weight in zip(
            pairs, alpha0, beta, ses, weights
        )
    )
    # dot a contiguous copy: BLAS sums a strided column in another order
    delta_hat = float(weights @ beta[:, DELTA_INDEX - 1].copy())
    if ci_method == "sandwich":
        se = weighted_se
        ci_low, ci_high = _interval(delta_hat, se)
        method = "weighted_sandwich"
    else:
        boot = _bootstrap_se(xc, local, weights, bootstrap_draws, seed)
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
