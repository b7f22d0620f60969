"""Combining effect estimates across the negative-control pairs contained
in validated triplets.

Two aggregators:

* ``majority_vote_estimate`` -- estimate once from the most frequent pair.
* ``weighted_estimate`` -- frequency-weighted average of per-pair moment
  estimates; variance from the stacked sandwich (cross-pair meat) or a
  row-resampling bootstrap.

One pair plan, ``_pair_plan``, picks from pair counts the pairs to fit
as index arrays into their names, and their weights, for
``enumerate_pairs``, the study (through ``_triples_plan``) and the
majority vote.  One step, ``_aggregate``, builds every
``AggregateResult`` from such a plan: the two public aggregators, which
``dance`` calls, pass the plan of their table (``_table_plan``).

Both read the dataset's one centred statistic, ``data._Moments``, or its
subset of the columns the pairs read: the fits solve on its cross
products, the sandwich reads its centred columns, and the bootstrap
solves stacks of its ``resampled`` moment matrices, forming no n x k array.
Every sandwich SE, each pair's, the weighted average's and the majority
pair's, comes from the one row-blocked sandwich of
``estimate._fit_stack``.  The majority vote is the fit of its lone pair,
so its SE is that pair's, and it has no bootstrap.

The bootstrap's slots are cut into the parts of ``_fork.cuts``, each of
at least ``_BOOT_CHUNK`` draws, and ``_fork.map_parts`` draws the parts
after the first in forked children.  A part solves runs of ``_BOOT_CHUNK``
draws in one stacked pass each.  Each slot seeds itself, so the draws do
not depend on the split.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from numbers import Integral

import numpy as np

from ._fork import _receive_bytes, cuts, map_parts
from .data import Dataset
from .errors import BootstrapDegenerateError, EmptyDnctListError
from .estimate import (
    AteEstimate,
    NcPair,
    _fit_stack,
    _interval,
    _pair_estimate,
    _Pairs,
    _solve_centred,
    _weighted_delta,
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
# draws per forked part of _bootstrap_se: on a 200 000 x 9 dataset with
# 32 pairs, 5 draws took 16.4 ms here and 16.6 ms as two parts, 8 draws
# 22.0 against 20.0 ms and 20 draws 50.7 against 30.7 ms (2 vCPUs, a 96 MB
# process: the fork copies its page tables)
_BOOT_CHUNK = 4


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one too, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class PairFrequencyTable:
    """Ordered-pair frequencies accumulated over validated triplets.

    Each triplet {a, b, c} contributes its six ordered pairs once, so the
    frequencies sum to 6 * (number of triplets).  ValueError unless each
    pair is listed once with a positive integer frequency.
    """

    entries: tuple[tuple[NcPair, int], ...]

    def __post_init__(self):
        for pair, freq in self.entries:
            if not _is_integer(freq) or freq < 1:
                raise ValueError(f"frequency of {pair} must be a positive "
                                 f"integer, got {freq!r}")
        if len({pair for pair, _ in self.entries}) != len(self.entries):
            raise ValueError("each ordered pair must appear once")

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
    """Count ordered control pairs across triplets, in the pair plan's
    order.

    Raises
    ------
    EmptyDnctListError
        No triplets supplied.
    """
    triples = [canonical_triple(t) for t in dncts]
    names = sorted({name for triple in triples for name in triple})
    index = {name: i for i, name in enumerate(names)}
    rows = np.array([[index[name] for name in t] for t in triples],
                    dtype=np.intp)
    counts = _pair_counts(rows.reshape(-1, 3), len(names))
    z, w, _ = _pair_plan(counts)
    return PairFrequencyTable(entries=tuple(
        (NcPair(z=names[a], w=names[b]), freq)
        for a, b, freq in zip(z.tolist(), w.tolist(),
                              counts[z, w].tolist())
    ))


# the ordered pairs (0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1) of a
# triple's positions
_ORDERED_PAIRS = np.array([[0, 1, 0, 2, 1, 2], [1, 0, 2, 0, 2, 1]])


def _pair_counts(rows: np.ndarray, c: int) -> np.ndarray:
    """The (c, c) matrix of how many of the triples ``rows``, a (D, 3)
    array of distinct indices below ``c``, hold each ordered pair;
    EmptyDnctListError when there are none."""
    if not len(rows):
        raise EmptyDnctListError("no validated triplets to aggregate")
    z, w = rows.T[_ORDERED_PAIRS]
    return np.bincount((z * c + w).ravel(), minlength=c * c).reshape(c, c)


def _pair_plan(counts: np.ndarray, aggregate: str = "weighted"):
    """The index arrays (z, w) of the pairs an ``aggregate`` fits and their
    weights, from a (c, c) matrix of ordered-pair counts: every nonzero
    pair row by row, weighted by its share, or the majority pair z < w,
    most counts in both orientations, first of equals, with weight 1."""
    if aggregate == "majority":
        upper = np.triu_indices(len(counts), 1)
        k = int(np.argmax((counts + counts.T)[upper]))
        return upper[0][k:k + 1], upper[1][k:k + 1], np.ones(1)
    z, w = np.nonzero(counts)
    freqs = counts[z, w].astype(float)
    return z, w, freqs / freqs.sum()


def _triples_plan(rows: np.ndarray, c: int, aggregate: str = "weighted"):
    """The ``_pair_plan`` of the (D, 3) index triples ``rows`` below ``c``."""
    return _pair_plan(_pair_counts(rows, c), aggregate)


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
    aggregate: str, ci_method: str, bootstrap_draws: int, bootstrap_ci: str,
    seed
) -> None:
    """Reject an ``aggregate`` and interval options ``_aggregate`` would
    not accept, before any pair is searched for or fitted: a bootstrap
    needs the weighted aggregate, an integer count of at least 2 draws and
    a non-negative integer seed (a bool is neither).  The sandwich reads
    neither."""
    if aggregate not in ("weighted", "majority"):
        raise ValueError(f"unknown aggregate: {aggregate!r}")
    if ci_method not in ("sandwich", "bootstrap"):
        raise ValueError(f"unknown ci_method: {ci_method!r}")
    if bootstrap_ci not in ("normal", "percentile"):
        raise ValueError(f"unknown bootstrap_ci: {bootstrap_ci!r}")
    if ci_method != "bootstrap":
        return
    if aggregate != "weighted":
        raise ValueError(f"ci_method 'bootstrap' needs aggregate 'weighted', "
                         f"got aggregate {aggregate!r}")
    if not _is_integer(bootstrap_draws) or bootstrap_draws < 2:
        raise ValueError("bootstrap_draws must be an integer of at least 2 "
                         f"draws, got {bootstrap_draws!r}")
    if not _is_integer(seed) or seed < 0:
        raise ValueError("seed must be a non-negative integer for a "
                         f"bootstrap, got {seed!r}")


def _bootstrap_se(
    centred,
    layout,
    weights: np.ndarray,
    draws: int,
    seed,
) -> np.ndarray:
    """Bootstrap draws of the weighted estimate, one per slot.

    A row resample is fully described by how often it draws each row, so
    a draw is the count-weighted centred moment matrix of the centred
    statistic ``centred`` (``data._Moments.resampled``); one stacked solve
    on a run of such matrices fits every pair, whose systems ``layout``
    stacks, and gives each draw the bits it has alone.

    Each slot derives its own random stream from (seed, slot, attempt), so
    a slot's draw does not depend on how the other slots went.  A slot
    whose resample fails (singular moment matrix) is redrawn, up to a
    per-slot budget that caps total retries below ten times the requested
    draws.

    The slots are cut into the ranges of ``_fork.cuts``, each of at least
    ``_BOOT_CHUNK`` draws, and ``_fork.map_parts`` runs the ranges after
    the first in forked children.  A range whose child failed runs again
    here, so a ``BootstrapDegenerateError`` names the first slot that
    failed, whatever the split.  Every draw runs the same code in any
    process, so its bits do not depend on the split.
    """
    parts = [range(a, b) for a, b in cuts(draws, _BOOT_CHUNK)]
    run = partial(_slot_draws, centred, layout, weights, seed)
    done = map_parts(parts, run, run, _received_draws)
    return np.concatenate([run(part) if block is None else block
                           for part, block in zip(parts, done)])


def _slot_draws(centred, layout, weights: np.ndarray, seed,
                slots: range) -> np.ndarray:
    """The draws of ``slots`` from the centred statistic ``centred``, in
    runs of at most ``_BOOT_CHUNK`` slots.  An attempt forms the moment
    matrices of the run's slots still to draw as one stack
    (``data._Moments.resampled``) and solves them in one pass that lists
    each member's error; a slot whose matrix is singular is drawn again at
    its next attempt.  BootstrapDegenerateError names the first slot of a
    run still failing after ``_BOOT_RETRIES_PER_SLOT`` attempts."""
    out = np.empty(len(slots))
    for start in range(0, len(slots), _BOOT_CHUNK):
        pending = range(start, min(start + _BOOT_CHUNK, len(slots)))
        for attempt in range(_BOOT_RETRIES_PER_SLOT):
            errors: list = []
            beta, _ = _solve_centred(
                centred.resampled([(seed, slots[i], attempt)
                                   for i in pending]),
                *layout, errors=errors)
            for i, member, error in zip(pending, beta, errors):
                if error is None:
                    out[i] = _weighted_delta(weights, member)
            pending = [i for i, error in zip(pending, errors)
                       if error is not None]
            if not pending:
                break
        else:
            raise BootstrapDegenerateError(
                f"bootstrap slot {slots[pending[0]]} failed "
                f"{_BOOT_RETRIES_PER_SLOT} times"
            )
    return out


def _received_draws(fd: int):
    """The draws a child sent on ``fd``, or None if they ended early."""
    payload = _receive_bytes(fd)
    return None if payload is None else np.frombuffer(payload)


def _aggregate(
    data: Dataset,
    names,
    z: np.ndarray,
    w: np.ndarray,
    weights: np.ndarray,
    roles,
    aggregate: str = "weighted",
    ci_method: str = "sandwich",
    bootstrap_draws: int = 500,
    bootstrap_ci: str = "normal",
    seed: int = 0,
) -> AggregateResult:
    """The ``aggregate`` of the pairs (``names[z[k]]``, ``names[w[k]]``)
    with ``weights`` and ``roles = (treatment, outcome, covariates)``: one
    ``estimate._fit_stack`` fits them all, and the ``weights`` average of
    their deltas gets the stacked sandwich's SE (with the cross-pair
    covariance) or a bootstrap's.  The majority vote is its lone pair's
    fit.  The options are ``_check_interval_options``'s."""
    alpha0, beta, ses, delta_hat, se, moments, local = _fit_stack(
        data._centred, data.index_of, names, z, w, weights, roles)
    per_pair = tuple(
        (pair, _pair_estimate(pair, a0, slopes, pair_se), float(weight))
        for pair, a0, slopes, pair_se, weight in zip(
            _Pairs(names, z, w), alpha0, beta, ses, weights)
    )
    ci_low, ci_high = _interval(delta_hat, se)
    if aggregate == "majority":
        method = "majority_vote"
    elif ci_method == "sandwich":
        method = "weighted_sandwich"
    else:
        boot = _bootstrap_se(moments, local, weights, bootstrap_draws, seed)
        se = float(np.std(boot, ddof=1))
        if bootstrap_ci == "normal":
            ci_low, ci_high = _interval(delta_hat, se)
        else:
            ci_low = float(np.quantile(boot, 0.025))
            ci_high = float(np.quantile(boot, 0.975))
        method = f"weighted_bootstrap_{bootstrap_ci}"
    return AggregateResult(delta_hat, se, ci_low, ci_high, method, per_pair)


def _table_plan(table: PairFrequencyTable):
    """The names, in sorted order, of the pairs of ``table`` and the pairs
    as index arrays (z, w) into them with their frequencies, in the
    table's order; EmptyDnctListError for an empty table."""
    if not table.entries:
        raise EmptyDnctListError("no control pairs to aggregate")
    pairs = [pair for pair, _ in table.entries]
    names = sorted({name for pair in pairs for name in (pair.z, pair.w)})
    index = {name: i for i, name in enumerate(names)}
    return (names, np.array([index[pair.z] for pair in pairs]),
            np.array([index[pair.w] for pair in pairs]),
            np.array([freq for _, freq in table.entries]))


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
) -> AggregateResult:
    """Frequency-weighted average of the per-pair moment estimates.

    Every pair is fitted by one stacked solve on the dataset's centred
    moment matrix.  ``ci_method`` is "sandwich" (stacked sandwich with
    cross-pair meat) or "bootstrap" (row resampling with the pair set held
    fixed; ``bootstrap_ci`` picks a normal or percentile interval).
    """
    _check_interval_options("weighted", ci_method, bootstrap_draws,
                            bootstrap_ci, seed)
    names, z, w, freqs = _table_plan(table)
    freqs = freqs.astype(float)
    return _aggregate(data, names, z, w, freqs / freqs.sum(),
                      (treatment, outcome, tuple(covariates)), "weighted",
                      ci_method, bootstrap_draws, bootstrap_ci, seed)


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
    names, z, w, freqs = _table_plan(table)
    counts = np.zeros((len(names), len(names)), dtype=np.int64)
    counts[z, w] = freqs
    return _aggregate(data, names, *_pair_plan(counts, "majority"),
                      (treatment, outcome, tuple(covariates)), "majority")
