"""End-to-end pipeline: search for validated control triplets, then
aggregate their pairwise effect estimates.

``dance`` is the library-level entry point behind the command line's
``dance`` subcommand: it never exits or prints, it just returns the search
report together with the aggregated estimate (or ``None`` when the search
comes back empty, so callers can branch on "no valid negative controls").
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .aggregate import (
    AggregateResult,
    enumerate_pairs,
    majority_vote_estimate,
    weighted_estimate,
)
from .data import Dataset
from .search import FindNcReport, find_nc

__all__ = ["DanceResult", "dance"]


@dataclass(frozen=True)
class DanceResult:
    """Search report plus the aggregated estimate (None when no triplet
    passed validation)."""

    report: FindNcReport
    estimate: AggregateResult | None

    def to_json_dict(self) -> dict:
        return {
            "find": self.report.to_json_dict(),
            "estimate": (
                None if self.estimate is None else self.estimate.to_json_dict()
            ),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def dance(
    data: Dataset,
    treatment: str,
    outcome: str,
    candidates=None,
    covariates=(),
    alpha: float | None = None,
    aggregate: str = "weighted",
    ci_method: str = "sandwich",
    bootstrap_draws: int = 500,
    bootstrap_ci: str = "normal",
    seed: int = 0,
) -> DanceResult:
    """Validate-and-search, then aggregate.

    ``candidates`` defaults to every column except the treatment, the
    outcome, and the covariates.  ``alpha`` defaults to 1/n.  ``aggregate``
    is "weighted" (frequency-weighted pair average) or "majority" (single
    most frequent pair).
    """
    covariates = tuple(covariates)
    if candidates is None:
        excluded = {treatment, outcome, *covariates}
        candidates = [
            name for name in data.variable_names if name not in excluded
        ]
    if aggregate not in ("weighted", "majority"):
        raise ValueError(f"unknown aggregate: {aggregate!r}")
    report = find_nc(data, candidates, treatment, outcome, alpha=alpha)
    if not report.dncts:
        return DanceResult(report=report, estimate=None)
    table = enumerate_pairs(report.dncts)
    if aggregate == "majority":
        estimate = majority_vote_estimate(
            data, table, treatment, outcome, covariates
        )
    else:
        estimate = weighted_estimate(
            data,
            table,
            treatment,
            outcome,
            covariates,
            ci_method=ci_method,
            bootstrap_draws=bootstrap_draws,
            bootstrap_ci=bootstrap_ci,
            seed=seed,
        )
    return DanceResult(report=report, estimate=estimate)
