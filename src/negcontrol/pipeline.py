"""End-to-end pipeline: search for validated control triplets, then
aggregate their pairwise effect estimates.

``dance`` is the library-level entry point behind the command line's
``dance`` subcommand: it never exits or prints, it just returns the search
report together with the aggregated estimate (or ``None`` when the search
comes back empty, so callers can branch on "no valid negative controls").
It checks its run plan and options once, before any work, and then runs
the one search kernel (``search._report``) and the one aggregation step
(``aggregate._aggregate``) on the pair plan of the triples that passed.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass

from .aggregate import (
    AggregateResult,
    _aggregate,
    _check_interval_options,
    _triples_plan,
)
from .data import Dataset, covariance
from .search import FindNcReport, _report, _search_plan

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

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)``,
        written by the streaming writer."""
        text = io.StringIO()
        self._write_json(text.write)
        return text.getvalue()

    def _write_json(self, write) -> None:
        """Stream ``to_json`` to ``write``, the search report in the
        blocks of ``FindNcReport``'s writer."""
        estimate = (
            "null" if self.estimate is None
            else json.dumps(self.estimate.to_json_dict(), indent=2,
                            sort_keys=True).replace("\n", "\n  ")
        )
        write(f'{{\n  "estimate": {estimate},\n  "find": ')
        self.report._write_json(write, "  ")
        write("\n}")


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
    most frequent pair).  The run plan (``search._search_plan``) checks
    the roles and the level before the search: ValueError when a
    covariate is repeated, is the treatment or the outcome, or is a
    candidate, UnknownVariableError when a role is no column.
    """
    covariates = tuple(covariates)
    plan = _search_plan(data.variable_names, candidates, treatment, outcome,
                        data.n, alpha, covariates)
    _check_interval_options(aggregate, ci_method, bootstrap_draws,
                            bootstrap_ci, seed)
    report = _report(covariance(data), data.n, plan, treatment, outcome)
    passed = report.passed
    if not passed.any():
        return DanceResult(report=report, estimate=None)
    names, triples, _ = plan
    estimate = _aggregate(
        data, names, *_triples_plan(triples[passed], len(names), aggregate),
        (treatment, outcome, covariates), aggregate, ci_method,
        bootstrap_draws, bootstrap_ci, seed)
    return DanceResult(report=report, estimate=estimate)
