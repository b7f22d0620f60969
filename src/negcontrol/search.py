"""Validation and brute-force search for disconnected negative-control
triplets.

A candidate triple {X, Y, Z} qualifies (relative to treatment T and outcome
O) when six subcovariance determinants all vanish:

    ({X,Y},{Z,T})  ({X,Z},{Y,T})  ({Z,Y},{X,T})
    ({X,Y},{Z,O})  ({X,Z},{Y,O})  ({Z,Y},{X,O})

The six-test set is closed under permutations of the triple, so verdicts do
not depend on the order candidates are written in; triples are canonicalized
(sorted) before testing.

With the default test function, ``wishart_test``, both ``find_nc`` and
``dnct_validate`` run every sub-test in one batched pass on the correlation
matrix (``tetrad._wishart_batch``), so verdicts do not depend on the scale
of any column.  Any other ``test_fn`` is called once per sub-test, six times
per triple.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .data import CovMatrix, Dataset, covariance, sub_determinant
from .errors import DegenerateVarianceError, TooFewCandidatesError
from .tetrad import TetradResult, TetradSpec, _wishart_batch, wishart_test

__all__ = [
    "Triple",
    "canonical_triple",
    "DnctVerdict",
    "FindNcReport",
    "triple_specs",
    "dnct_validate",
    "find_nc",
]

Triple = tuple[str, str, str]

TestFn = Callable[[CovMatrix, TetradSpec, int, float], TetradResult]


def canonical_triple(candidate) -> Triple:
    """Sorted tuple form of a candidate triple; validates distinctness."""
    triple = tuple(sorted(candidate))
    if len(triple) != 3 or len(set(triple)) != 3:
        raise ValueError(f"a candidate triple needs 3 distinct names: {candidate}")
    return triple


def triple_specs(candidate, treatment: str, outcome: str) -> list[TetradSpec]:
    """The six tetrads that certify a candidate triple, in fixed order."""
    x, y, z = canonical_triple(candidate)
    if treatment in (x, y, z) or outcome in (x, y, z):
        raise ValueError(
            f"candidate triple {candidate} must exclude treatment and outcome"
        )
    if treatment == outcome:
        raise ValueError("treatment and outcome must differ")
    pairs = [((x, y), z), ((x, z), y), ((z, y), x)]
    specs = [TetradSpec(left, (rest, treatment)) for left, rest in pairs]
    specs += [TetradSpec(left, (rest, outcome)) for left, rest in pairs]
    return specs


@dataclass(frozen=True)
class DnctVerdict:
    """All six sub-test results for one candidate triple.

    ``passed`` is True only when every sub-test vanishes.  A degenerate
    variance in a sub-test counts as not vanishing; the placeholder result
    carries sigma_hat = 0 and p_value = 0.
    """

    candidate: Triple
    passed: bool
    sub_results: tuple[TetradResult, ...]

    @property
    def min_p(self) -> float:
        """Smallest sub-test p-value; the triple passes at any alpha below it."""
        return min(r.p_value for r in self.sub_results)


def _degenerate_result(
    cov: CovMatrix, spec: TetradSpec, alpha: float
) -> TetradResult:
    d_hat = sub_determinant(cov, spec.left, spec.right)
    w = math.inf if d_hat >= 0 else -math.inf
    return TetradResult(
        spec=spec,
        d_hat=d_hat,
        sigma_hat=0.0,
        w_stat=w,
        p_value=0.0,
        alpha=alpha,
        vanishes=False,
    )


def _wishart_verdicts(
    cov: CovMatrix, n: int, triples, treatment: str, outcome: str,
    alpha: float,
) -> list[DnctVerdict]:
    """``dnct_validate`` with ``wishart_test`` for each canonical triple, as
    one ``_wishart_batch`` over all their sub-tests."""
    specs = [spec for triple in triples
             for spec in triple_specs(triple, treatment, outcome)]
    pos = cov.index_of
    quads = np.array([[pos(name) for name in spec.variables] for spec in specs],
                     dtype=np.intp)
    columns = (arr.tolist() for arr in _wishart_batch(cov, quads, n, alpha))
    results = [
        TetradResult(spec=spec, d_hat=d_hat, sigma_hat=sigma, w_stat=w,
                     p_value=p, alpha=alpha, vanishes=p > alpha)
        for spec, d_hat, sigma, w, p in zip(specs, *columns)
    ]
    return [
        DnctVerdict(
            candidate=triple,
            passed=all(r.vanishes for r in results[6 * i:6 * i + 6]),
            sub_results=tuple(results[6 * i:6 * i + 6]),
        )
        for i, triple in enumerate(triples)
    ]


def dnct_validate(
    cov: CovMatrix,
    n: int,
    candidate,
    treatment: str,
    outcome: str,
    alpha: float,
    test_fn: TestFn = wishart_test,
) -> DnctVerdict:
    """Run all six certifying tetrad tests for one candidate triple.

    ``test_fn`` must follow the ``wishart_test`` signature, so an
    alternative vanishing-determinant test can be swapped in.
    """
    triple = canonical_triple(candidate)
    if test_fn is wishart_test:
        return _wishart_verdicts(cov, n, [triple], treatment, outcome,
                                 alpha)[0]
    results = []
    for spec in triple_specs(triple, treatment, outcome):
        try:
            results.append(test_fn(cov, spec, n, alpha))
        except DegenerateVarianceError:
            results.append(_degenerate_result(cov, spec, alpha))
    return DnctVerdict(
        candidate=triple,
        passed=all(r.vanishes for r in results),
        sub_results=tuple(results),
    )


@dataclass(frozen=True)
class FindNcReport:
    """Search output: validated triples plus the full verdict table."""

    treatment: str
    outcome: str
    alpha_used: float
    dncts: tuple[Triple, ...]
    all_verdicts: tuple[DnctVerdict, ...]

    def to_json_dict(self) -> dict:
        return {
            "treatment": self.treatment,
            "outcome": self.outcome,
            "alpha": self.alpha_used,
            "dncts": [list(t) for t in self.dncts],
            "verdicts": [
                {
                    "triple": list(v.candidate),
                    "passed": v.passed,
                    "tests": [
                        {
                            "left": list(r.spec.left),
                            "right": list(r.spec.right),
                            # inapplicable tests carry an infinite statistic;
                            # JSON has no representation for it
                            "w": (
                                r.w_stat
                                if math.isfinite(r.w_stat)
                                else None
                            ),
                            "p": r.p_value,
                        }
                        for r in v.sub_results
                    ],
                }
                for v in self.all_verdicts
            ],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)


def find_nc(
    data: Dataset,
    candidates,
    treatment: str,
    outcome: str,
    alpha: float | None = None,
    test_fn: TestFn = wishart_test,
) -> FindNcReport:
    """Brute-force scan of every unordered candidate triple.

    ``alpha`` defaults to 1/n.  Verdicts are reported in lexicographic
    order of the canonical triple.

    Raises
    ------
    TooFewCandidatesError
        Fewer than three candidates.
    ValueError
        Candidates overlapping treatment/outcome, or alpha outside (0, 1).
    """
    candidates = sorted(candidates)
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate names must be unique")
    if len(candidates) < 3:
        raise TooFewCandidatesError(
            f"need at least 3 candidates, got {len(candidates)}"
        )
    if treatment in candidates or outcome in candidates:
        raise ValueError("candidates must exclude treatment and outcome")
    for name in (treatment, outcome, *candidates):
        data.index_of(name)  # raises UnknownVariableError
    n = data.n
    if alpha is None:
        alpha = 1.0 / n
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    cov = covariance(data)
    triples = list(combinations(candidates, 3))
    if test_fn is wishart_test:
        verdicts = _wishart_verdicts(cov, n, triples, treatment, outcome,
                                     alpha)
    else:
        verdicts = [
            dnct_validate(cov, n, triple, treatment, outcome, alpha, test_fn)
            for triple in triples
        ]
    return FindNcReport(
        treatment=treatment,
        outcome=outcome,
        alpha_used=alpha,
        dncts=tuple(v.candidate for v in verdicts if v.passed),
        all_verdicts=tuple(verdicts),
    )
