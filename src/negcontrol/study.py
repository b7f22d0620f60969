"""Replication studies comparing estimation strategies on simulated data.

Three strategies run per replication:

* ``naive``  -- ordinary least squares of outcome on treatment (plus
  covariates), ignoring confounding.
* ``random`` -- a control triplet drawn once per study (default) or a pair
  or triplet redrawn per replication, estimated without validation.
* ``dance``  -- the full pipeline: validate-and-search, then aggregate the
  validated triplets' pairs.

Per-replication seeds derive from (master_seed, stream, n, replication), so
reruns of one config write byte-identical output.
"""
from __future__ import annotations

import csv
import math
import numbers
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, fields, replace
from itertools import combinations

import numpy as np
from scipy.stats import rankdata

from .aggregate import enumerate_pairs, majority_vote_estimate, weighted_estimate
from .data import Dataset
from .errors import NegcontrolError, UnknownVariableError
from .estimate import (
    NcPair,
    _fit_centred,
    _influence,
    gmm_linear_ate,
)
from .search import find_nc
from .simulate import GraphSpec, builtin_graph, ground_truth_dncts, realize_coefficients

__all__ = [
    "StudyConfig",
    "MethodMetrics",
    "RocPoint",
    "FailureRecord",
    "StudyResult",
    "run_study",
    "roc_curve",
    "write_study_outputs",
]

_METHODS = ("naive", "random", "dance")
_RANDOM_SCHEMES = ("triplet_fixed", "pair_per_rep", "triplet_per_rep")

# stream tags for seed derivation
_STREAM_COEFFS = 7
_STREAM_DATA = 101
_STREAM_RANDOM = 202
_STREAM_FIXED_TRIPLET = 303


def _listed(name: str, value) -> tuple:
    """``value``, a list of entries, as a tuple; anything else, a single
    string included, is rejected."""
    if isinstance(value, (str, bytes)) or not isinstance(
        value, (Sequence, np.ndarray)
    ):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class StudyConfig:
    """Design of one replication study."""

    graph: object = "simple"  # "simple", "complex", or a GraphSpec
    family: str = "gaussian"
    strength: str = "weak"
    sample_sizes: tuple[int, ...] = (3000,)
    replications: int = 200
    methods: tuple[str, ...] = _METHODS
    alpha: float | None = None  # search level; None -> 1/n
    alpha_grid: tuple[float, ...] | None = None
    master_seed: int = 0
    covariates: tuple[str, ...] = ()
    random_scheme: str = "triplet_fixed"
    aggregate: str = "weighted"
    u_sd: float = math.sqrt(2.0)

    def __post_init__(self):
        for name in ("sample_sizes", "methods", "covariates"):
            object.__setattr__(self, name, _listed(name, getattr(self, name)))
        if self.alpha_grid is not None:
            object.__setattr__(self, "alpha_grid",
                               _listed("alpha_grid", self.alpha_grid))
        integer = (numbers.Integral, "an integer")
        number = (numbers.Real, "a number")
        for name, value, (kind, noun) in (
            ("replications", self.replications, integer),
            ("master_seed", self.master_seed, integer),
            *(("a sample size", n, integer) for n in self.sample_sizes),
            ("u_sd", self.u_sd, number),
            *(("alpha", a, number) for a in (self.alpha,) if a is not None),
            *(("an alpha_grid entry", a, number)
              for a in self.alpha_grid or ()),
        ):
            # JSON's true and false are not numbers here
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {noun}, got {value!r}")
        for name in ("family", "strength", "random_scheme", "aggregate"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(
                    f"{name} must be a string, got {getattr(self, name)!r}"
                )
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not self.sample_sizes:
            raise ValueError("at least one sample size required")
        if any(n < 10 for n in self.sample_sizes):
            raise ValueError("sample sizes must be at least 10")
        unknown = [m for m in self.methods if m not in _METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        if self.random_scheme not in _RANDOM_SCHEMES:
            raise ValueError(f"unknown random_scheme: {self.random_scheme!r}")
        if self.aggregate not in ("weighted", "majority"):
            raise ValueError(f"unknown aggregate: {self.aggregate!r}")


@dataclass(frozen=True)
class MethodMetrics:
    """Replication summary for one (method, sample size) cell."""

    method: str
    n: int
    replications: int
    failures: int
    bias: float
    proportion_bias_pct: float
    mc_se: float
    mean_estimated_se: float
    coverage_95: float


@dataclass(frozen=True)
class RocPoint:
    n: int
    alpha: float
    tpr: float
    fpr: float


@dataclass(frozen=True)
class FailureRecord:
    n: int
    replication: int
    method: str
    error: str


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    spec: GraphSpec
    true_delta: float
    true_dncts: tuple
    metrics: tuple[MethodMetrics, ...]
    roc: tuple[RocPoint, ...]
    failures: tuple[FailureRecord, ...]
    auc: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


@dataclass
class _RepOutcome:
    n: int
    replication: int
    min_p: np.ndarray
    found: tuple
    estimates: dict  # method -> (delta, se, lo, hi) or None
    errors: dict  # method -> message for failed/non-result methods


def _resolve_spec(config: StudyConfig) -> GraphSpec:
    if isinstance(config.graph, GraphSpec):
        spec = config.graph
        if not spec.is_realized():
            spec = realize_coefficients(
                spec, (config.master_seed, _STREAM_COEFFS)
            )
        return spec
    return builtin_graph(
        config.graph,
        strength=config.strength,
        family=config.family,
        seed=(config.master_seed, _STREAM_COEFFS),
        u_sd=config.u_sd,
    )


def _naive_fit(data: Dataset, treatment: str, outcome: str, covariates):
    """OLS of outcome on treatment (plus covariates) with a robust SE: the
    centred solve with instruments and regressors both (T, X)."""
    x = [[data.index_of(name) for name in (treatment, *covariates)]]
    layout = (x, x, data.index_of(outcome))
    _, beta, inv = _fit_centred(data, layout)
    delta = float(beta[0, 0])
    psi = _influence(data._centred[0], layout, beta, inv, 0)
    se = float(np.linalg.norm(psi)) / data.n
    return delta, se, delta - 1.96 * se, delta + 1.96 * se


def _as_tuple(est) -> tuple[float, float, float, float]:
    return est.delta_hat, est.se, est.ci_low, est.ci_high


def _default_grid(n: int) -> tuple[float, ...]:
    grid = set(np.logspace(-6.0, math.log10(0.5), 24))
    grid.add(1.0 / n)
    return tuple(sorted(grid))


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a true triple outscores a false one (ties count half)."""
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        return float("nan")
    ranks = rankdata(scores)
    u_stat = ranks[labels].sum() - pos * (pos + 1) / 2.0
    return float(u_stat / (pos * neg))


def _one_replication(
    spec: GraphSpec,
    config: StudyConfig,
    n: int,
    replication: int,
    triples: list,
    fixed_triple,
) -> _RepOutcome:
    from .simulate import generate

    data = generate(
        spec,
        n,
        np.random.SeedSequence(
            (config.master_seed, _STREAM_DATA, n, replication)
        ),
    )
    treatment, outcome = spec.treatment, spec.outcome
    candidates = spec.candidates
    alpha = config.alpha if config.alpha is not None else 1.0 / n
    report = find_nc(data, candidates, treatment, outcome, alpha=alpha)
    estimates: dict = {}
    errors: dict = {}

    if "naive" in config.methods:
        try:
            estimates["naive"] = _naive_fit(
                data, treatment, outcome, config.covariates
            )
        except (NegcontrolError, np.linalg.LinAlgError) as exc:
            errors["naive"] = f"{type(exc).__name__}: {exc}"

    if "random" in config.methods:
        try:
            if config.random_scheme == "triplet_fixed":
                table = enumerate_pairs([fixed_triple])
                est = weighted_estimate(
                    data, table, treatment, outcome, config.covariates
                )
                estimates["random"] = _as_tuple(est)
            else:
                rng = np.random.default_rng(
                    np.random.SeedSequence(
                        (config.master_seed, _STREAM_RANDOM, n, replication)
                    )
                )
                last_error = None
                for _ in range(2):  # one redraw on failure
                    if config.random_scheme == "pair_per_rep":
                        z, w = rng.choice(
                            len(candidates), size=2, replace=False
                        )
                        pair = NcPair(candidates[z], candidates[w])
                    else:  # triplet_per_rep
                        triple = triples[rng.integers(len(triples))]
                        z, w = rng.choice(3, size=2, replace=False)
                        pair = NcPair(triple[z], triple[w])
                    try:
                        estimates["random"] = _as_tuple(gmm_linear_ate(
                            data, pair, treatment, outcome, config.covariates
                        ))
                        last_error = None
                        break
                    except NegcontrolError as exc:
                        last_error = exc
                if last_error is not None:
                    errors["random"] = (
                        f"{type(last_error).__name__}: {last_error}"
                    )
        except NegcontrolError as exc:
            errors["random"] = f"{type(exc).__name__}: {exc}"

    if "dance" in config.methods:
        if not report.dncts:
            errors["dance"] = "no_dnct"
        else:
            try:
                table = enumerate_pairs(report.dncts)
                if config.aggregate == "weighted":
                    est = weighted_estimate(
                        data, table, treatment, outcome, config.covariates
                    )
                else:
                    est = majority_vote_estimate(
                        data, table, treatment, outcome, config.covariates
                    )
                estimates["dance"] = _as_tuple(est)
            except NegcontrolError as exc:
                errors["dance"] = f"{type(exc).__name__}: {exc}"

    return _RepOutcome(
        n=n,
        replication=replication,
        min_p=report.min_p,
        found=report.dncts,
        estimates=estimates,
        errors=errors,
    )


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full replication study described by ``config``.

    Returns per-(method, n) metrics, detection ROC points per n, a failure
    table, and per-n detail arrays.  Replications yielding no validated
    triplets are excluded from the estimate summaries but counted in the
    failure column.  UnknownVariableError, before any replication, when a
    covariate is not a measured node of the graph.
    """
    spec = _resolve_spec(config)
    for name in config.covariates:
        if name not in spec.measured:
            raise UnknownVariableError(name)
    true_dncts, true_delta = ground_truth_dncts(spec)
    triples = list(combinations(sorted(spec.candidates), 3))
    true_set = set(true_dncts)
    labels = np.array([t in true_set for t in triples])

    fixed_triple = None
    if "random" in config.methods and config.random_scheme == "triplet_fixed":
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (config.master_seed, _STREAM_FIXED_TRIPLET)
            )
        )
        fixed_triple = triples[int(rng.integers(len(triples)))]

    outcomes = [
        _one_replication(spec, config, n, r, triples, fixed_triple)
        for n in config.sample_sizes
        for r in range(config.replications)
    ]

    by_n: dict[int, list[_RepOutcome]] = {n: [] for n in config.sample_sizes}
    for outcome in outcomes:
        by_n[outcome.n].append(outcome)

    metrics: list[MethodMetrics] = []
    failures: list[FailureRecord] = []
    roc: list[RocPoint] = []
    auc: dict[int, float] = {}
    details: dict[int, dict] = {}

    for n in config.sample_sizes:
        reps = sorted(by_n[n], key=lambda o: o.replication)
        min_p = np.array([o.min_p for o in reps])
        flat_scores = min_p.ravel()
        flat_labels = np.tile(labels, len(reps))
        auc[n] = _rank_auc(flat_scores, flat_labels)
        grid = (
            config.alpha_grid
            if config.alpha_grid is not None
            else _default_grid(n)
        )
        # plain ints, so tpr and fpr are Python floats, not numpy scalars
        positives = int(flat_labels.sum())
        negatives = flat_labels.size - positives
        for alpha in grid:
            predicted = flat_scores > alpha
            tp = int((predicted & flat_labels).sum())
            fp = int((predicted & ~flat_labels).sum())
            roc.append(
                RocPoint(
                    n=n,
                    alpha=float(alpha),
                    tpr=tp / positives if positives else float("nan"),
                    fpr=fp / negatives if negatives else float("nan"),
                )
            )
        detail: dict = {
            "triples": triples,
            "labels": labels,
            "min_p": min_p,
            "found": [o.found for o in reps],
            "estimates": {},
        }
        for method in config.methods:
            rows = []
            n_fail = 0
            for o in reps:
                if method in o.errors:
                    n_fail += 1
                    failures.append(
                        FailureRecord(
                            n=n,
                            replication=o.replication,
                            method=method,
                            error=o.errors[method],
                        )
                    )
                elif method in o.estimates:
                    rows.append(o.estimates[method])
            deltas = np.array([row[0] for row in rows])
            ses = np.array([row[1] for row in rows])
            covered = np.array(
                [row[2] <= true_delta <= row[3] for row in rows]
            )
            detail["estimates"][method] = {
                "delta": deltas,
                "se": ses,
                "covered": covered,
            }
            if len(deltas) >= 2:
                bias = float(deltas.mean() - true_delta)
                summary = (
                    bias,
                    100.0 * bias / true_delta if true_delta else float("nan"),
                    float(deltas.std(ddof=1)),
                    float(ses.mean()),
                    float(covered.mean()),
                )
            else:
                summary = (float("nan"),) * 5
            metrics.append(
                MethodMetrics(method, n, len(reps), n_fail, *summary)
            )
        details[n] = detail

    return StudyResult(
        config=config,
        spec=spec,
        true_delta=true_delta,
        true_dncts=tuple(true_dncts),
        metrics=tuple(metrics),
        roc=tuple(roc),
        failures=tuple(failures),
        auc=auc,
        details=details,
    )


def roc_curve(config: StudyConfig):
    """Detection ROC only: runs the search stage of the study and returns
    (points, auc-by-n)."""
    result = run_study(replace(config, methods=()))
    return result.roc, result.auc


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_study_outputs(result: StudyResult, out_dir) -> dict:
    """Write metrics.csv, roc.csv, and failures.csv into ``out_dir``: one
    column per field of ``MethodMetrics``, ``RocPoint`` and
    ``FailureRecord``."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    tables = {
        "metrics": (MethodMetrics, result.metrics),
        "roc": (RocPoint, result.roc),
        "failures": (FailureRecord, result.failures),
    }
    paths = {}
    for name, (cls, records) in tables.items():
        paths[name] = os.path.join(out_dir, f"{name}.csv")
        with open(paths[name], "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([f.name for f in fields(cls)])
            writer.writerows(
                [_fmt(value) for value in astuple(record)]
                for record in records
            )
    return paths
