"""Replication studies comparing estimation strategies on simulated data.

Three strategies run per replication:

* ``naive``  -- ordinary least squares of outcome on treatment (plus
  covariates), ignoring confounding.
* ``random`` -- a control triplet drawn once per study (default) or a pair
  or triplet redrawn per replication, estimated without validation.
* ``dance``  -- the full pipeline: validate-and-search, then aggregate the
  validated triplets' pairs.

Per-replication seeds derive from (master_seed, stream, n, replication), so
reruns of one config write byte-identical output, however the replications
are split over forked processes and stacked passes.

Replications of one sample size run in stacked passes of at most
``_STUDY_CHUNK`` simulated rows, at least one replication a pass.  A pass
of R replications simulates them into one (R, n, k) array, each from its
own seed, and forms their centred statistics and searches their R
covariance matrices in one call of each kernel: the search is
``search._sub_tests``, the kernel behind ``find_nc`` and ``dance``.  The
naive fits and the fixed triplet's fits share one layout in every
replication, so they are fitted for all R in one call of
``estimate._fit_stack``, the fit behind ``dance`` too.  What differs
between replications, the pairs of the triplets each search passed and
the pairs drawn per replication, is fitted one replication at a time from
views of the pass's arrays.  Every kernel gives each matrix of a stack
the bits it gets alone, so a pass of R writes what R passes of one write.
The pairs and weights are ``aggregate``'s one pair plan.
"""
from __future__ import annotations

import csv
import math
import numbers
import pickle
from collections.abc import Sequence
from dataclasses import astuple, dataclass, field, fields, replace
from functools import partial

import numpy as np
import numpy.random  # noqa: F401  loaded on import, not on the first draw

from .aggregate import _triples_plan
from ._fork import _receive_bytes, _workers, map_parts
from .data import _centre, _covariance_entries
from .estimate import DELTA_INDEX, _fit_stack, _interval
from .search import _search_plan, _sub_tests
from .simulate import (
    GraphSpec,
    _generate_stack,
    builtin_graph,
    ground_truth_dncts,
    realize_coefficients,
)

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

# simulated rows per stacked pass, and per forked process, in run_study.
# On the strong complex design at n = 1000 and 3000, 100 replications ran
# in one process in 89 ms one a pass, 70 ms in passes of 8k rows and 64 to
# 66 ms in passes of 16k to 64k rows; a pass of 16k rows holds under 5 MB.
# Forked, before passes were stacked, 24k rows ran in 16 ms as one part or
# two, 200k in 90 ms as two against 125 ms as one (2 vCPUs, a 100 MB
# process: the fork copies its page tables)
_STUDY_CHUNK = 1 << 14


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
        if not self.u_sd > 0:
            raise ValueError(f"u_sd must be positive, got {self.u_sd!r}")
        if not all(0 < a <= 1 for a in self.alpha_grid or ()):
            raise ValueError("alpha_grid entries must lie in (0, 1]")
        if not self.sample_sizes:
            raise ValueError("at least one sample size required")
        if any(n < 10 for n in self.sample_sizes):
            raise ValueError("sample sizes must be at least 10")
        unknown = [m for m in self.methods if m not in _METHODS]
        if unknown:
            raise ValueError(f"unknown methods: {unknown}")
        for name in ("sample_sizes", "methods"):
            entries = getattr(self, name)
            repeated = sorted({x for x in entries if entries.count(x) > 1})
            if repeated:  # each would be run and counted twice
                raise ValueError(f"{name} repeats {repeated}")
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


def _fits(centred, index_of, names, z, w, weights, roles,
          j: int = DELTA_INDEX - 1) -> list:
    """Per dataset of the stacked centred statistic ``centred``: the
    (delta, se, ci_low, ci_high) of ``estimate._fit_stack``'s ``weights``
    average, as ``weighted_estimate`` forms it, or the
    SingularMomentMatrixError of its first failing system."""
    errors: list = []
    _, _, _, deltas, ses, *_ = _fit_stack(centred, index_of, names, z, w,
                                          weights, roles, j, errors)
    return [error or (delta, se, *_interval(delta, se))
            for error, delta, se in zip(errors, deltas, ses)]


def _naive_fits(centred, index_of, treatment: str, outcome: str,
                covariates) -> list:
    """``_fits`` of the OLS of outcome on treatment (plus covariates) with
    a robust SE: the system without a pair, whose instruments and
    regressors are both (T, X)."""
    return _fits(centred, index_of, (), [[]], [[]], np.ones(1),
                 (treatment, outcome, covariates), j=0)


def _default_grid(n: int) -> tuple[float, ...]:
    grid = set(np.logspace(-6.0, math.log10(0.5), 24))
    grid.add(1.0 / n)
    return tuple(sorted(grid))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of ``scores`` (no NaN), each tie group given the mean
    of its positions: integers or halves, so exact."""
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], scores.size]
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a true triple outscores a false one (ties count half)."""
    pos = int(labels.sum())
    neg = labels.size - pos
    if pos == 0 or neg == 0:
        return float("nan")
    ranks = _average_ranks(scores)
    u_stat = ranks[labels].sum() - pos * (pos + 1) / 2.0
    return float(u_stat / (pos * neg))


@dataclass
class _Pass:
    """The stacked half of one pass: its R replications of one sample size
    ``n`` simulated, centred and searched, and the fits every replication
    shares the layout of."""

    columns: dict  # column name -> position
    roles: tuple  # (treatment, outcome, covariates)
    drawn: np.ndarray  # ``candidates`` positions in graph order, as drawn
    candidates: tuple  # sorted, as the search reads them
    rows: np.ndarray  # (T, 3) indices of every triple into ``candidates``
    centred: tuple  # (xc, means, gram) of the R replications, stacked
    min_p: np.ndarray  # (R, T)
    passed: np.ndarray  # (R, T)
    shared: dict  # method -> one fit or error per replication

    def member(self, i: int) -> tuple:
        """Replication ``i``'s centred statistic, as a stack of one: views
        of the pass's arrays."""
        return tuple(array[i:i + 1] for array in self.centred)

    def fits(self, centred, z, w, weights) -> list:
        """``_fits`` on ``centred`` of the pairs (``candidates[z[k]]``,
        ``candidates[w[k]]``) with ``weights``."""
        return _fits(centred, self.columns.__getitem__, self.candidates, z,
                     w, weights, self.roles)


def _run_pass(spec: GraphSpec, config: StudyConfig, jobs: list, *,
              plans: dict, fixed: int | None) -> list:
    """The outcomes of ``jobs``, replications of one sample size n, run as
    one stacked pass of the plan ``plans[n]``: simulated into one (R, n, k)
    array, each from its own seed, centred and searched together; the
    naive fits and the fixed triplet's fits of every replication in one
    stacked solve and sandwich.  What differs between replications is
    fitted in ``_one_replication``, one replication at a time."""
    n = jobs[0][0]
    names, values = _generate_stack(spec, n, [
        np.random.SeedSequence((config.master_seed, _STREAM_DATA, n, r))
        for _, r in jobs
    ])
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")  # as Dataset has it
    roles = (spec.treatment, spec.outcome, config.covariates)
    candidates, rows, alpha = plans[n]
    columns = {name: j for j, name in enumerate(names)}
    centred = _centre(values)
    p = _sub_tests(_covariance_entries(centred[2], n), n, columns.__getitem__,
                   candidates, rows, *roles[:2], alpha)[3]
    stack = _Pass(
        columns, roles, np.argsort([columns[name] for name in candidates]),
        candidates, rows, centred, p.min(axis=-1), (p > alpha).all(axis=-1),
        {},
    )
    if "naive" in config.methods:
        stack.shared["naive"] = _naive_fits(centred, columns.__getitem__,
                                            *roles)
    if fixed is not None and "random" in config.methods:
        stack.shared["random"] = stack.fits(
            centred, *_triples_plan(rows[fixed:fixed + 1], len(candidates)))
    return [_one_replication(spec, config, n, r, stack=stack, i=i)
            for i, (_, r) in enumerate(jobs)]


def _one_replication(spec: GraphSpec, config: StudyConfig, n: int,
                     replication: int, *, stack: _Pass, i: int) -> _RepOutcome:
    """Replication ``replication``, member ``i`` of the pass ``stack``: its
    shared fits, and the fits of its own pairs read from the pass's
    slices: the random pair or triplet drawn for it, and the pairs of the
    triplets its search passed."""
    estimates: dict = {}
    errors: dict = {}

    def record(method: str, fit) -> None:
        if isinstance(fit, Exception):
            errors[method] = f"{type(fit).__name__}: {fit}"
        else:
            estimates[method] = fit

    for method, fits in stack.shared.items():
        record(method, fits[i])

    if "random" in config.methods and "random" not in stack.shared:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (config.master_seed, _STREAM_RANDOM, n, replication)
            )
        )
        for _ in range(2):  # one redraw on failure
            if config.random_scheme == "pair_per_rep":
                ends = rng.choice(stack.drawn, size=2, replace=False)
            else:  # triplet_per_rep
                ends = rng.choice(stack.rows[rng.integers(len(stack.rows))],
                                  size=2, replace=False)
            (fit,) = stack.fits(stack.member(i), ends[:1], ends[1:],
                                np.ones(1))
            if not isinstance(fit, Exception):
                break
        record("random", fit)

    passed = stack.passed[i]
    if "dance" in config.methods:
        if not passed.any():
            errors["dance"] = "no_dnct"
        else:
            (fit,) = stack.fits(stack.member(i), *_triples_plan(
                stack.rows[passed], len(stack.candidates), config.aggregate))
            record("dance", fit)

    return _RepOutcome(
        n=n,
        replication=replication,
        min_p=stack.min_p[i],
        found=tuple(tuple(stack.candidates[j] for j in row)
                    for row in stack.rows[passed].tolist()),
        estimates=estimates,
        errors=errors,
    )


def _run_jobs(run_pass, jobs: list) -> list:
    """The outcomes of every ``(n, replication)`` job, in no set order, in
    the ``k`` processes ``run_study`` describes, each part run by
    ``_run_part``.  The jobs are dealt out in turn, ``jobs[i::k]``, so every
    part holds the same mix of sample sizes."""
    k = max(1, min(_workers(), len(jobs),
                   sum(n for n, _ in jobs) // _STUDY_CHUNK))
    try:
        return _run_parts(run_pass, [jobs[i::k] for i in range(k)])
    except Exception:
        # every child is reaped: raise what the serial loop raises first,
        # each replication a pass of its own
        return [outcome for job in jobs for outcome in run_pass([job])]


def _run_part(run_pass, part: list) -> list:
    """The outcomes of ``part``: its jobs grouped by n, in order, and each
    group run by ``run_pass`` in passes of at most ``_STUDY_CHUNK``
    simulated rows, at least one replication each."""
    groups: dict[int, list] = {}
    for job in part:
        groups.setdefault(job[0], []).append(job)
    outcomes = []
    for n, group in groups.items():
        size = max(1, _STUDY_CHUNK // n)
        for start in range(0, len(group), size):
            outcomes += run_pass(group[start:start + size])
    return outcomes


def _run_parts(run_pass, parts: list) -> list:
    """The outcomes of every part of the jobs, part after part: parts after
    the first run by forked children, which send their outcomes back
    pickled, and a part whose child failed run again here."""
    results = map_parts(parts, partial(_run_part, run_pass),
                        partial(_pickled_part, run_pass), _unpickled)
    return [outcome for part, result in zip(parts, results)
            for outcome in (_run_part(run_pass, part) if result is None
                            else result)]


def _pickled_part(run_pass, part: list) -> bytes:
    """The pickled outcomes of ``part``, as a child sends them."""
    return pickle.dumps(_run_part(run_pass, part), pickle.HIGHEST_PROTOCOL)


def _unpickled(fd: int) -> list | None:
    """The outcomes a child sent on ``fd``, or None if they ended early."""
    payload = _receive_bytes(fd)
    return None if payload is None else pickle.loads(payload)


def run_study(config: StudyConfig) -> StudyResult:
    """Run the full replication study described by ``config``.

    Returns per-(method, n) metrics, detection ROC points per n, a failure
    table, and per-n detail arrays.  Replications yielding no validated
    triplets are excluded from the estimate summaries but counted in the
    failure column.  Before any replication, one run plan per sample size
    (``search._search_plan``, as in ``dance``) checks the covariates and
    alpha and takes as candidates the graph's candidates less the
    covariates; the search, the ROC triples, the true triplets and the
    random draws all read that one set.

    The replications of each sample size run in stacked passes of at most
    ``_STUDY_CHUNK`` (16 384) simulated rows, at least one replication a
    pass; see the module docstring.  The replications are dealt out in
    turn into ``k`` parts, ``k`` the smallest of the CPUs this process may
    use (``os.sched_getaffinity``, which ``taskset`` limits), the number of
    replications, and their total rows in ``_STUDY_CHUNK`` units (at least
    one), so a study of fewer than ``2 * _STUDY_CHUNK`` rows forks nothing;
    ``_fork.map_parts`` runs the parts.  A part whose child failed runs
    again in this process.  Should a pass raise, the replications run
    again in order, one a pass, so the exception is the one a serial loop
    raises first.  Each replication is seeded alone, and gets the same
    bits in a stack as alone, so the result depends neither on ``k`` nor
    on the passes.
    """
    spec = _resolve_spec(config)
    plans = {n: _search_plan(spec.measured, None, spec.treatment,
                             spec.outcome, n, config.alpha,
                             config.covariates)
             for n in config.sample_sizes}
    candidates, rows, _ = plans[config.sample_sizes[0]]
    triples = [tuple(candidates[j] for j in row) for row in rows.tolist()]
    true_dncts, true_delta = ground_truth_dncts(spec)
    true_dncts = [t for t in true_dncts if set(t) <= set(candidates)]
    true_set = set(true_dncts)
    labels = np.array([t in true_set for t in triples])

    fixed = None
    if "random" in config.methods and config.random_scheme == "triplet_fixed":
        rng = np.random.default_rng(
            np.random.SeedSequence(
                (config.master_seed, _STREAM_FIXED_TRIPLET)
            )
        )
        fixed = int(rng.integers(len(triples)))

    outcomes = _run_jobs(
        partial(_run_pass, spec, config, plans=plans, fixed=fixed),
        [(n, r) for n in config.sample_sizes
         for r in range(config.replications)],
    )

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
