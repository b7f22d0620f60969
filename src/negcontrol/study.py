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
naive fits share one layout in every replication, so they are fitted for
all R in one call of ``estimate._fit_stack``, the fit behind ``dance``
too.  Every pair plan is fitted by ``_plan_fits``, one call per group of
replications that share the plan, on its members' rows of the pass's
statistic: the fixed triplet is one group; a pair or triplet drawn per
replication groups the replications that drew the same pair, and every
first draw is fitted before the redraws of those whose first fit failed;
the ``dance`` plans group the replications whose searches passed the
same triples, most of a pass in a strong design.  Every kernel gives each
matrix of a stack the bits it gets alone, so a pass of R writes what R
passes of one write.  The pairs and weights are ``aggregate``'s one pair
plan.  A pass returns columns, one row per replication, which
``run_study`` joins per sample size in replication order.
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
from ._fork import _receive_bytes, cuts, map_parts
from .data import _centre
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
    """The SD (ddof 1) of the estimates over the replications that fitted,
    NaN below two: their spread, not the Monte Carlo SE of any measure."""
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


def _plan_fits(centred, index_of, names, roles, keys, plan_of) -> list:
    """Per replication ``i`` of the stacked centred statistic ``centred``:
    the ``_fits`` of the pair plan ``plan_of(keys[i])``, a (z, w, weights)
    over ``names``, or None where ``keys[i]`` is None.  Replications with
    one key share its plan, so each such group is fitted in one stacked
    call on its members' rows of the statistic."""
    groups: dict = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    fits: list = [None] * len(keys)
    for key, members in groups.items():
        # consecutive members, such as the whole pass or one replication,
        # are read as a view, not copied
        first, last = members[0], members[-1]
        rows = (slice(first, last + 1) if last - first + 1 == len(members)
                else members)
        for i, fit in zip(members, _fits(centred.members(rows), index_of,
                                         names, *plan_of(key), roles)):
            fits[i] = fit
    return fits


def _message(fit) -> str | None:
    """What a failure table records of ``fit``: ``no_dnct`` for None, as
    ``dance`` gets where its search passed no triple, the type and text
    of an error, or None for a fit."""
    if fit is None:
        return "no_dnct"
    if isinstance(fit, Exception):
        return f"{type(fit).__name__}: {fit}"
    return None


def _pair(ends: tuple) -> tuple:
    """The pair plan of the one pair ``ends``, two ``candidates`` indices."""
    return ends[:1], ends[1:], np.ones(1)


def _run_pass(spec: GraphSpec, config: StudyConfig, jobs: list, *,
              plans: dict, fixed: int | None) -> tuple:
    """The sample size n of ``jobs``, replications of that n, and their
    columns, run as one stacked pass of the plan ``plans[n]``: simulated
    into one (R, n, k) array, each from its own seed, centred and searched
    together; the naive fits in one stacked solve and sandwich, and every
    pair plan's fits by ``_plan_fits``, one stacked call per group of
    replications that share a plan.  A pair or triplet drawn per
    replication is redrawn once where its first fit failed: every first
    draw is fitted first, then every redraw.

    The columns are ``replication`` (R,), ``min_p`` and ``passed`` (R, T),
    and per method its (R, 4) fits (delta, se, ci_low, ci_high), NaN where
    it failed, and under ``method + " error"`` R messages, None where it
    fitted."""
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
    p = _sub_tests(centred.covariance(), n, columns.__getitem__,
                   candidates, rows, *roles[:2], alpha)[3]
    passed = (p > alpha).all(axis=-1)
    plan_fits = partial(_plan_fits, centred, columns.__getitem__, candidates,
                        roles)
    fitted: dict = {}  # method -> per replication a fit, an error or None
    if "naive" in config.methods:
        fitted["naive"] = _naive_fits(centred, columns.__getitem__, *roles)
    if fixed is not None and "random" in config.methods:
        triplet = _triples_plan(rows[fixed:fixed + 1], len(candidates))
        fitted["random"] = plan_fits([fixed] * len(jobs), lambda _: triplet)
    elif "random" in config.methods:
        rngs = [np.random.default_rng(np.random.SeedSequence(
            (config.master_seed, _STREAM_RANDOM, n, r))) for _, r in jobs]
        drawn = np.argsort([columns[name] for name in candidates])

        def draw(rng) -> tuple:
            """Two ``candidates`` indices: a pair drawn in graph order, or
            two ends of a drawn triple."""
            if config.random_scheme == "pair_per_rep":
                ends = rng.choice(drawn, size=2, replace=False)
            else:  # triplet_per_rep
                ends = rng.choice(rows[rng.integers(len(rows))], size=2,
                                  replace=False)
            return tuple(ends.tolist())

        first = plan_fits([draw(rng) for rng in rngs], _pair)
        again = plan_fits([draw(rng) if isinstance(fit, Exception) else None
                           for rng, fit in zip(rngs, first)], _pair)
        fitted["random"] = [fit if redrawn is None else redrawn
                            for fit, redrawn in zip(first, again)]
    if "dance" in config.methods:
        fitted["dance"] = plan_fits(
            [row.tobytes() if row.any() else None for row in passed],
            lambda key: _triples_plan(rows[np.frombuffer(key, dtype=bool)],
                                      len(candidates), config.aggregate))
    block = {"replication": np.array([r for _, r in jobs]),
             "min_p": p.min(axis=-1), "passed": passed}
    for method, fits in fitted.items():
        errors = [_message(fit) for fit in fits]
        block[method] = np.array([(math.nan,) * 4 if error else fit
                                  for fit, error in zip(fits, errors)])
        block[method + " error"] = np.array(errors, dtype=object)
    return n, block


def _run_jobs(run_pass, jobs: list) -> list:
    """The ``run_pass`` results of every ``(n, replication)`` job, in no
    set order, in the ``k`` processes ``run_study`` describes, each part run by
    ``_run_part``.  The jobs are dealt out in turn, ``jobs[i::k]``, so every
    part holds the same mix of sample sizes."""
    k = min(len(cuts(sum(n for n, _ in jobs), _STUDY_CHUNK)), len(jobs))
    try:
        return _run_parts(run_pass, [jobs[i::k] for i in range(k)])
    except Exception:
        # every child is reaped: raise what the serial loop raises first,
        # each replication a pass of its own
        return [run_pass([job]) for job in jobs]


def _run_part(run_pass, part: list) -> list:
    """The pass results of ``part``: its jobs grouped by n, in order, and
    each group run by ``run_pass`` in passes of at most ``_STUDY_CHUNK``
    simulated rows, at least one replication each."""
    groups: dict[int, list] = {}
    for job in part:
        groups.setdefault(job[0], []).append(job)
    blocks = []
    for n, group in groups.items():
        size = max(1, _STUDY_CHUNK // n)
        for start in range(0, len(group), size):
            blocks.append(run_pass(group[start:start + size]))
    return blocks


def _run_parts(run_pass, parts: list) -> list:
    """The pass results of every part of the jobs, part after part: parts
    after the first run by forked children, which send their results back
    pickled, and a part whose child failed run again here."""
    results = map_parts(parts, partial(_run_part, run_pass),
                        partial(_pickled_part, run_pass), _unpickled)
    return [block for part, result in zip(parts, results)
            for block in (_run_part(run_pass, part) if result is None
                          else result)]


def _pickled_part(run_pass, part: list) -> bytes:
    """The pickled pass results of ``part``, as a child sends them."""
    return pickle.dumps(_run_part(run_pass, part), pickle.HIGHEST_PROTOCOL)


def _unpickled(fd: int) -> list | None:
    """The pass results a child sent on ``fd``, or None if they ended
    early."""
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
    turn into ``k`` parts, ``k`` the number of runs ``_fork.cuts`` makes of
    their total rows with a floor of ``_STUDY_CHUNK``, at most one a
    replication, so a study of fewer than ``2 * _STUDY_CHUNK`` rows forks
    nothing; ``_fork.map_parts`` runs the parts.  A part whose child
    failed runs again in this process.  Should a pass raise, the
    replications run again in order, one a pass, so the exception is the
    one a serial loop raises first.  Each replication is seeded alone, and
    gets the same bits in a stack as alone, so the result depends neither
    on ``k`` nor on the passes.  Each pass returns its results as columns
    (``_run_pass``); the columns of each sample size are joined and put in
    replication order by one ``argsort``.
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

    passes = _run_jobs(
        partial(_run_pass, spec, config, plans=plans, fixed=fixed),
        [(n, r) for n in config.sample_sizes
         for r in range(config.replications)],
    )

    metrics: list[MethodMetrics] = []
    failures: list[FailureRecord] = []
    roc: list[RocPoint] = []
    auc: dict[int, float] = {}
    details: dict[int, dict] = {}

    for n in config.sample_sizes:
        blocks = [block for size, block in passes if size == n]
        order = np.argsort(np.concatenate([b["replication"] for b in blocks]))
        column = {key: np.concatenate([b[key] for b in blocks])[order]
                  for key in blocks[0]}
        replications = column["replication"].tolist()
        min_p = column["min_p"]
        flat_scores = min_p.ravel()
        flat_labels = np.tile(labels, len(replications))
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
            "found": [tuple(triples[j] for j in np.flatnonzero(row))
                      for row in column["passed"]],
            "estimates": {},
        }
        for method in config.methods:
            errors = column[method + " error"]
            failures += [FailureRecord(n, r, method, error)
                         for r, error in zip(replications, errors)
                         if error is not None]
            fitted = np.array([error is None for error in errors], dtype=bool)
            # four contiguous columns, as the summaries below read them
            deltas, ses, lows, highs = column[method][fitted].T.copy()
            covered = (lows <= true_delta) & (true_delta <= highs)
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
            metrics.append(MethodMetrics(method, n, len(replications),
                                         len(errors) - len(deltas), *summary))
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
