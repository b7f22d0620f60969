"""In-memory span recorder wrapped around the public functions of each
negcontrol layer.

The recorder patches module attributes for the duration of a ``traced``
block: every namespace that holds one of the functions below gets a thin
wrapper that records a span (name, start, end, parent, call id) and, for a
few functions, counters read from the public return value.  Nothing inside
the package is changed; the wrappers are removed when the block ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from dataclasses import dataclass, field

# (span name, function name, modules whose attribute of that name is replaced)
_TARGETS = (
    ("data.load_csv", "load_csv", ("cli",)),
    ("data.write_csv", "write_csv", ("cli",)),
    ("data.covariance", "covariance", ("cli", "search")),
    ("search.find_nc", "find_nc", ("search", "pipeline", "study")),
    ("aggregate.enumerate_pairs", "enumerate_pairs", ("pipeline", "study")),
    ("estimate.design_matrices", "design_matrices", ("aggregate", "estimate")),
    ("estimate.solve_linear_moments", "solve_linear_moments",
     ("aggregate", "estimate")),
    ("estimate.per_observation_moments", "per_observation_moments",
     ("aggregate", "estimate", "study")),
    ("estimate.sandwich_cov", "sandwich_cov",
     ("aggregate", "estimate", "study")),
    ("estimate.gmm_linear_ate", "gmm_linear_ate", ("cli", "study")),
    ("aggregate.weighted_estimate", "weighted_estimate",
     ("pipeline", "study")),
    ("aggregate.majority_vote", "majority_vote_estimate",
     ("pipeline", "study")),
    ("pipeline.dance", "dance", ("cli",)),
    ("simulate.generate", "generate", ("cli", "simulate")),
    ("study.run_study", "run_study", ("cli",)),
    ("cli.emit", "write_study_outputs", ("cli",)),
    # the JSON writer of the command line has no public name; when a later
    # version drops it, cli.emit_s reads 0 and cli.self_s absorbs the time
    ("cli.emit", "_emit", ("cli",)),
)

TETRAD_SPAN = "tetrad.wishart_test"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    call: str
    flag: str = ""


@dataclass
class Recorder:
    """Spans and counters of one benchmark run, kept in memory."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # call id -> {name: value}
    call: str = ""
    _stack: list = field(default_factory=list)

    def count(self, name: str, value: float = 1, reduce=None) -> None:
        bucket = self.counters.setdefault(self.call, {})
        if reduce is None:
            bucket[name] = bucket.get(name, 0) + value
        else:
            bucket[name] = reduce(bucket.get(name, value), value)

    def span(self, name: str, fn, args, kwargs, flag: str = ""):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = Span(name, 0.0, 0.0, parent, self.call, flag)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def to_json(self) -> dict:
        return {
            "spans": [
                [s.name, s.start, s.end, s.parent, s.call, s.flag]
                for s in self.spans
            ],
            "counters": self.counters,
        }


def _report_counts(rec: Recorder, report) -> None:
    rec.count("search.triples", len(report.all_verdicts))
    rec.count("search.passed", len(report.dncts))
    tests = inapplicable = 0
    for verdict in report.all_verdicts:
        for result in verdict.sub_results:
            tests += 1
            if result.sigma_hat == 0.0 or not (
                math.isfinite(result.w_stat) and math.isfinite(result.p_value)
            ):
                inapplicable += 1
    rec.count("tetrad.tests", tests)
    rec.count("tetrad.inapplicable", inapplicable)


def _flag(name: str, args, kwargs) -> str:
    if name == "aggregate.weighted_estimate":
        return kwargs.get("ci_method", "sandwich")
    if name == "estimate.solve_linear_moments":
        has_pair = len(args) > 3 or kwargs.get("pair") is not None
        return "pair" if has_pair else "resample"
    return ""


def _after(rec: Recorder, name: str, flag: str, result, args, kwargs):
    """Counters read from the public return value of a layer call."""
    if name == "search.find_nc":
        _report_counts(rec, result)
    elif name == "data.load_csv":
        rec.count("data.cells", result.n * result.p)
    elif name == "aggregate.weighted_estimate":
        pairs = len(result.per_pair)
        rec.count("aggregate.pairs", pairs)
        if flag == "sandwich":
            data = args[0] if args else kwargs["data"]
            covariates = (args[4] if len(args) > 4
                          else kwargs.get("covariates", ()))
            # computed size of the stacked per-observation moment matrix
            rec.count("aggregate.moment_bytes",
                      data.n * pairs * (3 + len(tuple(covariates))) * 8,
                      reduce=max)
    elif name == "study.run_study":
        config = result.config
        rec.count("study.reps", config.replications * len(config.sample_sizes))
        rec.count("study.failures", len(result.failures))
        rec.count("study.no_dnct",
                  sum(1 for f in result.failures if f.error == "no_dnct"))


def _make_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        flag = _flag(name, args, kwargs)
        try:
            result = rec.span(name, fn, args, kwargs, flag)
        except Exception as exc:
            if (name == "estimate.solve_linear_moments"
                    and type(exc).__name__ == "SingularMomentMatrixError"):
                rec.count("estimate.singular")
            raise
        _after(rec, name, flag, result, args, kwargs)
        return result

    return wrapper


@contextlib.contextmanager
def traced(rec: Recorder):
    """Patch every target for the duration of the block."""
    tetrad = importlib.import_module("negcontrol.tetrad")
    search = importlib.import_module("negcontrol.search")
    wishart = tetrad.wishart_test

    @functools.wraps(wishart)
    def traced_wishart(*args, **kwargs):
        return rec.span(TETRAD_SPAN, wishart, args, kwargs)

    patches = []
    wrappers: dict = {}
    validate = getattr(search, "dnct_validate", None)
    if validate is not None:
        @functools.wraps(validate)
        def traced_validate(*args, **kwargs):
            # find_nc hands the default test function to dnct_validate; the
            # stand-in times each call and leaves custom test functions alone
            args = tuple(traced_wishart if a is wishart else a for a in args)
            if kwargs.get("test_fn") is wishart:
                kwargs["test_fn"] = traced_wishart
            return validate(*args, **kwargs)

        patches.append((search, "dnct_validate", validate))
        search.dnct_validate = traced_validate
    for name, attr, modules in _TARGETS:
        for mod_name in modules:
            module = importlib.import_module(f"negcontrol.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            key = (name, id(original))
            if key not in wrappers:
                wrappers[key] = _make_wrapper(rec, name, original)
            patches.append((module, attr, original))
            setattr(module, attr, wrappers[key])
    try:
        yield rec
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(rec: Recorder) -> dict:
    """Per call id: total and self seconds and span count per span key.

    The key is the span name, suffixed with ``:flag`` when the span has a
    flag.  ``layer:<name>`` totals count only spans whose parent lies in
    another layer, so nested calls inside one layer are not counted twice.
    """
    child = [0.0] * len(rec.spans)
    for span in rec.spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    out: dict = {}
    for i, span in enumerate(rec.spans):
        call = out.setdefault(span.call, {"total": {}, "self": {}, "n": {}})
        key = f"{span.name}:{span.flag}" if span.flag else span.name
        dur = span.end - span.start
        for table, value in (("total", dur), ("self", dur - child[i]),
                             ("n", 1)):
            call[table][key] = call[table].get(key, 0) + value
        parent = rec.spans[span.parent] if span.parent >= 0 else None
        if parent is None or _layer(parent.name) != _layer(span.name):
            layer = f"layer:{_layer(span.name)}"
            call["total"][layer] = call["total"].get(layer, 0.0) + dur
    return out


def layer_metrics(rec: Recorder, summary: dict, call: str,
                  setup: str) -> dict:
    """Per-layer figures of one traced command-line call.

    Set-up figures (CSV writing, data generation outside a study) are read
    from the traced set-up ``setup``.  A layer the call never reaches
    reads 0.
    """
    empty = {"total": {}, "self": {}, "n": {}}
    cur = summary.get(call, empty)
    pre = summary.get(setup, empty)
    total, own, n = cur["total"], cur["self"], cur["n"]
    count = rec.counters.get(call, {})

    tests = count.get("tetrad.tests", 0)
    find_s = total.get("search.find_nc", 0.0)
    wishart_s = total.get(TETRAD_SPAN, 0.0)
    if n.get(TETRAD_SPAN):
        us_per_test = wishart_s / n[TETRAD_SPAN] * 1e6
    else:  # a scan that no longer calls wishart_test per tetrad
        scan = find_s - total.get("data.covariance", 0.0)
        us_per_test = scan / tests * 1e6 if tests else 0.0
    pair_fits = n.get("estimate.solve_linear_moments:pair", 0)
    fit_s = total.get("layer:estimate", 0.0) - total.get(
        "estimate.solve_linear_moments:resample", 0.0)
    reps = count.get("study.reps", 0)
    # the study generates its data inside the call, the others in set-up
    gen = cur if n.get("simulate.generate") else pre
    gen_n = gen["n"].get("simulate.generate", 0)
    triples = count.get("search.triples", 0)
    return {
        "data.load_csv_s": total.get("data.load_csv", 0.0),
        "data.cells": count.get("data.cells", 0),
        "data.covariance_s": total.get("data.covariance", 0.0),
        "data.write_csv_s": pre["total"].get("data.write_csv", 0.0),
        "tetrad.tests": tests,
        "tetrad.us_per_test": us_per_test,
        "tetrad.inapplicable": count.get("tetrad.inapplicable", 0),
        "search.find_nc_s": find_s,
        "search.triples": triples,
        "search.pass_ratio": (
            count.get("search.passed", 0) / triples if triples else 0.0),
        "search.self_s": find_s - wishart_s,
        "estimate.pair_fit_ms": fit_s / pair_fits * 1e3 if pair_fits else 0.0,
        "estimate.pairs": pair_fits,
        "estimate.singular": count.get("estimate.singular", 0),
        "aggregate.sandwich_s": total.get(
            "aggregate.weighted_estimate:sandwich", 0.0),
        "aggregate.pairs": count.get("aggregate.pairs", 0),
        "aggregate.moment_bytes": count.get("aggregate.moment_bytes", 0),
        "aggregate.bootstrap_s": total.get(
            "aggregate.weighted_estimate:bootstrap", 0.0),
        "pipeline.dance_s": total.get("pipeline.dance", 0.0),
        "cli.emit_s": total.get("cli.emit", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "simulate.generate_ms": (
            gen["total"]["simulate.generate"] / gen_n * 1e3 if gen_n else 0.0),
        "study.rep_ms": (
            total.get("study.run_study", 0.0) / reps * 1e3 if reps else 0.0),
        "study.self_ms": (
            own.get("study.run_study", 0.0) / reps * 1e3 if reps else 0.0),
        "study.failures": count.get("study.failures", 0),
        "study.no_dnct": count.get("study.no_dnct", 0),
    }
