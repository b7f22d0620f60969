"""Tests for the replication-study harness (metrics, ROC, determinism)."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from negcontrol.aggregate import enumerate_pairs, weighted_estimate
from negcontrol.errors import SingularMomentMatrixError, TooFewCandidatesError
from negcontrol.estimate import (
    NcPair,
    gmm_linear_ate,
    per_observation_moments,
    sandwich_cov,
    solve_linear_moments,
)
from negcontrol.search import find_nc
from negcontrol.simulate import builtin_graph, generate
from negcontrol import study
from negcontrol.pipeline import dance
from negcontrol._fork import _send
from negcontrol.study import (
    _STREAM_DATA,
    _STUDY_CHUNK,
    StudyConfig,
    _naive_fits,
    _resolve_spec,
    roc_curve,
    run_study,
    write_study_outputs,
)
from test_data import (
    _assert_no_leak,
    _count_forks,
    _no_fork,
    _open_descriptors,
    needs_fork,
    needs_proc,
)


def _naive_fit(data, treatment, outcome, covariates):
    """The study's naive fit of one dataset, a stack of one."""
    (fit,) = _naive_fits(tuple(array[None] for array in data._centred),
                         data.index_of, treatment, outcome, covariates)
    if isinstance(fit, Exception):
        raise fit
    return fit


def _small_config(**overrides):
    base = dict(
        graph="simple",
        sample_sizes=(400,),
        replications=8,
        master_seed=100,
    )
    base.update(overrides)
    return StudyConfig(**base)


@pytest.fixture(scope="module")
def small_result():
    return run_study(_small_config())


def test_config_validation():
    with pytest.raises(ValueError):
        _small_config(replications=0)
    with pytest.raises(ValueError):
        _small_config(sample_sizes=())
    with pytest.raises(ValueError):
        _small_config(sample_sizes=(5,))
    with pytest.raises(ValueError):
        _small_config(methods=("naive", "oracle"))
    with pytest.raises(ValueError):
        _small_config(random_scheme="coin_flip")
    with pytest.raises(ValueError):
        _small_config(aggregate="median")
    with pytest.raises(ValueError):  # the ROC points (1, 1) and (0, 0)
        _small_config(alpha_grid=(-1.0, 2.0))
    with pytest.raises(ValueError):  # the binary family reads no noise SD
        _small_config(family="binary", u_sd=-1.0)


_SCHEMA = Path(__file__).resolve().parent.parent / "schema"


def _schema_bounds() -> list:
    """Every numeric bound of the study config schema, as (field, keyword,
    bound, whether it bounds the field's entries, whether they are
    integers)."""
    schema = json.loads((_SCHEMA / "study_config.v1.json").read_text())
    bounds = []
    for name, prop in schema["properties"].items():
        for holder, entry in ((prop, False), (prop.get("items", {}), True)):
            for keyword in ("minimum", "exclusiveMinimum", "maximum",
                            "exclusiveMaximum", "minItems"):
                if keyword in holder:
                    bounds.append((name, keyword, holder[keyword], entry,
                                   holder.get("type") == "integer"))
    return bounds


def _beside(keyword: str, bound, integer: bool):
    """A value just outside ``bound`` and one just inside it."""
    if keyword == "minItems":
        return bound - 1, bound
    below, above = ((bound - 1, bound + 1) if integer else
                    (math.nextafter(bound, -math.inf),
                     math.nextafter(bound, math.inf)))
    return {"minimum": (below, bound), "exclusiveMinimum": (bound, above),
            "maximum": (above, bound),
            "exclusiveMaximum": (bound, below)}[keyword]


@pytest.mark.parametrize("name, keyword, bound, entry, integer",
                         _schema_bounds(), ids=str)
def test_config_keeps_every_schema_bound(monkeypatch, name, keyword, bound,
                                         entry, integer):
    # a value just outside a bound is rejected before any replication, and
    # one just inside it is valid to the schema and to StudyConfig
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((_SCHEMA / "study_config.v1.json").read_text())
    outside, inside = _beside(keyword, bound, integer)

    def payload(value):
        if keyword == "minItems":  # that many of the field's default entry
            value = [getattr(StudyConfig(), name)[0]] * value
        elif entry:
            value = [value]
        return {"sample_sizes": [200], "replications": 2, name: value}

    jsonschema.Draft202012Validator(schema).validate(payload(inside))
    StudyConfig(**payload(inside))
    draws = []
    real = study._generate_stack
    monkeypatch.setattr(study, "_generate_stack",
                        lambda *args: draws.append(args) or real(*args))
    with pytest.raises(ValueError):
        run_study(StudyConfig(**payload(outside)))
    assert draws == []


@pytest.mark.parametrize("name, entries", [
    ("sample_sizes", [200, 200]),
    ("sample_sizes", [300, 200, 300]),
    ("sample_sizes", [200, 300]),
    ("methods", ["dance", "dance"]),
    ("methods", ["naive", "random", "naive"]),
    ("methods", ["naive", "dance"]),
    ("methods", []),
])
def test_config_and_schema_reject_the_same_repeats(name, entries):
    # a repeated sample size or method would be run and counted twice
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((_SCHEMA / "study_config.v1.json").read_text())
    payload = {"sample_sizes": [200], "replications": 2, name: entries}
    unique = len(set(entries)) == len(entries)
    assert jsonschema.Draft202012Validator(schema).is_valid(payload) is unique
    if unique:
        StudyConfig(**payload)
    else:
        with pytest.raises(ValueError, match=f"^{name} repeats"):
            StudyConfig(**payload)


@pytest.mark.parametrize("methods", [("naive", "random", "dance"),
                                     ("naive", "dance")])
def test_too_few_candidates_raise_before_any_replication(monkeypatch,
                                                         methods):
    # the simple graph less the covariates Z1 and Z2 leaves Z3 and Z4: the
    # fixed triplet was drawn from no triple (numpy's "high <= 0")
    draws = []
    monkeypatch.setattr(study, "_generate_stack",
                        lambda *args: draws.append(args))
    with pytest.raises(TooFewCandidatesError):
        run_study(_small_config(covariates=("Z1", "Z2"), methods=methods))
    assert draws == []


def test_a_bad_alpha_raises_before_any_fork(monkeypatch, study_passes):
    spawned = []

    def spawn(task):
        spawned.append(task)
        raise OSError("no fork in this test")

    monkeypatch.setattr("negcontrol._fork._spawn", spawn)
    study_passes(_STUDY_CHUNK, 2)
    with pytest.raises(ValueError, match="alpha"):
        run_study(StudyConfig(alpha=2.0))
    assert spawned == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_study_fails_each_fit_in_one_pass(monkeypatch):
    # every noise SD 1e160: the cross products overflow, and the naive
    # systems read as singular instead of failing the SVD and the pass
    spec = builtin_graph("simple")
    spec = replace(spec, noise={node: 1e160 for node in spec.noise})
    passes = []
    real = study._run_pass
    monkeypatch.setattr(study, "_run_pass", lambda *args, **kwargs: (
        passes.append(args) or real(*args, **kwargs)))
    result = run_study(_small_config(graph=spec, replications=4,
                                     methods=("naive",)))
    assert len(passes) == 1
    assert [(f.replication, f.error) for f in result.failures] == [
        (r, "SingularMomentMatrixError: correlation-scale moment matrix is "
            "singular or near-singular (condition number ~inf)")
        for r in range(4)]


def test_metrics_table_shape(small_result):
    res = small_result
    assert [m.method for m in res.metrics] == ["naive", "random", "dance"]
    for m in res.metrics:
        assert m.n == 400
        assert m.replications == 8
        assert m.failures + 0 <= 8
        assert 0.0 <= m.coverage_95 <= 1.0
        assert m.mc_se > 0
        assert m.mean_estimated_se > 0
        # proportion bias is bias over the true effect, in percent.
        assert m.proportion_bias_pct == pytest.approx(
            100.0 * m.bias / res.true_delta, abs=1e-9
        )


def test_naive_is_upward_biased(small_result):
    # All structural coefficients are positive, so ignoring the confounder
    # inflates the OLS effect.
    naive = next(m for m in small_result.metrics if m.method == "naive")
    assert naive.bias > 0.05


def test_dance_less_biased_than_naive(small_result):
    by_method = {m.method: m for m in small_result.metrics}
    assert abs(by_method["dance"].bias) < abs(by_method["naive"].bias)


def test_study_rerun_is_identical():
    cfg = _small_config(replications=6)
    one = run_study(cfg)
    two = run_study(cfg)
    assert one.metrics == two.metrics
    assert one.roc == two.roc
    assert one.failures == two.failures
    assert one.auc == two.auc
    np.testing.assert_array_equal(
        one.details[400]["min_p"], two.details[400]["min_p"]
    )


def test_study_seed_changes_output():
    base = run_study(_small_config(replications=4))
    other = run_study(_small_config(replications=4, master_seed=101))
    assert base.metrics != other.metrics


def test_true_structure_recorded(small_result):
    assert set(small_result.true_dncts) == {
        ("Z1", "Z3", "Z4"),
        ("Z2", "Z3", "Z4"),
    }
    assert small_result.true_delta == small_result.spec.edge_coeff("T", "O")


def test_roc_points_and_auc(small_result):
    res = small_result
    points = [p for p in res.roc if p.n == 400]
    assert points, "grid must produce ROC points"
    for p in points:
        assert 0.0 <= p.tpr <= 1.0
        assert 0.0 <= p.fpr <= 1.0
    # The scan flags a triple when min_p > alpha, so raising alpha can only
    # shrink both rates: monotone non-increasing along the sorted grid.
    by_alpha = sorted(points, key=lambda p: p.alpha)
    tprs = [p.tpr for p in by_alpha]
    fprs = [p.fpr for p in by_alpha]
    assert all(a >= b for a, b in zip(tprs, tprs[1:]))
    assert all(a >= b for a, b in zip(fprs, fprs[1:]))
    # The default grid always includes the working level 1/n.
    assert any(p.alpha == pytest.approx(1.0 / 400) for p in points)
    assert 0.0 <= res.auc[400] <= 1.0


def test_custom_alpha_grid():
    cfg = _small_config(replications=4, alpha_grid=(0.001, 0.05, 0.2))
    res = run_study(cfg)
    assert sorted({p.alpha for p in res.roc}) == [0.001, 0.05, 0.2]


def test_roc_curve_helper_matches_study():
    cfg = _small_config(replications=5)
    points, auc = roc_curve(cfg)
    full = run_study(cfg)
    assert points == full.roc
    assert auc == full.auc


def test_auc_improves_with_sample_size():
    cfg = _small_config(sample_sizes=(30, 2000), replications=10, methods=())
    res = run_study(cfg)
    assert res.auc[2000] >= res.auc[30]
    assert res.auc[2000] > 0.9


def test_methods_subset_runs():
    cfg = _small_config(methods=("naive",), replications=3)
    res = run_study(cfg)
    assert [m.method for m in res.metrics] == ["naive"]


def test_per_replication_random_schemes_run():
    for scheme in ("pair_per_rep", "triplet_per_rep"):
        cfg = _small_config(
            methods=("random",), replications=4, random_scheme=scheme
        )
        res = run_study(cfg)
        metric = res.metrics[0]
        assert metric.method == "random"
        assert np.isfinite(metric.bias)


def test_majority_aggregate_runs():
    cfg = _small_config(methods=("dance",), replications=4, aggregate="majority")
    res = run_study(cfg)
    assert np.isfinite(res.metrics[0].bias)


def test_dance_failures_recorded_when_search_finds_nothing():
    # At alpha close to 1 essentially no tetrad test "passes", so the
    # pipeline finds no validated triplets and each replication logs a
    # failure instead of producing an estimate.
    cfg = _small_config(methods=("dance",), replications=3, alpha=0.9999)
    res = run_study(cfg)
    metric = res.metrics[0]
    assert metric.failures == 3
    assert np.isnan(metric.bias)
    assert len(res.failures) == 3
    assert all(f.method == "dance" and f.error == "no_dnct" for f in res.failures)


def test_custom_graph_spec_accepted():
    spec = builtin_graph("simple", seed=55)
    cfg = StudyConfig(
        graph=spec, sample_sizes=(300,), replications=3, master_seed=1
    )
    res = run_study(cfg)
    assert res.spec == spec
    assert res.true_delta == spec.edge_coeff("T", "O")


def test_write_study_outputs(tmp_path, small_result):
    paths = write_study_outputs(small_result, tmp_path)
    assert set(paths) == {"metrics", "roc", "failures"}
    metrics_lines = (tmp_path / "metrics.csv").read_text().splitlines()
    header = metrics_lines[0].split(",")
    assert header == [
        "method",
        "n",
        "replications",
        "failures",
        "bias",
        "proportion_bias_pct",
        "mc_se",
        "mean_estimated_se",
        "coverage_95",
    ]
    assert len(metrics_lines) == 1 + len(small_result.metrics)
    roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc_lines[0].split(",") == ["n", "alpha", "tpr", "fpr"]
    assert len(roc_lines) == 1 + len(small_result.roc)
    # Every numeric cell is a plain number, not a numpy scalar repr.
    for lines, first_numeric in ((metrics_lines, 1), (roc_lines, 0)):
        for line in lines[1:]:
            for cell in line.split(",")[first_numeric:]:
                float(cell)
    # Re-writing produces byte-identical files.
    before = {k: Path(p).read_bytes() for k, p in paths.items()}
    write_study_outputs(small_result, tmp_path)
    after = {k: Path(p).read_bytes() for k, p in paths.items()}
    assert before == after


def test_pipeline_bias_shrinks_with_sample_size():
    # Averaged over several coefficient draws, the pipeline's absolute bias
    # at n=3000 must not exceed its bias at n=300: the tetrad tests get
    # sharper and the moment fits tighter as data accumulates.
    small, large = [], []
    for seed in range(5):
        cfg = StudyConfig(
            graph="simple",
            sample_sizes=(300, 3000),
            replications=20,
            methods=("dance",),
            master_seed=seed,
        )
        res = run_study(cfg)
        by_n = {m.n: m for m in res.metrics}
        small.append(abs(by_n[300].bias))
        large.append(abs(by_n[3000].bias))
    assert np.mean(large) <= np.mean(small)


def test_details_expose_replication_table(small_result):
    det = small_result.details[400]
    n_triples = len(det["triples"])
    assert det["min_p"].shape == (8, n_triples)
    assert len(det["labels"]) == n_triples
    assert set(det["estimates"]) == {"naive", "random", "dance"}
    assert len(det["found"]) == 8


def test_details_min_p_matches_verdicts(small_result):
    # each replication's min_p row, bit for bit, against the smallest p of
    # each verdict of a search on the same draw
    config = small_result.config
    spec = _resolve_spec(config)
    for n in config.sample_sizes:
        rows = small_result.details[n]["min_p"]
        for r in range(config.replications):
            data = generate(spec, n, np.random.SeedSequence(
                (config.master_seed, _STREAM_DATA, n, r)))
            report = find_nc(data, spec.candidates, spec.treatment,
                             spec.outcome, alpha=1.0 / n)
            expected = [min(t.p_value for t in v.sub_results)
                        for v in report.all_verdicts]
            assert rows[r].tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("scheme", ["triplet_fixed", "pair_per_rep",
                                    "triplet_per_rep"])
def test_candidate_covariate_is_no_candidate(scheme):
    # as in ``dance``, a covariate is adjusted for and never searched
    config = _small_config(covariates=("Z1",), sample_sizes=(200,),
                           replications=2, random_scheme=scheme)
    result = run_study(config)
    detail = result.details[200]
    assert detail["triples"] and result.true_dncts and any(detail["found"])
    for triple in (*detail["triples"], *result.true_dncts,
                   *(t for found in detail["found"] for t in found)):
        assert "Z1" not in triple
    assert all(f.error == "no_dnct" for f in result.failures)
    spec = _resolve_spec(config)
    for r in range(config.replications):
        data = generate(spec, 200, np.random.SeedSequence(
            (config.master_seed, _STREAM_DATA, 200, r)))
        expected = _naive_fit(data, spec.treatment, spec.outcome, ("Z1",))
        assert detail["estimates"]["naive"]["delta"][r] == expected[0]


@pytest.mark.parametrize("covariates", [(), ("Z1", "Z2")])
def test_naive_fit_matches_raw_ols(simple_data, covariates):
    # The centred solve against OLS on the raw design [1, T, X] with the
    # reference sandwich.
    n = simple_data.n
    m = np.column_stack([
        np.ones(n), simple_data.column("T"),
        *(simple_data.column(name) for name in covariates),
    ])
    y = simple_data.column("O")
    theta, a_n = solve_linear_moments(m, m, y)
    var = sandwich_cov(a_n, per_observation_moments(m, m, y, theta))
    delta, se, ci_low, ci_high = _naive_fit(simple_data, "T", "O", covariates)
    assert delta == pytest.approx(theta[1], rel=1e-10)
    assert se == pytest.approx(np.sqrt(var[1, 1]), rel=1e-10)
    assert (ci_low, ci_high) == (delta - 1.96 * se, delta + 1.96 * se)


# ---------------------------------------------------------------------------
# replications split into parts run by forked children
# ---------------------------------------------------------------------------


def _force_split(mp, k):
    """Run every study in ``min(k, jobs)`` parts, whatever its size."""
    mp.setattr("negcontrol.study._STUDY_CHUNK", 1)
    mp.setattr("negcontrol.study._workers", lambda: k)


def _split_config(**overrides):
    # 10 jobs, so 4 parts hold 3, 3, 2 and 2 of them
    return _small_config(sample_sizes=(200, 400), replications=5,
                         **overrides)


def _parts(config, k):
    """The (n, replication) jobs of each of ``k`` parts, in run order."""
    jobs = [(n, r) for n in config.sample_sizes
            for r in range(config.replications)]
    return [jobs[i::k] for i in range(k)]


def _job(seed) -> tuple:
    """The (n, replication) job a study simulates from ``seed``."""
    assert tuple(seed.entropy)[1] == _STREAM_DATA
    return tuple(seed.entropy)[-2:]


def _record_own_jobs(mp):
    """The (n, replication) jobs simulated in this process from here on, in
    order; a child's jobs are not recorded."""
    parent, own = os.getpid(), []
    real = study._generate_stack

    def generate_stack(spec, n, seeds, include_latent=False):
        if os.getpid() == parent:
            own.extend(_job(seed) for seed in seeds)
        return real(spec, n, seeds, include_latent)

    mp.setattr("negcontrol.study._generate_stack", generate_stack)
    return own


class _ReplicationError(Exception):
    pass


def _raise_in(mp, raising):
    """From here on, every pass that simulates one of the (n, replication)
    jobs ``raising`` raises, naming its first such job."""
    real = study._generate_stack

    def generate_stack(spec, n, seeds, include_latent=False):
        for job in map(_job, seeds):
            if job in raising:
                raise _ReplicationError("n={} replication={}".format(*job))
        return real(spec, n, seeds, include_latent)

    mp.setattr("negcontrol.study._generate_stack", generate_stack)


def _fingerprint(result, tmp_path):
    """Everything a study returns that a split could change, as bytes and
    plain values: the three output files and every detail array."""
    paths = write_study_outputs(result, tmp_path / "out")
    files = {name: Path(path).read_bytes() for name, path in paths.items()}
    details = {
        n: (detail["triples"], detail["labels"].tobytes(),
            detail["min_p"].tobytes(), detail["found"],
            {method: {key: array.tobytes() for key, array in arrays.items()}
             for method, arrays in detail["estimates"].items()})
        for n, detail in result.details.items()
    }
    return files, details, repr(result.auc)


_SPLIT_VARIANTS = {
    "triplet_fixed": {},
    "pair_per_rep": {"random_scheme": "pair_per_rep"},
    "triplet_per_rep": {"random_scheme": "triplet_per_rep"},
    "majority": {"aggregate": "majority"},
    "no-dnct": {"alpha": 0.2},  # 6 of the 10 replications fail
}


@pytest.fixture(scope="module")
def serial_fingerprints(tmp_path_factory):
    """The serial run of each split variant, and of its ROC alone."""
    out = {}
    for name, overrides in _SPLIT_VARIANTS.items():
        config = _split_config(**overrides)
        result = run_study(config)
        out[name] = _fingerprint(result, tmp_path_factory.mktemp(name))
        out[name, "roc"] = repr(roc_curve(config))
    return out


@needs_fork
@needs_proc
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", list(_SPLIT_VARIANTS))
def test_split_study_matches_serial(tmp_path, monkeypatch,
                                    serial_fingerprints, k, variant):
    config = _split_config(**_SPLIT_VARIANTS[variant])
    _force_split(monkeypatch, k)
    forked = _count_forks(monkeypatch)
    own = _record_own_jobs(monkeypatch)
    before = _open_descriptors()
    result = run_study(config)
    assert len(forked) == k - 1
    assert own == _parts(config, k)[0]
    _assert_no_leak(before)
    assert _fingerprint(result, tmp_path) == serial_fingerprints[variant]
    # roc_curve runs the search alone through the same split
    roc = repr(roc_curve(config))
    assert len(forked) == 2 * (k - 1)
    assert roc == serial_fingerprints[variant, "roc"]


@needs_fork
@needs_proc
def test_split_study_runs_unforked_parts_itself(tmp_path, monkeypatch,
                                                serial_fingerprints):
    config = _split_config()
    _force_split(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", _no_fork)
    own = _record_own_jobs(monkeypatch)
    before = _open_descriptors()
    result = run_study(config)
    _assert_no_leak(before)
    assert own == sum(_parts(config, 4), [])  # each job once
    assert _fingerprint(result, tmp_path) == serial_fingerprints[
        "triplet_fixed"]


@needs_fork
@needs_proc
@pytest.mark.parametrize("failing", [0, 1, 2], ids=["child1", "child2",
                                                    "child3"])
@pytest.mark.parametrize("how", ["exit-3-after-sending", "short-payload"])
def test_split_study_reruns_a_failed_child(tmp_path, monkeypatch,
                                           serial_fingerprints, failing, how):
    # the failed child's part, and no other, is run again in this process
    config = _split_config()
    _force_split(monkeypatch, 4)
    forked = _count_forks(monkeypatch)
    own = _record_own_jobs(monkeypatch)
    if how == "exit-3-after-sending":
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(
            3 if len(forked) == failing else code))
    else:
        def send(fd, payload):
            view = memoryview(payload).cast("B")
            if len(forked) == failing and len(view) > 8:  # not the count
                view = view[:len(view) // 2]
            _send(fd, view)

        monkeypatch.setattr("negcontrol._fork._send", send)
    before = _open_descriptors()
    result = run_study(config)
    assert len(forked) == 3
    _assert_no_leak(before)
    parts = _parts(config, 4)
    assert own == parts[0] + parts[failing + 1]
    assert _fingerprint(result, tmp_path) == serial_fingerprints[
        "triplet_fixed"]


@needs_fork
@needs_proc
@pytest.mark.parametrize("raising", [(1,), (4,), (2, 4), (4, 9)],
                         ids=["child", "parent", "child-first",
                              "parent-first"])
def test_split_study_raises_the_serial_exception(monkeypatch, raising):
    # with 4 parts, jobs 0, 4 and 8 are this process's; the others are
    # the children's.  The serial loop raises at the first raising job.
    config = _split_config()
    jobs = sum(_parts(config, 1), [])
    _raise_in(monkeypatch, [jobs[i] for i in raising])
    with pytest.raises(_ReplicationError) as serial:
        run_study(config)
    _force_split(monkeypatch, 4)
    forked = _count_forks(monkeypatch)
    before = _open_descriptors()
    with pytest.raises(_ReplicationError) as split:
        run_study(config)
    assert len(forked) == 3
    _assert_no_leak(before)
    assert str(split.value) == str(serial.value)
    assert str(serial.value) == "n={} replication={}".format(
        *jobs[min(raising)])


@needs_fork
@pytest.mark.parametrize(
    "config",
    [
        # the benchmark's warm-up: 8 000 rows
        StudyConfig(graph="complex", strength="strong",
                    sample_sizes=(1000, 3000), replications=2),
        # one row short of two parts
        StudyConfig(graph="simple", sample_sizes=(_STUDY_CHUNK,
                                                  _STUDY_CHUNK - 1),
                    replications=1, methods=()),
        # the small study of the tests above
        _small_config(),
    ],
    ids=["warm-up", "floor", "small"],
)
def test_study_under_the_floor_forks_nothing(monkeypatch, config):
    # a fork costs more than a part of fewer than _STUDY_CHUNK rows saves
    monkeypatch.setattr("negcontrol.study._workers", lambda: 4)
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _no_fork())
    run_study(config)
    assert forks == []


# ---------------------------------------------------------------------------
# replications run in stacked passes
# ---------------------------------------------------------------------------

# pass budgets in simulated rows: one replication a pass, passes of 15 or
# 3 replications (n = 200, 1000), of 35 or 7, and the default
_BUDGETS = [1, 3000, 7000, _STUDY_CHUNK]

_PASS_VARIANTS = {
    "triplet_fixed": {},
    "pair_per_rep": {"random_scheme": "pair_per_rep"},
    "triplet_per_rep": {"random_scheme": "triplet_per_rep"},
    "majority": {"aggregate": "majority"},
    "covariate": {"covariates": ("Z1",)},
    "binary": {"family": "binary"},
    "no-dnct": {"alpha": 0.2},
}


def _pass_config(**overrides):
    # 12 replications, 7 200 rows
    return _small_config(sample_sizes=(200, 1000), replications=6,
                         **overrides)


def _outputs(config, tmp_path):
    """The study's fingerprint (files, details, AUC) and its ROC alone."""
    return (_fingerprint(run_study(config), tmp_path),
            repr(roc_curve(config)))


@pytest.fixture(scope="module")
def per_replication_outputs(tmp_path_factory):
    """Each pass variant run one replication a pass, in one process: the
    per-replication loop."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("negcontrol.study._STUDY_CHUNK", 1)
        mp.setattr("negcontrol.study._workers", lambda: 1)
        return {
            name: _outputs(_pass_config(**overrides),
                           tmp_path_factory.mktemp(name))
            for name, overrides in _PASS_VARIANTS.items()
        }


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("variant", list(_PASS_VARIANTS))
def test_stacked_passes_match_per_replication_loop(
        tmp_path, study_passes, per_replication_outputs, variant, budget,
        workers):
    study_passes(budget, workers)
    outputs = _outputs(_pass_config(**_PASS_VARIANTS[variant]), tmp_path)
    assert outputs == per_replication_outputs[variant]


@pytest.mark.parametrize("aggregate", ["weighted", "majority"])
def test_grouped_dance_fits_match_one_replication_passes(tmp_path,
                                                         monkeypatch,
                                                         study_passes,
                                                         aggregate):
    # a weak, small-n design whose one pass of 10 replications holds three
    # distinct sets of passed triples, one shared by several replications,
    # and three replications that passed none: each set is fitted in one
    # stacked call, and the study writes what one replication a pass writes
    config = StudyConfig(graph="simple", strength="weak", sample_sizes=(100,),
                         replications=10, master_seed=4, alpha=0.2,
                         aggregate=aggregate)
    seen = []
    real = study._plan_fits

    def plan_fits(centred, index_of, names, roles, keys, plan_of):
        # the dance fits: each replication's passed triples as bytes, None
        # where it passed none; the fixed triplet's keys are its index
        if all(key is None or isinstance(key, bytes) for key in keys):
            seen.append(list(keys))
        return real(centred, index_of, names, roles, keys, plan_of)

    monkeypatch.setattr("negcontrol.study._plan_fits", plan_fits)
    study_passes(1, 1)
    alone = _fingerprint(run_study(config), tmp_path / "alone")
    assert len(seen) == 10
    seen.clear()
    study_passes(_STUDY_CHUNK, 1)
    stacked = _fingerprint(run_study(config), tmp_path / "stacked")
    (rows,) = seen
    sets = [row for row in rows if row is not None]
    assert len(set(sets)) >= 2
    assert len(sets) > len(set(sets))  # a group of two or more
    assert None in rows
    assert stacked == alone


def _copy_column_in(mp, n, replication, target, source):
    """Simulate replication (n, replication) of every study from here on
    with column ``target`` a copy of column ``source``."""
    real = study._generate_stack

    def generate_stack(spec, size, seeds, include_latent=False):
        names, values = real(spec, size, seeds, include_latent)
        for i, seed in enumerate(seeds):
            if tuple(seed.entropy)[-2:] == (n, replication):
                values[i, :, names.index(target)] = values[
                    i, :, names.index(source)]
        return names, values

    mp.setattr("negcontrol.study._generate_stack", generate_stack)


@needs_fork
@pytest.mark.parametrize("aggregate", ["weighted", "majority"])
def test_singular_pair_fails_only_its_replication(tmp_path, monkeypatch,
                                                  study_passes, aggregate):
    # Z6 becomes the covariate Z7 in replication 2 of n = 1000, so every
    # pair holding Z6 is singular there; its search still passes triples
    # holding Z6.  With a budget of 3 000 rows, replications 0-2 share a
    # pass.
    config = StudyConfig(graph="complex", strength="strong",
                         sample_sizes=(300, 1000), replications=6,
                         master_seed=100, covariates=("Z7",),
                         aggregate=aggregate)
    _copy_column_in(monkeypatch, 1000, 2, "Z6", "Z7")
    outputs = {}
    for budget, workers in [(1, 1), (3000, 1), (3000, 2), (_STUDY_CHUNK, 2)]:
        study_passes(budget, workers)
        result = run_study(config)
        outputs[budget, workers] = _fingerprint(
            result, tmp_path / f"{budget}-{workers}")
        singular = {(f.n, f.replication, f.method) for f in result.failures
                    if f.error.startswith("SingularMomentMatrixError")}
        assert (1000, 2, "dance") in singular
        assert {(n, r) for n, r, _ in singular} == {(1000, 2)}
        found = result.details[1000]["found"][2]
        assert found and all("Z6" in triple for triple in found)
    assert len(set(map(repr, outputs.values()))) == 1


@needs_fork
@pytest.mark.parametrize("budget, workers", [(3000, 1), (3000, 2),
                                             (_STUDY_CHUNK, 1)])
@pytest.mark.parametrize("raising", [(200, 0), (1000, 1), (1000, 4)])
def test_pass_raises_the_serial_exception(monkeypatch, study_passes,
                                          budget, workers, raising):
    # the replication raises inside a pass of several; the study raises
    # what the per-replication loop raises
    config = _pass_config()
    _raise_in(monkeypatch, [raising])
    study_passes(1, 1)
    with pytest.raises(_ReplicationError) as serial:
        run_study(config)
    study_passes(budget, workers)
    before = _open_descriptors()
    with pytest.raises(_ReplicationError) as stacked:
        run_study(config)
    _assert_no_leak(before)
    assert type(stacked.value) is type(serial.value)
    assert str(stacked.value) == str(serial.value) == "n={} replication={}"\
        .format(*raising)


@pytest.mark.parametrize("variant", ["triplet_fixed", "majority",
                                     "covariate", "binary"])
def test_stacked_dance_fits_match_dance(study_passes, variant):
    # each replication's dance estimate, fitted from the pass's arrays, is
    # the one ``dance`` makes of that replication's dataset
    config = _pass_config(**_PASS_VARIANTS[variant])
    study_passes(_STUDY_CHUNK, 1)
    result = run_study(config)
    spec = _resolve_spec(config)
    candidates = [c for c in spec.candidates if c not in config.covariates]
    for n in config.sample_sizes:
        found = result.details[n]["found"]
        fitted = result.details[n]["estimates"]["dance"]
        expected = []
        for r in range(config.replications):
            data = generate(spec, n, np.random.SeedSequence(
                (config.master_seed, _STREAM_DATA, n, r)))
            fit = dance(data, spec.treatment, spec.outcome,
                        candidates=candidates, covariates=config.covariates,
                        aggregate=config.aggregate)
            assert fit.report.dncts == found[r]
            if fit.estimate is not None:
                expected.append((fit.estimate.delta_hat, fit.estimate.se))
        assert expected
        assert (np.array(expected).tobytes()
                == np.column_stack([fitted["delta"], fitted["se"]]).tobytes())


def _random_fit(config, spec, data, candidates, triples, n, r):
    """The random arm's fit of replication (n, r), redrawn from the
    study's own seed streams and fitted by the library."""
    covariates = config.covariates
    if config.random_scheme == "triplet_fixed":
        rng = np.random.default_rng(np.random.SeedSequence(
            (config.master_seed, study._STREAM_FIXED_TRIPLET)))
        table = enumerate_pairs([triples[rng.integers(len(triples))]])
        return weighted_estimate(data, table, spec.treatment, spec.outcome,
                                 covariates)
    # one redraw on failure, as the study has it
    for attempt, pair in enumerate(_drawn_pairs(config, candidates, triples,
                                                n, r)):
        try:
            return gmm_linear_ate(data, NcPair(*pair), spec.treatment,
                                  spec.outcome, covariates)
        except SingularMomentMatrixError:
            if attempt:
                raise


def _drawn_pairs(config, candidates, triples, n, r) -> list:
    """The pair drawn for replication (n, r) and its redraw, from the
    study's seed stream: a pair of ``candidates`` in graph order, or two
    ends of one of the sorted ``triples``."""
    rng = np.random.default_rng(np.random.SeedSequence(
        (config.master_seed, study._STREAM_RANDOM, n, r)))
    pairs = []
    for _ in range(2):
        if config.random_scheme == "pair_per_rep":
            z, w = rng.choice(len(candidates), size=2, replace=False)
            pairs.append((candidates[z], candidates[w]))
        else:
            triple = triples[rng.integers(len(triples))]
            z, w = rng.choice(3, size=2, replace=False)
            pairs.append((triple[z], triple[w]))
    return pairs


def _reversed_candidates(config):
    """``config`` on its graph with the candidates listed in reverse, so
    the graph order a random pair is drawn in is not the sorted order."""
    spec = _resolve_spec(config)
    nodes = tuple(n for n in spec.nodes if n not in spec.candidates)
    return replace(config, graph=replace(
        spec, nodes=nodes + spec.candidates[::-1]))


@pytest.mark.parametrize("variant", ["triplet_fixed", "pair_per_rep",
                                     "triplet_per_rep", "covariate",
                                     "reversed"])
def test_stacked_random_fits_match_the_library(study_passes, variant):
    # each replication's random estimate is the library's fit of the
    # triplet or pair the study drew for it: the fixed triplet's weighted
    # estimate, or the drawn pair's own fit
    if variant == "reversed":
        config = _reversed_candidates(
            _pass_config(random_scheme="pair_per_rep"))
    else:
        config = _pass_config(**_PASS_VARIANTS[variant])
    study_passes(_STUDY_CHUNK, 1)
    result = run_study(config)
    assert not [f for f in result.failures if f.method == "random"]
    spec = _resolve_spec(config)
    candidates = [c for c in spec.candidates if c not in config.covariates]
    triples = list(combinations(sorted(candidates), 3))
    for n in config.sample_sizes:
        fitted = result.details[n]["estimates"]["random"]
        expected = []
        for r in range(config.replications):
            data = generate(spec, n, np.random.SeedSequence(
                (config.master_seed, _STREAM_DATA, n, r)))
            fit = _random_fit(config, spec, data, candidates, triples, n, r)
            expected.append((fit.delta_hat, fit.se))
        assert (np.array(expected).tobytes()
                == np.column_stack([fitted["delta"], fitted["se"]]).tobytes())


def _fail_random_draws(mp, failing) -> list:
    """From here on, the draw ``d`` (1 or 2) of replication (n, r) of every
    random-only study fails where ``d <= failing.get((n, r), 0)``, with a
    SingularMomentMatrixError of condition number ``d`` naming the pair.
    Returns the (n, r, d) of every random fit, in the order fitted."""
    jobs, fitted = {}, []
    real_generate, real_fits = study._generate_stack, study._fits

    def generate_stack(spec, n, seeds, include_latent=False):
        names, values = real_generate(spec, n, seeds, include_latent)
        # a replication's column means, with the bits the pass gives them
        for seed, means in zip(seeds, study._centre(values)[1]):
            jobs[means.tobytes()] = _job(seed)
        return names, values

    def fits(centred, index_of, names, z, w, weights, roles):
        out = real_fits(centred, index_of, names, z, w, weights, roles)
        assert len(z) == 1  # a drawn pair, not a triplet's three
        for i, means in enumerate(centred[1]):
            job = jobs[means.tobytes()]
            draw = 1 + sum(seen[:2] == job for seen in fitted)
            fitted.append((*job, draw))
            if draw <= failing.get(job, 0):
                out[i] = SingularMomentMatrixError(
                    "injected", cond=float(draw),
                    pair=NcPair(names[z[0]], names[w[0]]))
        return out

    mp.setattr("negcontrol.study._generate_stack", generate_stack)
    mp.setattr("negcontrol.study._fits", fits)
    return fitted


@pytest.mark.parametrize("budget", [1, _STUDY_CHUNK], ids=["alone",
                                                          "stacked"])
@pytest.mark.parametrize("scheme", ["pair_per_rep", "triplet_per_rep"])
def test_failed_random_draws_are_redrawn_once(tmp_path, monkeypatch,
                                              study_passes, scheme, budget):
    # a replication whose first drawn pair fails records the library's fit
    # of its redrawn pair; one whose redraw fails too records the redraw's
    # error.  Stacked, a pass fits every first draw before any redraw.
    config = _pass_config(random_scheme=scheme, methods=("random",))
    failing = {(200, 1): 1, (200, 2): 2, (200, 5): 1, (1000, 0): 2,
               (1000, 3): 1, (1000, 4): 1}
    fitted = _fail_random_draws(monkeypatch, failing)
    study_passes(budget, 1)
    result = run_study(config)
    redrawn = [(n, r, 2) for n, r in failing]
    assert sorted(job for job in fitted if job[2] == 2) == sorted(redrawn)
    assert len(fitted) == 2 * config.replications + len(failing)
    if budget == _STUDY_CHUNK:  # one pass per n
        for n in config.sample_sizes:
            draws = [d for size, _, d in fitted if size == n]
            assert draws == sorted(draws)
    spec = _resolve_spec(config)
    candidates = [c for c in spec.candidates if c not in config.covariates]
    triples = list(combinations(sorted(candidates), 3))
    expected_failures = []
    for n in config.sample_sizes:
        expected = []
        for r in range(config.replications):
            pairs = _drawn_pairs(config, candidates, triples, n, r)
            if failing.get((n, r)) == 2:
                expected_failures.append([
                    str(n), str(r), "random",
                    "SingularMomentMatrixError: injected (condition number "
                    f"~2.000e+00) [pair {NcPair(*pairs[1])}]"])
                continue
            data = generate(spec, n, np.random.SeedSequence(
                (config.master_seed, _STREAM_DATA, n, r)))
            fit = gmm_linear_ate(data, NcPair(*pairs[(n, r) in failing]),
                                 spec.treatment, spec.outcome)
            expected.append((fit.delta_hat, fit.se))
        got = result.details[n]["estimates"]["random"]
        assert (np.array(expected).tobytes()
                == np.column_stack([got["delta"], got["se"]]).tobytes())
    paths = write_study_outputs(result, tmp_path)
    with open(paths["failures"], newline="") as handle:
        assert list(csv.reader(handle))[1:] == expected_failures


def test_rank_auc_hand_worked():
    # ranks 1, 2.5, 2.5, 4; the positives hold 6.5, so U = 6.5 - 3 = 3.5
    # of 2 * 2 pairs: 0.8 beats both negatives, 0.4 beats one and ties one
    scores = np.array([0.1, 0.4, 0.4, 0.8])
    labels = np.array([False, True, False, True])
    assert study._rank_auc(scores, labels) == 0.875
    assert study._rank_auc(np.full(4, 0.3), labels) == 0.5
    assert np.isnan(study._rank_auc(scores, np.zeros(4, dtype=bool)))


@pytest.mark.parametrize("case", ["untied", "heavy ties", "all tied"])
def test_rank_auc_matches_scipy_rankdata(case):
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(17)
    scores = {
        "untied": rng.uniform(size=5000),
        "heavy ties": rng.integers(0, 7, size=5000) / 7.0,
        "all tied": np.full(5000, 1e-3),
    }[case]
    labels = rng.uniform(size=5000) < 0.3
    ranks = stats.rankdata(scores)
    assert study._average_ranks(scores).tobytes() == ranks.tobytes()
    pos = int(labels.sum())
    expected = ((ranks[labels].sum() - pos * (pos + 1) / 2.0)
                / (pos * (labels.size - pos)))
    got = study._rank_auc(scores, labels)
    assert np.array(got).tobytes() == np.array(expected).tobytes()
