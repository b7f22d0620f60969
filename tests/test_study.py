"""Tests for the replication-study harness (metrics, ROC, determinism)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from negcontrol.simulate import builtin_graph
from negcontrol.study import (
    StudyConfig,
    roc_curve,
    run_study,
    write_study_outputs,
)


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
