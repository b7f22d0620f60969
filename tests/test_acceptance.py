"""Acceptance gate: end-to-end performance bounds for the whole pipeline.

Each test checks one headline criterion on a frozen Monte Carlo study (see
conftest for the shared fixtures) and prints a single PASS/FAIL line, so a
``pytest -v -s tests/test_acceptance.py`` run reads as a checklist:

1. search recovers the exact validated-triple set on the small graph;
2. detection AUC on the large graph;
3. bias/coverage on the small graph, weak confounding (pipeline vs random);
4. bias/coverage on the large graph, weak confounding;
5. coverage under strong confounding at two sample sizes;
6. estimated SEs track the Monte Carlo SD;
7. binary-outcome variant: detection plus bias ordering;
8. structural properties (a-f): estimator identities, calibration,
   bookkeeping invariants;
9. CLI byte-determinism across reruns.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from negcontrol.aggregate import enumerate_pairs
from negcontrol.cli import main
from negcontrol.data import Dataset, covariance
from negcontrol.estimate import (
    NcPair,
    closed_form_ate,
    design_matrices,
    gmm_linear_ate,
    mean_moments,
    moment_jacobian,
    solve_linear_moments,
)
from negcontrol.search import dnct_validate
from negcontrol.simulate import generate, population_covariance
from negcontrol.tetrad import TetradSpec, wishart_test
from negcontrol.data import CovMatrix


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _metric(result, method: str, n: int):
    return next(
        m for m in result.metrics if m.method == method and m.n == n
    )


# ---------------------------------------------------------------------------
# 1. exact recovery of the validated-triple set (small graph)
# ---------------------------------------------------------------------------


def test_criterion_1_exact_recovery_small_graph(study_simple_weak):
    res = study_simple_weak
    det = res.details[3000]
    truth = set(map(tuple, res.true_dncts))
    found = det["found"]
    exact = sum(1 for f in found if set(map(tuple, f)) == truth) / len(found)
    false_triples = sum(len(set(map(tuple, f)) - truth) for f in found)
    false_rate = false_triples / (len(found) * len(det["triples"]))
    ok = exact >= 0.90 and false_rate <= 0.05
    _report(
        "1",
        ok,
        f"exact-set recovery {exact:.3f} (need >= 0.90), "
        f"false-triple rate {false_rate:.4f} (need <= 0.05)",
    )


# ---------------------------------------------------------------------------
# 2. detection AUC on the large graph
# ---------------------------------------------------------------------------


def test_criterion_2_detection_auc_large_graph(study_complex_weak):
    res = study_complex_weak
    n_truth = len(res.true_dncts)
    auc = res.auc[3000]
    ok = n_truth == 12 and auc >= 0.99
    _report(
        "2",
        ok,
        f"{n_truth} true triples (need 12), detection AUC {auc:.4f} "
        f"(need >= 0.99)",
    )


# ---------------------------------------------------------------------------
# 3. small graph, weak confounding: bias and coverage
# ---------------------------------------------------------------------------


def test_criterion_3_small_graph_bias_coverage(study_simple_weak):
    dance = _metric(study_simple_weak, "dance", 3000)
    random = _metric(study_simple_weak, "random", 3000)
    ok = (
        abs(dance.proportion_bias_pct) <= 1.0
        and 0.91 <= dance.coverage_95 <= 0.98
        and 1.5 <= random.proportion_bias_pct <= 5.5
        and random.coverage_95 <= 0.85
    )
    _report(
        "3",
        ok,
        f"pipeline bias {dance.proportion_bias_pct:+.2f}% (|.| <= 1) "
        f"cover {dance.coverage_95:.3f} (in [0.91, 0.98]); "
        f"random bias {random.proportion_bias_pct:+.2f}% (in [1.5, 5.5]) "
        f"cover {random.coverage_95:.3f} (<= 0.85)",
    )


# ---------------------------------------------------------------------------
# 4. large graph, weak confounding: bias and coverage
# ---------------------------------------------------------------------------


def test_criterion_4_large_graph_bias_coverage(study_complex_weak):
    dance = _metric(study_complex_weak, "dance", 3000)
    random = _metric(study_complex_weak, "random", 3000)
    ok = (
        abs(dance.proportion_bias_pct) <= 1.5
        and dance.coverage_95 >= 0.90
        and random.proportion_bias_pct >= 8.0
        and random.coverage_95 <= 0.25
    )
    _report(
        "4",
        ok,
        f"pipeline bias {dance.proportion_bias_pct:+.2f}% (|.| <= 1.5) "
        f"cover {dance.coverage_95:.3f} (>= 0.90); "
        f"random bias {random.proportion_bias_pct:+.2f}% (>= 8) "
        f"cover {random.coverage_95:.3f} (<= 0.25)",
    )


# ---------------------------------------------------------------------------
# 5. strong confounding: coverage at two sample sizes, both graphs
# ---------------------------------------------------------------------------


def test_criterion_5_strong_confounding_coverage(
    study_simple_strong, study_complex_strong
):
    parts = []
    ok = True
    for name, res in (
        ("small", study_simple_strong),
        ("large", study_complex_strong),
    ):
        for n in (1000, 3000):
            cov = _metric(res, "dance", n).coverage_95
            ok = ok and 0.91 <= cov <= 0.98
            parts.append(f"{name} n={n} pipeline {cov:.3f}")
        rand_cov = _metric(res, "random", 3000).coverage_95
        ok = ok and rand_cov <= 0.40
        parts.append(f"{name} random {rand_cov:.3f}")
    _report(
        "5",
        ok,
        "; ".join(parts) + " (pipeline in [0.91, 0.98], random <= 0.40)",
    )


# ---------------------------------------------------------------------------
# 6. estimated SEs track the Monte Carlo SD
# ---------------------------------------------------------------------------


def test_criterion_6_se_agreement(study_simple_weak, study_complex_weak):
    parts = []
    ok = True
    for name, res in (
        ("small", study_simple_weak),
        ("large", study_complex_weak),
    ):
        m = _metric(res, "dance", 3000)
        rel = abs(m.mean_estimated_se / m.mc_se - 1.0)
        ok = ok and rel <= 0.10
        parts.append(
            f"{name}: mean SE {m.mean_estimated_se:.4f} vs MC SD "
            f"{m.mc_se:.4f} ({100 * rel:.1f}%)"
        )
    _report("6", ok, "; ".join(parts) + " (need within 10%)")


# ---------------------------------------------------------------------------
# 7. binary outcomes: detection plus bias ordering
# ---------------------------------------------------------------------------


def test_criterion_7_binary_family(study_simple_binary, study_complex_binary):
    parts = []
    ok = True
    for name, res in (
        ("small", study_simple_binary),
        ("large", study_complex_binary),
    ):
        auc = res.auc[3000]
        dance = abs(_metric(res, "dance", 3000).bias)
        naive = abs(_metric(res, "naive", 3000).bias)
        random = abs(_metric(res, "random", 3000).bias)
        ok = ok and auc >= 0.95 and dance < naive and dance < random
        parts.append(
            f"{name}: AUC {auc:.4f}, |bias| pipeline {dance:.4f} < "
            f"naive {naive:.4f} and < random {random:.4f}"
        )
    _report("7", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 8a. closed form and moment estimator agree exactly
# ---------------------------------------------------------------------------


def test_criterion_8a_closed_equals_gmm(simple_data):
    cov = covariance(simple_data)
    candidates = [c for c in simple_data.variable_names if c.startswith("Z")]
    worst = 0.0
    for z, w in itertools.permutations(candidates, 2):
        pair = NcPair(z, w)
        closed = closed_form_ate(cov, pair, "T", "O").delta_hat
        gmm = gmm_linear_ate(simple_data, pair, "T", "O").delta_hat
        worst = max(worst, abs(closed - gmm))
    ok = worst <= 1e-8
    _report(
        "8a",
        ok,
        f"max |closed - moment| over all ordered pairs = {worst:.2e} "
        f"(need <= 1e-8)",
    )


# ---------------------------------------------------------------------------
# 8b. the two closed forms agree on valid control pairs (+ covariate smoke)
# ---------------------------------------------------------------------------


def test_criterion_8b_closed_form_variants(simple_spec, simple_data):
    # Exact agreement in population...
    names, mat = population_covariance(simple_spec)
    pcov = CovMatrix(tuple(names), mat)
    true_delta = simple_spec.edge_coeff("T", "O")
    pop_gap = 0.0
    valid_pairs = [("Z1", "Z3"), ("Z1", "Z4"), ("Z2", "Z3"), ("Z3", "Z4")]
    for z, w in valid_pairs:
        for pair in (NcPair(z, w), NcPair(w, z)):
            p = closed_form_ate(pcov, pair, "T", "O").delta_hat
            a = closed_form_ate(pcov, pair, "T", "O", formula="alternate").delta_hat
            pop_gap = max(pop_gap, abs(p - a), abs(p - true_delta))
    # ... and within sampling noise on data (n = 20000), including the
    # orientation swap, which is the same identity seen from the other side.
    cov = covariance(simple_data)
    sample_gap = 0.0
    for z, w in valid_pairs:
        pair = NcPair(z, w)
        p = closed_form_ate(cov, pair, "T", "O").delta_hat
        a = closed_form_ate(cov, pair, "T", "O", formula="alternate").delta_hat
        s = closed_form_ate(cov, pair.swapped(), "T", "O").delta_hat
        sample_gap = max(sample_gap, abs(p - a), abs(p - s))

    # Covariate-adjustment smoke test: forty independent covariates with
    # known coefficients folded into the outcome must be absorbed by the
    # adjusted moment fit without disturbing the effect estimate.
    rng = np.random.default_rng(808)
    n = simple_data.n
    n_cov = 40
    x = rng.normal(size=(n, n_cov))
    betas = rng.uniform(-1.0, 1.0, size=n_cov)
    values = np.column_stack([simple_data.values, x])
    o_col = simple_data.index_of("O")
    values[:, o_col] = simple_data.column("O") + x @ betas
    x_names = tuple(f"X{i}" for i in range(1, n_cov + 1))
    wide = Dataset(simple_data.variable_names + x_names, values)
    adjusted = gmm_linear_ate(wide, NcPair("Z1", "Z3"), "T", "O", x_names)
    delta_gap = abs(adjusted.delta_hat - true_delta)
    beta_gap = float(np.max(np.abs(np.array(adjusted.params.beta_x) - betas)))

    ok = (
        pop_gap <= 1e-10
        and sample_gap <= 0.05
        and delta_gap <= 4 * adjusted.se
        and beta_gap <= 0.05
    )
    _report(
        "8b",
        ok,
        f"population gap {pop_gap:.2e} (<= 1e-10), sampling gap "
        f"{sample_gap:.4f} (<= 0.05), 40-covariate fit: effect off by "
        f"{delta_gap:.4f} (<= {4 * adjusted.se:.4f}), worst covariate "
        f"coeff off by {beta_gap:.4f} (<= 0.05)",
    )


# ---------------------------------------------------------------------------
# 8c. analytic moment Jacobian matches finite differences
# ---------------------------------------------------------------------------


def test_criterion_8c_jacobian_finite_difference(simple_data):
    q, m, y = design_matrices(
        simple_data, NcPair("Z2", "Z4"), "T", "O", ("Z1",)
    )
    theta, _ = solve_linear_moments(q, m, y)
    analytic = moment_jacobian(q, m)
    h = 1e-6
    worst = 0.0
    for j in range(len(theta)):
        bump = theta.copy()
        bump[j] += h
        fd = (mean_moments(q, m, y, bump) - mean_moments(q, m, y, theta)) / h
        scale = np.maximum(np.abs(analytic[:, j]), 1.0)
        worst = max(worst, float(np.max(np.abs(fd - analytic[:, j]) / scale)))
    ok = worst <= 1e-6
    _report(
        "8c",
        ok,
        f"max relative |analytic - finite difference| = {worst:.2e} "
        f"(need <= 1e-6)",
    )


# ---------------------------------------------------------------------------
# 8d. pair-frequency bookkeeping is conserved
# ---------------------------------------------------------------------------


def test_criterion_8d_frequency_conservation():
    rng = np.random.default_rng(818)
    names = [f"z{i}" for i in range(10)]
    ok = True
    trials = 50
    for _ in range(trials):
        k = int(rng.integers(1, 9))
        dncts = [
            tuple(rng.choice(names, size=3, replace=False)) for _ in range(k)
        ]
        table = enumerate_pairs(dncts)
        ok = ok and table.total_frequency == 6 * k
    _report(
        "8d",
        ok,
        f"frequencies summed to 6 x (triple count) in {trials}/{trials} "
        f"random draws",
    )


# ---------------------------------------------------------------------------
# 8e. tetrad test type-I error is calibrated
# ---------------------------------------------------------------------------


def test_criterion_8e_type_one_calibration():
    # One latent factor, four indicators: the tetrad truly vanishes, so the
    # rejection rate at level alpha must match alpha within binomial noise.
    loadings = np.array([0.8, 1.1, 0.9, 1.2])
    n, reps = 1000, 1000
    spec = TetradSpec(("x1", "x2"), ("x3", "x4"))
    names = ("x1", "x2", "x3", "x4")
    p_values = np.empty(reps)
    for r in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence((515, r)))
        u = rng.normal(0.0, math.sqrt(2.0), size=n)
        values = u[:, None] * loadings + rng.normal(size=(n, 4))
        cov = covariance(Dataset(names, values))
        p_values[r] = wishart_test(cov, spec, n, alpha=0.05).p_value
    ok = True
    parts = []
    for alpha in (0.01, 0.05):
        rate = float(np.mean(p_values <= alpha))
        bound = 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
        ok = ok and abs(rate - alpha) <= bound
        parts.append(
            f"alpha={alpha}: rejection {rate:.4f} (within {bound:.4f})"
        )
    _report("8e", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# 8f. triple certification ignores candidate ordering
# ---------------------------------------------------------------------------


def test_criterion_8f_permutation_invariance():
    rng = np.random.default_rng(828)
    names = ("T", "O", "a", "b", "c")
    datasets = 100
    ok = True
    for _ in range(datasets):
        data = Dataset(names, rng.normal(size=(60, 5)))
        cov = covariance(data)
        verdicts = [
            dnct_validate(cov, 60, perm, "T", "O", 0.1)
            for perm in itertools.permutations(("a", "b", "c"))
        ]
        first = verdicts[0]
        ok = ok and all(
            v.candidate == first.candidate
            and v.passed == first.passed
            and v.min_p == first.min_p
            and [r.p_value for r in v.sub_results]
            == [r.p_value for r in first.sub_results]
            for v in verdicts[1:]
        )
    _report(
        "8f",
        ok,
        f"all 6 orderings agreed on {datasets}/{datasets} random datasets",
    )


# ---------------------------------------------------------------------------
# 9. CLI output is byte-identical across reruns
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    data_path = tmp_path / "data.csv"
    code = main(
        ["simulate", "--graph", "simple", "--n", "1200", "--seed", "21",
         "--out", str(data_path)]
    )
    assert code == 0

    dance_blobs = []
    for tag in ("r1", "r2", "r3"):
        out = tmp_path / f"dance-{tag}.json"
        code = main(
            ["dance", "--data", str(data_path), "--treatment", "T",
             "--outcome", "O", "--ci", "bootstrap", "--boot-b", "60",
             "--out", str(out)]
        )
        assert code == 0
        dance_blobs.append(out.read_bytes())
    dance_ok = dance_blobs[0] == dance_blobs[1] == dance_blobs[2]

    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "graph": "simple",
                "sample_sizes": [300],
                "replications": 6,
                "master_seed": 33,
            }
        )
    )
    eval_blobs = []
    for tag in ("e1", "e2", "e3"):
        out_dir = tmp_path / f"eval-{tag}"
        code = main(
            ["evaluate", "--config", str(config), "--out", str(out_dir)]
        )
        assert code == 0
        eval_blobs.append(
            tuple(
                (out_dir / name).read_bytes()
                for name in ("metrics.csv", "roc.csv", "failures.csv")
            )
        )
    eval_ok = eval_blobs[0] == eval_blobs[1] == eval_blobs[2]

    _report(
        "9",
        dance_ok and eval_ok,
        f"pipeline JSON identical over 3 runs: {dance_ok}; "
        f"study tables identical over 3 runs: {eval_ok}",
    )
