"""Tests for triple certification (six tetrads) and the brute-force search."""

from __future__ import annotations

import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from negcontrol.data import Dataset, covariance
from negcontrol.errors import TooFewCandidatesError, UnknownVariableError
from negcontrol.search import (
    canonical_triple,
    dnct_validate,
    find_nc,
    triple_specs,
)
from negcontrol.simulate import builtin_graph, generate, ground_truth_dncts

SIMPLE_CANDIDATES = ("Z1", "Z2", "Z3", "Z4")


def _random_dataset(rng, n=150, names=("T", "O", "a", "b", "c")):
    return Dataset(names, rng.normal(size=(n, len(names))))


def test_canonical_triple_sorts_and_validates():
    assert canonical_triple(("c", "a", "b")) == ("a", "b", "c")
    assert canonical_triple(["z9", "z10", "z2"]) == ("z10", "z2", "z9")
    with pytest.raises(ValueError):
        canonical_triple(("a", "a", "b"))
    with pytest.raises(ValueError):
        canonical_triple(("a", "b"))


def test_triple_specs_shape():
    specs = triple_specs(("y", "x", "z"), "T", "O")
    assert len(specs) == 6
    # First three pit candidate pairs against the held-out member and T,
    # last three do the same with O.
    assert [s.right[1] for s in specs] == ["T", "T", "T", "O", "O", "O"]
    left_pairs = {frozenset(s.left) for s in specs}
    assert left_pairs == {
        frozenset({"x", "y"}),
        frozenset({"x", "z"}),
        frozenset({"y", "z"}),
    }
    # Every spec uses four distinct variables drawn from the triple + T/O.
    for spec in specs:
        assert set(spec.variables) <= {"x", "y", "z", "T", "O"}


def test_triple_specs_rejects_treatment_overlap():
    with pytest.raises(ValueError):
        triple_specs(("T", "a", "b"), "T", "O")
    with pytest.raises(ValueError):
        triple_specs(("a", "b", "O"), "T", "O")
    with pytest.raises(ValueError):
        triple_specs(("a", "b", "c"), "T", "T")


def test_dnct_validate_orderings_agree():
    rng = np.random.default_rng(31)
    data = _random_dataset(rng)
    cov = covariance(data)
    base = dnct_validate(cov, data.n, ("a", "b", "c"), "T", "O", 0.05)
    for perm in itertools.permutations(("a", "b", "c")):
        other = dnct_validate(cov, data.n, perm, "T", "O", 0.05)
        assert other.candidate == ("a", "b", "c")
        assert other.passed == base.passed
        assert other.min_p == base.min_p
        assert [r.p_value for r in other.sub_results] == [
            r.p_value for r in base.sub_results
        ]


def test_min_p_is_minimum_of_six():
    rng = np.random.default_rng(32)
    data = _random_dataset(rng)
    verdict = dnct_validate(covariance(data), data.n, ("a", "b", "c"), "T", "O", 0.05)
    assert len(verdict.sub_results) == 6
    assert verdict.min_p == min(r.p_value for r in verdict.sub_results)


def test_passed_means_all_six_vanish():
    rng = np.random.default_rng(33)
    for trial in range(10):
        data = _random_dataset(rng)
        verdict = dnct_validate(
            covariance(data), data.n, ("a", "b", "c"), "T", "O", 0.2
        )
        assert verdict.passed == all(r.vanishes for r in verdict.sub_results)


def test_passing_is_monotone_in_alpha():
    # A triple passes when every p-value exceeds alpha, so passing at some
    # level implies passing at every smaller level.
    rng = np.random.default_rng(38)
    grid = (0.3, 0.1, 0.05, 0.01, 0.001)
    for trial in range(20):
        data = _random_dataset(rng)
        cov = covariance(data)
        passed = [
            dnct_validate(cov, data.n, ("a", "b", "c"), "T", "O", alpha).passed
            for alpha in grid
        ]
        # once True along the shrinking-alpha grid, always True after.
        seen = False
        for flag in passed:
            if seen:
                assert flag
            seen = seen or flag


def test_degenerate_subtest_fails_triple():
    # Perfectly collinear columns force a zero Wishart variance in every
    # sub-test; the triple must be rejected, not crash.
    base = np.linspace(1.0, 9.0, 30)
    values = np.column_stack([base, 2 * base, 3 * base, 4 * base, 5 * base])
    data = Dataset(("T", "O", "a", "b", "c"), values)
    verdict = dnct_validate(covariance(data), data.n, ("a", "b", "c"), "T", "O", 0.05)
    assert not verdict.passed
    assert verdict.min_p == 0.0
    assert all(not r.vanishes for r in verdict.sub_results)


def test_find_nc_validates_inputs():
    rng = np.random.default_rng(34)
    data = _random_dataset(rng)
    with pytest.raises(TooFewCandidatesError):
        find_nc(data, ("a", "b"), "T", "O")
    with pytest.raises(ValueError):
        find_nc(data, ("a", "b", "T"), "T", "O")
    with pytest.raises(ValueError):
        find_nc(data, ("a", "a", "b"), "T", "O")
    with pytest.raises(UnknownVariableError):
        find_nc(data, ("a", "b", "zz"), "T", "O")
    with pytest.raises(ValueError):
        find_nc(data, ("a", "b", "c"), "T", "O", alpha=1.0)


def test_find_nc_alpha_defaults_to_one_over_n():
    rng = np.random.default_rng(35)
    data = _random_dataset(rng, n=250)
    report = find_nc(data, ("a", "b", "c"), "T", "O")
    assert report.alpha_used == 1.0 / 250
    explicit = find_nc(data, ("a", "b", "c"), "T", "O", alpha=0.01)
    assert explicit.alpha_used == 0.01


def test_find_nc_candidates_default_to_every_other_column():
    rng = np.random.default_rng(37)
    data = _random_dataset(rng, names=("a", "T", "b", "O", "c", "d"))
    assert find_nc(data, None, "T", "O") == find_nc(
        data, ("a", "b", "c", "d"), "T", "O")


def test_find_nc_scans_all_triples_in_order():
    rng = np.random.default_rng(36)
    names = ("T", "O", "p", "q", "r", "s")
    data = Dataset(names, rng.normal(size=(200, 6)))
    report = find_nc(data, ("s", "p", "r", "q"), "T", "O", alpha=0.05)
    got = [v.candidate for v in report.all_verdicts]
    assert got == list(itertools.combinations(("p", "q", "r", "s"), 3))
    assert set(report.dncts) == {
        v.candidate for v in report.all_verdicts if v.passed
    }


def test_find_nc_rerun_is_identical():
    spec = builtin_graph("complex", seed=41)
    data = generate(spec, 800, np.random.SeedSequence(42))
    candidates = [n for n in data.variable_names if n not in ("T", "O")]
    first = find_nc(data, candidates, "T", "O")
    again = find_nc(data, candidates, "T", "O")
    assert first == again


def test_find_nc_recovers_known_structure():
    # In the small benchmark graph the only triples whose members are
    # mutually disconnected (given the latent confounder) are
    # {Z1, Z3, Z4} and {Z2, Z3, Z4}.
    spec = builtin_graph("simple", seed=7)
    truth, _ = ground_truth_dncts(spec)
    data = generate(spec, 3000, np.random.SeedSequence(8))
    report = find_nc(data, ("Z1", "Z2", "Z3", "Z4"), "T", "O")
    assert set(report.dncts) == set(truth)
    assert set(truth) == {("Z1", "Z3", "Z4"), ("Z2", "Z3", "Z4")}


def test_report_json_shape():
    rng = np.random.default_rng(37)
    data = _random_dataset(rng)
    report = find_nc(data, ("a", "b", "c"), "T", "O", alpha=0.05)
    doc = report.to_json_dict()
    assert doc["treatment"] == "T"
    assert doc["outcome"] == "O"
    assert doc["alpha"] == 0.05
    assert isinstance(doc["dncts"], list)
    assert len(doc["verdicts"]) == 1
    verdict = doc["verdicts"][0]
    assert verdict["triple"] == ["a", "b", "c"]
    assert len(verdict["tests"]) == 6
    for test in verdict["tests"]:
        assert set(test) == {"left", "right", "w", "p"}
    # Round-trips through the standard JSON grammar.
    json.loads(report.to_json())


def test_report_json_degenerate_w_is_null():
    base = np.linspace(1.0, 9.0, 30)
    values = np.column_stack([base, 2 * base, 3 * base, 4 * base, 5 * base])
    data = Dataset(("T", "O", "a", "b", "c"), values)
    report = find_nc(data, ("a", "b", "c"), "T", "O", alpha=0.05)
    doc = json.loads(report.to_json())
    ws = [t["w"] for v in doc["verdicts"] for t in v["tests"]]
    assert all(w is None for w in ws)
    assert all(t["p"] == 0.0 for v in doc["verdicts"] for t in v["tests"])


def test_find_nc_overflow_is_inapplicable_not_nan(simple_data):
    # Rescaling the candidates by 1e60 would overflow the 4x4 determinants
    # of the covariance; the search takes them on the correlation scale, so
    # no sub-test may come out NaN and nothing may warn.
    candidates = ("Z1", "Z2", "Z3", "Z4")
    values = simple_data.values.copy()
    for name in candidates:
        values[:, simple_data.index_of(name)] *= 1e60
    data = Dataset(simple_data.variable_names, values)
    report = find_nc(data, candidates, "T", "O")
    p_values = [r.p_value for v in report.all_verdicts for r in v.sub_results]
    assert len(p_values) == 24
    assert not any(np.isnan(p) for p in p_values)


def _wide_dataset(n=3000, candidates=20, seed=51):
    # One latent factor behind T, O and every Z; Z(2i) also depends on
    # Z(2i-1), which breaks every triple that holds both.
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    t = 0.6 * u + rng.normal(size=n)
    o = 0.5 * t + 0.7 * u + rng.normal(size=n)
    zs = 0.5 * u[:, None] + rng.normal(size=(n, candidates))
    zs[:, 1::2] += 1.2 * zs[:, 0::2]
    names = ("T", "O", *(f"Z{i}" for i in range(1, candidates + 1)))
    return Dataset(names, np.column_stack([t, o, zs]))


def _assert_same_subtest(r, q):
    # the batched scan's result r against wishart_test's q; each caller
    # checks w and p at its own tolerance
    assert r.spec == q.spec
    assert r.vanishes == q.vanishes
    assert r.d_hat == pytest.approx(q.d_hat, rel=1e-12, abs=1e-12)
    assert r.sigma_hat == pytest.approx(q.sigma_hat, rel=1e-12)


def _assert_same_report(report, verdicts):
    assert report.dncts == tuple(v.candidate for v in verdicts if v.passed)
    assert len(report.all_verdicts) == len(verdicts)
    for a, b in zip(report.all_verdicts, verdicts):
        assert (a.candidate, a.passed) == (b.candidate, b.passed)
        for r, q in zip(a.sub_results, b.sub_results, strict=True):
            _assert_same_subtest(r, q)
            assert abs(r.p_value - q.p_value) <= 1e-12
            if math.isfinite(q.w_stat):
                assert abs(r.w_stat - q.w_stat) <= 1e-12
            else:
                assert r.w_stat == q.w_stat


def test_find_nc_batch_matches_loop_simple(simple_data, wishart_verdicts):
    fast = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O")
    slow = wishart_verdicts(simple_data, SIMPLE_CANDIDATES, "T", "O",
                            1.0 / simple_data.n)
    _assert_same_report(fast, slow)
    assert fast.dncts == (("Z1", "Z3", "Z4"), ("Z2", "Z3", "Z4"))


def test_find_nc_batch_matches_loop_wide(wishart_verdicts):
    data = _wide_dataset()
    candidates = [name for name in data.variable_names if name[0] == "Z"]
    fast = find_nc(data, candidates, "T", "O")
    slow = wishart_verdicts(data, candidates, "T", "O", 1.0 / data.n)
    assert len(fast.all_verdicts) == 1140
    _assert_same_report(fast, slow)
    # both outcomes occur, so the comparison covers passing and failing
    assert 0 < len(fast.dncts) < len(fast.all_verdicts)


def test_dnct_validate_batch_matches_loop(simple_data, wishart_verdicts):
    cov = covariance(simple_data)
    for triple in itertools.combinations(SIMPLE_CANDIDATES, 3):
        fast = dnct_validate(cov, simple_data.n, triple, "T", "O", 1e-3)
        (slow,) = wishart_verdicts(simple_data, triple, "T", "O", 1e-3)
        assert fast.passed == slow.passed
        for r, q in zip(fast.sub_results, slow.sub_results, strict=True):
            _assert_same_subtest(r, q)
            assert r.w_stat == pytest.approx(q.w_stat, rel=1e-12, abs=1e-12)
            assert r.p_value == pytest.approx(q.p_value, rel=1e-12, abs=1e-12)


def _rescaled(data, scales):
    values = data.values.copy()
    for name, scale in scales.items():
        values[:, data.index_of(name)] *= scale
    return Dataset(data.variable_names, values)


def _verdict_flags(report):
    return report.dncts, [v.passed for v in report.all_verdicts], [
        r.vanishes for v in report.all_verdicts for r in v.sub_results
    ]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(-100, 100), min_size=4, max_size=4))
def test_find_nc_verdicts_are_scale_free(simple_data, exponents):
    base = find_nc(simple_data, SIMPLE_CANDIDATES, "T", "O")
    scales = {name: 10.0 ** k for name, k in zip(SIMPLE_CANDIDATES, exponents)}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        scaled = find_nc(_rescaled(simple_data, scales), SIMPLE_CANDIDATES,
                         "T", "O")
    assert _verdict_flags(scaled) == _verdict_flags(base)


@pytest.mark.parametrize("scale", [1e60, 1e-60, 1e120])
def test_find_nc_extreme_scale_keeps_dncts(simple_data, scale):
    # The determinants of the covariance overflow (1e60) or their variance
    # vanishes (1e-60); on the correlation scale nothing moves.  At 1e120
    # d_hat and sigma_hat, carried back to covariance units, are +-inf,
    # without an overflow warning.
    scaled = _rescaled(simple_data, {name: scale for name in SIMPLE_CANDIDATES})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = find_nc(scaled, SIMPLE_CANDIDATES, "T", "O")
    assert report.dncts == (("Z1", "Z3", "Z4"), ("Z2", "Z3", "Z4"))


def _assert_inapplicable(result):
    assert result.p_value == 0.0
    assert result.sigma_hat == 0.0
    assert not result.vanishes
    assert math.isinf(result.w_stat)
    assert not math.isnan(result.d_hat)


def test_constant_candidate_subtests_are_inapplicable():
    rng = np.random.default_rng(52)
    values = rng.normal(size=(200, 5))
    values[:, 2] = 5.0  # zero variance: divided by 1, not by 0
    data = Dataset(("T", "O", "a", "b", "c"), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = find_nc(data, ("a", "b", "c"), "T", "O", alpha=0.05)
    (verdict,) = report.all_verdicts
    assert not verdict.passed
    for result in verdict.sub_results:
        _assert_inapplicable(result)
    doc = json.loads(report.to_json())
    assert all(t["w"] is None for t in doc["verdicts"][0]["tests"])


def test_collinear_subtests_are_inapplicable_in_both_entry_points():
    # The variance numerator of these columns is rounding error (about
    # 1e-25 on the correlation scale), which must not read as a finite test.
    base = np.linspace(1.0, 9.0, 30)
    values = np.column_stack([base, 2 * base, 3 * base, 4 * base, 5 * base])
    data = Dataset(("T", "O", "a", "b", "c"), values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = find_nc(data, ("a", "b", "c"), "T", "O", alpha=0.05)
        verdict = dnct_validate(covariance(data), data.n, ("c", "a", "b"),
                                "T", "O", 0.05)
    assert verdict == report.all_verdicts[0]
    for result in verdict.sub_results:
        _assert_inapplicable(result)


def test_find_nc_verdicts_do_not_depend_on_candidate_or_column_order():
    # the scan factors each (triple, role)'s det4 in the triple's sorted
    # order, whatever order the candidates are given or the columns stored
    data = _wide_dataset()
    candidates = [name for name in data.variable_names if name[0] == "Z"]
    base = find_nc(data, candidates, "T", "O")
    rng = np.random.default_rng(53)
    for _ in range(3):
        order = rng.permutation(data.p)
        shuffled = Dataset(tuple(data.variable_names[i] for i in order),
                           data.values[:, order])
        for given in (candidates, list(rng.permutation(candidates))):
            report = find_nc(shuffled, given, "T", "O")
            assert report.candidates == base.candidates
            assert report.dncts == base.dncts
            assert np.array_equal(report.passed, base.passed)
            assert np.array_equal(report.vanishes, base.vanishes)
            assert np.allclose(report.p, base.p, rtol=1e-12, atol=1e-300)
    assert 0 < len(base.dncts) < len(base.triples)


def test_find_nc_factors_one_4x4_per_triple_and_role(monkeypatch):
    shapes = []
    det = np.linalg.det

    def counted(matrices):
        shapes.append(matrices.shape)
        return det(matrices)

    monkeypatch.setattr(np.linalg, "det", counted)
    data = _wide_dataset()
    report = find_nc(data, None, "T", "O")
    assert len(report.triples) == 1140
    assert shapes == [(2 * 1140, 4, 4)]
