"""Tests for triple certification (six tetrads) and the brute-force search."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from negcontrol.data import Dataset, covariance
from negcontrol.errors import TooFewCandidatesError, UnknownVariableError
from negcontrol.search import (
    canonical_triple,
    dnct_validate,
    find_nc,
    triple_specs,
)
from negcontrol.simulate import builtin_graph, generate, ground_truth_dncts


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_find_nc_overflow_is_inapplicable_not_nan(simple_data):
    # Rescaling the candidates by 1e60 overflows the 4x4 determinants; each
    # sub-test must then be reported as inapplicable (p = 0), never as NaN.
    candidates = ("Z1", "Z2", "Z3", "Z4")
    values = simple_data.values.copy()
    for name in candidates:
        values[:, simple_data.index_of(name)] *= 1e60
    data = Dataset(simple_data.variable_names, values)
    report = find_nc(data, candidates, "T", "O")
    p_values = [r.p_value for v in report.all_verdicts for r in v.sub_results]
    assert len(p_values) == 24
    assert not any(np.isnan(p) for p in p_values)
