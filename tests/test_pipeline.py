"""Tests for the one-call search-then-estimate entry point."""

from __future__ import annotations

import json

import numpy as np
import pytest

from negcontrol import pipeline
from negcontrol.aggregate import (
    enumerate_pairs,
    majority_vote_estimate,
    weighted_estimate,
)
from negcontrol.errors import UnknownVariableError
from negcontrol.pipeline import DanceResult, dance
from negcontrol.simulate import builtin_graph, generate


@pytest.fixture(scope="module")
def pipeline_data():
    spec = builtin_graph("simple", seed=19)
    return spec, generate(spec, 2500, np.random.SeedSequence(20))


def test_dance_end_to_end(pipeline_data):
    spec, data = pipeline_data
    result = dance(data, "T", "O")
    assert isinstance(result, DanceResult)
    assert set(result.report.dncts) == {
        ("Z1", "Z3", "Z4"),
        ("Z2", "Z3", "Z4"),
    }
    est = result.estimate
    assert est is not None
    assert est.method == "weighted_sandwich"
    true_delta = spec.edge_coeff("T", "O")
    assert est.delta_hat == pytest.approx(true_delta, abs=5 * est.se)


@pytest.mark.parametrize("aggregate", ["weighted", "majority"])
def test_dance_pairs_match_enumerate_pairs_of_the_dncts(pipeline_data,
                                                        aggregate):
    # dance counts pairs from the report's index triples, not its names
    _, data = pipeline_data
    result = dance(data, "T", "O", alpha=1e-300, aggregate=aggregate)
    table = enumerate_pairs(result.report.dncts)
    estimate = (weighted_estimate(data, table, "T", "O")
                if aggregate == "weighted"
                else majority_vote_estimate(data, table, "T", "O"))
    assert len(result.report.dncts) > 2
    assert result.estimate == estimate


def test_dance_candidates_default_excludes_roles(pipeline_data):
    _, data = pipeline_data
    explicit = dance(data, "T", "O", candidates=("Z1", "Z2", "Z3", "Z4"))
    implicit = dance(data, "T", "O")
    assert implicit.report == explicit.report


def test_dance_no_validated_triples(pipeline_data):
    _, data = pipeline_data
    result = dance(data, "T", "O", alpha=0.9999)
    assert result.report.dncts == ()
    assert result.estimate is None
    doc = result.to_json_dict()
    assert doc["estimate"] is None
    assert doc["find"]["dncts"] == []
    json.loads(result.to_json())  # valid JSON either way


def test_dance_majority_and_bootstrap_options(pipeline_data):
    _, data = pipeline_data
    vote = dance(data, "T", "O", aggregate="majority")
    assert vote.estimate.method == "majority_vote"
    boot = dance(
        data, "T", "O", ci_method="bootstrap", bootstrap_draws=40, seed=2
    )
    assert boot.estimate.method == "weighted_bootstrap_normal"
    again = dance(
        data, "T", "O", ci_method="bootstrap", bootstrap_draws=40, seed=2
    )
    assert boot == again


def test_dance_option_validation(pipeline_data):
    _, data = pipeline_data
    with pytest.raises(ValueError):
        dance(data, "T", "O", aggregate="mean")
    with pytest.raises(ValueError):
        dance(data, "T", "O", ci_method="exact")


@pytest.mark.parametrize("options", [
    # no triple passes at this alpha, so the search alone never fits a pair
    {"alpha": 0.9999, "ci_method": "bogus"},
    # majority vote reads no interval option, and still checks them
    {"aggregate": "majority", "ci_method": "bogus"},
    {"aggregate": "majority", "bootstrap_ci": "bca"},
])
def test_dance_checks_interval_options_before_searching(pipeline_data,
                                                        options):
    _, data = pipeline_data
    with pytest.raises(ValueError):
        dance(data, "T", "O", **options)


@pytest.mark.parametrize("covariates", [("Z1", "Z1"), ("T",), ("O",)])
def test_dance_rejects_covariate_roles_before_searching(pipeline_data,
                                                        monkeypatch,
                                                        covariates):
    _, data = pipeline_data
    searches = []
    monkeypatch.setattr(pipeline, "find_nc",
                        lambda *args, **kwargs: searches.append(args))
    with pytest.raises(ValueError, match="covariates must be distinct"):
        dance(data, "T", "O", covariates=covariates)
    assert searches == []


def _no_search(*args, **kwargs):
    raise AssertionError("the search ran")


@pytest.mark.parametrize("option, value", [
    ("bootstrap_draws", 5.0), ("bootstrap_draws", False), ("seed", -1),
    ("seed", True), ("seed", 2.0),
])
def test_dance_checks_bootstrap_options_before_searching(pipeline_data,
                                                         monkeypatch, option,
                                                         value):
    _, data = pipeline_data
    monkeypatch.setattr(pipeline, "find_nc", _no_search)
    with pytest.raises(ValueError, match=option):
        dance(data, "T", "O", ci_method="bootstrap", **{option: value})


@pytest.mark.parametrize("aggregate", ["weighted", "majority"])
def test_dance_rejects_a_candidate_covariate_before_searching(monkeypatch,
                                                              aggregate):
    # the weighted aggregate used to search and then fail its fits, and
    # the majority vote to return an estimate from a search over Z7
    spec = builtin_graph("complex", strength="strong", seed=1)
    data = generate(spec, 3000, np.random.SeedSequence(5))
    monkeypatch.setattr(pipeline, "find_nc", _no_search)
    with pytest.raises(ValueError, match=r"\['Z7'\] are also covariates"):
        dance(data, "T", "O", candidates=["Z1", "Z2", "Z3", "Z6", "Z7"],
              covariates=("Z7",), aggregate=aggregate)


def test_dance_rejects_an_unknown_covariate_before_searching(pipeline_data,
                                                            monkeypatch):
    _, data = pipeline_data
    monkeypatch.setattr(pipeline, "find_nc", _no_search)
    with pytest.raises(UnknownVariableError, match="'nope'"):
        dance(data, "T", "O", covariates=["nope"])


def test_both_aggregators_cover_truth_across_seeded_runs():
    # Across 100 seeded simulate-then-estimate runs, the 95% intervals of
    # both aggregation strategies must cover the known effect at least 90%
    # of the time.
    runs = 100
    cover_weighted = cover_majority = 0
    for s in range(runs):
        spec = builtin_graph("simple", seed=(s, 0))
        true_delta = spec.edge_coeff("T", "O")
        data = generate(spec, 3000, np.random.SeedSequence((s, 1)))
        weighted = dance(data, "T", "O").estimate
        majority = dance(data, "T", "O", aggregate="majority").estimate
        if weighted is not None and weighted.ci_low <= true_delta <= weighted.ci_high:
            cover_weighted += 1
        if majority is not None and majority.ci_low <= true_delta <= majority.ci_high:
            cover_majority += 1
    assert cover_weighted >= 0.90 * runs
    assert cover_majority >= 0.90 * runs


def test_dance_json_shape(pipeline_data):
    _, data = pipeline_data
    doc = dance(data, "T", "O").to_json_dict()
    assert set(doc) == {"find", "estimate"}
    assert doc["find"]["treatment"] == "T"
    assert doc["estimate"]["method"] == "weighted_sandwich"
