"""Shared fixtures: Monte Carlo studies reused across acceptance checks,
the scalar reference of the batched search, a switch for how a study's
replications are split into passes and processes, and a guard that every
test reaps the processes it forks.

The six study fixtures below are the expensive part of the suite (a few
seconds each); they are session-scoped so every test module reads the same
frozen run.  Master seeds are fixed so results are bit-reproducible.
"""

from __future__ import annotations

import math
import os
from itertools import combinations

import numpy as np
import pytest

from negcontrol.data import covariance, sub_determinant
from negcontrol.errors import DegenerateVarianceError
from negcontrol.search import DnctVerdict, triple_specs
from negcontrol.simulate import builtin_graph, generate
from negcontrol.study import StudyConfig, run_study
from negcontrol.tetrad import TetradResult, wishart_test


@pytest.fixture(autouse=True)
def _reaps_its_children():
    """Fail a test that leaves a child process unreaped: ``load_csv``,
    ``write_csv``, ``run_study``, the search report's writer and the
    bootstrap fork, and must wait for every child they start."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped ({pid or 'running'})")


@pytest.fixture
def study_passes(monkeypatch):
    """``split(budget, workers)``: from here on, run every study's
    replications in stacked passes of at most ``budget`` simulated rows,
    one replication a pass at ``budget`` 1, on ``workers`` CPUs.  The
    budget, ``study._STUDY_CHUNK``, also sets how many forked parts share
    the replications."""

    def split(budget, workers):
        monkeypatch.setattr("negcontrol.study._STUDY_CHUNK", budget)
        monkeypatch.setattr("negcontrol._fork._workers", lambda: workers)

    return split


def _wishart_verdicts(data, candidates, treatment, outcome, alpha):
    """The verdict of every candidate triple, in lexicographic order, from
    one ``wishart_test`` per sub-test on the covariance.  A sub-test whose
    variance is degenerate gets the inapplicable result the search records:
    sigma_hat = 0, p = 0 and w = +-inf by the sign of d_hat."""
    cov = covariance(data)
    verdicts = []
    for triple in combinations(sorted(candidates), 3):
        results = []
        for spec in triple_specs(triple, treatment, outcome):
            try:
                results.append(wishart_test(cov, spec, data.n, alpha))
            except DegenerateVarianceError:
                d_hat = sub_determinant(cov, spec.left, spec.right)
                results.append(TetradResult(
                    spec=spec, d_hat=d_hat, sigma_hat=0.0,
                    w_stat=math.inf if d_hat >= 0 else -math.inf,
                    p_value=0.0, alpha=alpha, vanishes=False,
                ))
        verdicts.append(DnctVerdict(
            candidate=triple,
            passed=all(r.vanishes for r in results),
            sub_results=tuple(results),
        ))
    return tuple(verdicts)


@pytest.fixture(scope="session")
def wishart_verdicts():
    """``(data, candidates, treatment, outcome, alpha) -> verdicts``: the
    search's verdicts rebuilt by the scalar ``wishart_test``, which the
    batched scan is tested against."""
    return _wishart_verdicts


@pytest.fixture(scope="session")
def study_simple_weak():
    cfg = StudyConfig(
        graph="simple",
        strength="weak",
        sample_sizes=(3000,),
        replications=200,
        master_seed=2653,
    )
    return run_study(cfg)


@pytest.fixture(scope="session")
def study_complex_weak():
    cfg = StudyConfig(
        graph="complex",
        strength="weak",
        sample_sizes=(3000,),
        replications=200,
        master_seed=1,
    )
    return run_study(cfg)


@pytest.fixture(scope="session")
def study_simple_strong():
    cfg = StudyConfig(
        graph="simple",
        strength="strong",
        sample_sizes=(1000, 3000),
        replications=200,
        master_seed=2,
    )
    return run_study(cfg)


@pytest.fixture(scope="session")
def study_complex_strong():
    cfg = StudyConfig(
        graph="complex",
        strength="strong",
        sample_sizes=(1000, 3000),
        replications=200,
        master_seed=2,
    )
    return run_study(cfg)


@pytest.fixture(scope="session")
def study_simple_binary():
    cfg = StudyConfig(
        graph="simple",
        family="binary",
        sample_sizes=(3000,),
        replications=200,
        master_seed=5,
    )
    return run_study(cfg)


@pytest.fixture(scope="session")
def study_complex_binary():
    cfg = StudyConfig(
        graph="complex",
        family="binary",
        sample_sizes=(3000,),
        replications=200,
        master_seed=5,
    )
    return run_study(cfg)


@pytest.fixture(scope="session")
def simple_spec():
    """A realized small linear-Gaussian graph shared by estimator tests."""
    return builtin_graph("simple", seed=(77, 7))


@pytest.fixture(scope="session")
def simple_data(simple_spec):
    """One large draw from the small graph (n=20000, fixed seed)."""
    return generate(simple_spec, 20000, np.random.SeedSequence((77, 5)))
