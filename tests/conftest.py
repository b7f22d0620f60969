"""Shared fixtures: Monte Carlo studies reused across acceptance checks.

The six study fixtures below are the expensive part of the suite (a few
seconds each); they are session-scoped so every test module reads the same
frozen run.  Master seeds are fixed so results are bit-reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from negcontrol.simulate import builtin_graph, generate
from negcontrol.study import StudyConfig, run_study


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
