"""Tests that the library runs the search and the fit from one site each:
``search._sub_tests`` is the only caller of ``tetrad._wishart_batch``,
``estimate._fit_stack`` the only caller of ``estimate._sandwich_se``, and a
study pass reaches ``study._fits`` from its grouped pair-plan fit and its
naive fit only.  The centred statistic is formed in ``data`` alone, and
centred once per dataset or study pass; only ``data`` and ``estimate``
read its row blocks, and a singular moment matrix is caught at one site."""

from __future__ import annotations

import ast
from pathlib import Path

import negcontrol

_KERNELS = {"_wishart_batch", "_sandwich_se"}


def _uses(tree, kernels=_KERNELS, scope=()):
    """(kernel name, dotted enclosing scope) of every name or attribute in
    ``tree`` that reads one of ``kernels``: a call, or a reference that
    could be called elsewhere."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and node.id in kernels:
            yield node.id, ".".join(scope)
        elif isinstance(node, ast.Attribute) and node.attr in kernels:
            yield node.attr, ".".join(scope)
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = (*scope, node.name)
        yield from _uses(node, kernels, inner)


def test_the_search_and_the_fit_each_run_at_one_site():
    package = Path(negcontrol.__file__).parent
    found = sorted(
        (path.name, scope, name)
        for path in package.glob("*.py")
        for name, scope in _uses(ast.parse(path.read_text()))
    )
    assert found == [
        ("estimate.py", "_fit_stack", "_sandwich_se"),
        ("search.py", "_sub_tests", "_wishart_batch"),
    ]


def test_every_pair_plan_of_a_study_is_fitted_at_one_site():
    # the fixed triplet, the drawn pairs and their redraws, and the dance
    # plans are all fitted by _plan_fits, which stacks the replications of a
    # pass that share a plan; the naive regression has no pair plan
    package = Path(negcontrol.__file__).parent
    found = sorted(
        (path.name, scope)
        for path in package.glob("*.py")
        for _, scope in _uses(ast.parse(path.read_text()), {"_fits"})
    )
    assert found == [("study.py", "_naive_fits"), ("study.py", "_plan_fits")]


def test_the_centred_statistic_is_formed_in_data_alone():
    # only data.py names _Moments, so only it builds one or knows its
    # layout; a dataset's statistic and a study pass's stack are centred
    # at one site each
    package = Path(negcontrol.__file__).parent
    found = [
        (path.name, scope, name)
        for path in package.glob("*.py")
        for name, scope in _uses(ast.parse(path.read_text()),
                                 {"_Moments", "_centre"})
    ]
    assert {file for file, _, name in found if name == "_Moments"} == {
        "data.py"}
    assert sorted((file, scope) for file, scope, name in found
                  if name == "_centre") == [("data.py", "Dataset._centred"),
                                            ("study.py", "_run_pass")]


def _names(tree):
    """Every name, attribute and imported name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _caught(tree, scope=()):
    """(dotted enclosing scope, caught name) of every name an ``except``
    clause in ``tree`` catches."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            for name in _names(node.type):
                yield ".".join(scope), name
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = (*scope, node.name)
        yield from _caught(node, inner)


def test_only_data_forms_a_resample():
    # the row blocks are read where the statistic is formed and where the
    # sandwich sums it; a bootstrap draw asks _Moments.resampled for its
    # moments and the study's error list for its singular members, so the
    # pair solve's error is caught only where the closed form renames it
    package = Path(negcontrol.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in package.glob("*.py")}
    assert {name for name, tree in trees.items()
            if "_ROW_BLOCK" in set(_names(tree))} == {"data.py",
                                                      "estimate.py"}
    assert sorted((name, scope) for name, tree in trees.items()
                  for scope, caught in _caught(tree)
                  if caught == "SingularMomentMatrixError") == [
        ("estimate.py", "closed_form_ate")]
