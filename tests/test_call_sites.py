"""Tests that the library runs the search and the fit from one site each:
``search._sub_tests`` is the only caller of ``tetrad._wishart_batch``,
``estimate._fit_stack`` the only caller of ``estimate._sandwich_se``, and a
study pass reaches ``study._fits`` from its grouped pair-plan fit and its
naive fit only."""

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
