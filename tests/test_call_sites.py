"""Tests that the library runs the search and the fit from one site each:
``search._sub_tests`` is the only caller of ``tetrad._wishart_batch``, and
``estimate._fit_stack`` the only caller of ``estimate._sandwich_se``."""

from __future__ import annotations

import ast
from pathlib import Path

import negcontrol

_KERNELS = {"_wishart_batch", "_sandwich_se"}


def _uses(tree, scope=()):
    """(kernel name, dotted enclosing scope) of every name or attribute in
    ``tree`` that reads one of ``_KERNELS``: a call, or a reference that
    could be called elsewhere."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name) and node.id in _KERNELS:
            yield node.id, ".".join(scope)
        elif isinstance(node, ast.Attribute) and node.attr in _KERNELS:
            yield node.attr, ".".join(scope)
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inner = (*scope, node.name)
        yield from _uses(node, inner)


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
