"""Tests that the fork protocol is written once, in ``negcontrol._fork``."""

from __future__ import annotations

import ast
from pathlib import Path

import negcontrol

_PROCESS_CALLS = {"fork", "pipe", "waitpid"}


def _process_calls(tree):
    """The names of ``_PROCESS_CALLS`` that ``tree`` calls as ``os.<name>``
    or imports from ``os``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
                and node.func.attr in _PROCESS_CALLS):
            yield node.func.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (alias.name for alias in node.names
                        if alias.name in _PROCESS_CALLS)


def test_only_the_fork_module_forks():
    package = Path(negcontrol.__file__).parent
    found = {
        path.name: sorted(set(_process_calls(ast.parse(path.read_text()))))
        for path in sorted(package.glob("*.py"))
    }
    assert found.pop("_fork.py") == sorted(_PROCESS_CALLS)
    assert {name: calls for name, calls in found.items() if calls} == {}
