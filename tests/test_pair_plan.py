"""Tests that the pair plan is written once, in ``negcontrol.aggregate``."""

from __future__ import annotations

import ast
from pathlib import Path

import negcontrol


def _references(tree, name: str) -> bool:
    """Whether ``tree`` names ``name``: as a name, an attribute or an
    import."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)):
            return True
    return False


def test_only_the_aggregate_module_counts_pairs():
    package = Path(negcontrol.__file__).parent
    found = [path.name for path in sorted(package.glob("*.py"))
             if _references(ast.parse(path.read_text()), "_pair_counts")]
    assert found == ["aggregate.py"]
