"""Tests that numpy is the package's only runtime dependency.

A cold ``negcontrol`` process imports what its modules import, so a
dependency loaded for one call is paid by every command.  These tests
check what the source imports against ``pyproject.toml`` and what a
process has loaded after running the commands.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import negcontrol
from negcontrol.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: the first `evaluate` after import, then
# `find`, reporting what each loaded and every scipy module present.
_CHILD = textwrap.dedent("""
    import json, sys
    import negcontrol, negcontrol.cli
    from negcontrol.cli import main

    config, csv, out = sys.argv[1:]
    before = set(sys.modules)
    code = main(["evaluate", "--config", config, "--out", out + "/study"])
    evaluate_added = sorted(set(sys.modules) - before)
    code = code or main(["find", "--data", csv, "--treatment", "T",
                         "--outcome", "O", "--out", out + "/find.json"])
    print(json.dumps({
        "code": code,
        "evaluate_added": evaluate_added,
        "scipy": sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy.")),
    }))
""")


def test_commands_load_no_scipy_and_evaluate_loads_nothing(tmp_path):
    csv = tmp_path / "sim.csv"
    assert main(["simulate", "--graph", "simple", "--n", "500",
                 "--seed", "3", "--out", str(csv)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"graph": "simple", "sample_sizes": [300],
                                  "replications": 2, "master_seed": 7}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(config), str(csv), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report == {"code": 0, "evaluate_added": [], "scipy": []}


def _imported_packages(tree):
    """The top-level names of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_imports_outside_stdlib_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group()
                for dep in project["dependencies"]}
    package = Path(negcontrol.__file__).parent
    imported = {
        name
        for path in package.glob("*.py")
        for name in _imported_packages(ast.parse(path.read_text()))
    } - set(sys.stdlib_module_names)
    assert imported == declared == {"numpy"}
