"""The output checks accept a correct output and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from negcontrol.cli import main  # noqa: E402


@pytest.fixture(scope="module")
def dance_output(tmp_path_factory):
    work = tmp_path_factory.mktemp("dance")
    csv, manifest, out = (work / "d.csv", work / "d.json", work / "o.json")
    assert main(["simulate", "--graph", "complex", "--strength", "weak",
                 "--n", "50000", "--seed", "3", "--out", str(csv),
                 "--manifest", str(manifest)]) == 0
    assert main(["dance", "--data", str(csv), "--treatment", "T",
                 "--outcome", "O", "--out", str(out)]) == 0
    return json.loads(out.read_text()), json.loads(manifest.read_text())


def _dance(doc, truth):
    schema = checks.validator(ROOT / "schema", "dance_result.v1.json")
    return checks.check_dance(json.dumps(doc).encode(), truth,
                              "weighted_sandwich", schema)


def _find(doc, truth):
    schema = checks.validator(ROOT / "schema", "find_report.v1.json")
    return checks.check_find(json.dumps(doc).encode(), truth, schema)


def test_intact_outputs_pass(dance_output):
    doc, truth = dance_output
    failed, quality = _dance(doc, truth)
    assert failed == []
    assert quality["detect_errors"] == 0
    assert _find(doc["find"], truth)[0] == []


def test_dropped_triple_is_rejected(dance_output):
    doc, truth = dance_output
    doc = json.loads(json.dumps(doc))
    doc["find"]["dncts"].pop()
    failed, quality = _dance(doc, truth)
    assert "dncts_match_verdicts" in failed
    assert "triples_match_truth" in failed
    assert quality["detect_errors"] == 1
    assert "dncts_match_verdicts" in _find(doc["find"], truth)[0]


def test_dropped_verdict_is_rejected(dance_output):
    doc, truth = dance_output
    doc = json.loads(json.dumps(doc))
    doc["find"]["verdicts"].pop(0)
    assert "verdicts_cover_triples" in _dance(doc, truth)[0]


def test_schema_and_estimate_faults_are_rejected(dance_output):
    doc, truth = dance_output
    doc = json.loads(json.dumps(doc))
    doc["estimate"]["se"] = -1.0
    failed, _ = _dance(doc, truth)
    assert "schema" in failed and "finite_estimate" in failed
    doc["estimate"]["se"] = 1.0
    for pair in doc["estimate"]["per_pair"]:
        pair["se"] = 1e-9
    assert _dance(doc, truth)[0] == ["delta_within_5se"]


def test_study_header_and_rows_are_checked():
    header = {name: ",".join(cols) + "\n"
              for name, cols in checks.STUDY_HEADERS.items()}
    config = {"replications": 5, "sample_sizes": [100]}
    files = dict(header)
    files["roc.csv"] = "n,alpha,tpr\n"
    failed, _ = checks.check_study(files, config, [], 35, set())
    assert failed == ["header:roc.csv"]
    failed, _ = checks.check_study(header, config, [], 35, set())
    assert failed == ["metrics_rows"]


def test_numpy_repr_cells_are_read_and_recorded():
    found: set = set()
    assert checks._number("np.float64(0.995)", found) == 0.995
    assert found == {"roc_numpy_repr"}
    with pytest.raises(ValueError):
        checks._number("np.float64(x)", set())
