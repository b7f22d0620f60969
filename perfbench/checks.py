"""Correctness checks on the outputs of the command-line calls.

Each ``check_*`` function returns ``(failed, quality)``: the names of the
checks that failed (empty when the output is correct) and the quality
figures read from it (``delta_abs_err``, ``detect_errors``,
``coverage_gap``).  Outputs are judged against the ground truth the
simulator wrote next to the inputs, never against a stored answer.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re
from itertools import combinations
from pathlib import Path

from jsonschema import Draft202012Validator
from referencing import Registry, Resource

# |delta_hat - true delta| may not exceed this many standard errors
DELTA_Z_LIMIT = 5.0
# share of candidate triples that a wide search may misjudge
FIND_ERROR_SHARE = 0.01
# share of study triple verdicts that may disagree with the graph
STUDY_ERROR_SHARE = 0.05
# largest |coverage - 0.95| accepted for the pipeline in a study
COVERAGE_GAP_LIMIT = 0.10

STUDY_HEADERS = {
    "metrics.csv": ["method", "n", "replications", "failures", "bias",
                    "proportion_bias_pct", "mc_se", "mean_estimated_se",
                    "coverage_95"],
    "roc.csv": ["n", "alpha", "tpr", "fpr"],
    "failures.csv": ["n", "replication", "method", "error"],
}


def validator(schema_dir: Path, schema_name: str) -> Draft202012Validator:
    resources = []
    for path in schema_dir.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    schema = json.loads((schema_dir / schema_name).read_text())
    return Draft202012Validator(
        schema, registry=Registry().with_resources(resources)
    )


def _parse(raw: bytes, schema: Draft202012Validator, failed: list):
    try:
        doc = json.loads(raw)
    except ValueError:
        failed.append("json")
        return None
    if next(schema.iter_errors(doc), None) is not None:
        failed.append("schema")
    return doc


def _search_errors(report: dict, true_dncts, failed: list) -> int:
    """Consistency of a search report; returns false plus missed triples."""
    candidates = sorted(
        {name for verdict in report["verdicts"] for name in verdict["triple"]}
    )
    expected = [list(t) for t in combinations(candidates, 3)]
    if [v["triple"] for v in report["verdicts"]] != expected:
        failed.append("verdicts_cover_triples")
    passed = [v["triple"] for v in report["verdicts"] if v["passed"]]
    if report["dncts"] != passed:
        failed.append("dncts_match_verdicts")
    if any(len(v["tests"]) != 6 for v in report["verdicts"]):
        failed.append("six_tests")
    found = {tuple(t) for t in report["dncts"]}
    truth = {tuple(t) for t in true_dncts}
    return len(found - truth) + len(truth - found)


def check_dance(raw: bytes, manifest: dict, method: str,
                schema: Draft202012Validator):
    failed: list = []
    quality: dict = {}
    doc = _parse(raw, schema, failed)
    if doc is None:
        return failed, quality
    errors = _search_errors(doc["find"], manifest["true_dncts"], failed)
    quality["detect_errors"] = errors
    if errors:
        failed.append("triples_match_truth")
    estimate = doc["estimate"]
    if estimate is None:
        failed.append("estimate_present")
        return failed, quality
    if estimate["method"] != method:
        failed.append("method")
    delta = estimate["delta_hat"]
    ses = [estimate["se"], *(pair["se"] for pair in estimate["per_pair"])]
    if not (math.isfinite(delta) and all(
            se is not None and math.isfinite(se) and se > 0 for se in ses)):
        failed.append("finite_estimate")
        return failed, quality
    err = abs(delta - manifest["true_delta"])
    quality["delta_abs_err"] = err
    # the weighted per-pair sandwich SE bounds the aggregate's sandwich SE
    # from above; unlike a bootstrap SE from a few draws it is not noisy
    pair_se = sum(pair["weight"] * pair["se"] for pair in estimate["per_pair"])
    if err > DELTA_Z_LIMIT * pair_se:
        failed.append("delta_within_5se")
    return failed, quality


def check_find(raw: bytes, manifest: dict, schema: Draft202012Validator):
    failed: list = []
    quality: dict = {}
    doc = _parse(raw, schema, failed)
    if doc is None:
        return failed, quality
    errors = _search_errors(doc, manifest["true_dncts"], failed)
    quality["detect_errors"] = errors
    if errors > FIND_ERROR_SHARE * len(doc["verdicts"]):
        failed.append("triples_match_truth")
    return failed, quality


# numpy 2 scalars written through repr(); see KNOWN_DEFECTS
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")
KNOWN_DEFECTS = {
    "roc_numpy_repr": "roc.csv writes tpr/fpr as np.float64(...) reprs",
}


def _number(cell: str, found: set) -> float:
    """A float cell; the numpy-2 repr form is accepted and recorded."""
    match = _NUMPY_REPR.fullmatch(cell)
    if match:
        found.add("roc_numpy_repr")
        cell = match.group(1)
    return float(cell)


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def check_study(files: dict, config: dict, true_dncts, n_triples: int,
                defects: set):
    """``files`` maps each study CSV name to its text.  Known program
    defects met on the way are added to ``defects``."""
    failed: list = []
    quality: dict = {}
    tables = {}
    for name, header in STUDY_HEADERS.items():
        rows = _rows(files.get(name, ""))
        if not rows or rows[0] != header:
            failed.append(f"header:{name}")
            return failed, quality
        tables[name] = [dict(zip(header, row)) for row in rows[1:]]
    reps = config["replications"]
    sizes = config["sample_sizes"]
    metrics = tables["metrics.csv"]
    cells = {(m["method"], int(m["n"])) for m in metrics}
    if len(metrics) != 3 * len(sizes) or cells != {
        (method, n) for method in ("naive", "random", "dance") for n in sizes
    }:
        failed.append("metrics_rows")
        return failed, quality
    if any(int(m["replications"]) != reps for m in metrics):
        failed.append("replications")
    gaps = [
        abs(float(m["coverage_95"]) - 0.95)
        for m in metrics if m["method"] == "dance"
    ]
    if not all(math.isfinite(g) for g in gaps):
        failed.append("finite_coverage")
        return failed, quality
    quality["coverage_gap"] = max(gaps)
    if max(gaps) > COVERAGE_GAP_LIMIT:
        failed.append("coverage_gap")
    # at alpha = 1/n a triple is reported exactly when every test passes,
    # so that ROC point counts the search's false and missed triples
    positives = len(true_dncts) * reps
    negatives = (n_triples - len(true_dncts)) * reps
    errors = 0
    for n in sizes:
        points = [
            p for p in tables["roc.csv"]
            if int(p["n"]) == n and float(p["alpha"]) == 1.0 / n
        ]
        if len(points) != 1:
            failed.append("roc_default_alpha")
            return failed, quality
        try:
            tpr = _number(points[0]["tpr"], defects)
            fpr = _number(points[0]["fpr"], defects)
        except ValueError:
            failed.append("roc_numbers")
            return failed, quality
        errors += round(fpr * negatives) + round((1.0 - tpr) * positives)
    quality["detect_errors"] = errors
    if errors > STUDY_ERROR_SHARE * n_triples * reps * len(sizes):
        failed.append("triples_match_truth")
    return failed, quality
