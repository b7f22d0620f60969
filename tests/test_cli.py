"""End-to-end tests of the command-line interface.

Every invocation goes through ``main(argv)`` so exit codes and output
files are exercised exactly as a shell user would see them.  JSON outputs
are checked against the schemas shipped in ``schema/``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from negcontrol.cli import main
from negcontrol.data import load_csv

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"


def _registry() -> Registry:
    resources = []
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources)


def _validate(doc: dict, schema_name: str) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    Draft202012Validator(schema, registry=_registry()).validate(doc)


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    """A simulated dataset shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli-data")
    data = root / "sim.csv"
    manifest = root / "manifest.json"
    code = main(
        [
            "simulate",
            "--graph",
            "simple",
            "--n",
            "2500",
            "--seed",
            "11",
            "--out",
            str(data),
            "--manifest",
            str(manifest),
        ]
    )
    assert code == 0
    return data, manifest


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_loadable_csv_and_manifest(sim_csv):
    data_path, manifest_path = sim_csv
    data = load_csv(data_path)
    assert data.n == 2500
    assert data.variable_names == ("T", "O", "Z1", "Z2", "Z3", "Z4")
    manifest = json.loads(manifest_path.read_text())
    _validate(manifest, "simulate_manifest.v1.json")
    assert manifest["n"] == 2500
    assert manifest["seed"] == 11
    assert manifest["data_path"] == str(data_path)
    assert sorted(map(tuple, manifest["true_dncts"])) == [
        ("Z1", "Z3", "Z4"),
        ("Z2", "Z3", "Z4"),
    ]
    _validate(manifest["graph"], "graph_spec.v1.json")


def test_simulate_rerun_is_byte_identical(tmp_path, sim_csv):
    data_path, _ = sim_csv
    again = tmp_path / "again.csv"
    code = main(
        ["simulate", "--graph", "simple", "--n", "2500", "--seed", "11",
         "--out", str(again)]
    )
    assert code == 0
    assert again.read_bytes() == Path(data_path).read_bytes()


def test_simulate_custom_graph_file(tmp_path, sim_csv):
    _, manifest_path = sim_csv
    graph_doc = json.loads(manifest_path.read_text())["graph"]
    graph_file = tmp_path / "graph.json"
    graph_file.write_text(json.dumps(graph_doc))
    out = tmp_path / "custom.csv"
    code = main(
        ["simulate", "--graph", str(graph_file), "--n", "100", "--seed", "3",
         "--out", str(out)]
    )
    assert code == 0
    assert load_csv(out).variable_names == ("T", "O", "Z1", "Z2", "Z3", "Z4")


def test_simulate_bad_graph_name():
    assert main(["simulate", "--graph", "mega", "--n", "50", "--out", "x.csv"]) in (1, 2)


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------


def test_find_reports_validated_triples(tmp_path, sim_csv):
    data_path, _ = sim_csv
    out = tmp_path / "find.json"
    code = main(
        ["find", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "find_report.v1.json")
    assert doc["alpha"] == pytest.approx(1.0 / 2500)
    assert [tuple(t) for t in doc["dncts"]] == [
        ("Z1", "Z3", "Z4"),
        ("Z2", "Z3", "Z4"),
    ]
    assert len(doc["verdicts"]) == 4  # C(4, 3) candidate triples


def test_find_explicit_candidates_and_alpha(tmp_path, sim_csv):
    data_path, _ = sim_csv
    out = tmp_path / "find.json"
    code = main(
        ["find", "--data", str(data_path), "--treatment", "T", "--outcome", "O",
         "--candidates", "Z1,Z3,Z4", "--alpha", "0.01", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 0.01
    assert len(doc["verdicts"]) == 1


def test_find_exit_3_when_nothing_validates(tmp_path, sim_csv):
    data_path, _ = sim_csv
    out = tmp_path / "find.json"
    code = main(
        ["find", "--data", str(data_path), "--treatment", "T", "--outcome", "O",
         "--alpha", "0.9999", "--out", str(out)]
    )
    assert code == 3
    doc = json.loads(out.read_text())
    _validate(doc, "find_report.v1.json")
    assert doc["dncts"] == []


def test_find_missing_file_exit_1(tmp_path):
    assert main(
        ["find", "--data", str(tmp_path / "missing.csv"), "--treatment", "T",
         "--outcome", "O"]
    ) == 1


def test_find_unknown_column_exit_2(sim_csv):
    data_path, _ = sim_csv
    assert main(
        ["find", "--data", str(data_path), "--treatment", "QQ", "--outcome", "O"]
    ) == 2


def test_find_bad_alpha_exit_2(sim_csv):
    data_path, _ = sim_csv
    assert main(
        ["find", "--data", str(data_path), "--treatment", "T", "--outcome", "O",
         "--alpha", "2.0"]
    ) == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["find", "--treatment", "T", "--outcome", "O"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_gmm(tmp_path, sim_csv):
    data_path, manifest_path = sim_csv
    out = tmp_path / "est.json"
    code = main(
        ["estimate", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--z", "Z1", "--w", "Z3", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "ate_estimate.v1.json")
    assert doc["method"] == "gmm_linear"
    true_delta = json.loads(manifest_path.read_text())["true_delta"]
    assert abs(doc["delta_hat"] - true_delta) < 5 * doc["se"]


def test_estimate_closed(tmp_path, sim_csv):
    data_path, _ = sim_csv
    out = tmp_path / "closed.json"
    code = main(
        ["estimate", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--z", "Z1", "--w", "Z3", "--method", "closed",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "ate_estimate.v1.json")
    assert doc["method"] == "closed_form"
    assert doc["se"] is None


def test_estimate_closed_with_covariates_exit_2(sim_csv):
    data_path, _ = sim_csv
    assert main(
        ["estimate", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--z", "Z1", "--w", "Z3", "--method", "closed",
         "--covariates", "Z2"]
    ) == 2


def test_estimate_same_z_w_exit_2(sim_csv):
    data_path, _ = sim_csv
    assert main(
        ["estimate", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--z", "Z1", "--w", "Z1"]
    ) == 2


# ---------------------------------------------------------------------------
# dance
# ---------------------------------------------------------------------------


def test_dance_end_to_end(tmp_path, sim_csv):
    data_path, manifest_path = sim_csv
    out = tmp_path / "dance.json"
    code = main(
        ["dance", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "dance_result.v1.json")
    assert doc["find"]["dncts"]
    assert doc["estimate"]["method"] == "weighted_sandwich"
    true_delta = json.loads(manifest_path.read_text())["true_delta"]
    assert abs(doc["estimate"]["delta_hat"] - true_delta) < 3 * doc["estimate"]["se"]


def test_dance_exit_3_and_null_estimate(tmp_path, sim_csv):
    data_path, _ = sim_csv
    out = tmp_path / "nothing.json"
    code = main(
        ["dance", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--alpha", "0.9999", "--out", str(out)]
    )
    assert code == 3
    doc = json.loads(out.read_text())
    _validate(doc, "dance_result.v1.json")
    assert doc["estimate"] is None


def test_dance_majority_and_bootstrap(tmp_path, sim_csv):
    data_path, _ = sim_csv
    out = tmp_path / "variants.json"
    code = main(
        ["dance", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--aggregate", "majority", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "dance_result.v1.json")
    assert doc["estimate"]["method"] == "majority_vote"

    code = main(
        ["dance", "--data", str(data_path), "--treatment", "T",
         "--outcome", "O", "--ci", "bootstrap", "--boot-b", "50",
         "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "dance_result.v1.json")
    assert doc["estimate"]["method"] == "weighted_bootstrap_normal"


def test_dance_byte_identical_across_runs(tmp_path, sim_csv):
    data_path, _ = sim_csv
    outputs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"{tag}.json"
        code = main(
            ["dance", "--data", str(data_path), "--treatment", "T",
             "--outcome", "O", "--ci", "bootstrap", "--boot-b", "40",
             "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _eval_config(tmp_path, **overrides):
    payload = {
        "graph": "simple",
        "sample_sizes": [300],
        "replications": 4,
        "master_seed": 7,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def test_evaluate_writes_tables(tmp_path):
    config = _eval_config(tmp_path)
    out_dir = tmp_path / "results"
    code = main(["evaluate", "--config", str(config), "--out", str(out_dir)])
    assert code == 0
    for name in ("metrics.csv", "roc.csv", "failures.csv"):
        assert (out_dir / name).exists()
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert len(lines) == 4  # header + naive/random/dance


def test_evaluate_byte_identical_across_runs(tmp_path):
    config = _eval_config(tmp_path)
    blobs = []
    for tag in ("one", "two"):
        out_dir = tmp_path / tag
        code = main(
            ["evaluate", "--config", str(config), "--out", str(out_dir)]
        )
        assert code == 0
        blobs.append(
            tuple((out_dir / f).read_bytes() for f in ("metrics.csv", "roc.csv", "failures.csv"))
        )
    assert blobs[0] == blobs[1]


def test_evaluate_unknown_key_exit_2(tmp_path):
    config = _eval_config(tmp_path, bogus=1)
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "r")]) == 2


def test_evaluate_malformed_json_exit_2(tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "r")]) == 2


def test_evaluate_missing_config_exit_1(tmp_path):
    assert main(
        ["evaluate", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "r")]
    ) == 1


def test_evaluate_inline_graph_dict(tmp_path, sim_csv):
    _, manifest_path = sim_csv
    graph_doc = json.loads(manifest_path.read_text())["graph"]
    config = _eval_config(
        tmp_path, graph=graph_doc, replications=3, methods=["naive", "dance"]
    )
    out_dir = tmp_path / "custom"
    code = main(["evaluate", "--config", str(config), "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two methods
