"""End-to-end tests of the command-line interface.

Every invocation goes through ``main(argv)`` so exit codes and output
files are exercised exactly as a shell user would see them.  JSON outputs
are checked against the schemas shipped in ``schema/``.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from negcontrol.aggregate import (
    enumerate_pairs,
    majority_vote_estimate,
    weighted_estimate,
)
from negcontrol import _fork, search, simulate, study
from negcontrol import data as data_module
from negcontrol.cli import main
from negcontrol.data import Dataset, load_csv, write_csv
from negcontrol.pipeline import dance
from negcontrol.search import find_nc
from test_data import _count_forks
from test_report import split_report

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


def test_simulate_failed_write_leaves_no_partial_csv(tmp_path, monkeypatch,
                                                     capsys):
    # the disk fills after the first block of rows: a partial CSV would
    # still load, as a shorter dataset
    def blocks(values, encoding):
        yield next(real_blocks(values, encoding))
        raise OSError(errno.ENOSPC, "No space left on device")

    real_blocks = data_module._row_blocks
    monkeypatch.setattr(data_module, "_row_blocks", blocks)
    monkeypatch.setattr(_fork, "_workers", lambda: 1)
    out, manifest = tmp_path / "sim.csv", tmp_path / "manifest.json"
    assert main(["simulate", "--graph", "simple", "--n", "20000", "--seed",
                 "1", "--out", str(out), "--manifest", str(manifest)]) == 1
    assert not out.exists()
    assert not manifest.exists()
    assert capsys.readouterr().err == (
        "error: [Errno 28] No space left on device\n")


def test_simulate_leaves_a_file_it_could_not_open(tmp_path, monkeypatch):
    # an output the write never opened was never written, so it stays
    out = tmp_path / "sim.csv"
    out.write_text("an earlier dataset")

    def refused(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(data_module, "open", refused, raising=False)
    assert main(["simulate", "--graph", "simple", "--n", "50", "--out",
                 str(out)]) == 1
    assert out.read_text() == "an earlier dataset"


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


def test_dance_reads_a_csv_that_opens_with_a_byte_order_mark(tmp_path,
                                                             sim_csv):
    # a spreadsheet's "CSV UTF-8" export; the mark once hid column T
    data_path, _ = sim_csv
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data_path.read_bytes())
    outputs = []
    for path in (data_path, marked):
        out = tmp_path / f"{path.stem}.json"
        code = main(["dance", "--data", str(path), "--treatment", "T",
                     "--outcome", "O", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("aggregate", ["weighted", "majority"])
def test_dance_candidate_covariate_exit_2_before_searching(
        tmp_path, monkeypatch, capsys, aggregate):
    spec = simulate.builtin_graph("complex", strength="strong", seed=1)
    path, out = tmp_path / "complex.csv", tmp_path / "dance.json"
    write_csv(simulate.generate(spec, 3000, np.random.SeedSequence(5)), path)

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("negcontrol.search._sub_tests", no_search)
    code = main(["dance", "--data", str(path), "--treatment", "T",
                 "--outcome", "O", "--candidates", "Z1,Z2,Z3,Z6,Z7",
                 "--covariates", "Z7", "--aggregate", aggregate,
                 "--out", str(out)])
    assert code == 2
    assert "also covariates" in capsys.readouterr().err
    assert not out.exists()


def test_dance_bootstrap_negative_seed_exit_2_before_searching(
        tmp_path, sim_csv, monkeypatch, capsys):
    # numpy rejected the seed only at the first draw, after the search
    # and the fit
    data_path, _ = sim_csv
    out = tmp_path / "dance.json"
    argv = ["dance", "--data", str(data_path), "--treatment", "T",
            "--outcome", "O", "--seed", "-1", "--out", str(out)]
    assert main(argv) == 0  # the sandwich reads no seed
    out.unlink()
    capsys.readouterr()

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("negcontrol.search._sub_tests", no_search)
    assert main([*argv, "--ci", "bootstrap"]) == 2
    assert capsys.readouterr().err == (
        "error: seed must be a non-negative integer for a bootstrap, "
        "got -1\n")
    assert not out.exists()


def test_dance_majority_bootstrap_exit_2_before_searching(
        tmp_path, sim_csv, monkeypatch, capsys):
    # the majority vote used to drop --ci bootstrap and exit 0 with the
    # sandwich interval
    data_path, _ = sim_csv
    out = tmp_path / "dance.json"

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("negcontrol.search._sub_tests", no_search)
    assert main(["dance", "--data", str(data_path), "--treatment", "T",
                 "--outcome", "O", "--aggregate", "majority", "--ci",
                 "bootstrap", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: ci_method 'bootstrap' needs aggregate 'weighted', got "
        "aggregate 'majority'\n")
    assert not out.exists()


def test_dance_unknown_covariate_exit_2(tmp_path, capsys):
    # at alpha 0.5 nothing validates, so the search used to exit 3 before
    # any fit read the covariate
    path, out = tmp_path / "complex.csv", tmp_path / "dance.json"
    assert main(["simulate", "--graph", "complex", "--n", "300", "--seed",
                 "3", "--out", str(path)]) == 0
    code = main(["dance", "--data", str(path), "--treatment", "T",
                 "--outcome", "O", "--candidates", "Z1,Z2,Z3",
                 "--covariates", "nope", "--alpha", "0.5", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown variable: 'nope'\n"
    assert not out.exists()


def test_dance_with_constant_column_exit_0(tmp_path, simple_data):
    # one-pass centring left the constant 0.1 a variance near 1e-27, so the
    # search passed triples holding K and dance exited 2 on their fits
    path, out = tmp_path / "constant.csv", tmp_path / "dance.json"
    values = np.column_stack([simple_data.values, np.full(simple_data.n, 0.1)])
    write_csv(Dataset((*simple_data.variable_names, "K"), values), path)
    code = main(["dance", "--data", str(path), "--treatment", "T",
                 "--outcome", "O", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    _validate(doc, "dance_result.v1.json")
    assert doc["find"]["dncts"]
    assert all("K" not in triple for triple in doc["find"]["dncts"])


def test_aggregate_method_enum_is_what_the_library_emits(simple_data):
    table = enumerate_pairs([("Z1", "Z3", "Z4")])
    results = [
        weighted_estimate(simple_data, table, "T", "O"),
        *(
            weighted_estimate(simple_data, table, "T", "O",
                              ci_method="bootstrap", bootstrap_draws=5,
                              bootstrap_ci=interval)
            for interval in ("normal", "percentile")
        ),
        majority_vote_estimate(simple_data, table, "T", "O"),
    ]
    for result in results:
        _validate(result.to_json_dict(), "aggregate_result.v1.json")
    schema = json.loads((SCHEMA_DIR / "aggregate_result.v1.json").read_text())
    methods = set(schema["properties"]["method"]["enum"])
    assert {result.method for result in results} == methods


# ---------------------------------------------------------------------------
# find and dance files against json.dumps of the library's documents
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_csvs(tmp_path_factory, simple_data):
    """``simple_data`` as a CSV, and the same with a constant candidate K,
    whose sub-tests are all inapplicable."""
    root = tmp_path_factory.mktemp("golden")
    plain, constant = root / "simple.csv", root / "constant.csv"
    write_csv(simple_data, plain)
    values = np.column_stack([simple_data.values, np.full(simple_data.n, 5.0)])
    write_csv(Dataset((*simple_data.variable_names, "K"), values), constant)
    return {"simple": plain, "constant": constant}


def _golden(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("dataset", ["simple", "constant"])
def test_find_file_equals_json_dumps(tmp_path, golden_csvs, dataset):
    path, out = golden_csvs[dataset], tmp_path / "find.json"
    code = main(["find", "--data", str(path), "--treatment", "T",
                 "--outcome", "O", "--out", str(out)])
    data = load_csv(path)
    candidates = [n for n in data.variable_names if n not in ("T", "O")]
    report = find_nc(data, candidates, "T", "O")
    assert code == 0
    assert out.read_bytes() == _golden(report.to_json_dict())


_DANCE_VARIANTS = {
    "sandwich": ([], {}),
    "bootstrap": (["--ci", "bootstrap", "--boot-b", "20", "--seed", "3"],
                  {"ci_method": "bootstrap", "bootstrap_draws": 20,
                   "seed": 3}),
    "majority": (["--aggregate", "majority"], {"aggregate": "majority"}),
    "no-triple": (["--alpha", "0.9999"], {"alpha": 0.9999}),
}


@pytest.mark.parametrize("variant", sorted(_DANCE_VARIANTS))
@pytest.mark.parametrize("dataset", ["simple", "constant"])
def test_dance_file_equals_json_dumps(tmp_path, golden_csvs, dataset,
                                      variant):
    flags, kwargs = _DANCE_VARIANTS[variant]
    path, out = golden_csvs[dataset], tmp_path / "dance.json"
    code = main(["dance", "--data", str(path), "--treatment", "T",
                 "--outcome", "O", *flags, "--out", str(out)])
    result = dance(load_csv(path), "T", "O", **kwargs)
    assert code == (3 if variant == "no-triple" else 0)
    assert (result.estimate is None) == (variant == "no-triple")
    assert out.read_bytes() == _golden(result.to_json_dict())


@pytest.mark.parametrize("block", [1, 3, search._JSON_BLOCK])
def test_find_and_dance_stream_what_to_json_gives(tmp_path, golden_csvs,
                                                  capsys, monkeypatch, block):
    monkeypatch.setattr(search, "_JSON_BLOCK", block)
    path = golden_csvs["constant"]
    data = load_csv(path)
    candidates = [n for n in data.variable_names if n not in ("T", "O")]
    expected = {"find": find_nc(data, candidates, "T", "O").to_json(),
                "dance": dance(data, "T", "O").to_json()}
    for command, text in expected.items():
        argv = [command, "--data", str(path), "--treatment", "T",
                "--outcome", "O"]
        out = tmp_path / f"{command}.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (text + "\n").encode()
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("command", ["find", "dance"])
def test_split_report_goes_out_as_json_dumps(tmp_path, golden_csvs, capsys,
                                             monkeypatch, command, k):
    # the 10 triples of the constant CSV, one a block, on k CPUs; the CSV
    # is parsed in one process, so nothing forks
    split_report(monkeypatch, k, 1)
    monkeypatch.setattr("negcontrol.data._PARSE_CHUNK", 1 << 40)
    path = golden_csvs["constant"]
    data = load_csv(path)
    result = (find_nc(data, None, "T", "O") if command == "find"
              else dance(data, "T", "O"))
    expected = _golden(result.to_json_dict())
    forked = _count_forks(monkeypatch)
    argv = [command, "--data", str(path), "--treatment", "T", "--outcome",
            "O"]
    out = tmp_path / f"{command}.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == expected
    assert forked == []


def _fail_after_first_block(monkeypatch, error):
    """Make the report writer raise ``error`` once its first block of one
    triple has gone to the output."""
    monkeypatch.setattr(search, "_JSON_BLOCK", 1)
    fields = search.FindNcReport._verdict_fields
    calls = []

    def failing(self, *args):
        calls.append(args)
        if len(calls) == 2:
            raise error
        return fields(self, *args)

    monkeypatch.setattr(search.FindNcReport, "_verdict_fields", failing)
    return calls


@pytest.mark.parametrize("error, code", [(ValueError("bad"), 2),
                                         (OSError("disk full"), 1)])
@pytest.mark.parametrize("command", ["find", "dance"])
def test_failed_stream_leaves_no_partial_file(tmp_path, golden_csvs, capsys,
                                              monkeypatch, command, error,
                                              code):
    out = tmp_path / "report.json"
    out.write_text("an earlier report")
    calls = _fail_after_first_block(monkeypatch, error)
    assert main([command, "--data", str(golden_csvs["simple"]),
                 "--treatment", "T", "--outcome", "O",
                 "--out", str(out)]) == code
    assert len(calls) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {error}\n"


def test_failed_stream_leaves_a_linked_output_alone(tmp_path, golden_csvs,
                                                    monkeypatch):
    # a link such as /dev/stdout is never removed, only the file it names
    # is left as far as it was written
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("")
    link.symlink_to(target)
    _fail_after_first_block(monkeypatch, ValueError("bad"))
    assert main(["find", "--data", str(golden_csvs["simple"]),
                 "--treatment", "T", "--outcome", "O",
                 "--out", str(link)]) == 2
    assert link.is_symlink()
    assert target.read_text().startswith("{\n")


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


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_evaluate_split_study_matches_one_process(tmp_path, monkeypatch):
    # 36 000 rows: above the floor, so with two CPUs a child runs half
    config = _eval_config(tmp_path, sample_sizes=[1000, 3000],
                          replications=9)
    assert 9 * 4000 >= 2 * study._STUDY_CHUNK
    forks = []
    real_fork = os.fork
    blobs = []
    for tag in ("forked", "one-process"):
        with monkeypatch.context() as mp:
            if tag == "forked":
                mp.setattr(_fork, "_workers", lambda: 2)
                mp.setattr(os, "fork",
                           lambda: forks.append(1) or real_fork())
            else:
                mp.delattr(os, "fork")
            out_dir = tmp_path / tag
            code = main(["evaluate", "--config", str(config),
                         "--out", str(out_dir)])
        assert code == 0
        blobs.append(tuple((out_dir / f).read_bytes() for f in (
            "metrics.csv", "roc.csv", "failures.csv")))
    assert forks == [1]
    assert blobs[0] == blobs[1]


def test_evaluate_unknown_key_exit_2(tmp_path):
    config = _eval_config(tmp_path, bogus=1)
    assert main(["evaluate", "--config", str(config), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("overrides", [
    {"sample_sizes": 5},
    {"replications": "abc"},
    {"replications": 2.5, "sample_sizes": [100]},
    {"methods": 3},
    {"alpha_grid": 0.1},
    {"replications": True},
    {"master_seed": 1.5},
    {"sample_sizes": [100.0]},
    {"alpha": "0.01"},
    {"alpha_grid": ["0.1"]},
    {"methods": [["dance"]]},
    {"u_sd": [1.4]},
    {"strength": [1]},
    {"family": 1},
    {"random_scheme": ["triplet_fixed"]},
    {"aggregate": {"weighted": 1}},
])
def test_evaluate_mistyped_config_exit_2(tmp_path, capsys, overrides):
    config = _eval_config(tmp_path, **overrides)
    code = main(["evaluate", "--config", str(config), "--out", str(tmp_path / "r")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_unknown_covariate_exit_2_before_any_replication(
    tmp_path, capsys
):
    config = _eval_config(tmp_path, covariates=["nope"])
    out_dir = tmp_path / "r"
    assert main(["evaluate", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: unknown variable: 'nope'\n"
    assert not out_dir.exists()


def test_evaluate_candidate_covariate_exit_0(tmp_path):
    config = _eval_config(
        tmp_path, covariates=["Z1"], sample_sizes=[200], replications=2
    )
    out_dir = tmp_path / "r"
    assert main(["evaluate", "--config", str(config), "--out", str(out_dir)]) == 0
    assert (out_dir / "metrics.csv").exists()


@pytest.mark.parametrize("name", ["T", "O"])
def test_evaluate_treatment_or_outcome_covariate_exit_2_before_any_replication(
    tmp_path, capsys, name
):
    config = _eval_config(tmp_path, covariates=[name])
    out_dir = tmp_path / "out"
    assert main(["evaluate", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: covariate")
    assert not out_dir.exists()


def test_evaluate_repeated_covariate_exit_2_before_any_replication(
    tmp_path, capsys, monkeypatch
):
    draws = []
    monkeypatch.setattr(simulate, "generate",
                        lambda *args, **kwargs: draws.append(args))
    config = _eval_config(tmp_path, covariates=["Z1", "Z1"])
    out_dir = tmp_path / "out"
    assert main(["evaluate", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "error: pair, treatment, outcome, and covariates must be distinct\n"
    )
    assert not out_dir.exists()
    assert draws == []


@pytest.mark.parametrize("overrides, message", [
    ({"sample_sizes": [200, 200]}, "sample_sizes repeats [200]"),
    ({"methods": ["dance", "naive", "dance"]}, "methods repeats ['dance']"),
])
def test_evaluate_repeated_entry_exit_2_before_any_replication(
    tmp_path, capsys, monkeypatch, overrides, message
):
    # a repeat would be run and counted twice in metrics.csv
    draws = []
    monkeypatch.setattr(study, "_generate_stack",
                        lambda *args: draws.append(args))
    config = _eval_config(tmp_path, **overrides)
    out_dir = tmp_path / "out"
    assert main(["evaluate", "--config", str(config), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()
    assert draws == []


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
