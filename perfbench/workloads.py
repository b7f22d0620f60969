"""The four benchmark workloads.

Each workload builds its inputs from the seed through the public API
(command-line ``simulate``, ``GraphSpec``/``Edge``, a study config file),
names the command-line call that is timed, and checks that call's output.
"""
from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

from negcontrol.cli import main as cli_main
from negcontrol.simulate import (
    Edge,
    GraphSpec,
    builtin_graph,
    graph_spec_to_json_dict,
    ground_truth_dncts,
)

import checks

DANCE_ROWS = 200_000
BOOT_DRAWS = 5
WIDE_ROWS = 5_000
WIDE_CANDIDATES = 30
STUDY_SIZES = (1000, 3000)
STUDY_REPS = 50  # per sample size
# warm-up inputs: same code paths, a small fraction of the work
WARM_ROWS = 2_000

_T_O = ["--treatment", "T", "--outcome", "O"]


def _run(argv: list, allowed=(0,)) -> None:
    code = cli_main([str(a) for a in argv])
    if code not in allowed:
        raise RuntimeError(f"set-up call {argv[0]} exited with {code}")


def _warm(argv: list) -> None:
    # a small input may validate no triple, which exits with 3
    _run(argv, allowed=(0, 3))


def _simulate(graph: str, rows: int, seed: int, csv: Path, manifest: Path,
              extra=()) -> None:
    _run(["simulate", "--graph", graph, *extra, "--n", rows, "--seed", seed,
          "--out", csv, "--manifest", manifest])


class Workload:
    """One named set of inputs and the command-line call timed on them."""

    name = ""
    unit = ""  # what work_per_s counts
    expected_method = ""

    def __init__(self, work: Path, seed: int, schema_dir: Path):
        self.work = work
        self.seed = seed
        self.schema_dir = schema_dir
        self.defects: set = set()  # known program defects seen in outputs

    def build(self) -> None:
        """Write the inputs; the same seed writes the same bytes."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def work_units(self) -> float:
        raise NotImplementedError

    def read(self, out: Path) -> bytes:
        return out.read_bytes()

    def check(self, raw: bytes):
        raise NotImplementedError


class Dance(Workload):
    """CLI ``dance`` on a 200 000 x 9 CSV from the weak ``complex`` graph."""

    name = "dance-200k"
    unit = "rows/s"
    ci = ["--ci", "sandwich"]
    expected_method = "weighted_sandwich"

    def build(self) -> None:
        self.csv = self.work / "dance.csv"
        self.manifest = self.work / "dance.manifest.json"
        self.warm_csv = self.work / "warm.csv"
        extra = ["--strength", "weak"]
        _simulate("complex", DANCE_ROWS, self.seed, self.csv, self.manifest,
                  extra)
        _simulate("complex", WARM_ROWS, self.seed, self.warm_csv,
                  self.work / "warm.manifest.json", extra)
        self.truth = json.loads(self.manifest.read_text())
        self.schema = checks.validator(self.schema_dir,
                                       "dance_result.v1.json")

    def _call(self, data: Path, out: Path) -> list:
        return ["dance", "--data", str(data), *_T_O, *self.ci,
                "--seed", str(self.seed), "--out", str(out)]

    def warm_up(self) -> None:
        _warm(self._call(self.warm_csv, self.work / "warm.json"))

    def argv(self, out: Path) -> list:
        return self._call(self.csv, out)

    def work_units(self) -> float:
        return DANCE_ROWS

    def check(self, raw: bytes):
        return checks.check_dance(raw, self.truth, self.expected_method,
                                  self.schema)


class DanceBoot(Dance):
    """The same CSV with a 10-draw bootstrap interval."""

    name = "dance-200k-boot"
    ci = ["--ci", "bootstrap", "--boot-b", str(BOOT_DRAWS)]
    expected_method = "weighted_bootstrap_normal"


def wide_graph() -> GraphSpec:
    """U -> T, O and every Zi; T -> O; chain edges Z(2i-1) -> Z(2i)."""
    conf, chain = (0.3, 0.7), (1.0, 2.0)
    controls = [f"Z{i}" for i in range(1, WIDE_CANDIDATES + 1)]
    nodes = ("U", "T", "O", *controls)
    edges = [Edge("U", "T", dist=conf), Edge("U", "O", dist=conf),
             Edge("T", "O", dist=conf)]
    edges += [Edge("U", z, dist=conf) for z in controls]
    edges += [Edge(controls[i], controls[i + 1], dist=chain)
              for i in range(0, WIDE_CANDIDATES, 2)]
    noise = {node: 1.0 for node in nodes}
    noise["U"] = 2.0 ** 0.5
    return GraphSpec(nodes=nodes, latent="U", treatment="T", outcome="O",
                     edges=tuple(edges), noise=noise)


class FindWide(Workload):
    """CLI ``find`` over 30 candidates (4 060 triples) on 5 000 rows."""

    name = "find-wide"
    unit = "tests/s"

    def build(self) -> None:
        graph = self.work / "wide.graph.json"
        graph.write_text(json.dumps(graph_spec_to_json_dict(wide_graph())))
        self.csv = self.work / "wide.csv"
        self.manifest = self.work / "wide.manifest.json"
        self.warm_csv = self.work / "warm.csv"
        _simulate(str(graph), WIDE_ROWS, self.seed, self.csv, self.manifest)
        _simulate(str(graph), WARM_ROWS, self.seed, self.warm_csv,
                  self.work / "warm.manifest.json")
        self.truth = json.loads(self.manifest.read_text())
        self.schema = checks.validator(self.schema_dir, "find_report.v1.json")

    def warm_up(self) -> None:
        _warm(["find", "--data", self.warm_csv, *_T_O,
              "--candidates", "Z1,Z2,Z3,Z4,Z5", "--out",
              self.work / "warm.json"])

    def argv(self, out: Path) -> list:
        return ["find", "--data", str(self.csv), *_T_O, "--out", str(out)]

    def work_units(self) -> float:
        return 6 * len(list(combinations(range(WIDE_CANDIDATES), 3)))

    def check(self, raw: bytes):
        return checks.check_find(raw, self.truth, self.schema)


class StudyComplex(Workload):
    """CLI ``evaluate`` with the strong ``complex`` acceptance design."""

    name = "study-complex"
    unit = "replications/s"

    def _config(self, path: Path, sizes, reps: int) -> dict:
        config = {"graph": "complex", "strength": "strong",
                  "sample_sizes": list(sizes), "replications": reps,
                  "master_seed": self.seed}
        path.write_text(json.dumps(config, indent=2, sort_keys=True))
        return config

    def build(self) -> None:
        self.config_path = self.work / "study.json"
        self.warm_config = self.work / "warm.json"
        self.config = self._config(self.config_path, STUDY_SIZES, STUDY_REPS)
        self._config(self.warm_config, STUDY_SIZES, 2)
        spec = builtin_graph("complex", strength="strong")
        self.true_dncts, _ = ground_truth_dncts(spec)
        self.n_triples = len(list(combinations(spec.candidates, 3)))

    def warm_up(self) -> None:
        _run(["evaluate", "--config", self.warm_config,
              "--out", self.work / "warm-out"])

    def argv(self, out: Path) -> list:
        return ["evaluate", "--config", str(self.config_path),
                "--out", str(out)]

    def work_units(self) -> float:
        return len(STUDY_SIZES) * STUDY_REPS

    def read(self, out: Path) -> bytes:
        return json.dumps(
            {name: (out / name).read_text() for name in checks.STUDY_HEADERS},
            sort_keys=True,
        ).encode()

    def check(self, raw: bytes):
        return checks.check_study(json.loads(raw), self.config,
                                  self.true_dncts, self.n_triples,
                                  self.defects)


WORKLOADS = {w.name: w for w in (Dance, DanceBoot, FindWide, StudyComplex)}
