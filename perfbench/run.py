"""Benchmark of the negcontrol command line, end to end and per layer.

    python3 perfbench/run.py --workload dance-200k --seed 1 --seconds 10 \
        --trace 0

Run from the root of a checkout.  The workload's inputs are built from
``--seed`` through the public API.  With ``--trace 0`` the inputs are set
up three times (the median is ``setup_s``); after each set-up the
workload's command-line call repeats in-process through
``negcontrol.cli.main`` for a third of ``--seconds``, and the end-to-end
metrics are reported.  With ``--trace 1`` the inputs are set up once under
tracing, untraced and traced calls alternate for ``--seconds``, and the
per-layer metrics are reported.  The first output gets the full check and
every later one must equal it byte for byte.  The last line of standard
output is one JSON object; a full record (environment, quality figures,
failed checks, and for traced runs every span) is written under
``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3

END_TO_END = {
    "call_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "data.load_csv_s": "s", "data.cells": "count",
    "data.covariance_s": "s", "data.write_csv_s": "s",
    "tetrad.tests": "count", "tetrad.us_per_test": "us",
    "tetrad.inapplicable": "count",
    "search.find_nc_s": "s", "search.triples": "count",
    "search.pass_ratio": "ratio", "search.self_s": "s",
    "estimate.pair_fit_ms": "ms", "estimate.pairs": "count",
    "estimate.singular": "count",
    "aggregate.sandwich_s": "s", "aggregate.pairs": "count",
    "aggregate.moment_bytes": "bytes",
    "aggregate.bootstrap_s": "s", "aggregate.boot_draw_ms": "ms",
    "pipeline.dance_s": "s", "cli.emit_s": "s", "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "simulate.generate_ms": "ms", "study.rep_ms": "ms",
    "study.self_ms": "ms", "study.failures": "count",
    "study.no_dnct": "count",
    "trace.overhead_s": "s",
}


def _blas_threads():
    """Thread count reported by the OpenBLAS loaded into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
    }


class Runner:
    """Set-up, timed calls and checks of one workload in one process."""

    def __init__(self, workload, work: Path):
        self.wl = workload
        self.work = work
        self.calls = 0
        self.failed_calls = 0
        self.failed_checks: dict = {}
        self.quality: dict = {}
        self.reference = None  # bytes of the first checked output
        self.first_failed: list = []
        self.output_bytes = 0

    def setup(self) -> float:
        start = time.perf_counter()
        self.wl.build()
        self.wl.warm_up()
        return time.perf_counter() - start

    def call(self, rec=None) -> float:
        """One timed command-line call, checked; returns its seconds."""
        from negcontrol.cli import main as cli_main

        from spans import traced

        self.calls += 1
        out = self.work / f"out-{self.calls}"
        argv = self.wl.argv(out)
        gc.collect()
        if rec is None:
            start = time.perf_counter()
            code = cli_main(argv)
            elapsed = time.perf_counter() - start
        else:
            rec.call = f"call-{self.calls}"
            with traced(rec):
                start = time.perf_counter()
                code = rec.span("cli.main", cli_main, (argv,), {})
                elapsed = time.perf_counter() - start
        failed = []
        if code != 0:
            failed.append(f"exit_code_{code}")
        else:
            raw = self.wl.read(out)
            self.output_bytes = (
                sum(p.stat().st_size for p in out.iterdir())
                if out.is_dir() else out.stat().st_size)
            if self.reference is None:
                self.reference = raw
                failed, self.quality = self.wl.check(raw)
                self.first_failed = failed
            elif raw != self.reference:
                failed.append("byte_identical")
            else:
                failed = list(self.first_failed)
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
        if failed:
            self.failed_calls += 1
            for name in failed:
                self.failed_checks[name] = self.failed_checks.get(name, 0) + 1
        return elapsed


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(args) -> dict:
    import negcontrol
    from spans import Recorder, layer_metrics, summarize, traced
    from checks import KNOWN_DEFECTS
    from workloads import BOOT_DRAWS, WORKLOADS

    src = (ROOT / "src").resolve()
    if Path(negcontrol.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"negcontrol imported from {negcontrol.__file__}")
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "environment": environment()}
    try:
        wl = WORKLOADS[args.workload](work, args.seed, ROOT / "schema")
        runner = Runner(wl, work)
        rec = Recorder()
        metrics: dict = {}
        if args.trace:
            rec.call = "setup"
            with traced(rec):
                runner.setup()
            plain, timed = [], []
            start = time.perf_counter()
            while not timed or time.perf_counter() - start < args.seconds:
                plain.append(runner.call())
                timed.append((runner.call(rec), rec.call))
            summary = summarize(rec)
            per_call = [layer_metrics(rec, summary, call, "setup")
                        for _, call in timed]
            for key in per_call[0]:
                metrics[key] = statistics.median(m[key] for m in per_call)
            boot = metrics["aggregate.bootstrap_s"]
            if boot:
                # the same aggregation with a sandwich interval, so the
                # bootstrap's extra time can be split into draws
                metrics["aggregate.boot_draw_ms"] = (
                    boot - _sandwich_reference(wl)) / BOOT_DRAWS * 1e3
            else:
                metrics["aggregate.boot_draw_ms"] = 0.0
            metrics["cli.output_bytes"] = runner.output_bytes
            metrics["trace.overhead_s"] = (
                statistics.median(t for t, _ in timed)
                - statistics.median(plain))
            record["spans_file"] = str(
                _write_json(f"{_stem(args)}-spans.json", rec.to_json()))
            units = PER_LAYER
        else:
            # calls follow each set-up round, so the samples spread over
            # the whole run rather than one stretch of a drifting machine
            setups, times = [], []
            for _ in range(SETUP_REPEATS):
                setups.append(runner.setup())
                start = time.perf_counter()
                while True:
                    times.append(runner.call())
                    elapsed = time.perf_counter() - start
                    if elapsed >= args.seconds / SETUP_REPEATS:
                        break
            call_s = statistics.median(times)
            metrics = {
                "call_s": call_s,
                "work_per_s": wl.work_units() / call_s,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            record["call_times"] = times
            record["setup_times"] = setups
            units = END_TO_END
        quality = dict(runner.quality)
        quality["failed_share"] = runner.failed_calls / runner.calls
        record.update(
            quality=quality, failed_checks=runner.failed_checks,
            work_unit=wl.unit,
            known_defects={d: KNOWN_DEFECTS[d] for d in sorted(wl.defects)},
        )
        result = {
            "correct": runner.failed_calls == 0,
            "attempted": runner.calls,
            "failed": runner.failed_calls,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in units.items()},
        }
        record["result"] = result
        _write_json(f"{_stem(args)}.json", record)
        _print_report(args, record, result)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _sandwich_reference(wl) -> float:
    """Seconds of one sandwich aggregation on the workload's data."""
    from negcontrol.aggregate import enumerate_pairs, weighted_estimate
    from negcontrol.data import load_csv

    data = load_csv(wl.csv)
    dncts = [tuple(t) for t in wl.truth["true_dncts"]]
    start = time.perf_counter()
    weighted_estimate(data, enumerate_pairs(dncts), "T", "O",
                      ci_method="sandwich")
    return time.perf_counter() - start


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


def _write_json(name: str, doc) -> Path:
    path = OUT_DIR / name
    path.write_text(json.dumps(doc))
    return path


def _print_report(args, record: dict, result: dict) -> None:
    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"calls={result['attempted']} " + " ".join(
              f"{k}={v}" for k, v in env.items()))
    samples = len(record.get("call_times", ())) or result["attempted"]
    for name, metric in result["metrics"].items():
        unit = metric["unit"]
        if name == "work_per_s":
            unit = record["work_unit"]
        print(f"{name} {_fmt(metric['value'])} {unit} (n={samples})")
    units = {"delta_abs_err": "abs", "detect_errors": "count",
             "coverage_gap": "abs", "failed_share": "ratio"}
    for name, value in record["quality"].items():
        print(f"{name} {_fmt(value)} {units.get(name, '')}")
    for name, text in record["known_defects"].items():
        print(f"KNOWN DEFECT {name}: {text}")
    for name, times in record["failed_checks"].items():
        print(f"FAILED check {name} on {times} call(s)")


def main(argv=None) -> int:
    if not (ROOT / "src" / "negcontrol" / "__init__.py").is_file():
        print(f"error: no negcontrol sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # cap BLAS threads at the CPUs this process may use, before numpy loads
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the work directory is still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
