"""Command-line surface.

Subcommands expose each pipeline stage independently:

* ``find``      -- validate-and-search for control triplets in a CSV.
* ``estimate``  -- single-pair effect estimate (closed form or moments).
* ``dance``     -- find + aggregate: the full pipeline.
* ``simulate``  -- draw a synthetic dataset plus a ground-truth manifest.
* ``evaluate``  -- replication study from a JSON config.

Exit codes: 0 success, 1 I/O failure, 2 invalid flags or malformed input,
3 no validated triplets (``find``/``dance`` only).  All randomness is
controlled by ``--seed``; repeated invocations are byte-identical.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
from dataclasses import fields

import numpy as np

from .data import covariance, load_csv, write_csv
from .errors import NegcontrolError
from .estimate import NcPair, closed_form_ate, gmm_linear_ate
from .pipeline import dance
from .simulate import (
    builtin_graph,
    generate,
    graph_spec_from_json_dict,
    graph_spec_to_json_dict,
    ground_truth_dncts,
    load_graph_json,
    realize_coefficients,
)
from .study import StudyConfig, run_study, write_study_outputs

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_IO = 1
_EXIT_INVALID = 2
_EXIT_NO_DNCT = 3

# seed streams for the simulate subcommand
_SIM_STREAM_COEFFS = 0
_SIM_STREAM_DATA = 1


def _name_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",")]
    if not names or any(not name for name in names):
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated name list, got {text!r}"
        )
    return names


def _emit(write_json, out: str | None) -> None:
    """Stream a subcommand's JSON and a newline to ``out`` or stdout:
    ``write_json`` is called with the handle's ``write`` and hands it the
    text in pieces.  When it raises, a regular file it left partly written
    at ``out`` is removed before the error goes on; a link or a device,
    such as ``/dev/stdout``, is left alone."""
    if out is None:
        write_json(sys.stdout.write)
        sys.stdout.write("\n")
        return
    handle = open(out, "w")
    try:
        with handle:
            write_json(handle.write)
            handle.write("\n")
    except BaseException:
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(out).st_mode):
                os.remove(out)
        raise


def _text(doc):
    """A ``write_json`` for ``_emit`` that writes ``doc`` as
    ``json.dumps`` with ``indent=2, sort_keys=True`` gives it."""
    text = json.dumps(doc, indent=2, sort_keys=True)
    return lambda write: write(text)


def _candidates(data, args) -> list[str]:
    if args.candidates is not None:
        return args.candidates
    excluded = {args.treatment, args.outcome}
    return [name for name in data.variable_names if name not in excluded]


def _cmd_find(args) -> int:
    from .search import find_nc

    data = load_csv(args.data)
    report = find_nc(
        data,
        _candidates(data, args),
        args.treatment,
        args.outcome,
        alpha=args.alpha,
    )
    _emit(report._write_json, args.out)
    return _EXIT_OK if report.passed.any() else _EXIT_NO_DNCT


def _cmd_estimate(args) -> int:
    data = load_csv(args.data)
    pair = NcPair(z=args.z, w=args.w)
    covariates = args.covariates or []
    if args.method == "closed":
        if covariates:
            raise ValueError(
                "--method closed does not support covariates; use gmm"
            )
        estimate = closed_form_ate(
            covariance(data), pair, args.treatment, args.outcome
        )
    else:
        estimate = gmm_linear_ate(
            data, pair, args.treatment, args.outcome, covariates
        )
    _emit(_text(estimate.to_json_dict()), args.out)
    return _EXIT_OK


def _cmd_dance(args) -> int:
    data = load_csv(args.data)
    result = dance(
        data,
        args.treatment,
        args.outcome,
        candidates=args.candidates,
        covariates=args.covariates or (),
        alpha=args.alpha,
        aggregate=args.aggregate,
        ci_method=args.ci,
        bootstrap_draws=args.boot_b,
        seed=args.seed,
    )
    _emit(result._write_json, args.out)
    return _EXIT_OK if result.estimate is not None else _EXIT_NO_DNCT


def _cmd_simulate(args) -> int:
    if args.graph in ("simple", "complex"):
        spec = builtin_graph(
            args.graph,
            strength=args.strength,
            family=args.family,
            seed=(args.seed, _SIM_STREAM_COEFFS),
        )
    else:
        spec = load_graph_json(args.graph)
        if not spec.is_realized():
            spec = realize_coefficients(
                spec, (args.seed, _SIM_STREAM_COEFFS)
            )
    data = generate(
        spec, args.n, np.random.SeedSequence((args.seed, _SIM_STREAM_DATA))
    )
    write_csv(data, args.out)
    if args.manifest is not None:
        dncts, true_delta = ground_truth_dncts(spec)
        manifest = {
            "graph": graph_spec_to_json_dict(spec),
            "true_delta": true_delta,
            "true_dncts": [list(t) for t in dncts],
            "n": args.n,
            "seed": args.seed,
            "data_path": args.out,
        }
        _emit(_text(manifest), args.manifest)
    return _EXIT_OK


def _cmd_evaluate(args) -> int:
    with open(args.config) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(payload) - {field.name for field in fields(StudyConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(payload.get("graph"), dict):
        payload["graph"] = graph_spec_from_json_dict(payload["graph"])
    config = StudyConfig(**payload)
    result = run_study(config)
    write_study_outputs(result, args.out)
    return _EXIT_OK


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input CSV")
    parser.add_argument("--treatment", required=True, help="treatment column")
    parser.add_argument("--outcome", required=True, help="outcome column")
    parser.add_argument("--out", help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negcontrol",
        description=(
            "Search for validated negative-control triplets and estimate "
            "treatment effects through them."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_find = sub.add_parser(
        "find", help="search candidate triples for validated triplets"
    )
    _add_io_flags(p_find)
    p_find.add_argument(
        "--candidates",
        type=_name_list,
        help="comma-separated candidate columns (default: all but T and O)",
    )
    p_find.add_argument(
        "--alpha",
        type=float,
        help="per-test level (default 1/n, recorded in the report)",
    )
    p_find.set_defaults(handler=_cmd_find)

    p_est = sub.add_parser(
        "estimate", help="effect estimate from one control pair"
    )
    _add_io_flags(p_est)
    p_est.add_argument("--z", required=True, help="exposure-side control")
    p_est.add_argument("--w", required=True, help="outcome-side control")
    p_est.add_argument("--covariates", type=_name_list)
    p_est.add_argument(
        "--method", choices=("closed", "gmm"), default="gmm"
    )
    p_est.set_defaults(handler=_cmd_estimate)

    p_dance = sub.add_parser(
        "dance", help="full pipeline: find triplets, then aggregate"
    )
    _add_io_flags(p_dance)
    p_dance.add_argument("--candidates", type=_name_list)
    p_dance.add_argument("--covariates", type=_name_list)
    p_dance.add_argument("--alpha", type=float)
    p_dance.add_argument(
        "--aggregate", choices=("weighted", "majority"), default="weighted"
    )
    p_dance.add_argument(
        "--ci", choices=("sandwich", "bootstrap"), default="sandwich"
    )
    p_dance.add_argument(
        "--boot-b", type=int, default=500, help="bootstrap draws"
    )
    p_dance.add_argument("--seed", type=int, default=0)
    p_dance.set_defaults(handler=_cmd_dance)

    p_sim = sub.add_parser(
        "simulate", help="draw a synthetic dataset with known ground truth"
    )
    p_sim.add_argument(
        "--graph",
        required=True,
        help="'simple', 'complex', or a graph-description JSON file",
    )
    p_sim.add_argument(
        "--family", choices=("gaussian", "binary"), default="gaussian"
    )
    p_sim.add_argument(
        "--strength", choices=("weak", "strong"), default="weak"
    )
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument(
        "--manifest", help="also write ground truth JSON (graph, true delta)"
    )
    p_sim.set_defaults(handler=_cmd_simulate)

    p_eval = sub.add_parser(
        "evaluate", help="replication study from a JSON config"
    )
    p_eval.add_argument("--config", required=True, help="StudyConfig JSON")
    p_eval.add_argument(
        "--out", required=True, help="directory for the CSV tables"
    )
    p_eval.set_defaults(handler=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except (NegcontrolError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
