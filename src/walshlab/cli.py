"""Command line front end.

Exit codes: 0 success, 2 configuration problems (bad arguments, files,
schedules, horizons), 3 cap or resource refusals (term budgets, depth
limits).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .blocks import load_plan
from .errors import (
    BudgetError,
    ConfigError,
    DepthError,
    HorizonError,
    ScheduleError,
    read_json,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_experiment,
    write_records_csv,
)
from .greedy import greedy_approximant, load_coefficients, synthesize_coefficients
from .norms import lp_dense, lp_even_spectral, lp_monte_carlo, lp_norm
from .spectra import load_spectrum, save_spectrum

# no bare ValueError/KeyError: inputs are checked where read, the rest are bugs;
# OSError is a file that cannot be opened, read or written
_CONFIG_ERRORS = (ConfigError, ScheduleError, HorizonError, OSError)
_RESOURCE_ERRORS = (BudgetError, DepthError)

# Monte Carlo defaults of `norm`, also used where `greedy run` samples
_MC_SAMPLES = 20000
_MC_SEED = 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Block bases over the Walsh system: construction, norms, "
        "greedy approximation, verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    basis = sub.add_parser("basis", help="block plan inspection and elements")
    basis_sub = basis.add_subparsers(dest="basis_command", required=True)
    info = basis_sub.add_parser("info", help="print N_k, F_k and validity flags")
    info.add_argument("--plan", required=True, help="preset name or plan JSON path")
    elem = basis_sub.add_parser("element", help="write one element's spectrum")
    elem.add_argument("--plan", required=True)
    elem.add_argument("-k", type=int, required=True, help="block number (1-based)")
    elem.add_argument("-i", type=int, required=True, help="row within the block")
    elem.add_argument("--out", required=True, help="output spectrum JSON path")

    norm = sub.add_parser("norm", help="L_p norm of a spectrum file")
    norm.add_argument("--p", type=float, required=True)
    norm.add_argument(
        "--engine", choices=("dense", "even", "mc"), default="dense"
    )
    norm.add_argument("--samples", type=int, default=_MC_SAMPLES)
    norm.add_argument("--seed", type=int, default=_MC_SEED)
    norm.add_argument("--in", dest="infile", required=True)

    greedy = sub.add_parser("greedy", help="greedy approximation traces")
    greedy_sub = greedy.add_subparsers(dest="greedy_command", required=True)
    run = greedy_sub.add_parser("run", help="trace greedy approximants")
    run.add_argument("--plan", required=True)
    run.add_argument("--in", dest="infile", required=True, help="coefficient JSON")
    run.add_argument("--m-max", type=int, required=True)
    run.add_argument("--p", type=float, default=4.0)
    run.add_argument("--out", required=True, help="trace CSV path")

    exp = sub.add_parser("experiment", help="run a verification experiment")
    exp.add_argument("kind", choices=tuple(EXPERIMENTS))
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="results CSV path")
    return parser


def _cmd_basis_info(args) -> int:
    plan = load_plan(args.plan)
    doc = {
        "g": list(plan.g),
        "N": list(plan.N),
        "F": list(plan.F),
        "horizon_size": plan.horizon_size,
        "democracy_condition": plan.democracy_condition,
        "lambda_separation": plan.lambda_separation,
    }
    print(json.dumps(doc, indent=1))
    return 0


def _cmd_basis_element(args) -> int:
    plan = load_plan(args.plan)
    save_spectrum(plan.psi_spectrum(args.k, args.i), args.out)
    print(f"wrote psi({args.k},{args.i}) to {args.out}")
    return 0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _cmd_norm(args) -> int:
    f = load_spectrum(args.infile)
    p = args.p
    if args.engine == "dense":
        _require(1 <= p < math.inf, f"dense engine needs finite p >= 1, got {p}")
        est = lp_dense(f, p)
    elif args.engine == "even":
        _require(p >= 2 and p % 2 == 0, f"even engine needs even p >= 2, got {p}")
        est = lp_even_spectral(f, int(p))
    else:
        _require(1 < p < math.inf, f"mc engine needs finite p > 1, got {p}")
        _require(args.samples >= 2, f"--samples must be >= 2, got {args.samples}")
        _require(0 <= args.seed < 2**128, f"--seed must be in [0, 2**128), got {args.seed}")
        est = lp_monte_carlo(f, p, args.samples, args.seed)
    print(json.dumps(est.as_dict()))
    return 0


def _cmd_greedy_run(args) -> int:
    import csv

    _require(1 < args.p < math.inf, f"--p must be in (1, inf), got {args.p}")
    _require(args.m_max >= 0, f"--m-max must be >= 0, got {args.m_max}")
    plan = load_plan(args.plan)
    coeffs = load_coefficients(args.infile)
    f = synthesize_coefficients(coeffs, plan)
    _, trace = greedy_approximant(f, plan, args.m_max)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "selected", "coefficient", "residual_l2", "p", "residual_p"])
        for step in trace:
            residual_p = ""
            if args.p != 2.0:  # the L2 residual is the exact residual_l2 column
                prefix = plan.weighted_spectrum(
                    (s.selected, s.coefficient) for s in trace[: step.m]
                )
                est = lp_norm(f - prefix, args.p, _MC_SAMPLES, lambda: _MC_SEED)
                residual_p = repr(est.value)
            writer.writerow(
                [
                    step.m,
                    step.selected,
                    repr(step.coefficient),
                    repr(step.residual_l2),
                    repr(float(args.p)),
                    residual_p,
                ]
            )
    print(f"wrote {len(trace)} trace rows to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    records, summary = run_experiment(args.kind, cfg)
    write_records_csv(records, args.out)
    summary["rows"] = len(records)
    summary["out"] = args.out
    print(json.dumps(summary, indent=1))
    return 0


# built once per process: parsing leaves no state in the parser
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "basis":
            if args.basis_command == "info":
                return _cmd_basis_info(args)
            return _cmd_basis_element(args)
        if args.command == "norm":
            return _cmd_norm(args)
        if args.command == "greedy":
            return _cmd_greedy_run(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        raise AssertionError("unreachable")
    except _RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
