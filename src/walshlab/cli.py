"""Command line front end.

Exit codes: 0 success, 2 configuration problems (bad arguments, files,
schedules, horizons), 3 cap or resource refusals (the byte budget, size
caps, depths out of range).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

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
    _span_norms,
    run_experiment,
    write_records_csv,
)
from .greedy import greedy_order, load_coefficients, parseval_tails
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
    info.set_defaults(handler=_cmd_basis_info)
    elem = basis_sub.add_parser("element", help="write one element's spectrum")
    elem.add_argument("--plan", required=True)
    elem.add_argument("-k", type=int, required=True, help="block number (1-based)")
    elem.add_argument("-i", type=int, required=True, help="row within the block")
    elem.add_argument("--out", required=True, help="output spectrum JSON path")
    elem.set_defaults(handler=_cmd_basis_element)

    norm = sub.add_parser("norm", help="L_p norm of a spectrum file")
    norm.add_argument("--p", type=float, required=True)
    norm.add_argument(
        "--engine", choices=("dense", "even", "mc"), default="dense"
    )
    norm.add_argument("--samples", type=int, default=_MC_SAMPLES)
    norm.add_argument("--seed", type=int, default=_MC_SEED)
    norm.add_argument("--in", dest="infile", required=True)
    norm.set_defaults(handler=_cmd_norm)

    greedy = sub.add_parser("greedy", help="greedy approximation traces")
    greedy_sub = greedy.add_subparsers(dest="greedy_command", required=True)
    run = greedy_sub.add_parser("run", help="trace greedy approximants")
    run.add_argument("--plan", required=True)
    run.add_argument("--in", dest="infile", required=True, help="coefficient JSON")
    run.add_argument("--m-max", type=int, required=True)
    run.add_argument("--p", type=float, default=4.0)
    run.add_argument("--out", required=True, help="trace CSV path")
    run.set_defaults(handler=_cmd_greedy_run)

    exp = sub.add_parser("experiment", help="run a verification experiment")
    exp.add_argument("kind", choices=tuple(EXPERIMENTS))
    exp.add_argument("--config", required=True, help="experiment config JSON")
    exp.add_argument("--out", required=True, help="results CSV path")
    exp.set_defaults(handler=_cmd_experiment)
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
    if args.engine == "dense":
        est = lp_dense(f, args.p)
    elif args.engine == "even":
        est = lp_even_spectral(f, args.p)
    else:
        est = lp_monte_carlo(f, args.p, args.samples, args.seed)
    print(json.dumps(est.as_dict()))
    return 0


def _cmd_greedy_run(args) -> int:
    import csv

    _require(1 <= args.p < math.inf, f"--p must be finite and >= 1, got {args.p}")
    _require(args.m_max >= 0, f"--m-max must be >= 0, got {args.m_max}")
    plan = load_plan(args.plan)
    coeffs = load_coefficients(args.infile)
    if coeffs:  # the widest block read: past the horizon or the cap is refused
        plan._check_cap(plan.to_block(max(coeffs))[0])
    order = greedy_order(coeffs)
    values = [coeffs[m] for m in order]
    tail_sq = parseval_tails(values)
    # residual_l2 would read inf or 0.0; the experiments refuse both too.  Inside
    # the range each |c| < 1.35e154, so no transform sum over 2^20 rows overflows
    _require(math.isfinite(tail_sq[0]) and (tail_sq[0] >= sys.float_info.min or not values),
             "the squared l2 norm of the coefficients is outside the normal float range")
    chosen = order[: args.m_max]
    # row m selects order[m:], the residual f - G_m f (at p = 2 residual_l2 is its
    # norm); all are taken before the output opens, so a refusal leaves no file
    rows = (np.arange(len(order)) >= m for m in range(1, len(chosen) + 1))
    residuals = [""] * len(chosen) if args.p == 2.0 else [
        repr(even[args.p] if even else lp_norm(
            plan.gather(row), args.p, _MC_SAMPLES, lambda: _MC_SEED).value)
        for row, even, _ in _span_norms(plan, order, values, rows, [args.p])]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "selected", "coefficient", "residual_l2", "p", "residual_p"])
        for m, (selected, residual) in enumerate(zip(chosen, residuals), start=1):
            writer.writerow([m, selected, repr(coeffs[selected]), repr(math.sqrt(tail_sq[m])),
                             repr(float(args.p)), residual])
    print(f"wrote {len(chosen)} trace rows to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    out = Path(args.out)  # refused before the run, and neither created nor truncated
    _require(not out.is_dir(), f"--out {args.out} is a directory")
    _require(out.absolute().parent.is_dir(), f"--out {args.out}: no such directory")
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
        return args.handler(args)
    except _RESOURCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
