"""Command-line interface.

Subcommands:
  test        evaluate a statistic on a data file, with critical value and p-value
              from one simulated null run
  critval     build Monte Carlo critical-value tables
  power       estimate power cells against an alternative family
  efficiency  local Bahadur efficiency reports / curves
  eigen       largest-eigenvalue ladders by both routes and their disagreement

Exit codes: 0 success, 1 validation error, 2 numerical-diagnostic failure.
The Monte Carlo subcommands (test, critval, power) take --seed and echo the
resolved seed on stderr for reproducibility; efficiency and eigen are
deterministic and take no seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import nulldist, powersim, slopes
from .core import RngStream, read_sample
from .errors import DomainError, NumericsError
from .statistics import ALL_STATISTICS, StatisticId, evaluate


def _default_threads() -> int:
    env = os.environ.get("EXPTESTS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _parse_a_list(text):
    if text is None:
        return [None]
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"--a expects a number or comma-separated numbers, "
                          f"got {text!r}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return int(args.seed)
    return int(np.random.SeedSequence().entropy % (2**63))


def _emit(rows, columns, args):
    fmt = args.format
    if args.output:
        fh = open(args.output, "w", newline="", encoding="utf-8")
        close = True
    else:
        fh, close = sys.stdout, False
    try:
        if fmt == "json":
            json.dump([{c: r[c] for c in columns} for r in rows], fh, indent=2)
            fh.write("\n")
        else:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            for r in rows:
                writer.writerow({c: r[c] for c in columns})
    finally:
        if close:
            fh.close()


def _statistic(args, a=None) -> StatisticId:
    if args.stat is None:
        raise DomainError("--stat is required")
    return StatisticId(args.stat, a)


def _cmd_test(args):
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    if not args.input:
        raise DomainError("--input is required for the test subcommand")
    a_list = _parse_a_list(args.a)
    if len(a_list) != 1:
        raise DomainError("the test subcommand takes a single --a value")
    stat = _statistic(args, a_list[0])
    x = read_sample(args.input)
    value = evaluate(stat, x).value
    alphas = nulldist.check_calibration_inputs(x.size, args.alpha,
                                               args.replicates)
    # one null run gives both the critical value and the p-value
    null = nulldist.simulate_null_statistics(stat, x.size, args.replicates,
                                             RngStream(seed),
                                             threads=args.threads)
    crit, _ = nulldist.null_critical_values(null, alphas)
    p = nulldist.null_p_value(null, value)
    rows = [{
        "statistic": stat.name, "a": "" if stat.a is None else f"{stat.a:g}",
        "n": x.size, "value": repr(float(value)), "alpha": repr(args.alpha),
        "critical_value": repr(float(crit[args.alpha])),
        "p_value": repr(float(p)),
        "replicates": args.replicates, "seed": seed,
    }]
    _emit(rows, list(rows[0].keys()), args)
    return 0


def _cmd_critval(args):
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    if args.n is None:
        raise DomainError("--n is required for the critval subcommand")
    rows = []
    for a in _parse_a_list(args.a):
        stat = _statistic(args, a)
        cal = nulldist.calibrate_critical_value(stat, args.n, args.alpha,
                                                args.replicates, RngStream(seed),
                                                threads=args.threads)
        rows.extend(nulldist.calibration_rows(cal))
    _emit(rows, list(nulldist.CALIBRATION_COLUMNS), args)
    return 0


def _cmd_power(args):
    seed = _resolve_seed(args)
    print(f"seed: {seed}", file=sys.stderr)
    if args.family is None or args.n is None:
        raise DomainError("--family and --n are required for the power subcommand")
    cells = []
    for a in _parse_a_list(args.a):
        stat = _statistic(args, a)
        cal = None
        if args.input:
            for loaded in nulldist.load_calibrations(args.input):
                if loaded.statistic == stat and loaded.n == args.n:
                    cal = loaded
                    break
            if cal is None:
                raise DomainError(f"--input {args.input} has no calibration for "
                                  f"{stat.label()} at n={args.n}")
        else:
            cal = nulldist.calibrate_critical_value(
                stat, args.n, args.alpha, args.replicates, RngStream(seed),
                threads=args.threads)
        cells.append(powersim.estimate_power(
            stat, args.family, args.theta, args.n, args.alpha,
            args.replicates, RngStream(seed, stream=1), cal,
            threads=args.threads))
    _emit(powersim.power_table_rows(cells), list(powersim.POWER_COLUMNS), args)
    return 0


def _cmd_efficiency(args):
    if args.family is None:
        raise DomainError("--family is required for the efficiency subcommand")
    rows = []
    for a in _parse_a_list(args.a):
        stat = _statistic(args, a)
        rep = slopes.efficiency(stat, args.family)
        rows.append({
            "statistic": stat.name,
            "a": "" if stat.a is None else f"{stat.a:g}",
            "family": rep.family, "a_T": repr(rep.a_T),
            "c_coeff": repr(rep.c_coeff), "lrt_coeff": repr(rep.lrt_coeff),
            "efficiency": repr(rep.efficiency),
            "b_coeff": repr(rep.b_coeff), "flagged": rep.flagged,
        })
    _emit(rows, ["statistic", "a", "family", "a_T", "c_coeff", "lrt_coeff",
                 "efficiency", "b_coeff", "flagged"], args)
    return 0


def _cmd_eigen(args):
    a_list = _parse_a_list(args.a)
    if a_list == [None]:
        raise DomainError("--a is required for the eigen subcommand")
    rows = []
    for a in a_list:
        result = nulldist.largest_eigenvalue_delta1(a)
        for n_nodes, est in result.trace:
            rows.append({"a": f"{a:g}", "method": "gauss-legendre",
                         "size": n_nodes, "B": "", "delta1": repr(est)})
        extr, trace = nulldist.grid_ladder_delta1(a)
        for m, B, est in trace:
            rows.append({"a": f"{a:g}", "method": "grid", "size": m,
                         "B": f"{B:g}", "delta1": repr(est)})
        rows.append({"a": f"{a:g}", "method": "grid-extrapolated", "size": "",
                     "B": "", "delta1": repr(extr)})
        rows.append({"a": f"{a:g}", "method": "final", "size": "", "B": "",
                     "delta1": repr(result.delta1)})
        # the matrix route checks the Nystrom route: relative gap of the two
        rows.append({"a": f"{a:g}", "method": "route-disagreement", "size": "",
                     "B": "", "delta1": repr(abs(extr - result.delta1)
                                             / result.delta1)})
    _emit(rows, ["a", "method", "size", "B", "delta1"], args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exptests",
        description="Exponentiality tests from empirical Laplace transforms")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    handlers = {"test": _cmd_test, "critval": _cmd_critval,
                "power": _cmd_power, "efficiency": _cmd_efficiency,
                "eigen": _cmd_eigen}
    for name in handlers:
        p = sub.add_parser(name)
        p.add_argument("--stat", choices=sorted(ALL_STATISTICS), type=str.upper)
        p.add_argument("--a", help="tuning parameter (comma list allowed "
                                   "outside `test`)")
        p.add_argument("--family")
        p.add_argument("--theta", type=float)
        p.add_argument("--n", type=int)
        p.add_argument("--alpha", type=float, default=0.05)
        p.add_argument("--replicates", type=int, default=10_000)
        if name in ("test", "critval", "power"):
            p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int, default=_default_threads())
        p.add_argument("--input")
        p.add_argument("--output")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(handler=handlers[name])
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
