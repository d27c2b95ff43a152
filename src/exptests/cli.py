"""Command-line interface.

Subcommands:
  test        evaluate a statistic on a data file, with critical value and p-value
              from one simulated null run
  critval     build Monte Carlo critical-value tables
  power       estimate power cells against an alternative family
  efficiency  local Bahadur efficiency reports / curves
  eigen       delta1 by its t-side ladder and its x-side check, and their disagreement

Each subcommand accepts only the options its handler reads (the
`_SUBCOMMANDS` table), so a misplaced option is an error rather than ignored.
Each writes one table through core.write_table, to --output or stdout: a CSV
with one header line, or with --format json a list of objects with the same
cells; floats are written with repr and an empty cell means no value.
Exit codes: 0 success, 1 validation error (argparse errors and files that
cannot be read or written included), 2 numerical-diagnostic failure.  The
Monte Carlo subcommands (test, critval, power) take --seed; `run_command`
resolves it once (a fresh random seed when absent) and echoes it on stderr
for reproducibility.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import nulldist, powersim, slopes
from .core import RngStream, float_cell, read_sample, write_table
from .errors import DomainError, NumericsError
from .statistics import ALL_STATISTICS, StatisticId, evaluate


def _parse_a_list(text):
    if text is None:
        return [None]
    try:
        values = [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        values = []
    if not values:
        raise DomainError(f"--a expects a number or comma-separated numbers, "
                          f"got {text!r}")
    return values


def _cmd_test(args):
    a_list = _parse_a_list(args.a)
    if len(a_list) != 1:
        raise DomainError("the test subcommand takes a single --a value")
    stat = StatisticId(args.stat, a_list[0])
    x = read_sample(args.input)
    value = evaluate(stat, x).value
    alphas = nulldist.check_calibration_inputs(x.size, args.alpha,
                                               args.replicates)
    # one null run gives both the critical value and the p-value
    null = nulldist.simulate_null_statistics(stat, x.size, args.replicates,
                                             RngStream(args.seed),
                                             threads=args.threads)
    crit, _ = nulldist.null_critical_values(null, alphas)
    p = nulldist.null_p_value(null, value)
    row = {"statistic": stat.name, "a": float_cell(stat.a), "n": x.size,
           "value": float_cell(value), "alpha": float_cell(args.alpha),
           "critical_value": float_cell(crit[args.alpha]),
           "p_value": float_cell(p),
           "replicates": args.replicates, "seed": args.seed}
    write_table(args.output, list(row), [row], args.format)
    return 0


def _cmd_critval(args):
    rows = []
    for a in _parse_a_list(args.a):
        stat = StatisticId(args.stat, a)
        cal = nulldist.calibrate_critical_value(stat, args.n, args.alpha,
                                                args.replicates,
                                                RngStream(args.seed),
                                                threads=args.threads)
        rows.extend(nulldist.calibration_rows(cal))
    write_table(args.output, nulldist.CALIBRATION_COLUMNS, rows, args.format)
    return 0


def _cmd_power(args):
    cells, a_list = [], _parse_a_list(args.a)
    loaded = nulldist.load_calibrations(args.input) if args.input else None
    for a in a_list:
        stat = StatisticId(args.stat, a)
        if args.input:
            cal = next((c for c in loaded if c.statistic == stat and c.n == args.n), None)
            if cal is None:
                raise DomainError(f"--input {args.input} has no calibration for "
                                  f"{stat.label()} at n={args.n}")
        else:
            cal = nulldist.calibrate_critical_value(
                stat, args.n, args.alpha, args.replicates, RngStream(args.seed),
                threads=args.threads)
        cells.append(powersim.estimate_power(
            stat, args.family, args.theta, args.n, args.alpha,
            args.replicates, RngStream(args.seed, stream=1), cal,
            threads=args.threads))
    write_table(args.output, powersim.POWER_COLUMNS,
                powersim.power_table_rows(cells), args.format)
    return 0


def _cmd_efficiency(args):
    reports = [slopes.efficiency(StatisticId(args.stat, a), args.family)
               for a in _parse_a_list(args.a)]
    write_table(args.output, slopes.EFFICIENCY_COLUMNS,
                slopes.efficiency_rows(reports), args.format)
    return 0


def _cmd_eigen(args):
    rows = []
    for a in _parse_a_list(args.a):
        result = nulldist.largest_eigenvalue_delta1(a)
        check = nulldist.gl_nystrom_delta1(a, 8)
        found = ([("covariance-nystrom", n, est) for n, est in result.trace]
                 + [("x-nystrom", "", check), ("final", "", result.delta1),
                    ("route-disagreement", "", abs(check - result.delta1) / result.delta1)])
        rows += [{"a": float_cell(a), "method": method, "size": size,
                  "delta1": float_cell(value)} for method, size, value in found]
    write_table(args.output, ("a", "method", "size", "delta1"), rows, args.format)
    return 0


# every option any subcommand reads, with its argparse settings
_OPTIONS = {
    "stat": dict(choices=sorted(ALL_STATISTICS), type=str.upper),
    "a": dict(help="tuning parameter (comma list allowed outside `test`)"),
    "family": {},
    "theta": dict(type=float),
    "n": dict(type=int),
    "alpha": dict(type=float, default=0.05),
    "replicates": dict(type=int, default=10_000),
    "seed": dict(type=int),
    "threads": dict(type=int, default=os.cpu_count() or 1),
    "input": {},
    "output": {},
    "format": dict(choices=("csv", "json"), default="csv"),
}

# each subcommand's handler and the options it reads ("!" marks a required
# one); every subcommand also takes --output and --format
_SUBCOMMANDS = {
    "test": (_cmd_test, "stat! a alpha replicates seed threads input!"),
    "critval": (_cmd_critval, "stat! a n! alpha replicates seed threads"),
    "power": (_cmd_power, "stat! a family! theta n! alpha replicates seed "
                          "threads input"),
    "efficiency": (_cmd_efficiency, "stat! a family!"),
    "eigen": (_cmd_eigen, "a!"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exptests",
        description="Exponentiality tests from empirical Laplace transforms")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for opt in options.split() + ["output", "format"]:
            key = opt.rstrip("!")
            p.add_argument(f"--{key}", required=opt.endswith("!"),
                           **_OPTIONS[key])
        p.set_defaults(handler=handler)
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if "seed" in args:  # the Monte Carlo subcommands echo the seed they use
        if args.seed is None:
            args.seed = int(np.random.SeedSequence().entropy % (2**63))
        print(f"seed: {args.seed}", file=sys.stderr)
    try:
        return args.handler(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
