#!/usr/bin/env python3
"""Reproduce the local Bahadur efficiency tables.

Writes one CSV with the efficiencies of the classical battery (fixed and
tuned statistics at a in {0.2, 0.5, 1, 2, 5, 10}) and one CSV with the
efficiency curves of the two pair-minimum statistics, both over the four
local alternative families.  The rows have the columns and number format of
`exptests efficiency` (`slopes.efficiency_rows`).

Usage:
    python3 scripts/reproduce_efficiency_tables.py --out-dir results
"""

import argparse
import sys
import time
from pathlib import Path

from exptests.core import write_table
from exptests.families import LOCAL_FAMILIES
from exptests.slopes import EFFICIENCY_COLUMNS, efficiency, efficiency_rows
from exptests.statistics import (PLAIN_STATISTICS, TUNED_STATISTICS,
                                 StatisticId)

TUNING = (0.2, 0.5, 1.0, 2.0, 5.0, 10.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    battery = [StatisticId(name) for name in sorted(PLAIN_STATISTICS)]
    for name in sorted(TUNED_STATISTICS - {"MD", "LD"}):
        battery.extend(StatisticId(name, a) for a in TUNING)
    new_tests = [StatisticId(name, a) for name in ("MD", "LD")
                 for a in TUNING]

    t0 = time.time()
    for fname, stats in (("efficiency_battery.csv", battery),
                         ("efficiency_new_tests.csv", new_tests)):
        rows = []
        for stat in stats:
            rows += efficiency_rows(efficiency(stat, family)
                                    for family in LOCAL_FAMILIES)
            print(f"{stat.label():12s} done [{time.time() - t0:5.0f}s]",
                  flush=True)
        path = out_dir / fname
        write_table(path, EFFICIENCY_COLUMNS, rows)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
