#!/usr/bin/env python3
"""Record the reference values that bench/checks.py compares against.

    PYTHONPATH=src python3 bench/make_reference.py

Writes bench/reference.json from the package as it stands:

* quantile tables (probabilities 0, 0.001, ..., 1) of every Monte Carlo
  statistic the workloads compute, under Exp(1) and under each power-table
  alternative, from REPLICATES draws on streams that no workload uses;
* the efficiencies and delta1 values of the efficiency-tables workload.

Run it again only when a change is meant to move these values, and say so
in the change.  Takes about five minutes on two cores.
"""

import json
import sys
from pathlib import Path

import numpy as np

from exptests import (RngStream, StatisticId, efficiency, evaluate_many,
                      largest_eigenvalue_delta1, sample_alternative)
from exptests.nulldist import grid_ladder_delta1, simulate_null_statistics

import workloads as wl

REPLICATES = 200_000
SEED = 7_340_033  # no workload uses this seed's streams for reference draws
BLOCK = 10_000
PROBS = np.linspace(0.0, 1.0, 1001)


def table(values):
    return [float(f"{q:.10g}") for q in np.quantile(values, PROBS)]


def alternative_values(stat, family, theta, n, rng):
    parts = []
    for k in range(REPLICATES // BLOCK):
        x = sample_alternative(family, theta, (BLOCK, n), rng.substream(k))
        parts.append(evaluate_many(stat, x))
    return np.concatenate(parts)


def main():
    quantiles = {}
    stream = 0

    def null_table(name, a, n):
        nonlocal stream
        key = wl.key(name, a, n)
        if key not in quantiles:
            values = simulate_null_statistics(StatisticId(name, a), n, REPLICATES,
                                              RngStream(SEED, stream=stream), threads=2)
            quantiles[key] = table(values)
            stream += 1
            print(f"null {key}", flush=True)

    for name, a, n, cells in wl.POWER_TABLE:
        null_table(name, a, n)
        for family, theta in cells:
            key = wl.key(name, a, n, family, theta)
            values = alternative_values(StatisticId(name, a), family, theta, n,
                                        RngStream(SEED, stream=stream))
            quantiles[key] = table(values)
            stream += 1
            print(f"alternative {key}", flush=True)
    for name, a in wl.CLI_STATISTICS:
        null_table(name, a, wl.CLI_N)

    eff = {}
    for name, a in wl.efficiency_statistics():
        for family in wl.LOCAL_FAMILIES:
            eff[wl.key(name, a, family)] = efficiency(StatisticId(name, a), family).efficiency
    a = wl.EIGEN_A
    delta1 = {"final": largest_eigenvalue_delta1(a).delta1}
    for m, B, est in grid_ladder_delta1(a)[1]:
        delta1[wl.key("grid", a, m, B)] = est

    out = Path(__file__).resolve().parent / "reference.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"replicates": REPLICATES, "seed": SEED, "quantiles": quantiles,
                   "efficiency": eff, "delta1": delta1}, fh, indent=0)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
