"""Fixed task lists of the benchmark workloads.

Shared by the harness, the worker and the reference generator.  Nothing here
imports exptests, so the harness can read the task lists without paying for
the package import.
"""

ALPHA = 0.05

# power-table: calibrate each statistic, then estimate power on its cells.
# (statistic, a, n, ((family, theta), ...))
POWER_TABLE = (
    ("MD", 1.0, 50, (("weibull", 0.4), ("emnw", 0.5), ("uniform", None),
                     ("lognormal", 0.8))),
    ("LD", 1.0, 20, (("weibull", 0.4), ("emnw", 0.5))),
)
POWER_CAL_REPLICATES = 10_000
POWER_CELL_REPLICATES = 10_000
POWER_THREADS = 1

# cli-test: one `exptests test` process per statistic on one data file.
CLI_STATISTICS = (("MD", 1.0), ("LD", 1.0), ("AD", None), ("HM1", 1.0))
CLI_N = 50
CLI_REPLICATES = 10_000
CLI_THREADS = 2  # capped at the number of usable cores

# efficiency-tables: every statistic against every local family, tuned
# statistics at each tuning parameter, then the delta1 calls of
# `exptests eigen --a 1`.
EFFICIENCY_PLAIN = ("AD", "CO", "CVM", "EP", "GINI", "KS", "MO")
EFFICIENCY_TUNED = ("BH", "HE", "HM1", "HM2", "JD", "JP", "LD", "MD", "MP", "W")
EFFICIENCY_TUNING = (0.5, 2.0)
LOCAL_FAMILIES = ("weibull", "gamma", "lfr", "emnw")
EIGEN_A = 1.0

WORKLOADS = ("power-table", "cli-test", "efficiency-tables")


def efficiency_statistics():
    return ([(name, None) for name in EFFICIENCY_PLAIN]
            + [(name, a) for name in EFFICIENCY_TUNED for a in EFFICIENCY_TUNING])


def key(*parts):
    """Reference-table key such as 'MD:1:50' or 'AD::weibull'."""
    return ":".join("" if p is None else f"{p:g}" if isinstance(p, float) else str(p)
                    for p in parts)


def requested_rows(workload):
    """(Monte Carlo statistic rows, null rows) that one pass asks for."""
    if workload == "power-table":
        cal = POWER_CAL_REPLICATES * len(POWER_TABLE)
        cells = POWER_CELL_REPLICATES * sum(len(c) for *_, c in POWER_TABLE)
        return cal + cells, cal
    if workload == "cli-test":
        rows = CLI_REPLICATES * len(CLI_STATISTICS)
        return rows, rows
    return 0, 0
