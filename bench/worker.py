"""One benchmark process: a fresh interpreter that imports exptests, runs one
pass of a task and writes a JSON report.

    python3 bench/worker.py REPORT probe
    python3 bench/worker.py REPORT power-table --seed N [--threads T] [--trace MODE]
    python3 bench/worker.py REPORT efficiency-tables [--trace MODE]
    python3 bench/worker.py REPORT cli [--trace MODE] -- test --stat MD ...

MODE is off (default), spans (record spans, see tracer.py) or memory
(tracemalloc peaks of the memory-watched calls only).

The `cli` task is what the `exptests` console script does
(`sys.exit(exptests.cli.main())`), with the report written on the way out;
the command's CSV goes to standard output.  The report carries the monotonic
time at which `import exptests` finished, so the harness can time set-up from
the moment it started the process.
"""

import time

import exptests

READY = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def power_table(seed, threads):
    from exptests import RngStream, StatisticId, calibrate_critical_value, estimate_power
    results = []
    stream = 0
    for name, a, n, cells in wl.POWER_TABLE:
        stat = StatisticId(name, a)
        cal = calibrate_critical_value(stat, n, wl.ALPHA, wl.POWER_CAL_REPLICATES,
                                       RngStream(seed, stream=stream), threads=threads)
        stream += 1
        results.append({"op": "critical_value", "key": wl.key(name, a, n),
                        "value": cal.critical_values[wl.ALPHA],
                        "replicates": cal.replicates})
        for family, theta in cells:
            cell = estimate_power(stat, family, theta, n, wl.ALPHA,
                                  wl.POWER_CELL_REPLICATES,
                                  RngStream(seed, stream=stream), cal, threads=threads)
            stream += 1
            results.append({"op": "power", "key": wl.key(name, a, n, family, theta),
                            "null_key": wl.key(name, a, n),
                            "critical_value": cal.critical_values[wl.ALPHA],
                            "value": cell.power, "replicates": cell.replicates})
    return results


def efficiency_tables():
    from exptests import StatisticId, efficiency, largest_eigenvalue_delta1
    from exptests.nulldist import grid_ladder_delta1
    results = []
    for name, a in wl.efficiency_statistics():
        stat = StatisticId(name, a)
        for family in wl.LOCAL_FAMILIES:
            rep = efficiency(stat, family)
            results.append({"op": "efficiency", "key": wl.key(name, a, family),
                            "value": rep.efficiency})
    a = wl.EIGEN_A
    primary = largest_eigenvalue_delta1(a)
    for nodes, est in primary.trace:
        results.append({"op": "delta1", "key": wl.key("nystrom", a, nodes), "value": est})
    results.append({"op": "delta1", "key": wl.key("final", a), "value": primary.delta1})
    extrapolated, trace = grid_ladder_delta1(a)
    for m, B, est in trace:
        results.append({"op": "delta1", "key": wl.key("grid", a, m, B), "value": est})
    results.append({"op": "delta1", "key": wl.key("grid-extrapolated", a),
                    "value": extrapolated})
    return results


def cli_command(argv):
    from exptests import cli
    return {"exit_code": cli.run_command(argv)}


def blas_info():
    """BLAS libraries loaded by numpy/scipy and the thread count each reports."""
    import numpy as np
    libs = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            name = path.rsplit("/", 1)[-1]
            if name.startswith("lib") and "blas" in name.lower() and ".so" in name:
                libs[path] = None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                libs[path] = getattr(lib, symbol)()
                break
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy_blas": f"{config.get('name')} {config.get('version')}",
            "libraries": {p.rsplit("/", 1)[-1]: t for p, t in libs.items()}}


def metadata():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "exptests": exptests.__version__,
            "blas": blas_info()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("report")
    ap.add_argument("task", choices=("probe", "power-table", "efficiency-tables", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--trace", choices=("off", "spans", "memory"), default="off")
    argv, cli_argv = sys.argv[1:], []
    if "--" in argv:
        cut = argv.index("--")
        argv, cli_argv = argv[:cut], argv[cut + 1:]
    args = ap.parse_args(argv)

    report = {"ready": READY, "exptests_file": exptests.__file__, "error": None}
    tracer = None
    if args.task == "cli":
        importlib.import_module("exptests.cli")  # its bindings are traced too
    if args.trace != "off":
        tracer = tracing.Tracer()
        tracing.install(tracer, memory=args.trace == "memory")
    task = {"probe": metadata,
            "power-table": lambda: power_table(args.seed, args.threads),
            "efficiency-tables": efficiency_tables,
            "cli": lambda: cli_command(cli_argv)}[args.task]
    if tracer is not None and args.task != "cli":
        # cli.run_command is itself traced and is the root span there
        task = tracer.wrap("bench.pass", task)
    t0 = time.perf_counter()
    try:
        report["output"] = task()
    except Exception:
        report["error"] = traceback.format_exc()
    report["wall_s"] = time.perf_counter() - t0
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None and report["error"] is None:
        report["counters"] = tracing.counters(tracer.spans)
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    if report["error"] is not None:
        sys.stderr.write(report["error"])
        return 1
    return report["output"].get("exit_code", 0) if args.task == "cli" else 0


if __name__ == "__main__":
    sys.exit(main())
