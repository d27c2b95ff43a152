#!/usr/bin/env python3
"""Benchmark harness for the exptests package.

    python3 bench/run.py --workload power-table --seed 7 --seconds 40 --trace 0

Runs one workload (power-table, cli-test or efficiency-tables; see
bench/README.md) against the package in src/, repeating passes over the
workload's fixed task list for about --seconds seconds.  Every pass runs in
fresh interpreters (bench/worker.py) with one BLAS thread and an explicit
thread count no larger than the number of usable cores.  Every output is
checked (bench/checks.py).

With --trace 0 the end-to-end metrics are measured; with --trace 1 each round
runs one untraced pass, one pass with spans recorded at the module
boundaries and, for the Monte Carlo workloads, one pass with tracemalloc
peaks, and the per-layer metrics are reported.  A summary with metadata goes
to standard output, followed by one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exits with code 2 and prints no result when the package source or the
reference file is missing.
"""

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
BLAS_THREADS = 1
SETUP_PROBES = 5
MIN_PASSES = 2  # untraced runs time at least two passes, even past --seconds
HARD_LIMIT_S = 170.0  # every run ends inside the 180 s a run is allowed

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# name -> unit; counters from tracer.counters() unless derived below
PER_LAYER = {
    "families.sample_s": "s",
    "families.sample_s.emnw": "s",
    "families.variates": "count",
    "statistics.evaluate_many_s.MD": "s",
    "statistics.evaluate_many_s.LD": "s",
    "statistics.evaluate_many_s.battery": "s",
    "statistics.rows.MD": "count",
    "statistics.rows.LD": "count",
    "statistics.rows.battery": "count",
    "statistics.evaluate_many_peak_mb": "MiB",
    "statistics.evaluate_row_calls": "count",
    "nulldist.simulate_null_s": "s",
    "nulldist.null_rows_per_requested": "ratio",
    "nulldist.thread_utilization": "ratio",
    "powersim.estimate_power_s": "s",
    "powersim.peak_mb": "MiB",
    "nulldist.h2_tilde_s": "s",
    "nulldist.h2_tilde_points": "count",
    "nulldist.delta1_s": "s",
    "nulldist.grid_ladder_s": "s",
    "slopes.slope_s.MD": "s",
    "slopes.slope_s.LD": "s",
    "slopes.slope_s.L2": "s",
    "slopes.slope_s.KS": "s",
    "slopes.slope_s.J": "s",
    "slopes.slope_s.normal": "s",
    "slopes.lrt_s": "s",
    "slopes.efficiencies": "count",
    "numeric.maximize_s": "s",
    "numeric.maximize_calls": "count",
    "cli.command_s": "s",
    "trace.overhead_s": "s",
}
MEMORY_METRICS = ("statistics.evaluate_many_peak_mb", "powersim.peak_mb")


class Pass:
    """One pass over a workload's task list."""

    def __init__(self, wall, ops, counters=None):
        self.wall = wall  # the workload's wall_s for this pass; None if it failed
        self.ops = ops  # [(label, ok, detail)]
        self.counters = counters


class Session:
    """Starts worker processes and keeps their set-up times and peak RSS."""

    def __init__(self, work, start):
        self.work = work
        self.start = start
        self.count = 0
        self.setup = []
        self.rss = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.env.pop("EXPTESTS_THREADS", None)

    def worker(self, task, *args, cli_argv=()):
        """Run one worker; returns (report, stdout, exit code)."""
        self.count += 1
        report_path = self.work / f"report-{self.count}.json"
        cmd = [sys.executable, str(WORKER), str(report_path), task, *args]
        if cli_argv:
            cmd += ["--", *cli_argv]
        began = time.monotonic()
        timeout = max(1.0, HARD_LIMIT_S - (began - self.start))
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"error": f"{task} timed out after {timeout:.0f} s"}, "", None
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text(encoding="utf-8"))
        if not report:
            report = {"error": proc.stderr.strip() or f"{task} wrote no report"}
        if "ready" in report:
            self.setup.append(report["ready"] - began)
            self.rss.append(report["maxrss_mb"])
            expected = ROOT / "src" / "exptests" / "__init__.py"
            if Path(report["exptests_file"]).resolve() != expected.resolve():
                raise SystemExit(f"error: worker imported {report['exptests_file']}, "
                                 f"not {expected}")
        return report, proc.stdout, proc.returncode


def _failed(labels, why):
    return [(label, False, why) for label in labels]


def power_labels():
    labels = []
    for name, a, n, cells in wl.POWER_TABLE:
        labels.append(f"critical_value {wl.key(name, a, n)}")
        labels += [f"power {wl.key(name, a, n, f, t)}" for f, t in cells]
    return labels


def efficiency_labels():
    labels = [f"efficiency {wl.key(name, a, family)}"
              for name, a in wl.efficiency_statistics() for family in wl.LOCAL_FAMILIES]
    # the Nystrom rungs, the final delta1, the grid rungs, the grid extrapolation
    return labels + ["delta1"] * 8


def power_pass(ctx, trace):
    report, _, _ = ctx.session.worker("power-table", "--seed", str(ctx.seed),
                                      "--threads", str(ctx.threads), "--trace", trace)
    labels = power_labels()
    if report.get("error"):
        return Pass(None, _failed(labels, report["error"]))
    ops = []
    for out in report["output"]:
        label = f"{out['op']} {out['key']}"
        if out["op"] == "critical_value":
            ok, why = ctx.ref.monte_carlo(out["key"], out["value"], wl.ALPHA,
                                          out["replicates"])
        else:
            ok, why = ctx.ref.monte_carlo(out["key"], out["critical_value"], out["value"],
                                          out["replicates"])
        ops.append((label, ok, why))
    ops += _failed(labels[len(ops):], "missing output")
    return Pass(report["wall_s"], ops, report.get("counters"))


def efficiency_pass(ctx, trace):
    report, _, _ = ctx.session.worker("efficiency-tables", "--trace", trace)
    labels = efficiency_labels()
    if report.get("error"):
        return Pass(None, _failed(labels, report["error"]))
    ops = []
    for out in report["output"]:
        if out["op"] == "efficiency":
            ok, why = ctx.ref.efficiency_value(out["key"], out["key"].split(":")[0],
                                               out["value"])
        else:
            ok, why = ctx.ref.delta1_value(out["key"], out["value"])
        ops.append((f"{out['op']} {out['key']}", ok, why))
    ops += _failed(labels[len(ops):], "missing output")
    return Pass(report["wall_s"], ops, report.get("counters"))


def _check_test_row(ctx, name, a, stdout):
    row = next(csv.DictReader(io.StringIO(stdout)))
    table = wl.key(name, a, wl.CLI_N)
    replicates = int(row["replicates"])
    value = float(row["value"])
    results = [checks.statistic_value(name, a, ctx.sample, value),
               ctx.ref.monte_carlo(table, float(row["critical_value"]), wl.ALPHA,
                                   replicates),
               ctx.ref.monte_carlo(table, value, float(row["p_value"]), replicates)]
    if replicates != wl.CLI_REPLICATES or int(row["n"]) != wl.CLI_N:
        results.append((False, "wrong replicates or n echoed"))
    return all(ok for ok, _ in results), "; ".join(why for _, why in results)


def cli_pass(ctx, trace):
    began = time.monotonic()
    runs = []
    for name, a in wl.CLI_STATISTICS:
        argv = ["test", "--stat", name]
        if a is not None:
            argv += ["--a", f"{a:g}"]
        argv += ["--input", str(ctx.data_file), "--seed", str(ctx.seed),
                 "--replicates", str(wl.CLI_REPLICATES), "--threads", str(ctx.threads)]
        runs.append((name, a, *ctx.session.worker("cli", "--trace", trace, cli_argv=argv)))
    wall = time.monotonic() - began
    ops, counters = [], {}
    for name, a, report, stdout, code in runs:
        label = f"test {wl.key(name, a)}"
        if code != 0 or report.get("error"):
            ops.append((label, False, f"exit code {code}: {report.get('error')}"))
            continue
        try:
            ok, why = _check_test_row(ctx, name, a, stdout)
        except (StopIteration, KeyError, ValueError) as exc:
            ok, why = False, f"unreadable output: {exc!r}"
        ops.append((label, ok, why))
        for k, v in (report.get("counters") or {}).items():
            if k.endswith("peak_mb"):
                counters[k] = max(counters.get(k, 0.0), v)
            else:
                counters[k] = counters.get(k, 0.0) + v
    return Pass(wall, ops, counters if trace != "off" else None)


PASSES = {"power-table": power_pass, "cli-test": cli_pass,
          "efficiency-tables": efficiency_pass}
MONTE_CARLO = {"power-table", "cli-test"}


class Context:
    def __init__(self, workload, seed, session, ref, threads, work):
        self.workload = workload
        self.seed = seed
        self.session = session
        self.ref = ref
        self.threads = threads
        self.data_file = self.sample = None
        if workload == "cli-test":
            # the data a practitioner would test: n lifetimes, exponential
            # with an arbitrary scale, drawn from the workload seed
            self.sample = np.random.default_rng(seed).exponential(2.5, size=wl.CLI_N)
            self.data_file = work / "sample.txt"
            self.data_file.write_text("".join(f"{v!r}\n" for v in self.sample.tolist()),
                                      encoding="utf-8")


def layer_metrics(ctx, untraced, spans, memory):
    c = dict(spans.counters or {})
    if memory is not None:
        for k in MEMORY_METRICS:
            c[k] = (memory.counters or {}).get(k, 0.0)
    _, requested_null = wl.requested_rows(ctx.workload)
    capacity = c.get("nulldist.pool_capacity_s", 0.0)
    c["nulldist.null_rows_per_requested"] = (
        c.get("nulldist.null_rows", 0.0) / requested_null if requested_null else 0.0)
    c["nulldist.thread_utilization"] = (
        c.get("nulldist.evaluate_busy_s", 0.0) / capacity if capacity else 0.0)
    c["trace.overhead_s"] = spans.wall - untraced.wall
    return {name: float(c.get(name, 0.0)) for name in PER_LAYER}


def coverage_ok(p):
    c = p.counters or {}
    root = c.get("trace.root_s", 0.0)
    return root > 0 and abs(c.get("trace.self_s", 0.0) - root) <= 1e-6 * root


def run(args, work):
    start = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    # the thread count handed to the package; efficiency-tables takes none
    threads = {"power-table": wl.POWER_THREADS, "cli-test": wl.CLI_THREADS}.get(args.workload)
    if threads is not None:
        threads = min(threads, nproc)
    session = Session(work, start)
    ctx = Context(args.workload, args.seed, session, checks.Reference(BENCH / "reference.json"),
                  threads, work)
    probe, _, _ = session.worker("probe")
    if probe.get("error"):
        raise SystemExit(f"error: probe failed: {probe['error']}")
    for _ in range(SETUP_PROBES - 1 if args.trace == 0 else 0):
        session.worker("probe")
    one_pass = PASSES[args.workload]

    rounds, ops = [], []
    while True:
        began = time.monotonic()
        if args.trace == 0:
            passes = [one_pass(ctx, "off")]
        else:
            passes = [one_pass(ctx, "off"), one_pass(ctx, "spans")]
            if args.workload in MONTE_CARLO:
                passes.append(one_pass(ctx, "memory"))
        rounds.append(passes)
        for p in passes:
            ops += p.ops
        took = time.monotonic() - began
        elapsed = time.monotonic() - start
        failed_pass = any(p.wall is None for p in passes)
        enough = len(rounds) >= (MIN_PASSES if args.trace == 0 else 1)
        if failed_pass or elapsed + took > HARD_LIMIT_S or (
                enough and elapsed + took > args.seconds):
            break

    failed = sum(1 for _, ok, _ in ops if not ok)
    attempted = len(ops)
    correct = failed == 0
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "rounds": len(rounds), "nproc": nproc, "threads": threads,
               "blas_threads_pinned": BLAS_THREADS, "git_commit": git_commit(),
               **probe["output"]}
    lines, metrics, units = [], {}, {}
    measured = all(p.wall is not None for r in rounds for p in r)
    if measured and args.trace == 0:
        walls = [r[0].wall for r in rounds]
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(session.setup),
                   "peak_rss_mb": max(session.rss)}
        units = END_TO_END
        mc_rows, _ = wl.requested_rows(args.workload)
        lines.append(f"wall_s            {metrics['wall_s']:.4f} s  "
                     f"(median of {len(walls)} passes: {', '.join(f'{w:.3f}' for w in walls)})")
        lines.append(f"setup_s           {metrics['setup_s']:.4f} s  "
                     f"(median of {len(session.setup)} processes)")
        if mc_rows:
            lines.append(f"mc_rows_per_s     {mc_rows / metrics['wall_s']:.1f} rows/s  "
                         f"({mc_rows} rows requested per pass)")
        lines.append(f"peak_rss_mb       {metrics['peak_rss_mb']:.1f} MiB")
    elif measured:
        per_round = [layer_metrics(ctx, r[0], r[1], r[2] if len(r) > 2 else None)
                     for r in rounds]
        metrics = {k: statistics.median(m[k] for m in per_round) for k in PER_LAYER}
        units = PER_LAYER
        covered = all(coverage_ok(r[1]) for r in rounds)
        correct = correct and covered
        lines.append(f"untraced wall_s   {statistics.median(r[0].wall for r in rounds):.4f} s")
        lines.append(f"traced wall_s     {statistics.median(r[1].wall for r in rounds):.4f} s")
        lines.append("span self times add up to the traced wall time: "
                     + ("yes" if covered else "NO"))
        for k in PER_LAYER:
            lines.append(f"{k:36s} {metrics[k]:.6g} {PER_LAYER[k]}")
    lines.append(f"ops_failed_ratio  {failed / max(attempted, 1):.4g}  "
                 f"({failed} of {attempted} operations failed)")
    for label, ok, why in ops:
        if not ok:
            lines.append(f"FAILED {label}: {why}")
    print(f"bench {args.workload}")
    for line in lines:
        print("  " + line)
    print("meta " + json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description="exptests benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    for needed in (ROOT / "src" / "exptests" / "__init__.py", BENCH / "reference.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a checkout of the "
                  "exptests repository", file=sys.stderr)
            return 2
    work = BENCH / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
