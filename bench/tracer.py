"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the exptests modules at their module
boundary: every module-level name bound to a traced function is rebound to a
wrapper that records a span (name, parent, start, end and a few attributes).
The package source is never edited.  Spans stay in memory; the worker turns
them into per-layer counters when its pass ends.

Self time: at each instant, wall time is shared equally by the innermost
open spans (open spans none of whose child spans is open).  A span's self
time is therefore its duration minus the part its children cover, and when
spans run in several threads at once the instant is split between them, so
the self times of all spans add up to the root span's wall time.
"""

import functools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs",
                 "mem_base", "mem_peak")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = None
        self.attrs = {}
        self.mem_base = self.mem_peak = 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = None
        self._mem_lock = threading.Lock()
        self._mem_open = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def wrap(self, name, fn, attrs=None, memory=False):
        """Return fn wrapped so that each call records a span.

        A call on a pool thread with no open span of its own is parented to
        the innermost span open on the main thread, which is the call that
        submitted the work (the package starts pools only from there).
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span = Span(name, parent)
            self.spans.append(span)
            stack.append(span)
            if memory:
                self._mem_enter(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if memory:
                    self._mem_exit(span)
                stack.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result
        return traced

    # tracemalloc runs only while a memory-watched span is open; each open
    # span keeps the highest traced total seen during its lifetime.
    def _fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1]
        for span in self._mem_open:
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()

    def _mem_enter(self, span):
        with self._mem_lock:
            if self._mem_open:
                self._fold_peak()
            else:
                tracemalloc.start()
            span.mem_base = span.mem_peak = tracemalloc.get_traced_memory()[0]
            self._mem_open.append(span)

    def _mem_exit(self, span):
        with self._mem_lock:
            self._fold_peak()
            self._mem_open.remove(span)
            if not self._mem_open:
                tracemalloc.stop()
        span.attrs["peak_mb"] = (span.mem_peak - span.mem_base) / 2**20


def self_times(spans):
    """Self time of every span, by the equal-share rule in the module doc."""
    depth = {}
    for span in spans:
        chain, node = [], span
        while node is not None and node not in depth:
            chain.append(node)
            node = node.parent
        d = depth[node] if node is not None else -1
        for node in reversed(chain):
            d += 1
            depth[node] = d
    # at equal times: ends before starts, parents open before their children
    # and close after them
    events = []
    for span in spans:
        events.append((span.start, 1, depth[span], span))
        events.append((span.end, 0, -depth[span], span))
    events.sort(key=lambda e: e[:3])
    open_children = defaultdict(int)
    is_open = set()
    leaves = set()
    self_t = dict.fromkeys(spans, 0.0)
    last = events[0][0] if events else 0.0
    for t, starting, _, span in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_t[leaf] += share
        last = t
        parent = span.parent
        if starting:
            is_open.add(span)
            leaves.add(span)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(span)
            leaves.discard(span)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return self_t


def _stat_kind(stat):
    return stat.name if stat.name in ("MD", "LD") else "battery"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _family_attrs(args, kwargs, result):
    family = args[0]
    return {"family": family if isinstance(family, str) else family.id,
            "variates": int(result.size)}


def _evaluate_many_attrs(args, kwargs, result):
    return {"kind": _stat_kind(args[0]), "rows": int(result.shape[0])}


def _simulate_attrs(args, kwargs, result):
    return {"replicates": int(_arg(args, kwargs, 2, "replicates")),
            "threads": max(1, int(_arg(args, kwargs, 4, "threads", 1) or 1))}


def _points_attrs(args, kwargs, result):
    return {"points": int(getattr(result, "size", 1))}


# module -> {public function: (attribute extractor, watch memory)}
TRACED = {
    "families": {"sample_alternative": (_family_attrs, False)},
    "statistics": {"evaluate_many": (_evaluate_many_attrs, True),
                   "evaluate": (None, False)},
    "nulldist": {"simulate_null_statistics": (_simulate_attrs, False),
                 "calibrate_critical_value": (None, False),
                 "p_value_mc": (None, False),
                 "h2_tilde": (_points_attrs, False),
                 "largest_eigenvalue_delta1": (None, False),
                 "gl_nystrom_delta1": (None, False),
                 "grid_ladder_delta1": (None, False),
                 "eigen_matrix": (None, False),
                 "matrix_largest_eigenvalue": (None, False)},
    "powersim": {"estimate_power": (None, True)},
    "slopes": {"efficiency": (None, False),
               "lrt_local_coefficient": (None, False),
               "slope_MD": (None, False),
               "slope_LD": (None, False),
               "slope_L2_family": (None, False),
               "slope_KS": (None, False),
               "slope_J_family": (None, False),
               "slope_normal_family": (None, False)},
    "numeric": {"maximize_log_grid": (None, False)},
    "cli": {"run_command": (None, False)},
}


def install(tracer, memory=False):
    """Rebind every exptests module attribute that refers to a traced function.

    With memory=True only the memory-watched functions are wrapped, and
    tracemalloc runs inside them; it slows Python-level allocation several
    fold, so peak memory comes from a pass of its own and timings from a
    pass without it.  Modules that are not imported yet are skipped, so the
    CLI layer is traced only in processes that import exptests.cli.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "exptests" or name.startswith("exptests."))]
    for short, functions in TRACED.items():
        module = sys.modules.get(f"exptests.{short}")
        if module is None:
            continue
        for fname, (attrs, watched) in functions.items():
            if memory and not watched:
                continue
            original = getattr(module, fname)
            wrapped = tracer.wrap(f"{short}.{fname}", original, attrs, memory)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


# span name -> per-layer counter that receives the span's self time
SELF_TIME_COUNTER = {
    "families.sample_alternative": "families.sample_s",
    "nulldist.simulate_null_statistics": "nulldist.simulate_null_s",
    "nulldist.h2_tilde": "nulldist.h2_tilde_s",
    "nulldist.largest_eigenvalue_delta1": "nulldist.delta1_s",
    "nulldist.gl_nystrom_delta1": "nulldist.delta1_s",
    "nulldist.grid_ladder_delta1": "nulldist.grid_ladder_s",
    "nulldist.eigen_matrix": "nulldist.grid_ladder_s",
    "nulldist.matrix_largest_eigenvalue": "nulldist.grid_ladder_s",
    "powersim.estimate_power": "powersim.estimate_power_s",
    "slopes.slope_MD": "slopes.slope_s.MD",
    "slopes.slope_LD": "slopes.slope_s.LD",
    "slopes.slope_L2_family": "slopes.slope_s.L2",
    "slopes.slope_KS": "slopes.slope_s.KS",
    "slopes.slope_J_family": "slopes.slope_s.J",
    "slopes.slope_normal_family": "slopes.slope_s.normal",
    "slopes.lrt_local_coefficient": "slopes.lrt_s",
    "numeric.maximize_log_grid": "numeric.maximize_s",
}


def counters(spans):
    """Per-layer sums over finished spans: the raw inputs of the metrics."""
    self_t = self_times(spans)
    out = defaultdict(float)
    for span in spans:
        st = self_t[span]
        out["trace.self_s"] += st
        name, attrs, parent = span.name, span.attrs, span.parent
        if parent is None:
            out["trace.root_s"] += span.end - span.start
        if name in SELF_TIME_COUNTER:
            out[SELF_TIME_COUNTER[name]] += st
        if name == "families.sample_alternative":
            out["families.variates"] += attrs["variates"]
            if attrs["family"] == "emnw":
                out["families.sample_s.emnw"] += st
        elif name == "statistics.evaluate_many":
            kind = attrs["kind"]
            out[f"statistics.evaluate_many_s.{kind}"] += st
            out[f"statistics.rows.{kind}"] += attrs["rows"]
            out["statistics.evaluate_many_peak_mb"] = max(
                out["statistics.evaluate_many_peak_mb"], attrs.get("peak_mb", 0))
            if parent is not None and parent.name == "nulldist.simulate_null_statistics":
                out["nulldist.evaluate_busy_s"] += span.end - span.start
        elif name == "statistics.evaluate":
            if parent is not None and parent.name == "statistics.evaluate_many":
                out["statistics.evaluate_row_calls"] += 1
                out[f"statistics.evaluate_many_s.{parent.attrs['kind']}"] += st
        elif name == "nulldist.simulate_null_statistics":
            out["nulldist.null_rows"] += attrs["replicates"]
            out["nulldist.pool_capacity_s"] += attrs["threads"] * (span.end - span.start)
        elif name == "nulldist.h2_tilde":
            out["nulldist.h2_tilde_points"] += attrs["points"]
        elif name == "powersim.estimate_power":
            out["powersim.peak_mb"] = max(out["powersim.peak_mb"], attrs.get("peak_mb", 0))
        elif name == "slopes.efficiency":
            out["slopes.efficiencies"] += 1
        elif name == "numeric.maximize_log_grid":
            out["numeric.maximize_calls"] += 1
        elif name == "cli.run_command":
            out["cli.command_s"] += span.end - span.start
    return dict(out)
