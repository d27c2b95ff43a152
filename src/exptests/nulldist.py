"""Null calibration and asymptotic machinery for the Laplace-transform tests.

Contents:

* the exponential integral Ei (numeric.expi, numpy) and the degenerate
  second-projection kernel h2_tilde(u, v; a) of the pair-minimum
  V-statistic under Exp(1);
* the closed-form covariance K(s, t; a) of the limiting Gaussian process of
  the supremum statistic, and its maximal variance sup_t K(t, t);
* the pair-minimum projection phi1_tilde(x, t, a), whose Gram under Exp(1)
  is K(s, t; a);
* the largest eigenvalue delta1 of the operator with kernel h2_tilde on
  L2(Exp(1)).  As h2_tilde(u, v; a) = (2/3) int_0^inf e^{-at} phi(u, t)
  phi(v, t) dt with phi = phi1_tilde(., ., 0), delta1 is 2/3 of the top
  eigenvalue of a Gram G(s, t) of phi on L2(e^{-at} dt), taken on
  numeric.t_rule, the graded Gauss t-panels of every L2 slope.  The primary
  route (largest_eigenvalue_delta1) takes the Exp(1) Gram K(s, t; 0), which
  needs no Ei, through numeric.operator_eigenvalue, the one Nystrom ladder
  of every L2 lambda1 (it stops at 8 points per panel);
  gl_nystrom_delta1, its x-side check, takes h2_tilde itself on graded
  Gauss x-panels and agrees with it to about 1e-14; the grid route
  (grid_ladder_delta1) takes the midpoint Gram of the equal-width grid on
  which eigen_matrix discretizes any kernel, and converges only as its
  cell width squared.  Every top eigenvalue comes from
  numeric.largest_eigenvalue, the one Nystrom step;
* Monte Carlo calibration of critical values and p-values.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

from .core import (STREAM_PARSERS, RngStream, check_positive, check_tuning,
                   float_cell, optional_float, read_csv_rows, write_table)
from .errors import DomainError, NumericsError
from .numeric import (CACHE_BUDGET, expi, largest_eigenvalue, maximize_log_grid,
                      operator_eigenvalue, panel_gauss_nodes, t_rule)
from .statistics import StatisticId, evaluate, evaluate_many, ld_upper_bound


# ---------------------------------------------------------------------------
# Special functions and kernels
# ---------------------------------------------------------------------------

def expint_Ei(x):
    """Exponential integral Ei(x) (numeric.expi); poles at x = 0 are rejected."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr == 0.0):
        raise DomainError("Ei has a pole at x = 0")
    return expi(arr)


def _ei_of_sum(c, d):
    """Ei(c + d), with the rounding error of c + d corrected to first order.
    Ei(-a/2 - w) enters h2_tilde scaled by e^{a/2}, which amplifies the
    rounding of its argument (at a=10, to ~1e-13 of max|h2_tilde|); the error
    term of the sum (Knuth's TwoSum) removes it.
    """
    z = c + d
    cd = z - c
    dz = (c - (z - cd)) + (d - cd)
    return expi(z) + dz * np.exp(z) / z


def h2_tilde(u, v, a):
    """Second projection of the symmetrized pair-minimum kernel under Exp(1).

    Symmetric in (u, v); its first projection integrates to zero against
    Exp(1), which makes the V-statistic degenerate of order 2.

    Each Ei whose argument extends the argument x of an e^x factor is taken
    as _ei_of_sum(-x, ...), so the pair sees one rounded x; the e^{a/2} group
    is summed before it is scaled, because its terms cancel.  Near the
    origin at large a the O(1) terms still cancel to h2_tilde = O(1/a^3)
    (about 1e-12 relative at a = 10).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    e = np.exp
    w = u + v

    def ei_pair(x, d, c):
        # e^x (c Ei(-x - d) - Ei(-x))
        return e(x) * (c * _ei_of_sum(-x, -d) - expi(-x))

    group = ((a + 4) * expi(-a / 2) + (a + 4 + 2 * w) * _ei_of_sum(-a / 2, -w)
             - (4 + a + 2 * u) * _ei_of_sum(-a / 2, -u)
             - (4 + a + 2 * v) * _ei_of_sum(-a / 2, -v))
    return (1.0 / 6.0) * (
        3.0 + 1.0 / (a + w) - 2 * e(-u) / (a + 2 * u + v)
        - 2 * e(-v) / (a + u + 2 * v)
        - (4 - a) * e(a) * expi(-a)
        - ei_pair((a + v) / 2, u, 1.0) + ei_pair(a + u, u, 4.0)
        - ei_pair((a + u) / 2, v, 1.0) + ei_pair(a + v, v, 4.0)
        + e(-w) / (a + 2 * w) * (2 * a + 4 * (1 + w))
        - 2 * (e(-u) + e(-v))
        + e(a / 2) * group
    )


def min_pair_laplace(x, t):
    """E e^{-2 t min(x, X)} for X ~ Exp(1)."""
    q = 2.0 * t + 1.0
    return (-np.expm1(-q * x)) / q + np.exp(-q * x)


def phi1_tilde(x, t, a):
    """First projection of the pair-minimum process kernel under Exp(1),
    damped by e^{-at}: conditioning one argument of the symmetric kernel
    (e^{-tx} + e^{-ty})/2 - e^{-2t min(x,y)} on X1 = x and centering."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.exp(-a * t) * (0.5 * np.exp(-t * x) + 0.5 / (1.0 + t)
                             - min_pair_laplace(x, t))


def covariance_K(s, t, a):
    """Covariance of the limiting Gaussian process of the supremum statistic:
    K(s, t; a) = E phi1_tilde(X, s, a) phi1_tilde(X, t, a) under Exp(1), the
    Gram of the pair-minimum projection."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    num = s * t * (4 + 8 * s + 4 * s**2 + 8 * t + 15 * s * t
                   + 6 * s**2 * t + 4 * t**2 + 6 * s * t**2)
    den = (4 * (1 + s) * (1 + t) * (1 + s + t) * (2 + 2 * s + t)
           * (2 + s + 2 * t) * (3 + 2 * s + 2 * t))
    out = np.exp(-a * (s + t)) * num / den
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CovarianceHandle:
    a: float
    sup_variance: float
    argmax_t: float


def sup_variance(a: float) -> CovarianceHandle:
    """Maximize K(t, t; a) over t > 0 (grid scan + golden section)."""
    check_tuning(a)
    (val,), (argt,) = maximize_log_grid(lambda t, rows: covariance_K(t, t, a),
                                        1e-4, ld_upper_bound(a), tol=1e-10)
    return CovarianceHandle(a=a, sup_variance=float(val), argmax_t=float(argt))


# ---------------------------------------------------------------------------
# Eigenvalue approximation
# ---------------------------------------------------------------------------

@dataclass
class EigenApproximation:
    matrix: np.ndarray  # kernel values on the nodes
    mass: np.ndarray  # the nodes' quadrature masses


def _grid_cells(m: int, B: float) -> Tuple[np.ndarray, np.ndarray]:
    """Midpoints x_i = (i + 1/2)B/m, i = 0..m, of equal-width cells, and
    their masses p_i / (1 - e^{-B}) for the Exp(1) mass p_i of cell i."""
    if m < 100:
        raise DomainError("grid size m must be at least 100")
    if not (B > 0) or math.exp(-B) >= 1e-8:
        raise DomainError("truncation point B too small: need e^{-B} < 1e-8")
    i = np.arange(m + 1, dtype=float)
    h = B / m
    p = np.exp(-i * h) - np.exp(-(i + 1) * h)
    return (i + 0.5) * h, p / (-np.expm1(-B))


def eigen_matrix(a: float, m: int, B: float, kernel=h2_tilde) -> EigenApproximation:
    """Discretize the kernel operator on L2(Exp(1)) by the (m+1)x(m+1)
    matrix kernel(x_i, x_j; a) on the cell midpoints of _grid_cells (second
    order; left endpoints would be first), with their masses; the kernel is
    broadcast in blocks of CACHE_BUDGET // (m+1) rows, so that its
    temporaries stay cache-sized and only the matrix grows with m^2."""
    check_tuning(a)
    nodes, mass = _grid_cells(m, B)
    rows = max(1, CACHE_BUDGET // (m + 1))
    mat = np.empty((m + 1, m + 1))
    for r0 in range(0, m + 1, rows):
        mat[r0:r0 + rows] = kernel(nodes[r0:r0 + rows, None], nodes[None, :], a)
    return EigenApproximation(matrix=mat, mass=mass)


def matrix_largest_eigenvalue(approx: EigenApproximation) -> float:
    """Top eigenvalue of the discretized operator (numeric.largest_eigenvalue)."""
    return largest_eigenvalue(approx.matrix, approx.mass)


GRID_RUNGS = ((500, 25.0), (1000, 25.0), (2000, 30.0))  # (m, B) of the grid ladder


def _grid_delta1(a: float, m: int, B: float) -> float:
    """delta1 on the equal-width grid (m, B): 2/3 of the top eigenvalue of the
    Gram of phi under the masses of _grid_cells, on L2(e^{-at} dt) by the
    8-point t-rule, the rung where delta1's ladder stops; the top eigenvalue
    of eigen_matrix(a, m, B) to about 1e-13 relative."""
    check_tuning(a)
    x, p = _grid_cells(m, B)
    t, mass = t_rule("exp", a, 8)
    # sum_i p_i phi(x_i, s) phi(x_i, t) as phi^T phi, which is exactly symmetric
    phi = phi1_tilde(x[:, None], t, 0.0) * np.sqrt(p)[:, None]
    return 2.0 / 3.0 * largest_eigenvalue(phi.T @ phi, mass)


def grid_ladder_delta1(a: float) -> Tuple[float, list]:
    """delta1 by the equal-width grid route (_grid_delta1) over the
    GRID_RUNGS ladder, with Richardson extrapolation of the second-order
    midpoint error.  Returns (extrapolated delta1,
    [(m, B, delta1 of the rung), ...])."""
    trace = [(m, B, _grid_delta1(a, m, B)) for m, B in GRID_RUNGS]
    # eliminate the h^2 term using the two finest rungs
    (m1, B1, d1), (m2, B2, d2) = trace[-2:]
    h1, h2 = B1 / m1, B2 / m2
    return float(d2 + (d2 - d1) * (h2 * h2) / (h1 * h1 - h2 * h2)), trace


@dataclass(frozen=True)
class EigenDelta:
    a: float
    delta1: float
    trace: tuple  # ((n_nodes, estimate), ...)


def gl_nystrom_delta1(a: float, npts: int) -> float:
    """Nystrom delta1 from h2_tilde itself on L2(Exp(1)): npts Gauss-Legendre
    points on each panel of {0} u geomspace(1e-3, 45, 40), with masses
    w e^{-x}.  The x-side check of largest_eigenvalue_delta1: at npts = 8
    (320 nodes) it matches it to about 1e-14 for a in [0.2, 10]."""
    check_tuning(a)
    if npts < 1:
        raise DomainError(f"need at least 1 node per panel, got {npts}")
    x, w = panel_gauss_nodes(np.r_[0.0, np.geomspace(1e-3, 45.0, 40)], npts)
    return largest_eigenvalue(h2_tilde(x[:, None], x[None, :], a), w * np.exp(-x))


@lru_cache(maxsize=None)
def largest_eigenvalue_delta1(a: float) -> EigenDelta:
    """Largest eigenvalue delta1 of the h2_tilde operator on L2(Exp(1)):
    2/3 of the top eigenvalue of the Exp(1) Gram K(s, t; 0) on L2(e^{-at} dt)
    (lambda1/6 of slopes' MD), by numeric.operator_eigenvalue, the Nystrom
    ladder of every L2 lambda1; the trace records (node count, 2/3 of the
    estimate) per rung up to the first that agrees with the rung before it.
    When no rung does, its NumericsError carries the ladder's own trace.
    Results are cached per a; failures are not."""
    check_tuning(a)
    trace = tuple((n, 2.0 / 3.0 * est) for n, est in operator_eigenvalue(
        lambda t, npts: covariance_K(t[:, None], t, 0.0), "exp", a))
    return EigenDelta(a=float(a), delta1=trace[-1][1], trace=trace)


# ---------------------------------------------------------------------------
# Monte Carlo calibration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullCalibration:
    statistic: StatisticId
    n: int
    alphas: tuple
    critical_values: dict  # alpha -> threshold
    standard_errors: dict  # alpha -> binomial SE of the rejection frequency
    replicates: int
    seed: RngStream


_BLOCK_ROWS = 5000  # replicates per fixed Monte Carlo block


def _map_blocks(run, replicates: int, threads: int = 1) -> list:
    """[run(k, size) for each fixed block k of `replicates` rows], in block order.

    Each call makes and consumes its own block (from substream k), so at most
    one block per thread is alive at a time.  With threads > 1 the blocks run
    on a thread pool; the fixed layout keeps results independent of the
    thread count.
    """
    for name, count in (("threads", threads), ("replicates", replicates)):
        if count < 1:
            raise DomainError(f"{name} must be at least 1, got {count}")
    sizes = [min(_BLOCK_ROWS, replicates - k) for k in range(0, replicates, _BLOCK_ROWS)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, range(len(sizes)), sizes))
    return [run(k, size) for k, size in enumerate(sizes)]


def simulate_null_statistics(stat: StatisticId, n: int, replicates: int,
                             rng: RngStream, threads: int = 1) -> np.ndarray:
    """Simulate `replicates` values of the statistic under Exp(1).

    Replicates are split into fixed-size blocks with disjoint substreams, so
    the result is identical for any thread count.
    """
    def run(k, size):
        x = rng.substream(k).generator().standard_exponential((size, n))
        return evaluate_many(stat, x)

    return np.concatenate(_map_blocks(run, replicates, threads))


def check_calibration_inputs(n: int, alpha, replicates: int) -> tuple:
    """Validate a calibration request and return its alphas as floats."""
    if n < 2:
        raise DomainError("sample size must be at least 2")
    alphas = tuple(map(float, np.atleast_1d(np.asarray(alpha, dtype=float))))
    for al in alphas:
        if not (0.0 < al < 1.0):
            raise DomainError(f"alpha must lie in (0,1), got {al}")
    if replicates < 10_000:
        raise DomainError("calibration requires at least 10^4 replicates")
    return alphas


def null_critical_values(null_values: np.ndarray, alphas) -> Tuple[dict, dict]:
    """Upper critical values and their standard errors from simulated nulls.

    Quantiles are type-7, bit for bit np.quantile's default: at h = (B-1)q
    the order statistics a = X_(j), b = X_(j+1) with j = floor(h) and g = h - j
    give a + (b - a) g, or b - (b - a)(1 - g) when g >= 1/2, from one
    np.partition (np.quantile would import numpy.ma).  The standard error
    per alpha is the binomial SE sqrt(alpha(1-alpha)/B) of the rejection
    frequency at the threshold, B = len(null_values).  A NaN null value
    raises NumericsError.
    """
    values = np.asarray(null_values, dtype=float).reshape(-1)
    reps = values.size
    nan = np.count_nonzero(np.isnan(values))
    if nan:
        raise NumericsError(f"{nan} of {reps} null statistic values are NaN")
    h = {al: (reps - 1) * (1.0 - al) for al in alphas}
    order = np.partition(values, sorted({min(int(hk) + d, reps - 1)
                                         for hk in h.values() for d in (0, 1)}))
    crit = {}
    for al, hk in h.items():
        j = int(hk)  # floor(h) <= B - 1; j + 1 = B only where g = 0
        lo, hi = order[j], order[min(j + 1, reps - 1)]
        g, diff = hk - j, hi - lo
        crit[al] = float(hi - diff * (1.0 - g) if g >= 0.5 else lo + diff * g)
    ses = {al: float(math.sqrt(al * (1 - al) / reps)) for al in alphas}
    return crit, ses


def null_p_value(null_values: np.ndarray, value: float) -> float:
    """Monte Carlo p-value (1 + #{null >= value}) / (B + 1) of an observed
    statistic value."""
    return float((1 + np.count_nonzero(null_values >= value))
                 / (null_values.size + 1))


def calibrate_critical_value(stat: StatisticId, n: int, alpha=0.05,
                             replicates: int = 10_000,
                             rng: RngStream = RngStream(0),
                             threads: int = 1) -> NullCalibration:
    """Empirical upper critical values from a null Monte Carlo run
    (check_calibration_inputs, then null_critical_values)."""
    alphas = check_calibration_inputs(n, alpha, replicates)
    values = simulate_null_statistics(stat, n, replicates, rng, threads=threads)
    crit, ses = null_critical_values(values, alphas)
    return NullCalibration(statistic=stat, n=n, alphas=alphas,
                           critical_values=crit, standard_errors=ses,
                           replicates=replicates, seed=rng)


def p_value_mc(stat: StatisticId, raw, replicates: int = 10_000,
               rng: RngStream = RngStream(0), threads: int = 1) -> float:
    """Monte Carlo p-value of the sample (null_p_value on a fresh null run);
    the sample needs n >= 2, as calibration does, and is checked before the
    null run."""
    x = np.asarray(raw, dtype=float).reshape(-1)
    if x.size < 2:
        raise DomainError("sample size must be at least 2")
    check_positive(x)
    null_values = simulate_null_statistics(stat, x.size, replicates, rng,
                                           threads=threads)
    return null_p_value(null_values, evaluate(stat, x).value)


# ---------------------------------------------------------------------------
# Calibration tables
# ---------------------------------------------------------------------------

CALIBRATION_COLUMNS = ("statistic", "a", "n", "alpha", "critical_value",
                       "se", "replicates", "seed", "stream", "key")


def calibration_rows(cal: NullCalibration) -> list:
    """One row per alpha, keyed by CALIBRATION_COLUMNS.  The RngStream is
    written whole (RngStream.csv_fields)."""
    return [{"statistic": cal.statistic.name, "a": float_cell(cal.statistic.a),
             "n": cal.n, "alpha": float_cell(al),
             "critical_value": float_cell(cal.critical_values[al]),
             "se": float_cell(cal.standard_errors[al]),
             "replicates": cal.replicates, **cal.seed.csv_fields()}
            for al in cal.alphas]


def save_calibrations(path, calibrations: Sequence[NullCalibration]) -> None:
    write_table(path, CALIBRATION_COLUMNS,
                [row for cal in calibrations for row in calibration_rows(cal)])


def load_calibrations(path) -> list:
    """Read a calibration CSV; files without the stream and key columns load
    as stream 0 with an empty spawn key, files without another column, with
    a cell that does not parse or is out of range, or with a second row for
    the same calibration and alpha raise DomainError (read_csv_rows)."""
    out = {}
    parsers = {"statistic": str, "a": optional_float, "n": int, "alpha": float,
               "critical_value": float, "se": float, "replicates": int,
               **STREAM_PARSERS}

    def add(row):
        key = (StatisticId(row["statistic"], row["a"]), row["n"], row["replicates"],
               RngStream(row["seed"], row["stream"], row["key"]))
        rec = out.setdefault(key, {})
        if row["alpha"] in rec:
            raise DomainError(f"repeats alpha={row['alpha']!r} of {key[0].label()} n={key[1]}")
        rec[row["alpha"]] = (row["critical_value"], row["se"])

    read_csv_rows(path, parsers, add, optional=("stream", "key"))
    return [NullCalibration(statistic=stat, n=n, alphas=tuple(sorted(rec)),
                            critical_values={al: rec[al][0] for al in sorted(rec)},
                            standard_errors={al: rec[al][1] for al in sorted(rec)},
                            replicates=reps, seed=seed)
            for (stat, n, reps, seed), rec in out.items()]
