"""Test statistics for exponentiality on the scaled sample.

Two groups live here:

* the pair-minimum Laplace-transform statistics MD (weighted L2 distance)
  and LD (weighted supremum distance) built on the characterization that
  X and 2 min(X1, X2) are equidistributed iff X is exponential;
* a battery of classical and Laplace-transform competitors (EP, CO, GINI,
  MO, KS, CVM, AD, BH, HE, W, HM1, HM2, MP, JP, JD) used for power and
  efficiency comparisons (Henze & Meintanis 2005, Metrika 61).

Every statistic is scale-free: it is computed from Y_i = X_i / mean(X).
Each one has a single batched kernel in the `_KERNELS` table, mapping the
scaled rows y (r, n), their ascending sort z and the tuning parameter a to
the r statistic values.  `evaluate_many` feeds it row chunks under an
element budget and `evaluate` is its one-row case.  Integral-type statistics
use closed forms, O(n^2) pair sums, sorted-sample formulas or one
double-exponential t-rule, numeric.laplace_t_rule, applied by one helper
(_laplace_l2) to an O(n)-per-node transform: MD and MP have transform bodies
of their own, BH, HE and W take the sample mean of one projection f(x, t, a)
each, which the slopes take too.  MD, BH, HE and W fill the transform's
column k from one contiguous (n, rows) pass of the sorted rows at the node
t_k; MP keeps its recursion over the sorted points, vectorised over the
nodes.  LD takes both transforms, and the t-derivatives of its Newton
refine, from one expm1 per sorted point, and scans its grid one point per
(n, rows) pass.  Every sum over n runs down the columns of such a pass, in
the same order for every row.  HM1's kernel is written in reciprocals of
a^2 + (u -+ v)^2 so that no two nearly equal terms are subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .core import ScaledSample, check_positive, check_tuning, min_pair_weights
from .errors import DomainError
from .numeric import laplace_t_rule, newton_maximize_log_grid

EULER_GAMMA = float(np.euler_gamma)

# elements (512 KiB) per temporary of a CACHE_SIZED kernel's evaluate_many
# chunk (the (n, rows) pass at one t-node of MD, BH, HE and W, the two of
# LD's scan at one grid point, E = expm1(-tz) and E (E + 2), MP's
# (rows, nodes) arrays or the (rows, n, n) pair arrays), so that they stay in
# a per-core L2.  At ELEMENT_BUDGET (8 MB) the allocator returned each freed
# temporary to the OS and every chunk paid its page faults again.  MD and JP
# update one temporary in place; HM1's kernel keeps three.
CACHE_BUDGET = 65_536
# elements per evaluate_many chunk of the other kernels and per
# nulldist.eigen_matrix row block
ELEMENT_BUDGET = 1_000_000

TUNED_STATISTICS = frozenset({"MD", "LD", "BH", "HE", "W", "HM1", "HM2",
                              "MP", "JP", "JD"})
PLAIN_STATISTICS = frozenset({"EP", "CO", "GINI", "MO", "KS", "CVM", "AD"})
ALL_STATISTICS = TUNED_STATISTICS | PLAIN_STATISTICS


@dataclass(frozen=True)
class StatisticId:
    """A statistic name plus its tuning parameter where one is required."""

    name: str
    a: Optional[float] = None

    def __post_init__(self):
        name = self.name.upper()
        object.__setattr__(self, "name", name)
        if name not in ALL_STATISTICS:
            raise DomainError(f"unknown statistic {self.name!r}; "
                              f"choose from {sorted(ALL_STATISTICS)}")
        if name in TUNED_STATISTICS:
            if self.a is None:
                raise DomainError(f"statistic {name} requires tuning parameter a")
            check_tuning(self.a)
        elif self.a is not None:
            raise DomainError(f"statistic {name} takes no tuning parameter")

    def label(self) -> str:
        return self.name if self.a is None else f"{self.name}[a={self.a:g}]"


@dataclass(frozen=True)
class StatValue:
    value: float
    n: int
    rejection_side: str = "upper"


# ---------------------------------------------------------------------------
# MD / LD: pair-minimum Laplace transform statistics
# ---------------------------------------------------------------------------

def _laplace_l2(transform, y, z, a):
    """int transform(t)^2 e^{-at} dt of each row on laplace_t_rule(a, n),
    from the (rows, nodes) array transform(z, t, a) at the rule's nodes t:
    the kernel of MD, MP, BH, HE and W."""
    t, w = laplace_t_rule(a, z.shape[1])
    d = transform(z, t, a)
    d *= d  # in place: at small n the transform is larger than CACHE_BUDGET
    d *= w
    return d.sum(axis=1)


def _md(z, t, a):
    """MD's transform: the sample Laplace transform L = mean E less the
    V-empirical transform D = sum w E^2 of 2 min(Y_i, Y_j), E = exp(-tZ).
    Both are 1 + a weighted sum of F = E - 1 (the pair weights sum to 1), so
    n (L - D) = sum (1 - 2nw) F - sum nw F^2 adds numbers of the size of F
    and cancels no two near 1; F is exact where E >= 1/2.  Column k comes
    from one contiguous (n, rows) pass at the node t_k; the sums over n run
    down its columns, in the same order for every row."""
    n = z.shape[1]
    nw = n * min_pair_weights(n)
    c = 1.0 - 2.0 * nw
    zt = z.T.copy()
    f = np.empty_like(zt)
    out = np.empty((t.size, z.shape[0]))
    for k, tk in enumerate(t.tolist()):
        np.exp(np.multiply(zt, -tk, out=f), out=f)
        f -= 1.0
        diff = np.einsum("n,nr->r", c, f, out=out[k])
        f *= f
        diff -= np.einsum("n,nr->r", nw, f)
    out /= n
    return out.T


def _vn(zt, a, t, derivatives=False):
    """Difference of the two empirical transforms of the sorted rows at t,
    damped by e^{-at}: zt holds the rows as its columns, (n, rows), and t
    broadcasts against (rows,).

    Each transform is 1 + a weighted mean of expm1 (the pair weights sum to
    1), so the difference subtracts no two numbers near 1.  Both come from
    one E = expm1(-tz): expm1(-2tz) = E (E + 2), exactly and without
    cancellation (E lies in (-1, 0]).  derivatives=True stacks vn and its
    t-derivatives as (3, rows) from the same E: with P = E + 1, E' = -zP,
    E'' = z^2 P, (E (E + 2))' = -2zP^2 and (E (E + 2))'' = 4z^2 P^2.
    """
    n = zt.shape[0]
    w = min_pair_weights(n)
    e = np.multiply(zt, -t)
    np.expm1(e, out=e)
    e2 = e + 2.0
    e2 *= e
    u = np.add.reduce(e, axis=0) / n - np.einsum("n,nr->r", w, e2)
    if derivatives:
        e += 1.0
        zp = np.multiply(e, zt, out=e2)
        e *= zp  # z P^2
        du = 2.0 * np.einsum("n,nr->r", w, e) - np.add.reduce(zp, axis=0) / n
        zp *= zt
        e *= zt
        d2u = np.add.reduce(zp, axis=0) / n - 4.0 * np.einsum("n,nr->r", w, e)
        u = np.stack([u, du - a * u, d2u - 2.0 * a * du + a * a * u])
    return u * np.exp(-a * t)


def vn_process(s: ScaledSample, a: float, t) -> float:
    """Difference of the two empirical transforms at t >= 0, damped by e^{-at}."""
    check_tuning(a)
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < np.inf)):
        raise DomainError(f"t must be non-negative finite reals, got {t}")
    out = _vn(s.sorted_values[:, None], a, t.reshape(-1)).reshape(t.shape)
    return out if out.ndim else float(out)


def ld_upper_bound(a: float) -> float:
    """Upper end of the LD search interval; the damping e^{-at} makes any
    maximum beyond a*t = 40 numerically impossible."""
    return max(40.0 / a, 4.0)


def _ld(y, z, a):
    """Supremum over t > 0 of |vn|: a 64-point log-spaced grid scan, then a
    bracketed Newton refine of every local maximum of the scan on vn's
    analytic t-derivatives to |dt| < 1e-8 (`newton_maximize_log_grid`).
    The scan takes one grid point per pass over a contiguous (n, rows) copy,
    whose sums over n run down the columns in order; the refine takes the
    transposed (probes, n) gather of the probes' rows, whose sums run along
    each probe's row, so a probe's value does not depend on its company."""
    def value(t, rows):
        zt = z.T.copy()
        out = np.empty((t.size, z.shape[0]))
        for k, tk in enumerate(t.ravel().tolist()):  # one grid point per pass
            out[k] = _vn(zt, a, tk)
        return np.abs(out, out=out).T

    def terms(t, rows):
        v = _vn(z[rows].T, a, t, derivatives=True)
        return v * np.sign(v[0])

    return newton_maximize_log_grid(value, terms, 1e-4, ld_upper_bound(a), 64)[0]


# ---------------------------------------------------------------------------
# Classical battery; GINI, CVM and AD from the sorted sample (Stephens 1974)
# ---------------------------------------------------------------------------

def _pair_mean(kernel):
    """Batched V-statistic mean of an order-2 kernel(x, y, a)."""
    return lambda y, z, a: kernel(y[:, :, None], y[:, None, :], a).mean(axis=(1, 2))


def _gini(y, z, a):
    """|sum_{i,j} |Y_i - Y_j| / (2n(n - 1)) - 1/2|; the sum is 2 sum_i (2i - n - 1) Z_i."""
    n = y.shape[1]
    if n < 2:
        raise DomainError("GINI requires n >= 2")
    return np.abs(np.sum(z * (2.0 * np.arange(1, n + 1) - n - 1), axis=1) / (n * (n - 1.0)) - 0.5)


def _cvm(y, z, a):
    """Pair mean of the Cramer-von Mises kernel (tests/oracles.py kernel_cvm):
    1/(12n^2) + mean (F(Z_i) - (2i - 1)/(2n))^2, F(z) = 1 - e^{-z}."""
    d = -np.expm1(-z) - (np.arange(z.shape[1]) + 0.5) / z.shape[1]
    return 1.0 / (12.0 * z.shape[1] ** 2) + np.mean(d * d, axis=1)


def _ad(y, z, a):
    """Pair mean of the Anderson-Darling kernel (tests/oracles.py kernel_ad):
    -1 - sum_i (2i - 1) [log F(Z_i) - Z_{n+1-i}] / n^2."""
    terms = (2.0 * np.arange(z.shape[1]) + 1) * (np.log(-np.expm1(-z)) - z[:, ::-1])
    return -1.0 - np.sum(terms, axis=1) / z.shape[1] ** 2


def _ks(y, z, a):
    n = y.shape[1]
    f0 = -np.expm1(-z)
    i = np.arange(1, n + 1, dtype=float)
    return np.maximum(np.max(i / n - f0, axis=1), np.max(f0 - (i - 1) / n, axis=1))


# ---------------------------------------------------------------------------
# Laplace-transform competitors (Henze & Meintanis 2005, Metrika 61).  BH, HE
# and W are _laplace_l2 of the sample mean of their projections f(x, t, a),
# each a transform minus its null value, written in expm1 form so that no O(1)
# terms cancel in the sample mean.
# ---------------------------------------------------------------------------

def proj_bh(x, t, a):
    """(1 + t) L'(t) + L(t) of one point: (1 - x (1 + t)) e^{-tx}."""
    return (1.0 - x * (1.0 + t)) * np.exp(-t * x)


def proj_he(x, t, a):
    """L(t) - 1/(1 + t) of one point: expm1(-tx) + t/(1 + t)."""
    return np.expm1(-t * x) + t / (1.0 + t)


def proj_w(x, t, a):
    """(1 + t) L(t) - 1 of one point: (1 + t) expm1(-tx) + t."""
    return (1.0 + t) * np.expm1(-t * x) + t


def _sample_mean(proj, z, t, a):
    """The transform mean_i proj(Z_i, t, a) of each row: column k from one
    contiguous (n, rows) array of the projection at the node t_k."""
    zt = z.T.copy()
    out = np.empty((t.size, z.shape[0]))
    for k, tk in enumerate(t.tolist()):
        np.add.reduce(proj(zt, tk, a), axis=0, out=out[k])
    out /= z.shape[1]
    return out.T


def kernel_hm1(x, y, a=1.0):
    """Henze-Meintanis L2 kernel, with d = u - v, s = u + v:

        a/(2(a^2+d^2)) - a/(2(a^2+s^2)) + a(a^2-3d^2)/(a^2+d^2)^3
            + a(a^2-3s^2)/(a^2+s^2)^3 - 2as/(a^2+s^2)^2
        = a [2uv r_d r_s + r_d^2 (4a^2 r_d - 3) + r_s^2 (4a^2 r_s - 3 - 2s)]

    with r_d = 1/(a^2+d^2), r_s = 1/(a^2+s^2) and s^2 - d^2 = 4uv, so no two
    nearly equal terms are subtracted.  Evaluated in place in three arrays of
    the broadcast shape.
    """
    u, v = np.asarray(x), np.asarray(y)
    shape = np.broadcast_shapes(u.shape, v.shape)
    dtype = np.result_type(u, v, float)
    a2x4 = 4.0 * a * a
    out = np.add(u, v, out=np.empty(shape, dtype))      # s
    r = np.multiply(out, out, out=np.empty(shape, dtype))
    r += a * a
    np.reciprocal(r, out=r)                              # r_s
    tmp = np.multiply(r, a2x4, out=np.empty(shape, dtype))
    out *= -2.0
    out -= 3.0
    out += tmp
    out *= r
    out *= r                                             # r_s^2 (4a^2 r_s - 3 - 2s)
    np.subtract(u, v, out=tmp)
    tmp *= tmp
    tmp += a * a
    np.reciprocal(tmp, out=tmp)                          # r_d
    r *= tmp
    r *= u
    r *= v
    r *= 2.0
    out += r                                             # + 2uv r_d r_s
    np.multiply(tmp, a2x4, out=r)
    r -= 3.0
    r *= tmp
    r *= tmp
    out += r                                             # + r_d^2 (4a^2 r_d - 3)
    out *= a
    return out if out.ndim else out[()]


def kernel_hm2(x, y, a=1.0):
    u, v = np.asarray(x), np.asarray(y)
    d, s = u - v, u + v
    pref = np.sqrt(np.pi / a) / 4.0
    return pref * ((1 + 1 / (2 * a) - d * d / (4 * a * a)) * np.exp(-d * d / (4 * a))
                   + (1 / (2 * a) - s / a - s * s / (4 * a * a) - 1.0)
                   * np.exp(-s * s / (4 * a)))


def _mp(z, t, a):
    """MP's transform: the V-empirical transform D of |Y_i - Y_j| less the
    sample transform L.  MP on laplace_t_rule is within 5e-15 relative of its
    closed form in 40 digits on exponential rows for a from 0.2 to 10^6.  With
    S_j = sum_{i<j} e^{-t(Z_j - Z_i)} for j = 0, ..., n-1,
    D = (n + 2 sum_j S_j) / n^2 and L = mean e^{-tZ} are both near 1 where
    D - L = O(t), so both are taken in expm1 form:
    D - L = 2 sum_j E_j / n^2 - mean expm1(-tZ) with E_j = S_j - j, and
    E_j = e^{-t Delta_j} E_{j-1} + expm1(-t Delta_j) j
        = E_{j-1} + expm1(-t Delta_j) (E_{j-1} + j),  Delta_j = Z_j - Z_{j-1}."""
    n = z.shape[1]
    lap, e, pairs = np.expm1(np.multiply.outer(z[:, 0], -t)), 0.0, 0.0
    for j in range(1, n):  # (rows, nodes) arrays, one column of z at a time
        lap += np.expm1(np.multiply.outer(z[:, j], -t))
        step = np.expm1(np.multiply.outer(z[:, j] - z[:, j - 1], -t))
        e = e + step * (e + j)
        pairs = pairs + e
    return 2.0 * pairs / (n * n) - lap / n


def _jp(y, z, a):
    pair = y[:, :, None] - y[:, None, :]
    np.abs(pair, out=pair)
    pair += a
    return (np.mean(1.0 / (y + a), axis=1)
            - np.divide(1.0, pair, out=pair).sum(axis=(1, 2)) / y.shape[1]**2)


# name -> batched kernel(y, z, a) of the scaled rows y (r, n), their ascending
# sort z and the tuning parameter (None for plain statistics) -> (r,) values
_KERNELS = {
    "MD": partial(_laplace_l2, _md),
    "LD": _ld,
    "EP": lambda y, z, a: np.sqrt(48.0) * (np.mean(np.exp(-y), axis=1) - 0.5),
    "CO": lambda y, z, a: 1.0 + np.mean((1.0 - y) * np.log(y), axis=1),
    "GINI": _gini,
    "MO": lambda y, z, a: np.abs(EULER_GAMMA + np.mean(np.log(y), axis=1)),
    "KS": _ks,
    "CVM": _cvm,
    "AD": _ad,
    "BH": partial(_laplace_l2, partial(_sample_mean, proj_bh)),
    "HE": partial(_laplace_l2, partial(_sample_mean, proj_he)),
    "W": partial(_laplace_l2, partial(_sample_mean, proj_w)),
    "HM1": _pair_mean(kernel_hm1),
    "HM2": _pair_mean(kernel_hm2),
    "JD": lambda y, z, a: (np.mean(1.0 / (y + a), axis=1)
                           - np.sum(min_pair_weights(y.shape[1]) / (2.0 * z + a), axis=1)),
    "JP": _jp,
    "MP": partial(_laplace_l2, _mp),
}
# the kernels that take CACHE_BUDGET chunks -> elements per row of their
# temporaries, from n and the node count k of laplace_t_rule(a, n): n for the
# one-node passes of MD, BH, HE and W (their (rows, nodes) transform is k/n
# times larger: 8.8 times at n = 5, a = 1, where bigger passes still win
# over smaller chunks), 2n for the two of LD's scan, k for MP's
# (rows, nodes) arrays, n^2 for the pairs
CACHE_SIZED = {**dict.fromkeys(("MD", "BH", "HE", "W"), lambda n, k: n),
               "LD": lambda n, k: 2 * n, "MP": lambda n, k: k,
               **dict.fromkeys(("JP", "HM1", "HM2"), lambda n, k: n * n)}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_many(stat: StatisticId, samples) -> np.ndarray:
    """Evaluate a statistic on each row of a (replicates, n) array.

    Every entry must be a positive finite real; the first one that is not is
    named by row and column.  The rows are scaled to unit means and sorted,
    and the statistic's batched kernel takes them in chunks of
    CACHE_BUDGET // n rows for MD, BH, HE and W, CACHE_BUDGET // 2n for LD,
    CACHE_BUDGET // nodes for MP (nodes of laplace_t_rule(a, n)),
    CACHE_BUDGET // n^2 for JP, HM1 and HM2, and ELEMENT_BUDGET // n^2 rows
    for the rest.  A row's value does not depend on the chunking as long as
    its chunk holds two rows or more.  A one-row chunk, and so `evaluate`,
    sums pairwise where a larger chunk sums in order (numpy reduces a lone
    row along its contiguous axis): the nodes of MD, BH, HE and W, which then
    agree with it to rounding only, and the points of LD's scan, which moves
    LD's value only where a grid point beats every refined probe.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DomainError("evaluate_many expects a 2-D (replicates, n) array")
    check_positive(x)
    kernel = _KERNELS[stat.name]
    r, n = x.shape
    rows = ELEMENT_BUDGET // (n * n)
    if stat.name in CACHE_SIZED:
        rows = CACHE_BUDGET // CACHE_SIZED[stat.name](n, laplace_t_rule(stat.a, n)[0].size)
    rows = max(1, rows)
    mean = x.mean(axis=1, keepdims=True)
    # sorted whole, then scaled: the sorted copy is freed before the chunk
    # loop, and glibc, which sizes its heap trimming by the largest block it
    # has unmapped, then keeps the temporaries of the pair battery (several
    # alive per chunk) instead of returning them to the OS after every chunk
    z = np.sort(x, axis=1) / mean
    out = np.empty(r)
    for k0 in range(0, r, rows):
        part = slice(k0, k0 + rows)
        out[part] = kernel(x[part] / mean[part], z[part], stat.a)
    return out


def evaluate(stat: StatisticId, raw) -> StatValue:
    """Evaluate a statistic on one raw (unscaled) sample: the one-row case of
    evaluate_many.  A bad entry is named by its index."""
    x = check_positive(np.asarray(raw, dtype=float).reshape(-1))
    return StatValue(value=float(evaluate_many(stat, x[None, :])[0]), n=x.size)
