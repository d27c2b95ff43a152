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
the r statistic values, next to the elements per row of its temporaries.
`evaluate_many` feeds it chunks of numeric.CACHE_BUDGET // per_row rows and
`evaluate` is its one-row case.  Integral-type statistics use closed forms,
O(n^2) pair sums, sorted-sample formulas or one double-exponential t-rule,
numeric.laplace_t_rule, applied by one helper (_laplace_l2) to an
O(n)-per-node transform: MD and MP have transform bodies of their own, BH,
HE and W take the sample mean of one projection f(x, t, a) each, which the
slopes take too.  MD, BH, HE and W fill the transform's column k, and LD's
grid scan its grid point k, from one per-node pass (_node_pass) over a
contiguous (n, rows) copy of the sorted rows; MP keeps its recursion over
the sorted points, vectorised over the nodes.  LD takes both transforms,
and the t-derivatives of its Newton refine, from one expm1 per sorted
point.  Every sum over n runs down the columns of such a pass, in the same
order for every row.  HM1 and HM2 evaluate their symmetric pair
kernels once per unordered pair, along the n//2 + 1 circular diagonals of
each sorted row (_pair_mean), and sum each diagonal along its own row.
HM1's kernel is written in reciprocals of a^2 + (u -+ v)^2 so that no two
nearly equal terms are subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ScaledSample, check_positive, check_tuning, min_pair_weights
from .errors import DomainError
from .numeric import CACHE_BUDGET, laplace_t_rule, newton_maximize_log_grid

EULER_GAMMA = float(np.euler_gamma)

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


def _node_pass(node, z, t):
    """The (rows, nodes) array whose column k is node(zt, t_k, out[k]), which
    writes its (rows,) values at the Python-float node t_k into out[k]: zt is
    one contiguous (n, rows) copy of the sorted rows z, shared by every node,
    so each sum over n runs down its columns, in the same order for every
    row of the chunk.  The per-node pass of MD, BH, HE and W and of LD's grid
    scan."""
    zt = z.T.copy()
    out = np.empty((t.size, z.shape[0]))
    for k, tk in enumerate(t.ravel().tolist()):
        node(zt, tk, out[k])
    return out.T


def _md(z, t, a):
    """MD's transform: the sample Laplace transform L = mean E less the
    V-empirical transform D = sum w E^2 of 2 min(Y_i, Y_j), E = exp(-tZ).
    Both are 1 + a weighted sum of F = E - 1 (the pair weights sum to 1), so
    n (L - D) = sum (1 - 2nw) F - sum nw F^2 adds numbers of the size of F
    and cancels no two near 1; F is exact where E >= 1/2.  One _node_pass,
    which forms F in place in one scratch (n, rows) array."""
    n = z.shape[1]
    nw = n * min_pair_weights(n)
    c = 1.0 - 2.0 * nw
    f = np.empty(z.shape[::-1])

    def node(zt, tk, out):
        np.exp(np.multiply(zt, -tk, out=f), out=f)
        np.subtract(f, 1.0, out=f)
        np.einsum("n,nr->r", c, f, out=out)
        np.multiply(f, f, out=f)
        out -= np.einsum("n,nr->r", nw, f)

    d = _node_pass(node, z, t)
    d /= n
    return d


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
    The scan is one _node_pass over the grid points; the refine takes the
    transposed (probes, n) gather of the probes' rows, whose sums run along
    each probe's row, so a probe's value does not depend on its company."""
    def value(t, rows):
        return _node_pass(lambda zt, tk, out: np.abs(_vn(zt, a, tk), out=out), z, t)

    def terms(t, rows):
        v = _vn(z[rows].T, a, t, derivatives=True)
        return v * np.sign(v[0])

    return newton_maximize_log_grid(value, terms, 1e-4, ld_upper_bound(a), 64)[0]


# ---------------------------------------------------------------------------
# Classical battery; GINI, CVM and AD from the sorted sample (Stephens 1974)
# ---------------------------------------------------------------------------

def _pair_mean(kernel):
    """Batched V-statistic mean of a symmetric order-2 kernel(x, y, a), one
    evaluation per unordered pair: the sorted rows against their circular
    diagonals (Z_i, Z_{i+k mod n}), k = 0, ..., n//2, in one (rows, n//2 + 1,
    n) pass.  Diagonal k > 0 stands for itself and its mirror n - k, so it
    counts twice, except k = n/2 at even n, which is its own mirror.  Each
    diagonal sums pairwise along its contiguous axis and the weighted
    diagonal sums add along each row, so a row's value does not depend on
    its company."""
    def mean(y, z, a):
        n = z.shape[1]
        h = n // 2
        v = sliding_window_view(np.concatenate([z, z[:, :h]], axis=1), n, axis=1)
        sums = kernel(z[:, None, :], v[:, :h + 1], a).sum(axis=2)
        w = np.full(h + 1, 2.0)
        w[0] = 1.0
        if n % 2 == 0:
            w[h] = 1.0
        sums *= w
        return sums.sum(axis=1) / (n * n)
    return mean


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
    """The transform mean_i proj(Z_i, t, a) of each row, by one _node_pass."""
    d = _node_pass(lambda zt, tk, out: np.add.reduce(proj(zt, tk, a), axis=0, out=out), z, t)
    d /= z.shape[1]
    return d


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


def _per_point(n, a):
    return n


# name -> (kernel, per_row): the batched kernel(y, z, a) of the scaled rows
# y (r, n), their ascending sort z and the tuning parameter (None for plain
# statistics) -> (r,) values, and per_row(n, a), the elements per row of its
# temporaries: n for the O(n) kernels and for the one-node passes of MD, BH,
# HE and W (their (rows, nodes) transform is nodes/n times larger: 8.8 times
# at n = 5, a = 1, where bigger passes still win over smaller chunks), 2n for
# the two of LD's scan, E = expm1(-tz) and E (E + 2), the node count of
# laplace_t_rule(a, n) for MP's (rows, nodes) arrays, n^2 for JP's pairs and
# n (n//2 + 1) for the circular diagonals of HM1 and HM2.  MD and JP update
# one temporary in place; HM1's kernel keeps three.
_KERNELS = {
    "MD": (partial(_laplace_l2, _md), _per_point),
    "LD": (_ld, lambda n, a: 2 * n),
    "EP": (lambda y, z, a: np.sqrt(48.0) * (np.mean(np.exp(-y), axis=1) - 0.5), _per_point),
    "CO": (lambda y, z, a: 1.0 + np.mean((1.0 - y) * np.log(y), axis=1), _per_point),
    "GINI": (_gini, _per_point),
    "MO": (lambda y, z, a: np.abs(EULER_GAMMA + np.mean(np.log(y), axis=1)), _per_point),
    "KS": (_ks, _per_point),
    "CVM": (_cvm, _per_point),
    "AD": (_ad, _per_point),
    "BH": (partial(_laplace_l2, partial(_sample_mean, proj_bh)), _per_point),
    "HE": (partial(_laplace_l2, partial(_sample_mean, proj_he)), _per_point),
    "W": (partial(_laplace_l2, partial(_sample_mean, proj_w)), _per_point),
    "HM1": (_pair_mean(kernel_hm1), lambda n, a: n * (n // 2 + 1)),
    "HM2": (_pair_mean(kernel_hm2), lambda n, a: n * (n // 2 + 1)),
    "JD": (lambda y, z, a: (np.mean(1.0 / (y + a), axis=1)
                            - np.sum(min_pair_weights(y.shape[1]) / (2.0 * z + a), axis=1)),
           _per_point),
    "JP": (_jp, lambda n, a: n * n),
    "MP": (partial(_laplace_l2, _mp), lambda n, a: laplace_t_rule(a, n)[0].size),
}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate_many(stat: StatisticId, samples) -> np.ndarray:
    """Evaluate a statistic on each row of a (replicates, n) array.

    Every entry must be a positive finite real; the first one that is not is
    named by row and column.  The rows are scaled to unit means and sorted,
    and the statistic's batched kernel takes them in chunks of
    CACHE_BUDGET // per_row rows (at least one), per_row(n, a) of its
    _KERNELS entry.  A row's value does not depend on the chunking, bit for
    bit.  numpy would reduce a lone row along its contiguous axis, pairwise,
    where a larger chunk sums down its columns in order, so a one-row chunk
    (the last one, or `evaluate`'s) goes to the kernel as two copies of the
    row.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DomainError("evaluate_many expects a 2-D (replicates, n) array")
    check_positive(x)
    kernel, per_row = _KERNELS[stat.name]
    r, n = x.shape
    rows = max(1, CACHE_BUDGET // per_row(n, stat.a))
    mean = x.mean(axis=1, keepdims=True)
    # sorted whole, then scaled: the sorted copy is freed before the chunk
    # loop, and glibc, which sizes its heap trimming by the largest block it
    # has unmapped, then keeps the temporaries of the pair battery (several
    # alive per chunk) instead of returning them to the OS after every chunk
    z = np.sort(x, axis=1) / mean
    out = np.empty(r)
    for k0 in range(0, r, rows):
        part = slice(k0, k0 + rows)
        y, zp = x[part] / mean[part], z[part]
        if len(y) == 1:  # numpy reduces a lone row pairwise: take two copies
            y, zp = np.repeat(y, 2, axis=0), np.repeat(zp, 2, axis=0)
        out[part] = kernel(y, zp, stat.a)[:len(out[part])]
    return out


def evaluate(stat: StatisticId, raw) -> StatValue:
    """Evaluate a statistic on one raw (unscaled) sample: the one-row case of
    evaluate_many.  A bad entry is named by its index."""
    x = check_positive(np.asarray(raw, dtype=float).reshape(-1))
    return StatValue(value=float(evaluate_many(stat, x[None, :])[0]), n=x.size)
