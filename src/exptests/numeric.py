"""Shared numerical helpers: quadrature grids, among them the graded t-rule of
every covariance operator (t_rule) and the double-exponential t-rule of every
Laplace-transform L2 statistic (laplace_t_rule), 1-D maximization, the one
Nystrom step of the package (largest_eigenvalue: the top eigenvalue of a
symmetric kernel matrix on quadrature nodes, scaled by the nodes' masses),
the one Nystrom ladder that every operator eigenvalue takes
(operator_eigenvalue: that step on t-rules of more and more points per
panel, until two agree), and the exponential integrals Ei, E1 and e^-z Ei(z)
in numpy (expi, exp1, ei_scaled), which every Ei of the package takes, so
that no slope or h2_tilde loads scipy.  scipy.special, imported on first use
(special), serves only the families' samplers, cdfs and means."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def panel_gauss_nodes(edges, npts):
    """Composite Gauss-Legendre nodes/weights over consecutive [edges] panels."""
    g, gw = np.polynomial.legendre.leggauss(npts)
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    return (0.5 * (hi - lo) * g + 0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo) * gw).ravel()


T_PANELS = 56  # panels of t_rule
WEIGHT_KEPT = math.exp(-36.0)  # t_rule ends where its weight falls below this
T_WEIGHTS = {
    # kind -> (weight w(t, a), the scale of t on which w decays)
    "exp": (lambda t, a: np.exp(-a * t), lambda a: a),
    "gauss": (lambda t, a: np.exp(-a * t * t), math.sqrt),
    "cvm": (lambda t, a: np.exp(-t), lambda a: 1.0),
    "ad": (lambda t, a: 1.0 / -np.expm1(-t), lambda a: 1.0),
}


@lru_cache(maxsize=None)
def t_rule(kind: str, a, npts: int):
    """(t, Gauss weights times w(t, a)) on (0, inf), npts points per panel,
    for the weight w of T_WEIGHTS[kind] and its t-scale 1/scale: the panel
    [0, 1e-4 min(1, 1/scale)] holds the drift's t log t (weibull, gamma), and
    T_PANELS - 1 geometric panels run up to max(100, 60/scale), each about
    0.3 times as wide as its distance from 0.  A kernel feature of fixed
    width therefore needs more points per panel the further out w keeps t:
    HM1's covariance, a ridge of unit width along s = t, needs 8 points per
    panel at a >= 2, 40 at a = 0.2 (t up to 180, where panels are about 50
    wide) and more than 40 at a = 0.1, where operator_eigenvalue raises.
    The rule ends at the last node where w (decreasing in t) is at least
    WEIGHT_KEPT.  Cached, so read-only."""
    weight, scale = T_WEIGHTS[kind]
    s = scale(a)
    edges = np.geomspace(1e-4 * min(1.0, 1.0 / s), max(100.0, 60.0 / s), T_PANELS)
    t, wt = panel_gauss_nodes(np.r_[0.0, edges], npts)
    w = weight(t, a)
    t, mass = t[w >= WEIGHT_KEPT], (wt * w)[w >= WEIGHT_KEPT]
    t.flags.writeable = mass.flags.writeable = False
    return t, mass


@lru_cache(maxsize=None)
def laplace_t_rule(a, n: int):
    """(t, w) with sum_k w_k g(t_k) ~ int_0^inf g(t) e^{-at} dt for the
    transforms of a scaled sample of n points: the double-exponential map
    t = t0 exp(u - e^{-u}) (Takahasi & Mori 1974, Publ. RIMS 9) on
    u = -3.2 + 0.2 k, for u < log(45/(a t0)), so the last node sits near
    t = 45/a; w = 0.2 t (1 + e^{-u}) e^{-at} is the step times the map's
    Jacobian times the weight.  The centre t0 = min(1/a, 1/n): the
    scaled sample has mean 1, so its largest point is at most n and the
    features of e^{-tY} lie above t ~ 1/n.  36 to 74 nodes for n <= 120 and
    a in [0.05, 20] (55 at n = 50, a = 1); sum w e^{-ct} is within 1.0e-13
    relative of 1/(a + c) for c in [0, 4n] there.  Cached, so read-only."""
    t0 = min(1.0 / a, 1.0 / n)
    top = math.log(45.0 / (a * t0))
    u = -3.2 + 0.2 * np.arange(math.ceil((top + 3.2) / 0.2))
    t = t0 * np.exp(u - np.exp(-u))
    w = 0.2 * t * (1.0 + np.exp(-u)) * np.exp(-a * t)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def panel_gauss_below(npts, panels):
    """The matrix B that stands in for 1{t_j < t_i} on the nodes of
    panel_gauss_nodes(edges, npts) with `panels` panels: sum_j B_ij w_j f_j
    integrates the panel-wise interpolant of f from 0 to t_i, so a kernel
    with a kink on its diagonal, such as e^{-max(s,t)}, keeps spectral
    accuracy.  B + B^T = 1 to rounding (Gauss rules integrate the product of
    two interpolants exactly), so such a kernel's matrix stays symmetric."""
    leg = np.polynomial.legendre
    g, gw = leg.leggauss(npts)
    within = (leg.legvander(g, npts) @ leg.legint(np.eye(npts), lbnd=-1)
              @ np.linalg.inv(leg.legvander(g, npts - 1))) / gw
    return (np.kron(np.tri(panels, k=-1), np.ones((npts, npts)))
            + np.kron(np.eye(panels), within))


def _scan_then_refine(f, refine, lo, hi, ngrid, tol):
    """maximize_log_grid's scan; refine(rows, a, t, b) refines the probes at t in [a, b]."""
    if not (0.0 < lo < hi < np.inf and ngrid >= 2 and 0.0 < tol < np.inf):
        raise DomainError(f"need 0 < lo < hi < inf, ngrid >= 2, tol > 0; got {lo, hi, ngrid, tol}")
    ts = np.geomspace(lo, hi, ngrid)
    vs = f(ts[None, :], slice(None))
    nrows = vs.shape[0]
    i = np.argmax(vs, axis=1)
    best_v, best_t = vs[np.arange(nrows), i], ts[i]
    peak = np.ones(vs.shape, dtype=bool)
    peak[:, 1:] = vs[:, 1:] > vs[:, :-1]
    peak[:, :-1] &= vs[:, :-1] >= vs[:, 1:]
    peak[np.arange(nrows), i] = True
    rows, k = np.nonzero(peak)
    probe_v, probe_t = refine(rows, ts[np.maximum(k - 1, 0)], ts[k],
                              ts[np.minimum(k + 1, ngrid - 1)])
    # each row's largest refined value: first of its run, best first
    order = np.lexsort((-probe_v, rows))
    first = order[np.r_[True, rows[order][1:] != rows[order][:-1]]]
    refined_v, refined_t = probe_v[first], probe_t[first]
    better = refined_v > best_v
    return np.where(better, refined_v, best_v), np.where(better, refined_t, best_t)


def maximize_log_grid(f, lo, hi, ngrid=512, tol=1e-8):
    """Maximize every row of f over [lo, hi]: a log-spaced grid scan, then
    golden-section refinement of every grid-local maximum of each row.

    f(t, rows) evaluates the rows of f that `rows` selects.  In the grid scan
    t has shape (1, ngrid), rows is slice(None) and f returns (rows, ngrid);
    in a refinement step t has shape (p, 1), rows is the index array of the p
    probes' rows and f returns (p, 1).  A grid-local maximum is a grid value
    above its left neighbour and not below its right one (an end of the grid
    needs only its one neighbour), and each row's grid argmax is always one,
    so a plateau gets one probe and a flat row only its argmax.  Each probe
    takes the golden-section steps that shrink its own bracket below tol;
    the largest refined value of a row wins.  Returns (max values, argmax),
    each of shape (rows,).  A returned value is never below its row's best
    grid value.  DomainError unless 0 < lo < hi < inf, ngrid >= 2, tol > 0.
    The one-row efficiency objectives take golden section: they have no
    cheap t-derivatives, which LD's newton_maximize_log_grid needs.
    """
    def golden(rows, a, t, b):
        steps = np.where(b - a > tol, np.ceil(np.log(tol / (b - a)) / np.log(GOLDEN)) + 1,
                         0).astype(np.intp)
        x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
        f1, f2 = f(x1[:, None], rows)[:, 0], f(x2[:, None], rows)[:, 0]
        for k in range(steps.max(initial=0)):
            m = steps > k  # the probes still stepping
            left = f1[m] >= f2[m]  # the maximum lies in [a, x2]
            am = np.where(left, a[m], x1[m])
            bm = np.where(left, x2[m], b[m])
            x1m = np.where(left, bm - GOLDEN * (bm - am), x2[m])
            x2m = np.where(left, x1[m], am + GOLDEN * (bm - am))
            fp = f(np.where(left, x1m, x2m)[:, None], rows[m])[:, 0]
            f1[m], f2[m] = np.where(left, fp, f2[m]), np.where(left, f1[m], fp)
            a[m], b[m], x1[m], x2[m] = am, bm, x1m, x2m
        return np.where(f1 >= f2, f1, f2), np.where(f1 >= f2, x1, x2)

    return _scan_then_refine(f, golden, lo, hi, ngrid, tol)


def newton_maximize_log_grid(f, df, lo, hi, ngrid, tol=1e-8):
    """maximize_log_grid by Newton steps on df(t, rows) = (f, f', f'') at the probes'
    points t, in a bracket the slope's sign shrinks (its midpoint where a step leaves
    it or f'' >= 0, and at every step from NEWTON_BISECT_FROM on: on rounding noise
    Newton steps can crawl), until a step moves by tol or less; NumericsError after
    NEWTON_STEPS."""
    def newton(rows, a, t, b):
        probe_v, probe_t, live = np.empty(rows.size), t.copy(), np.arange(rows.size)
        for k in range(NEWTON_STEPS + 1):
            probe_v[live], g1, g2 = df(t, rows[live])
            a, b = np.where(g1 > 0, t, a), np.where(g1 > 0, b, t)
            step = t - np.divide(g1, g2, out=np.full_like(t, np.inf), where=g2 < 0)
            inside = (step >= a) & (step <= b) & (k < NEWTON_BISECT_FROM)
            step = np.where(inside, step, 0.5 * (a + b))
            moving = np.abs(step - t) > tol
            if not moving.any():
                return probe_v, probe_t
            live, a, b, t = live[moving], a[moving], b[moving], step[moving]
            probe_t[live] = t
        raise NumericsError(f"Newton refine of row {rows[live[0]]} did not converge", (t, a, b))

    return _scan_then_refine(f, newton, lo, hi, ngrid, tol)


def special():
    """The scipy.special module, imported on the first call."""
    # imported here: scipy.special costs start-up time in every process
    from scipy import special as module
    return module


# most steps of a newton_maximize_log_grid probe: NEWTON_BISECT_FROM Newton
# steps, then halvings of its bracket (bisection alone: <= 53)
NEWTON_STEPS = 80
NEWTON_BISECT_FROM = 25
LANCZOS_STEPS = 300  # most Lanczos steps of largest_eigenvalue
LANCZOS_TOL = 1e-13  # residual norm, relative to the eigenvalue, that stops it


def largest_eigenvalue(kernel, mass) -> float:
    """Largest eigenvalue of the kernel operator that a quadrature rule
    discretizes: the top eigenvalue of the Nystrom matrix
    sqrt(m_i) kernel_ij sqrt(m_j) for a symmetric kernel matrix on the rule's
    nodes and their masses m (weights times the measure's density).  The
    scaled matrix is one temporary; the kernel array is left unchanged.

    Lanczos iteration with full reorthogonalisation, from the fixed start
    vector of ones so that repeated calls return the same float.  After step
    k the top eigenvalue theta of the k x k tridiagonal matrix T is the
    estimate, and beta_k |s_k| (s the eigenvector of theta in T) is the
    residual norm |A y - theta y| of its Ritz vector y, which bounds the
    error of theta.  The iteration stops when that residual falls to
    LANCZOS_TOL |theta|, or when the basis spans the whole space.  Raises
    NumericsError when a Lanczos vector is not finite (a NaN or infinite
    entry of the matrix shows in the first product with the start vector,
    which has no zero entry) or the residual test still fails after
    LANCZOS_STEPS steps.
    """
    sq = np.sqrt(mass)
    mat = kernel * sq[:, None]
    mat *= sq
    n = mat.shape[0]
    steps = min(n, LANCZOS_STEPS)
    basis = np.empty((steps, n))
    alpha, beta = np.empty(steps), np.empty(steps)
    q = np.full(n, 1.0 / math.sqrt(n))
    for k in range(steps):
        basis[k] = q
        w = mat @ q
        alpha[k] = q @ w
        done = basis[:k + 1]
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            w -= (w @ done.T) @ done
        beta[k] = math.sqrt(w @ w)
        if not math.isfinite(beta[k]):
            raise NumericsError(f"largest eigenvalue of a {n}x{mat.shape[1]} "
                                f"matrix: Lanczos step {k + 1} is not finite")
        tri = np.diag(alpha[:k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        theta, vecs = np.linalg.eigh(tri)
        if beta[k] * abs(vecs[-1, -1]) <= LANCZOS_TOL * abs(theta[-1]) or k == n - 1:
            return float(theta[-1])
        q = w / beta[k]
    raise NumericsError(f"largest eigenvalue of a {n}x{mat.shape[1]} matrix did "
                        f"not converge in {steps} Lanczos steps: residual "
                        f"{beta[-1] * abs(vecs[-1, -1]):.3g}, estimate {theta[-1]:.17g}")


EIGEN_LADDER = (2, 5, 8, 12, 16, 20, 28, 40)  # Gauss points per t-panel of operator_eigenvalue
EIGEN_REL_TOL = 1e-10  # relative agreement with the rung before that ends the ladder


def operator_eigenvalue(kernel, kind: str, a) -> tuple:
    """Top eigenvalue of a kernel operator on L2(w(t, a) dt), w of
    T_WEIGHTS[kind], by a Nystrom ladder: for each npts of EIGEN_LADDER,
    largest_eigenvalue of the matrix kernel(t, npts) on the nodes and masses
    of t_rule(kind, a, npts).  Returns the trace ((node count, estimate),
    ...) up to the first rung within EIGEN_REL_TOL relative of the rung
    before it, so its last estimate is the eigenvalue; raises NumericsError
    carrying the whole trace when no rung gets there."""
    trace = ()
    for npts in EIGEN_LADDER:
        t, mass = t_rule(kind, a, npts)
        est = largest_eigenvalue(kernel(t, npts), mass)
        trace += ((t.size, est),)
        if len(trace) > 1 and est > 0 and abs(est - trace[-2][1]) <= EIGEN_REL_TOL * est:
            return trace
    raise NumericsError(f"Nystrom ladder on t_rule({kind!r}, {a=}) did not converge: {trace}", trace)


E1_SERIES_END = 1.5  # exp1: power series up to here, continued fraction above
E1_CF_STEPS = 60  # depth of exp1's continued fraction (1.4e-15 relative at 1.5)
EI_SERIES_END = 40.0  # expi (x > 0): power series up to here, asymptotic series above
# elements per block of an array argument, so that the Horner temporaries stay
# in cache.  It pays on large arrays, such as eigen_matrix's row blocks of up
# to 10^6 elements or a direct call: h2_tilde broadcast over the 2001 x 2001
# grid takes 2.1 s in blocks and 2.8 s in whole-array passes (best of 3), and
# test_row_blocks_match_full_broadcast 4.6 s against 6.3 s (medians of 3; one
# 2-core x86-64 host).
EI_BLOCK = 65_536
# 1/(k k!), k = 1, 2, ...: the power series of Ei (120 terms) and, with
# alternating signs, of E1 (40 terms); Python's int division rounds once
_EI_SERIES = [1 / (k * math.factorial(k)) for k in range(1, 121)]
_E1_SERIES = [c if k % 2 else -c for k, c in enumerate(_EI_SERIES[:40], 1)]


def _piecewise(x, split, below, above):
    """below(x) where x <= split and above(x) elsewhere (nan included), each
    on its masked part of x, in blocks of EI_BLOCK elements: a float for a
    number, an array of x's shape for an array."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(0, flat.size, EI_BLOCK):
            block = flat[k:k + EI_BLOCK]
            low = block <= split
            for part, f in ((np.flatnonzero(low), below), (np.flatnonzero(~low), above)):
                if part.size:
                    out[k + part] = f(block[part])
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _power_series(x, coef):
    """sum_k coef[k-1] x^k by Horner's rule, smallest terms first."""
    p = coef[-1]
    for c in coef[-2::-1]:
        p = p * x + c
    return p * x


def _e1_series(x):
    return -np.euler_gamma - np.log(x) + _power_series(x, _E1_SERIES)


def _e1_fraction(x):
    """e^-x times the E1_CF_STEPS-th approximant of the continued fraction
    e^x E1(x) = 1/(x+1- 1/(x+3- 4/(x+5- ...))) (Abramowitz & Stegun 5.1.22),
    summed from its tail."""
    r = 0.0
    for k in range(E1_CF_STEPS, 0, -1):
        r = k * k / (x + (2 * k + 1) - r)
    return np.exp(-x) / (x + 1.0 - r)


def _ei_series(x):
    return np.euler_gamma + np.log(x) + _power_series(x, _EI_SERIES)


def _ei_positive(x):
    return _piecewise(x, EI_SERIES_END, _ei_series, _ei_large)


def _ei_large(x):
    # e^x _ei_asymptotic(x); inf at x = inf, where the product reads inf * 0
    return np.where(np.isposinf(x), x, np.exp(x) * _ei_asymptotic(x))


def _ei_asymptotic(x):
    """e^-x Ei(x) ~ sum_{k<40} k!/x^(k+1), to rounding for x > EI_SERIES_END."""
    acc, term = 0.0, 1.0 / x
    for k in range(1, 41):
        acc = acc + term
        term = term * (k / x)
    return acc


def exp1(x):
    """E1(x) = int_x^inf e^-s/s ds for x >= 0 (inf at 0, nan below): its power
    series -gamma - log x + sum (-1)^(k+1) x^k/(k k!) up to E1_SERIES_END,
    the continued fraction of _e1_fraction above.  Within 1.6e-15 relative of
    40-digit mpmath on [1e-12, 700]."""
    return _piecewise(x, E1_SERIES_END, _e1_series, _e1_fraction)


def expi(x):
    """Exponential integral Ei(x) = PV int_-inf^x e^s/s ds: -exp1(-x) for
    x <= 0 (-inf at 0); for x > 0 its power series gamma + log x +
    sum x^k/(k k!) up to EI_SERIES_END, e^x times _ei_asymptotic above
    (_ei_positive; inf past x = 709.78).  Within 1.4e-15 relative of 40-digit mpmath on
    [1e-12, 700] away from its root 0.3725, and 2e-16 absolute near it."""
    return _piecewise(x, 0.0, lambda v: -exp1(-v), _ei_positive)


def ei_scaled(z):
    """e^-z Ei(z) for z > 0: e^-z times expi's power series up to
    EI_SERIES_END, its asymptotic series above, so that it stays finite
    where Ei overflows."""
    return _piecewise(z, EI_SERIES_END, lambda v: np.exp(-v) * _ei_series(v),
                      _ei_asymptotic)
