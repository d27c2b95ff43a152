"""Independent oracles for the integral-type statistics.

The package computes each statistic through a closed form, an O(n^2) kernel
sum, a sorted-sample formula or (MD, MP, BH, HE and W) a double-exponential
t-rule; the functions here instead evaluate the defining integrals by
adaptive quadrature on the empirical transforms, so agreement is a genuine
cross-check rather than a re-run of the same code path.  `md_mpmath`,
`mp_mpmath`, `hm1_mpmath` and `h2_tilde_mpmath` evaluate MD's and MP's
double sums of 1/(a + c_p + c_q), HM1's published kernel and h2_tilde's
closed form in 40-digit arithmetic, where their cancellation does not
matter; `mp_quad_mpmath` is MP's defining integral by quadrature in that
arithmetic; `laplace_pair_mpmath` is the pair mean of BH's, HE's or W's
published kernel in that arithmetic; `vn_mpmath` is LD's process vn there
and `ld_mpmath` its supremum by a dense scan and golden-section refine.
`kernel_cvm` and `kernel_ad` are the Lilliefors Cramer-von Mises and
Anderson-Darling pair kernels, whose pair means the package's sorted-sample
forms of CVM and AD must equal.

The references at the end check the slopes: the pair-grid double integrals
of the MD and L2 battery numerators (the kernel, such as W's published one
in float64, `kernel_w`, against the family scores, with the mu-derivatives
of a battery kernel by central differences), MP's
second-projection kernel in closed form, the CVM and AD slope numerators as
the defining limit b_T(theta)/theta^2 in 40-digit arithmetic, and the top
eigenvalue of the CVM and AD covariance from the Brownian bridge's
eigenpairs.  `he_scipy`, `psi_jd_scipy` and `psi_jp_scipy` are HE and the
JD and JP projections with Ei and E1 from scipy.special instead of the
package's numeric.expi and numeric.exp1.
"""

import math

import mpmath
import numpy as np
from scipy import integrate, optimize, special

from exptests.core import min_pair_weights
from exptests.numeric import panel_gauss_nodes


def _scaled(sample):
    x = np.asarray(sample, dtype=float)
    return x / x.mean()


def _transforms(sample):
    y = _scaled(sample)
    z = np.sort(y)
    w = min_pair_weights(y.size)
    d = np.abs(y[:, None] - y[None, :]).ravel()

    def L(t):  # empirical Laplace transform of Y
        return np.mean(np.exp(-t * y))

    def Lp(t):  # its derivative
        return -np.mean(y * np.exp(-t * y))

    def M(t):  # V-empirical transform of 2 min(Y_i, Y_j)
        return np.dot(w, np.exp(-2.0 * t * z))

    def D(t):  # V-empirical transform of |Y_i - Y_j|
        return np.mean(np.exp(-t * d))

    def S(t):
        return np.mean(np.sin(t * y))

    def C(t):
        return np.mean(np.cos(t * y))

    return y, L, Lp, M, D, S, C


def _quad(f, lo=0.0, hi=np.inf):
    val, _ = integrate.quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val


def oracle_statistic(name, sample, a=None):
    """Defining-integral value of a statistic on a raw sample."""
    name = name.upper()
    y, L, Lp, M, D, S, C = _transforms(sample)
    if name == "MD":
        return _quad(lambda t: (L(t) - M(t)) ** 2 * np.exp(-a * t))
    if name == "JD":
        return _quad(lambda t: (L(t) - M(t)) * np.exp(-a * t))
    if name == "JP":
        return _quad(lambda t: (L(t) - D(t)) * np.exp(-a * t))
    if name == "MP":
        return _quad(lambda t: (D(t) - L(t)) ** 2 * np.exp(-a * t))
    if name == "BH":
        return _quad(lambda t: ((1 + t) * Lp(t) + L(t)) ** 2 * np.exp(-a * t))
    if name == "HE":
        return _quad(lambda t: (L(t) - 1.0 / (1 + t)) ** 2 * np.exp(-a * t))
    if name == "W":
        return _quad(lambda t: ((1 + t) * L(t) - 1.0) ** 2 * np.exp(-a * t))
    if name == "HM1":
        return _quad(lambda t: (S(t) - t * C(t)) ** 2 * np.exp(-a * t))
    if name == "HM2":
        return _quad(lambda t: (S(t) - t * C(t)) ** 2 * np.exp(-a * t * t))
    if name in ("CVM", "AD"):
        ys = np.sort(y)
        n = ys.size

        def fn(x):  # empirical cdf of the scaled sample
            return np.searchsorted(ys, x, side="right") / n

        if name == "CVM":
            f = lambda x: (fn(x) + np.expm1(-x)) ** 2 * np.exp(-x)
        else:
            f = lambda x: (fn(x) + np.expm1(-x)) ** 2 / (-np.expm1(-x))
        # integrate piecewise between the jump points of the empirical cdf
        edges = np.concatenate([[0.0], ys, [max(60.0, ys[-1] + 40.0)]])
        return sum(_quad(f, lo, hi)
                   for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo)
    raise ValueError(name)


def mp_mpmath(sample, a, dps=40):
    """MP of a raw sample in `dps`-digit arithmetic.  D(t) - L(t) is a sum of
    w_k e^{-t c_k} over the pair distances |Y_i - Y_j| (weight 1/n^2 each)
    and the observations Y_i (weight -1/n), so MP is the double sum of
    w_k w_l / (a + c_k + c_l); equal exponents are merged first."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in sample]
        n, mean = len(x), mpmath.fsum(x) / len(x)
        y = [v / mean for v in x]
        weights = {}
        for u in y:
            weights[u] = weights.get(u, 0) - mpmath.mpf(1) / n
            for v in y:
                weights[abs(u - v)] = weights.get(abs(u - v), 0) + mpmath.mpf(1) / n**2
        terms = list(weights.items())
        return float(mpmath.fsum(wk * wl / (a + ck + cl)
                                 for ck, wk in terms for cl, wl in terms))


def mp_quad_mpmath(sample, a, dps=40):
    """MP of a raw sample in `dps`-digit arithmetic by Gauss-Legendre
    quadrature of int (D(t) - L(t))^2 e^{-at} dt, split at 1/n, 1/a, 10/a
    and 100/a, for n where mp_mpmath's O(n^4) double sum is too slow: with
    the sorted scaled sample Z and S_j = sum_{i<j} e^{-t(Z_j - Z_i)}
    = e^{-t(Z_j - Z_{j-1})} (S_{j-1} + 1), D = (n + 2 sum S_j)/n^2 takes
    O(n) exponentials per t."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in sample]
        n, mean = len(x), mpmath.fsum(x) / len(x)
        z = sorted(v / mean for v in x)
        a = mpmath.mpf(a)

        def integrand(t):
            lap = power = mpmath.exp(-t * z[0])
            s = pairs = mpmath.mpf(0)
            for j in range(1, n):
                e = mpmath.exp(-t * (z[j] - z[j - 1]))
                s = e * (s + 1)
                power *= e
                pairs += s
                lap += power
            diff = (n + 2 * pairs) / n**2 - lap / n
            return diff * diff * mpmath.exp(-a * t)

        splits = sorted({mpmath.mpf(0), mpmath.mpf(1) / n, 1 / a, 10 / a, 100 / a})
        return float(mpmath.quad(integrand, splits + [mpmath.inf], method="gauss-legendre"))


def _transform_terms(sample):
    """The 2n terms (s_p, c_p) of L(t) - M(t) = sum c_p e^{-t s_p}: the
    observations Y_i (weight 1/n) and twice the order statistics 2 Z_i
    (weight -w_i), as mpf at the working precision."""
    x = [mpmath.mpf(float(v)) for v in sample]
    n, mean = len(x), mpmath.fsum(x) / len(x)
    z = sorted(v / mean for v in x)
    return ([(v, mpmath.mpf(1) / n) for v in z]
            + [(2 * v, -mpmath.mpf(2 * (n - i) - 1) / n**2) for i, v in enumerate(z)])


def md_mpmath(sample, a, dps=40):
    """MD of a raw sample in `dps`-digit arithmetic: the double sum of
    c_p c_q / (a + s_p + s_q) over the terms of L(t) - M(t)."""
    with mpmath.workdps(dps):
        terms = _transform_terms(sample)
        return float(mpmath.fsum(cp * cq / (a + sp + sq)
                                 for sp, cp in terms for sq, cq in terms))


def vn_mpmath(sample, a):
    """vn(t) = e^{-at} (L(t) - M(t)) of a raw sample, as a function of t in
    the working precision (the caller sets it with mpmath.workdps)."""
    terms = _transform_terms(sample)
    a = mpmath.mpf(a)
    return lambda t: mpmath.exp(-a * t) * mpmath.fsum(c * mpmath.exp(-t * s)
                                                       for s, c in terms)


def ld_mpmath(sample, a, dps=40, points=512):
    """LD of a raw sample in `dps`-digit arithmetic: |vn| on `points`
    log-spaced t over LD's interval [1e-4, max(40/a, 4)], then golden
    section in the bracket [t_{k-1}, t_{k+1}] of every scan-local maximum
    until the bracket is below 1e-16 t; the largest refined value wins."""
    with mpmath.workdps(dps):
        f = vn_mpmath(sample, a)
        g = lambda t: abs(f(t))
        lo, hi = mpmath.log(mpmath.mpf("1e-4")), mpmath.log(max(40 / mpmath.mpf(a), 4))
        ts = [mpmath.exp(lo + (hi - lo) * k / (points - 1)) for k in range(points)]
        vs = [g(t) for t in ts]
        golden = (mpmath.sqrt(5) - 1) / 2
        best = max(vs)
        for k in range(points):
            if (k and vs[k] <= vs[k - 1]) or (k < points - 1 and vs[k] < vs[k + 1]):
                continue
            p, q = ts[max(k - 1, 0)], ts[min(k + 1, points - 1)]
            x1, x2 = q - golden * (q - p), p + golden * (q - p)
            f1, f2 = g(x1), g(x2)
            while q - p > mpmath.mpf("1e-16") * q:
                if f1 >= f2:
                    q, x2, f2 = x2, x1, f1
                    x1 = q - golden * (q - p)
                    f1 = g(x1)
                else:
                    p, x1, f1 = x1, x2, f2
                    x2 = p + golden * (q - p)
                    f2 = g(x2)
            best = max(best, f1, f2)
        return float(best)


def hm1_mpmath(sample, a, dps=40):
    """HM1 of a raw sample in `dps`-digit arithmetic: the pair mean of the
    kernel in its published form (Henze & Meintanis 2005, Metrika 61), with
    d = u - v and s = u + v.  Also returns the pair mean of |kernel|, the
    scale of the float64 rounding of the sum."""
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in sample]
        mean = mpmath.fsum(x) / len(x)
        y = [v / mean for v in x]
        a = mpmath.mpf(a)
        terms = []
        for u in y:
            for v in y:
                d2, s = (u - v) ** 2, u + v
                terms.append(a / (2 * (a * a + d2)) - a / (2 * (a * a + s * s))
                             + a * (a * a - 3 * d2) / (a * a + d2) ** 3
                             + a * (a * a - 3 * s * s) / (a * a + s * s) ** 3
                             - 2 * a * s / (a * a + s * s) ** 2)
        return (float(mpmath.fsum(terms) / len(terms)),
                float(mpmath.fsum(abs(t) for t in terms) / len(terms)))


def _bh_kernel_mp(u, v, a, g):
    s = a + u + v
    return (1 - u) * (1 - v) / s - (u + v - 2 * u * v) / s**2 + 2 * u * v / s**3


def _he_kernel_mp(u, v, a, g):
    return 1 / (a + u + v) + g[u] + g[v] + 1 + a * mpmath.exp(a) * mpmath.ei(-a)


def _w_kernel_mp(u, v, a, g):
    s = a + u + v
    return (1 / a - (1 / (a + u) + 1 / (a + u)**2) - (1 / (a + v) + 1 / (a + v)**2)
            + 1 / s + 2 / s**2 + 2 / s**3)


_LAPLACE_KERNELS_MP = {"BH": _bh_kernel_mp, "HE": _he_kernel_mp, "W": _w_kernel_mp}


def laplace_pair_mpmath(name, sample, a, dps=40):
    """BH, HE or W of a raw sample in `dps`-digit arithmetic: the pair mean
    of the statistic's published kernel (Henze & Meintanis 2005, Metrika 61),
    with s = a + u + v,

        BH: (1-u)(1-v)/s - (u+v-2uv)/s^2 + 2uv/s^3,
        HE: 1/s + g(u) + g(v) + 1 + a e^a Ei(-a),  g(u) = e^{a+u} Ei(-(a+u)),
        W:  1/a - 1/(a+u) - 1/(a+u)^2 - 1/(a+v) - 1/(a+v)^2 + 1/s + 2/s^2 + 2/s^3,

    whose O(1) terms cancel to a value of order 1/n."""
    kernel = _LAPLACE_KERNELS_MP[name]
    with mpmath.workdps(dps):
        x = [mpmath.mpf(float(v)) for v in sample]
        mean = mpmath.fsum(x) / len(x)
        y = [v / mean for v in x]
        a = mpmath.mpf(a)
        g = {u: mpmath.exp(a + u) * mpmath.ei(-(a + u)) for u in y}
        return float(mpmath.fsum(kernel(u, v, a, g) for u in y for v in y) / len(y) ** 2)


def h2_tilde_mpmath(u, v, a, dps=40):
    """nulldist.h2_tilde's closed form in `dps`-digit arithmetic."""
    with mpmath.workdps(dps):
        u, v, a = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(a)
        e, Ei = mpmath.exp, mpmath.ei
        return float((
            3 + 1 / (a + u + v) - 2 * e(-u) / (a + 2 * u + v)
            - 2 * e(-v) / (a + u + 2 * v)
            - (4 - a) * e(a) * Ei(-a)
            + e((a + v) / 2) * (Ei(-(a + v) / 2) - Ei(-(a + 2 * u + v) / 2))
            + e(a + u) * (4 * Ei(-a - 2 * u) - Ei(-a - u))
            + e((a + u) / 2) * (Ei(-(a + u) / 2) - Ei(-(a + u + 2 * v) / 2))
            + e(a + v) * (4 * Ei(-a - 2 * v) - Ei(-a - v))
            + e(-u - v) / (a + 2 * (u + v)) * (2 * a + 4 * (1 + u + v))
            - 2 * (e(-u) + e(-v))
            + e(a / 2) * (-(4 + a + 2 * u) * Ei(-a / 2 - u) + (a + 4) * Ei(-a / 2)
                          + (a + 2 * (2 + u + v)) * Ei(-a / 2 - u - v)
                          - (4 + a + 2 * v) * Ei(-a / 2 - v))) / 6)


def plain_reference(name, sample):
    """Per-sample definitions of the plain statistics without an integral
    form, written as loops over the observations."""
    y = [float(v) for v in _scaled(sample)]
    n = len(y)
    if name == "EP":
        return math.sqrt(48.0) * (sum(math.exp(-v) for v in y) / n - 0.5)
    if name == "CO":
        return 1.0 + sum((1.0 - v) * math.log(v) for v in y) / n
    if name == "GINI":
        diffs = sum(abs(u - v) for u in y for v in y)
        return abs(diffs / (2.0 * n * (n - 1)) - 0.5)
    if name == "MO":
        return abs(np.euler_gamma + sum(math.log(v) for v in y) / n)
    if name == "KS":
        f0 = [-math.expm1(-v) for v in sorted(y)]
        return max(max(i / n - f, f - (i - 1) / n) for i, f in enumerate(f0, 1))
    raise ValueError(name)


def graded_halfline_grid(inner, outer, panels, npts):
    """Gauss nodes and weights on geometrically graded panels of (0, outer]."""
    return panel_gauss_nodes(np.concatenate([[0.0], np.geomspace(inner, outer, panels)]), npts)


def _pair_grid(grid):
    """x (k, 1), y (1, k) and weights (k, k) of the tensor grid of a
    half-line grid (nodes, weights); by default the slopes' x-rule up to
    x = 60, where h2_tilde's e^{a+u} factors are still finite and the
    scores are below e^{-60}."""
    if grid is None:
        from exptests.slopes import LRT_STEP, _x_rule
        x, w = _x_rule(LRT_STEP)
        grid = x[x < 60.0], w[x < 60.0]
    x, w = grid
    return x[:, None], x[None, :], np.outer(w, w)


def pair_score_integral(kernel, a, fam, grid=None):
    """Double integral of kernel(x, y, a) g'(x) g'(y) over the pair grid of
    `grid`, with g' the family's scores at theta = 0 (MD numerator)."""
    xg, yg, wg = _pair_grid(grid)
    gp = fam.deriv0
    return float(np.sum(kernel(xg, yg, a) * gp(xg) * gp(yg) * wg))


def kernel_cvm(x, y, a=None):
    """Lilliefors Cramer-von Mises kernel of the scaled sample, whose pair
    mean is CVM (statistics._cvm takes it from the sorted sample)."""
    u, v = np.asarray(x), np.asarray(y)
    return 1.0 / 3.0 + 0.5 * (np.exp(-2 * u) + np.exp(-2 * v)) - np.exp(-np.minimum(u, v))


def kernel_ad(x, y, a=None):
    """Lilliefors Anderson-Darling kernel of the scaled sample, whose pair
    mean is AD (statistics._ad takes it from the sorted sample)."""
    u, v = np.asarray(x), np.asarray(y)
    mx = np.maximum(u, v)
    # u+v-1-log(e^max - 1), written to avoid overflow for large max
    return u + v - 1.0 - (mx + np.log1p(-np.exp(-mx)))


def kernel_w(x, y, a=1.0):
    """W's published kernel in float64 (the L2 numerator reference of the slopes)."""
    u, v = np.asarray(x), np.asarray(y)
    s = a + u + v
    return (1.0 / a - (1 / (a + u) + 1 / (a + u)**2) - (1 / (a + v) + 1 / (a + v)**2)
            + 1 / s + 2 / s**2 + 2 / s**3)


def l2_numerator_reference(kernel, a, fam, grid, h=1e-4):
    """theta^2-coefficient of b_T^2 for an L2 battery kernel Phi(x, y, a) of
    the scaled sample, at estimated mean mu: Phi(x/mu, y/mu, a).  Three sums
    over the pair grid of `grid`, with the mu-derivatives at mu = 1 by
    central differences of step h."""
    xg, yg, wg = _pair_grid(grid)
    gp = fam.deriv0(xg[:, 0])
    g0 = np.exp(-xg[:, 0])
    mu1 = fam.mu_prime0
    p0 = kernel(xg, yg, a)
    pp = kernel(xg / (1.0 + h), yg / (1.0 + h), a)
    pm = kernel(xg / (1.0 - h), yg / (1.0 - h), a)
    dp = (pp - pm) / (2 * h)
    d2p = (pp - 2 * p0 + pm) / (h * h)
    t1 = 2.0 * np.einsum("ij,i,j,ij->", p0, gp, gp, wg)
    t2 = 4.0 * mu1 * np.einsum("ij,i,j,ij->", dp, gp, g0, wg)
    t3 = mu1 * mu1 * np.einsum("ij,i,j,ij->", d2p, g0, g0, wg)
    return float(t1 + t2 + t3)


def _ei_scaled(z):
    """e^-z Ei(z) by scipy, for 0 < z < 700."""
    return np.exp(-z) * special.expi(z)


def mp_projected_kernel(x, y, a):
    """Second projection of the pairwise-difference L2 kernel under Exp(1),
    in closed form: (1/6) int f(x, t) f(y, t) e^{-at} dt for MP's
    projection f of D - L."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ex, ey = np.exp(x), np.exp(y)
    t1 = (np.exp(a - x - y) * special.expi(-a)
          * (a * (ex - 2) * (ey - 2) - ex - ey + 4)) / 6.0
    t2 = (np.exp(-x - y) * _ei_scaled(a) * (4 * a + ex + ey - 4)
          - (np.exp(-y) * _ei_scaled(a + x) * (4 * (a + x - 1) + ey)
             + np.exp(-x) * _ei_scaled(a + y) * (4 * (a + y - 1) + ex)
             - 4 * (a + x + y - 1) * _ei_scaled(a + x + y))) / 6.0
    t3 = -0.5 + (np.exp(-x) + np.exp(-y)) / 3.0 + 1.0 / (6 * (a + x + y))
    return t1 + t2 + t3


def edf_weibull_limit(theta, ad, dps=40):
    """b_T(theta) of CVM (or AD) on the weibull family in `dps`-digit
    arithmetic: int (G_theta(t mu_theta) - F_0(t))^2 w(t) dF_0(t) with
    w = 1 (or 1/(F_0 (1 - F_0))), G_theta(x) = 1 - exp(-x^(1+theta)) and
    mu_theta = Gamma(1 + 1/(1 + theta))."""
    with mpmath.workdps(dps):
        th = mpmath.mpf(theta)
        mu = mpmath.gamma(1 + 1 / (1 + th))

        def f(t):
            f0 = -mpmath.expm1(-t)
            d2 = (-mpmath.expm1(-(t * mu) ** (1 + th)) - f0) ** 2
            return d2 / f0 if ad else d2 * mpmath.exp(-t)

        return mpmath.quad(f, [0, mpmath.mpf("1e-6"), mpmath.mpf("0.01"), 1, 5, 20,
                               60, mpmath.inf])


def edf_weibull_numerator(ad):
    """lim b_T(theta)/theta^2 of edf_weibull_limit by Richardson
    extrapolation from theta = 1e-3, 5e-4 and 2.5e-4 (the remainder is a
    power series in theta)."""
    v = [edf_weibull_limit(th, ad) / mpmath.mpf(th) ** 2 for th in (1e-3, 5e-4, 2.5e-4)]
    r1, r2 = 2 * v[1] - v[0], 2 * v[2] - v[1]
    return float((4 * r2 - r1) / 3)


def edf_eigenvalue(ad, terms=200):
    """Top eigenvalue of the estimated EDF covariance under Exp(1), in
    u = F_0(t): min(u, v) - uv - g(u) g(v) with g(u) = -(1 - u) log(1 - u),
    on L2(du) (CVM) or L2(du / (u (1 - u))) (AD).  The Brownian bridge
    min(u, v) - uv has the eigenpairs 1/(k pi)^2, sqrt(2) sin(k pi u) on
    L2(du) and 1/(k (k + 1)), c_k u (1 - u) P_k'(2u - 1) on the AD space, so
    the top eigenvalue of the rank-one update is the root in
    (lambda_2, lambda_1) of sum_k <g, e_k>^2 / (lambda_k - lambda) = 1; the
    terms past `terms` enter as -(|g|^2 - sum_k <g, e_k>^2) / lambda, with
    |g|^2 = 2/27 (CVM) or 2 (zeta(3) - 1) (AD)."""
    k = np.arange(1, terms + 1)
    s, ws = graded_halfline_grid(1e-7, 45.0, 600, 20)  # u resolves P_k' near 0
    u = -np.expm1(-s)
    g_du = s * np.exp(-2.0 * s) * ws  # g(u) du at u = 1 - e^{-s}
    if ad:
        lam = 1.0 / (k * (k + 1.0))
        # e_k(u) / (u (1 - u)) = c_k P_k'(2u - 1), by its three-term recurrence
        # (k + 1) P_{k+1}' = (2k + 1) x P_k' - k P_{k-1}'
        x = 2.0 * u - 1.0
        dp = np.empty((terms, u.size))
        dp[0] = 1.0
        if terms > 1:
            dp[1] = 3.0 * x
        for j in range(2, terms):
            n = j + 1
            dp[j] = ((2 * n - 1) * x * dp[j - 1] - n * dp[j - 2]) / (n - 1)
        basis = np.sqrt(4.0 * (2 * k + 1) / (k * (k + 1.0)))[:, None] * dp
        norm2 = 2.0 * (float(mpmath.zeta(3)) - 1.0)
    else:
        lam = 1.0 / (k * math.pi) ** 2
        basis = math.sqrt(2.0) * np.sin(math.pi * k[:, None] * u)
        norm2 = 2.0 / 27.0
    gk = basis @ g_du
    tail = norm2 - gk @ gk
    return optimize.brentq(lambda v: np.sum(gk * gk / (lam - v)) - tail / v - 1.0,
                           lam[1] * (1 + 1e-12), lam[0] * (1 - 1e-12),
                           xtol=1e-20, rtol=1e-15)


# ---------------------------------------------------------------------------
# The scipy route of the Ei-based formulas: the package takes Ei and E1 from
# numeric.expi and numeric.exp1, these from scipy.special
# ---------------------------------------------------------------------------

def he_scipy(sample_rows, a):
    """HE of each row as the pair mean of its kernel with scipy's Ei, and the
    sum of the |terms| that cancel in it: mean 1/(a + Y_i + Y_j),
    2 mean |e^{a+Y} Ei(-(a+Y))| and |1 + a e^a Ei(-a)|."""
    x = np.asarray(sample_rows, dtype=float)
    y = x / x.mean(axis=1, keepdims=True)
    u, v = y[:, :, None], y[:, None, :]
    g = np.exp(a + y) * special.expi(-(a + y))
    const = 1.0 + a * np.exp(a) * special.expi(-a)
    pairs = 1.0 / (a + u + v)
    value = (pairs + g[:, :, None] + g[:, None, :] + const).mean(axis=(1, 2))
    return value, pairs.mean(axis=(1, 2)) + 2.0 * np.abs(g).mean(axis=1) + abs(const)


def psi_jd_scipy(x, a):
    """slopes.psi_JD with scipy's E1."""
    c = a / 2.0
    e_full = math.exp(a) * special.exp1(a)
    int_head = 0.5 * math.exp(c) * (special.exp1(c) - special.exp1(c + x))
    return 0.5 * (1.0 / (x + a) + e_full) - (int_head + np.exp(-x) / (2.0 * x + a))


def psi_jp_scipy(x, a):
    """slopes.psi_JP with scipy's Ei and E1 (e^-z Ei(z) for z < 700)."""
    e_full = math.exp(a) * special.exp1(a)
    e_abs = (_ei_scaled(a + x) - np.exp(-x - a) * special.expi(a)
             + np.exp(-x) * e_full)
    return 0.5 * (1.0 / (x + a) + e_full) - e_abs
