"""Local approximate Bahadur slope coefficients and efficiencies.

For a test statistic T with null tail coefficient a_T and in-probability
limit b_T(theta) under a local alternative, the approximate Bahadur slope is
c*(theta) = a_T * b_T(theta)^2.  All families here are local alternatives
g(x; theta) with g(x; 0) = e^{-x}, so c*(theta) = c_coeff * theta^2 + o(theta^2)
and the local efficiency is c_coeff / lrt_coeff, where lrt_coeff is the
theta^2-coefficient of twice the Kullback-Leibler infimum
2 inf_lambda KL(g_theta || Exp(lambda)): the Fisher-type integral
lrt_coeff = int_0^inf h(x)^2 e^x dx - mu'(0)^2 of the family's scores
h = g'(x; 0) and mean derivative mu'(0) (Nikitin 1995, Asymptotic Efficiency
of Nonparametric Tests).

Conventions per statistic type:

* quadratic (L2) statistics with weighted chi-square limits: c_coeff is the
  ratio (double integral of the projected kernel against the scores) over
  the largest operator eigenvalue, with the combination constant cancelling.
  MP and the L2 battery take the double integral on the pair grid of the
  half-line grid.  MD takes it, and delta1, through the factorisation of
  h2_tilde by the pair-minimum process (nulldist): one integral over x per
  node of delta1's t-grid, so no h2_tilde matrix is built;
* supremum statistics: c_coeff = sup_t (projection integral)^2 / sup_t K(t,t);
* asymptotically normal statistics: c_coeff = (score integral)^2 / variance.

Tail coefficients: the L2 statistic nMD converges to 6 sum delta_k W_k^2, so
its Bahadur tail coefficient is 1/(6 delta1); the supremum statistic's is
1/sup_t K(t,t).

One table, _SLOPES, maps each statistic name to its slope routine and a
`quadratic` flag.  Every routine takes (stat, fam) and returns
(c_coeff, a_T) from one computation.  The report splits c_coeff as
c = a_T * b for quadratic statistics (b is the theta^2-coefficient of b_T^2)
and as c = a_T * b^2 for normal and supremum statistics (b is the
theta-coefficient of b_T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError
from .families import family_mean, get_family
from .numeric import (ei_scaled, exp_measure_nodes, graded_halfline_nodes,
                      largest_eigenvalue, maximize_log_grid, panel_gauss_nodes,
                      special)
from .nulldist import (DELTA1_LADDER, covariance_t_nodes,
                       largest_eigenvalue_delta1, sup_variance)
from .statistics import (EULER_GAMMA, StatisticId, kernel_ad, kernel_bh, kernel_cvm,
                         kernel_he, kernel_hm1, kernel_hm2, kernel_w, ld_upper_bound)

EFFICIENCY_SLACK = 1.02


@dataclass(frozen=True)
class SlopeReport:
    statistic: StatisticId
    family: str
    a_T: float
    b_coeff: float  # theta- (or theta^2-) expansion coefficient of b_T (or b_T^2)
    c_coeff: float  # theta^2-coefficient of the local slope c*(theta)
    lrt_coeff: float
    efficiency: float
    flagged: bool = False  # efficiency above the LRT optimum beyond slack


def _local_family(family):
    """The family object, if it is a local alternative: one with its scores
    g'(x; 0) (deriv0) and mean derivative (mu_prime0) at theta = 0."""
    fam = get_family(family) if isinstance(family, str) else family
    if fam.deriv0 is None or fam.mu_prime0 is None:
        raise DomainError(f"slopes are defined for local families (with "
                          f"deriv0 and mu_prime0), not {fam.id!r}")
    return fam


# ---------------------------------------------------------------------------
# Quadrature grids (built on first use, then cached)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _halfline_grid():
    return graded_halfline_nodes(inner=1e-4, outer=60.0, panels=60, npts=12)


@lru_cache(maxsize=1)
def _pair_grid():
    """Tensor grid of _halfline_grid: x (k, 1), y (1, k) and weights (k, k)."""
    x, w = _halfline_grid()
    return x[:, None], x[None, :], np.outer(w, w)


MU_STEP = 1e-4  # central-difference step of the L2 mu-derivatives


@lru_cache(maxsize=1)
def _pair_kernel(name: str, a: Optional[float]):
    """Family-independent part of a pair-grid double integral (MP and the
    L2 battery), so that each family costs one quadratic form.

    Returns (K, d, c) with K_ij = Phi(x_i, x_j) W_ij, the kernel weighted by
    the pair-grid quadrature weights W; Phi is mp_projected_kernel for MP
    and the battery kernel at mu = 1 for an L2 member.  For an L2 member
    d = D1 g0 and c = g0' D2 g0 contract the weighted mu-derivatives D1, D2
    of the kernel (central differences with step MU_STEP) with g0 = e^{-x};
    both are None for MP.

    One entry suffices because sweeps of the efficiency tables loop over the
    families innermost; it also means no 720 x 720 matrix outlives the next
    (statistic, a).
    """
    xg, yg, wg = _pair_grid()
    if name == "MP":
        return mp_projected_kernel(xg, yg, a) * wg, None, None
    kernel, _, _ = _L2_KERNELS[name]
    h = MU_STEP
    g0 = np.exp(-xg[:, 0])
    p0 = kernel(xg, yg, 1.0, a)
    pp = kernel(xg, yg, 1.0 + h, a)
    pm = kernel(xg, yg, 1.0 - h, a)
    d1 = (pp - pm) / (2 * h) * wg
    d2 = (pp - 2 * p0 + pm) / (h * h) * wg
    return p0 * wg, d1 @ g0, float(g0 @ d2 @ g0)


def _single_integral(f) -> float:
    x, w = _halfline_grid()
    return float(np.dot(f(x), w))


# ---------------------------------------------------------------------------
# LRT benchmark
# ---------------------------------------------------------------------------

LRT_STEP = 0.05  # trapezoid step in s = log x of the LRT integral


@lru_cache(maxsize=None)
def lrt_local_coefficient(family) -> float:
    """theta^2-coefficient of 2 inf_lambda KL(g_theta || Exp(lambda)) for a
    local family (an id or the family object itself):
    int_0^inf h^2 e^x dx - mu'(0)^2 with h = g'(x; 0).

    The integral is the trapezoid rule in s = log x with step LRT_STEP on
    [-45, log 700], which converges geometrically as MP's rule does: the
    integrand x h(x)^2 e^x is analytic in s and decays at both ends.  The
    scores carry a factor e^{-x}, so h^2 underflows long before e^x
    overflows (at x = 709); the rule stops at 700, and h^2 e^x is formed as
    (h e^{x/2})^2 so that no 0 * inf appears.
    """
    fam = _local_family(family)
    x = np.exp(np.arange(-45.0, math.log(700.0), LRT_STEP))
    root = fam.deriv0(x) * np.exp(x / 2)
    return LRT_STEP * float(np.sum(root * root * x)) - fam.mu_prime0 ** 2


# ---------------------------------------------------------------------------
# MD: quadratic pair-minimum statistic
# ---------------------------------------------------------------------------

def _md_numerator(a: float, fam) -> float:
    """Double integral of h2_tilde(x, y; a) against the scores g'(x) g'(y).

    By h2_tilde's factorisation (nulldist) it is
    (2/3) int_0^inf (int phi1_tilde(x, t; a/2) g'(x) dx)^2 dt: the inner
    integral on the half-line grid, the outer one on delta1's finest t-grid.
    """
    xs, ws = _halfline_grid()
    t, wt = covariance_t_nodes(a, DELTA1_LADDER[-1])
    inner = phi1_tilde(xs, t[:, None], a / 2) @ (fam.deriv0(xs) * ws)
    return 2.0 / 3.0 * float(wt @ (inner * inner))


def slope_MD(stat: StatisticId, fam):
    """c_coeff = _md_numerator / delta1, a_T = 1/(6 delta1)."""
    delta1 = largest_eigenvalue_delta1(stat.a).delta1
    return _md_numerator(stat.a, fam) / delta1, 1.0 / (6.0 * delta1)


# ---------------------------------------------------------------------------
# LD: supremum statistic
# ---------------------------------------------------------------------------

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


def slope_LD(stat: StatisticId, fam):
    """c_coeff = sup_t (int phi1_tilde g')^2 / sup_t K(t,t),
    a_T = 1/sup_t K(t,t)."""
    a = stat.a
    xs, ws = _halfline_grid()
    gpx = fam.deriv0(xs) * ws

    def inner_sq(t, rows):
        vals = phi1_tilde(xs, t[..., None], a) @ gpx
        return vals * vals

    (sup_i,), _ = maximize_log_grid(inner_sq, 1e-4, ld_upper_bound(a),
                                    ngrid=512, tol=1e-10)
    sup_k = sup_variance(a).sup_variance
    return float(sup_i) / sup_k, 1.0 / sup_k


# ---------------------------------------------------------------------------
# Asymptotically normal battery members
# ---------------------------------------------------------------------------

_NORMAL_SHAPES = {
    # id -> (score weight xi(x), variance-normalizing constant in c = const * I^2)
    "EP": (lambda x: 4.0 * np.exp(-x) + x, 3.0),
    "GINI": (lambda x: 2.0 * np.exp(-x) + x / 2.0, 12.0),
    "CO": (lambda x: (1.0 - x) * np.log(x) + (1.0 - EULER_GAMMA) * x,
           6.0 / math.pi**2),
    "MO": (lambda x: np.log(x) - x, 1.0 / (math.pi**2 / 6.0 - 1.0)),
}


def slope_normal_family(stat: StatisticId, fam):
    """c_coeff = const * (score integral)^2, a_T = const."""
    shape, const = _NORMAL_SHAPES[stat.name]
    integral = _single_integral(lambda x: shape(x) * fam.deriv0(x))
    return const * integral * integral, const


# ---------------------------------------------------------------------------
# J statistics (first-order Laplace transform distances)
# ---------------------------------------------------------------------------

def psi_JD(x, a):
    """Projection of the pair-minimum first-order kernel under Exp(1)."""
    x = np.asarray(x, dtype=float)
    c = a / 2.0
    exp1 = special().exp1
    e_full = math.exp(a) * exp1(a)
    int_head = 0.5 * math.exp(c) * (exp1(c) - exp1(c + x))
    e_min = int_head + np.exp(-x) / (2.0 * x + a)
    return 0.5 * (1.0 / (x + a) + e_full) - e_min


def psi_JP(x, a):
    """Projection of the pairwise-difference first-order kernel under Exp(1)."""
    x = np.asarray(x, dtype=float)
    e_full = math.exp(a) * special().exp1(a)
    # E e^{-t|x - X|} integrated against e^{-at}: stable via e^{-z} Ei(z)
    e_abs = (ei_scaled(a + x) - np.exp(-x - a) * special().expi(a)
             + np.exp(-x) * e_full)
    return 0.5 * (1.0 / (x + a) + e_full) - e_abs


def slope_J_family(stat: StatisticId, fam):
    """c_coeff = (int psi g')^2 / var psi(X), a_T = 1/var psi(X)."""
    psi = {"JD": psi_JD, "JP": psi_JP}[stat.name]
    a = stat.a
    mean = _single_integral(lambda x: psi(x, a) * np.exp(-x))
    var = _single_integral(lambda x: (psi(x, a) - mean) ** 2 * np.exp(-x))
    num = _single_integral(lambda x: (psi(x, a) - mean) * fam.deriv0(x))
    return num * num / var, 1.0 / var


# ---------------------------------------------------------------------------
# KS (Lilliefors Kolmogorov-Smirnov)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ks_tail_coefficient() -> float:
    (val,), _ = maximize_log_grid(
        lambda x, rows: np.exp(-2 * x) * (np.exp(x) - x * x - 1.0),
        1e-3, 40.0, ngrid=2048, tol=1e-12)
    return 1.0 / float(val)


def slope_KS(stat: StatisticId, fam):
    """KS slope: a_KS = 1/sup_x e^{-2x}(e^x - x^2 - 1); the b-coefficient is
    the local rate of the scaled Kolmogorov distance, extracted numerically."""

    def b_of(th):
        mu = family_mean(fam, th)

        def dist(x, rows):
            return np.abs(fam.cdf(x * mu, th) + np.expm1(-x))

        (val,), _ = maximize_log_grid(dist, 1e-3, 25.0, ngrid=512, tol=1e-10)
        return float(val)

    v = [b_of(th) / th for th in (0.02, 0.01, 0.005)]
    r1 = v[1] + (v[1] - v[0])
    r2 = v[2] + (v[2] - v[1])
    # halving theta leaves an O(theta^2) remainder after the first step
    b1 = r2 + (r2 - r1) / 3.0
    a_t = _ks_tail_coefficient()
    return a_t * b1 * b1, a_t


# ---------------------------------------------------------------------------
# L2-type battery members (weighted integral statistics)
# ---------------------------------------------------------------------------

def _cov_cvm(s, t):
    """Covariance with the CvM weight already embedded."""
    return np.exp(-1.5 * (s + t)) * (np.exp(np.minimum(s, t)) - 1.0 - s * t)


def _cov_ad(s, t):
    """AD covariance, written overflow-free for large s + t."""
    mn = np.minimum(s, t)
    num = np.exp(mn - s - t) - (1.0 + s * t) * np.exp(-(s + t))
    den = np.sqrt((-np.expm1(-s)) * (-np.expm1(-t)))
    return num / den


def _cov_bh(s, t):
    return (1 + s + t + 2 * s * t) / (1 + s + t) ** 3 - 1.0 / ((1 + s) ** 2 * (1 + t) ** 2)


def _cov_he(s, t):
    return s * s * t * t / ((s + t + 1) * (s + 1) ** 2 * (t + 1) ** 2)


def _cov_w(s, t):
    return s * s * t * t / ((s + t + 1) * (s + 1) * (t + 1))


def _cov_hm(s, t):
    return (s * t * (s * s + t * t + 1)
            / ((1 + (s - t) ** 2) * (1 + (s + t) ** 2))
            - s * t / ((1 + s * s) * (1 + t * t)))


_L2_KERNELS = {
    # id -> (kernel Phi(x, y, mu, a), covariance K(s,t), weight kind)
    "CVM": (kernel_cvm, _cov_cvm, "embedded"),
    "AD": (kernel_ad, _cov_ad, "embedded"),
    "BH": (kernel_bh, _cov_bh, "exp"),
    "HE": (kernel_he, _cov_he, "exp"),
    "W": (kernel_w, _cov_w, "exp"),
    "HM1": (kernel_hm1, _cov_hm, "exp"),
    "HM2": (kernel_hm2, _cov_hm, "gauss"),
}


@lru_cache(maxsize=None)
def _l2_operator_eigenvalue(name: str, a: Optional[float]) -> float:
    """Largest eigenvalue of the weighted covariance operator on L2(Lebesgue)."""
    _, cov, weight = _L2_KERNELS[name]
    edges = np.concatenate([[0.0], np.geomspace(0.02, 100.0, 40)])
    t, w = panel_gauss_nodes(edges, 20)
    if weight == "exp":
        mass = w * np.exp(-a * t)
    elif weight == "gauss":
        mass = w * np.exp(-a * t * t)
    else:
        mass = w
    mat = cov(t[:, None], t[None, :]) * np.sqrt(np.outer(mass, mass))
    return largest_eigenvalue(mat)


def _l2_numerator(name: str, a: Optional[float], fam) -> float:
    """theta^2-coefficient of b_T^2: expands Phi(x, y; mu(theta)) under
    g_theta x g_theta, with mu-derivatives by central differences."""
    p0, d1_g0, c = _pair_kernel(name, a)
    gp = fam.deriv0(_halfline_grid()[0])
    mu1 = fam.mu_prime0
    t1 = 2.0 * (gp @ p0 @ gp)
    t2 = 4.0 * mu1 * (gp @ d1_g0)
    t3 = mu1 * mu1 * c
    return float(t1 + t2 + t3)


def mp_projected_kernel(x, y, a):
    """Second projection of the pairwise-difference L2 kernel under Exp(1)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ex, ey = np.exp(x), np.exp(y)
    t1 = (np.exp(a - x - y) * special().expi(-a)
          * (a * (ex - 2) * (ey - 2) - ex - ey + 4)) / 6.0
    t2 = (np.exp(-x - y) * ei_scaled(a) * (4 * a + ex + ey - 4)
          - (np.exp(-y) * ei_scaled(a + x) * (4 * (a + x - 1) + ey)
             + np.exp(-x) * ei_scaled(a + y) * (4 * (a + y - 1) + ex)
             - 4 * (a + x + y - 1) * ei_scaled(a + x + y))) / 6.0
    t3 = -0.5 + (np.exp(-x) + np.exp(-y)) / 3.0 + 1.0 / (6 * (a + x + y))
    return t1 + t2 + t3


@lru_cache(maxsize=None)
def _mp_eigenvalue(a: float) -> float:
    x, w = exp_measure_nodes(240)
    mat = mp_projected_kernel(x[:, None], x[None, :], a) * np.sqrt(np.outer(w, w))
    return largest_eigenvalue(mat)


def slope_L2_family(stat: StatisticId, fam):
    """c_coeff = (double integral against the scores) / (largest operator
    eigenvalue, doubled outside MP), a_T = 1 / that denominator."""
    if stat.name == "MP":
        gp = fam.deriv0(_halfline_grid()[0])
        integral = float(gp @ _pair_kernel("MP", stat.a)[0] @ gp)
        eig = _mp_eigenvalue(stat.a)
        return integral / eig, 1.0 / eig
    num = _l2_numerator(stat.name, stat.a, fam)
    eig2 = 2.0 * _l2_operator_eigenvalue(stat.name, stat.a)
    return num / eig2, 1.0 / eig2


# ---------------------------------------------------------------------------
# The slope table and reporting
# ---------------------------------------------------------------------------

# statistic name -> (slope routine, quadratic); routines are named, not held,
# so that a rebound module attribute (a wrapper, say) is the one called
_SLOPES = {
    **{name: ("slope_normal_family", False) for name in _NORMAL_SHAPES},
    **{name: ("slope_L2_family", True) for name in _L2_KERNELS},
    "MP": ("slope_L2_family", True),
    "MD": ("slope_MD", True),
    "LD": ("slope_LD", False),
    "KS": ("slope_KS", False),
    "JD": ("slope_J_family", False),
    "JP": ("slope_J_family", False),
}


def _slope_and_tail(stat: StatisticId, fam):
    """(c_coeff, a_T, quadratic) of a statistic on a local family object."""
    routine, quadratic = _SLOPES[stat.name]
    c_coeff, a_t = globals()[routine](stat, fam)
    return c_coeff, a_t, quadratic


def slope_coefficient(stat: StatisticId, family) -> float:
    """theta^2-coefficient of the approximate Bahadur slope for any statistic."""
    return _slope_and_tail(stat, _local_family(family))[0]


def efficiency(stat: StatisticId, family) -> SlopeReport:
    fam = _local_family(family)
    c_coeff, a_t, quadratic = _slope_and_tail(stat, fam)
    b_coeff = c_coeff / a_t if quadratic else math.sqrt(max(c_coeff, 0.0) / a_t)
    lrt = lrt_local_coefficient(fam)
    eff = c_coeff / lrt
    return SlopeReport(statistic=stat, family=fam.id, a_T=a_t,
                       b_coeff=b_coeff, c_coeff=c_coeff, lrt_coeff=lrt,
                       efficiency=eff, flagged=not (0.0 <= eff <= EFFICIENCY_SLACK))


EFFICIENCY_COLUMNS = ("statistic", "a", "family", "a_T", "c_coeff",
                      "lrt_coeff", "efficiency", "b_coeff", "flagged")


def efficiency_rows(reports) -> list:
    """One row per SlopeReport, keyed by EFFICIENCY_COLUMNS; the numbers are
    written with repr, so they read back exactly."""
    return [{"statistic": r.statistic.name,
             "a": "" if r.statistic.a is None else f"{r.statistic.a:g}",
             "family": r.family, "a_T": repr(r.a_T),
             "c_coeff": repr(r.c_coeff), "lrt_coeff": repr(r.lrt_coeff),
             "efficiency": repr(r.efficiency), "b_coeff": repr(r.b_coeff),
             "flagged": r.flagged}
            for r in reports]


def efficiency_curve(stat_name: str, family, a_grid):
    """Efficiencies of a tuned statistic over a grid of tuning parameters."""
    out = []
    for a in a_grid:
        rep = efficiency(StatisticId(stat_name, float(a)), family)
        out.append((float(a), rep.efficiency))
    return out
