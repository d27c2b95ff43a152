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

Every slope comes from one projection f(x, t) per statistic: an L2
statistic is int Z_n(t)^2 w(t) dt and a supremum statistic sup_t |Z_n(t)|
for Z_n(t) = mean f(Y_i, t) of the scaled sample.  Estimating the scale
turns f into f~(x, t) = f(x, t) - (x - 1) int f(y, t) (y - 1) e^{-y} dy,
whose Gram under Exp(1) is the covariance K(s, t) of the limiting process;
the local drift is b(t) = int f~(x, t) g'(x) dx.  Then
* L2 statistics: c_coeff = int b^2 w dt / lambda1, a_T = 1/lambda1, with
  lambda1 the top eigenvalue of K on L2(w dt); MD's projection comes from
  the factorisation of h2_tilde (nulldist), and nMD converges to
  6 sum delta_k W_k^2, so lambda1 = 6 delta1;
* supremum statistics: c_coeff = sup_t b^2 / sup_t K(t,t), a_T = 1/sup_t K(t,t);
* asymptotically normal statistics: c_coeff = (score integral)^2 / variance.
CVM, AD and KS share f = 1{x <= t} - F_0(t); every other x-integral is the
trapezoid rule in log x of the LRT coefficient (_x_rule).

One table, _SLOPES, maps each statistic name to its slope routine and a
`quadratic` flag.  Every routine takes (stat, fam) and returns
(c_coeff, a_T) from one computation.  The report splits c_coeff as
c = a_T * b for quadratic statistics (b is the theta^2-coefficient of b_T)
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
from .families import get_family
from .numeric import (ei_scaled, largest_eigenvalue, maximize_log_grid,
                      panel_gauss_below, panel_gauss_nodes, special)
from .nulldist import (DELTA1_LADDER, covariance_t_nodes,
                       largest_eigenvalue_delta1, sup_variance)
from .statistics import CACHE_BUDGET, EULER_GAMMA, StatisticId, ld_upper_bound

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
# The x-rule and the LRT benchmark
# ---------------------------------------------------------------------------

LRT_STEP = 0.05  # trapezoid step in s = log x of the x-rule


@lru_cache(maxsize=2)
def _x_rule(step: float):
    """Nodes x = e^s and weights step * x of the trapezoid rule in s = log x
    on [-45, log 700].  It converges geometrically, as MP's rule in log t
    does (Trefethen & Weideman 2014, SIAM Rev. 56): every integrand here is
    analytic in s and decays at both ends."""
    x = np.exp(np.arange(-45.0, math.log(700.0), step))
    return x, step * x


def _single_integral(f) -> float:
    x, w = _x_rule(LRT_STEP)
    return float(f(x) @ w)


@lru_cache(maxsize=None)
def lrt_local_coefficient(family) -> float:
    """theta^2-coefficient of 2 inf_lambda KL(g_theta || Exp(lambda)) for a
    local family (an id or the family object itself):
    int_0^inf h^2 e^x dx - mu'(0)^2 with h = g'(x; 0), on the x-rule.

    The scores carry a factor e^{-x}, so h^2 underflows long before e^x
    overflows (at x = 709); the rule stops at 700, and h^2 e^x is formed as
    (h e^{x/2})^2 so that no 0 * inf appears.
    """
    fam = _local_family(family)
    x, w = _x_rule(LRT_STEP)
    root = fam.deriv0(x) * np.exp(x / 2)
    return float(root * root @ w) - fam.mu_prime0 ** 2


# ---------------------------------------------------------------------------
# MD: quadratic pair-minimum statistic
# ---------------------------------------------------------------------------

def _md_numerator(a: float, fam) -> float:
    """Double integral of h2_tilde(x, y; a) against the scores g'(x) g'(y).

    By h2_tilde's factorisation (nulldist) it is
    (2/3) int_0^inf (int phi1_tilde(x, t; a/2) g'(x) dx)^2 dt: the inner
    integral on the x-rule, the outer one on delta1's finest t-grid.
    """
    xs, ws = _x_rule(LRT_STEP)
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
    xs, ws = _x_rule(LRT_STEP)
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
# EDF statistics: CVM, AD (L2) and KS (supremum)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _edf_s_rule():
    return panel_gauss_nodes(np.linspace(-50.0, 0.0, 51), 8)


def _edf_drift(fam, t):
    """Drift b(t) = int_0^t g' + mu'(0) t e^{-t} of f = 1{x <= t} - F_0(t), t of
    any shape; f~ jumps at x = t, so the head is taken in x = t e^s by Gauss
    panels (the trapezoid rule is O(h^2) on an integrand not 0 at s = 0)."""
    s, ws = _edf_s_rule()
    x = t[..., None] * np.exp(s)
    return (fam.deriv0(x) * x) @ ws + fam.mu_prime0 * t * np.exp(-t)


def _cov_edf(t, below):
    """Covariance e^{-max(s,t)} - (1 + st) e^{-s-t} of the EDF process on the
    nodes t, its kink integrated exactly by `below` (panel_gauss_below)."""
    es, eu = np.exp(-t)[:, None], np.exp(-t)[None, :]
    return eu + (es - eu) * below - (1.0 + np.outer(t, t)) * es * eu


@lru_cache(maxsize=None)
def _ks_tail_coefficient() -> float:
    (val,), _ = maximize_log_grid(
        lambda x, rows: np.exp(-2 * x) * (np.exp(x) - x * x - 1.0),
        1e-3, 40.0, ngrid=2048, tol=1e-12)
    return 1.0 / float(val)


def slope_KS(stat: StatisticId, fam):
    """c_coeff = a_KS sup_t b(t)^2 with the EDF drift b, and
    a_KS = 1/sup_t K(t,t) = 1/sup_t e^{-2t}(e^t - t^2 - 1)."""
    (sup_b2,), _ = maximize_log_grid(lambda t, rows: _edf_drift(fam, t) ** 2,
                                     1e-3, 40.0, ngrid=512, tol=1e-10)
    a_t = _ks_tail_coefficient()
    return a_t * float(sup_b2), a_t


# ---------------------------------------------------------------------------
# L2-type battery members (weighted integral statistics)
# ---------------------------------------------------------------------------

def _proj_hm(x, t):
    return np.sin(t * x) - t * np.cos(t * x)


def _proj_mp(x, t):
    """Projection 2 E e^{-t|x - X|} - e^{-tx} - 1/(1 + t) of D - L, with
    E e^{-t|x - X|} = e^{-min(t,1) x} (1 - e^{-|t-1| x})/|t - 1| + e^{-x}/(1 + t)."""
    d = np.abs(t - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        near = np.where(d == 0.0, x, -np.expm1(-d * x) / d)
    return (2.0 * np.exp(-np.minimum(t, 1.0) * x) * near
            + (2.0 * np.exp(-x) - 1.0) / (1.0 + t) - np.exp(-t * x))


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


_WEIGHTS = {
    # kind -> (weight w(t, a), the scale of t on which w decays)
    "exp": (lambda t, a: np.exp(-a * t), lambda a: a),
    "gauss": (lambda t, a: np.exp(-a * t * t), math.sqrt),
    "cvm": (lambda t, a: np.exp(-t), lambda a: 1.0),
    "ad": (lambda t, a: 1.0 / -np.expm1(-t), lambda a: 1.0),
}

_L2_STATISTICS = {
    # id -> (projection f(x, t) or None (EDF); closed-form covariance K(s, t)
    #        of f~ or None (lambda1 found otherwise); weight kind)
    "CVM": (None, None, "cvm"),
    "AD": (None, None, "ad"),
    "BH": (lambda x, t: (1.0 - x - t * x) * np.exp(-t * x), _cov_bh, "exp"),
    "HE": (lambda x, t: np.exp(-t * x) - 1.0 / (1.0 + t), _cov_he, "exp"),
    "W": (lambda x, t: (1.0 + t) * np.exp(-t * x) - 1.0, _cov_w, "exp"),
    "HM1": (_proj_hm, _cov_hm, "exp"),
    "HM2": (_proj_hm, _cov_hm, "gauss"),
    "MP": (_proj_mp, None, "exp"),
}

T_PANELS = 56  # panels of _t_rule
EIGEN_POINTS, DRIFT_POINTS = 20, 8  # Gauss points per panel for lambda1, drift
WEIGHT_KEPT = math.exp(-36.0)  # the t-rules end where the weight falls below this
HM_STEP = 0.9  # largest x-step of HM times the largest t the weight keeps


@lru_cache(maxsize=None)
def _t_rule(scale: float, npts: int):
    """Gauss nodes and weights on (0, inf), npts per panel, for a weight that
    decays on the t-scale 1/scale: the panel [0, 1e-4 min(1, 1/scale)] holds
    the drift's t log t (weibull, gamma), and T_PANELS - 1 geometric panels up
    to max(100, 60/scale) resolve HM's covariance, a ridge of unit width."""
    edges = np.concatenate([[0.0], np.geomspace(1e-4 * min(1.0, 1.0 / scale),
                                                max(100.0, 60.0 / scale), T_PANELS)])
    return panel_gauss_nodes(edges, npts)


def _l2_t_rule(name: str, a: Optional[float], npts: int):
    """(t, weights of the t-rule times w(t, a)) of an L2 member, up to the
    last node where w(t, a) is at least WEIGHT_KEPT (w decreases in t)."""
    weight, scale = _WEIGHTS[_L2_STATISTICS[name][2]]
    t, wt = _t_rule(scale(a), npts)
    w = weight(t, a)
    return t[w >= WEIGHT_KEPT], (wt * w)[w >= WEIGHT_KEPT]


def _x_step(name: str, a: Optional[float]) -> float:
    """LRT_STEP, or for HM, whose projection oscillates like sin(tx), HM_STEP
    over the largest t-node its weight keeps (about a/40 for HM1)."""
    if _L2_STATISTICS[name][0] is not _proj_hm:
        return LRT_STEP
    return min(LRT_STEP, HM_STEP / _l2_t_rule(name, a, DRIFT_POINTS)[0][-1])


def _influence(proj, t, x, w):
    """f~(x, t) = f(x, t) - (x - 1) int f(y, t) (y - 1) e^{-y} dy on the
    nodes t (rows) and the x-rule (x, w) (columns)."""
    f = proj(x, t[:, None])
    f -= np.multiply.outer(f @ ((x - 1.0) * np.exp(-x) * w), x - 1.0)
    return f


def _drift(name: str, a: Optional[float], fam, t):
    """b(t) = int f~(x, t) g'(x) dx on the nodes t, in row blocks of
    CACHE_BUDGET elements."""
    proj = _L2_STATISTICS[name][0]
    if proj is None:
        return _edf_drift(fam, t)
    x, w = _x_rule(_x_step(name, a))
    gw = fam.deriv0(x) * w
    rows = max(1, CACHE_BUDGET // x.size)
    return np.concatenate([_influence(proj, t[k:k + rows], x, w) @ gw
                           for k in range(0, t.size, rows)])


@lru_cache(maxsize=None)
def _l2_operator_eigenvalue(name: str, a: Optional[float]) -> float:
    """lambda1: top eigenvalue of K on L2(w dt) by Nystrom on _t_rule; K is the
    closed form, the EDF covariance, or (MP) the Gram of f~ on the x-rule."""
    proj, cov, _ = _L2_STATISTICS[name]
    t, mass = _l2_t_rule(name, a, EIGEN_POINTS)
    if proj is None:
        mat = _cov_edf(t, panel_gauss_below(EIGEN_POINTS, T_PANELS)[:t.size, :t.size])
    elif cov is None:
        x, w = _x_rule(_x_step(name, a))
        f = _influence(proj, t, x, w)
        mat = (f * (np.exp(-x) * w)) @ f.T
    else:
        mat = cov(t[:, None], t[None, :])
    sq = np.sqrt(mass)
    return largest_eigenvalue(mat * np.outer(sq, sq))


def slope_L2_family(stat: StatisticId, fam):
    """c_coeff = int b^2 w dt / lambda1, a_T = 1/lambda1."""
    t, mass = _l2_t_rule(stat.name, stat.a, DRIFT_POINTS)
    b = _drift(stat.name, stat.a, fam, t)
    lam = _l2_operator_eigenvalue(stat.name, stat.a)
    return float(mass @ (b * b)) / lam, 1.0 / lam


# ---------------------------------------------------------------------------
# The slope table and reporting
# ---------------------------------------------------------------------------

# statistic name -> (slope routine, quadratic); routines are named, not held,
# so that a rebound module attribute (a wrapper, say) is the one called
_SLOPES = {
    **{name: ("slope_normal_family", False) for name in _NORMAL_SHAPES},
    **{name: ("slope_L2_family", True) for name in _L2_STATISTICS},
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
