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

Every slope is one of three kinds on one projection per statistic.  An L2
statistic is int Z_n(t)^2 w(t) dt and a supremum statistic sup_t |Z_n(t)|
for Z_n(t) = mean f(Y_i, t, a) of the scaled sample; an asymptotically
normal statistic has the first projection psi(x, a).  Estimating the scale
turns f into f~(x, t) = f(x, t) - (x - 1) int f(y, t) (y - 1) e^{-y} dy,
whose Gram under Exp(1) is the covariance K(s, t) of the limiting process;
the local drift is b(t) = int f~(x, t) g'(x) dx.  Then
* L2 statistics (_l2_slope): c_coeff = int b^2 w dt / lambda1,
  a_T = 1/lambda1, with lambda1 the top eigenvalue of K on L2(w dt).  Every
  lambda1 comes from numeric.operator_eigenvalue, one Nystrom ladder of
  t-rules that stops where two rungs agree and raises NumericsError when
  none do (HM1 at a = 0.1).  MD is one: f = 2 phi1_tilde(x, t; 0),
  w = e^{-at} and K = 4 K(s, t; 0) (nulldist's covariance_K); nMD
  converges to 6 sum delta_k W_k^2, so lambda1 = 6 delta1;
* supremum statistics (_sup_slope): c_coeff = sup_t b^2 / sup_t K(t,t),
  a_T = 1/sup_t K(t,t); LD (f = phi1_tilde(x, t; a)) and KS;
* asymptotically normal statistics (_normal_slope):
  c_coeff = (int psi g')^2 / Var psi(X), a_T = 1/Var psi(X).  Every psi here
  is orthogonal to x - 1 under Exp(1), so its scale correction is 0.
CVM, AD and KS share f = 1{x <= t} - F_0(t); every other x-integral is the
trapezoid rule in log x of the LRT coefficient (_x_rule).

f~ does not depend on the family, so the drift takes a tuple of families
(_drift) and contracts each row block of f~ with the stacked scores g' of
all of them.  A family object of the catalogue (get_family of
LOCAL_FAMILIES) takes the four-family tuple (_family_column), so the L2 and
supremum members make one drift pass per (statistic, a) for all four, whose
results (_l2_numerators, _sup_drifts_sq) are cached; any other family
object takes a tuple of its own through the same code.  Ei and E1 (JD, JP)
are numeric.expi and numeric.exp1, so no slope loads scipy.

One table, _SLOPES, maps each statistic name to its slope routine, its
projection, its closed-form covariance K(s, t) (or None) and its L2 weight
kind (None for normal and supremum statistics).  Every routine takes
(stat, fam), hands its kind's helper lambda1 or sup K, and returns
(c_coeff, a_T).  The report splits c_coeff as c = a_T * b for L2
statistics (b is the theta^2-coefficient of b_T) and as c = a_T * b^2 for
normal and supremum statistics (b is the theta-coefficient of b_T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .core import float_cell
from .errors import DomainError
from .families import LOCAL_FAMILIES, get_family
from .numeric import (CACHE_BUDGET, ei_scaled, exp1, expi, maximize_log_grid,
                      operator_eigenvalue, panel_gauss_below, panel_gauss_nodes, t_rule)
from .nulldist import covariance_K, largest_eigenvalue_delta1, phi1_tilde, sup_variance
from .statistics import EULER_GAMMA, StatisticId, ld_upper_bound, proj_bh, proj_he, proj_w

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
# Projections
# ---------------------------------------------------------------------------

def psi_JD(x, a):
    """Projection of the pair-minimum first-order kernel under Exp(1)."""
    x = np.asarray(x, dtype=float)
    c = a / 2.0
    e_full = math.exp(a) * exp1(a)
    int_head = 0.5 * math.exp(c) * (exp1(c) - exp1(c + x))
    e_min = int_head + np.exp(-x) / (2.0 * x + a)
    return 0.5 * (1.0 / (x + a) + e_full) - e_min


def psi_JP(x, a):
    """Projection of the pairwise-difference first-order kernel under Exp(1)."""
    x = np.asarray(x, dtype=float)
    e_full = math.exp(a) * exp1(a)
    # E e^{-t|x - X|} integrated against e^{-at}: stable via e^{-z} Ei(z)
    e_abs = (ei_scaled(a + x) - np.exp(-x - a) * expi(a)
             + np.exp(-x) * e_full)
    return 0.5 * (1.0 / (x + a) + e_full) - e_abs


def _proj_hm(x, t, a):
    return np.sin(t * x) - t * np.cos(t * x)


def _proj_mp(x, t, a):
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


# ---------------------------------------------------------------------------
# The slope table
# ---------------------------------------------------------------------------

_SLOPES = {
    # id -> (slope routine, projection, closed-form covariance K(s, t) of f~
    #        or None, L2 weight kind or None).  The projection is psi(x, a)
    #        for a normal member, f(x, t, a) for an L2 or supremum member and
    #        None for the EDF members (BH's, HE's and W's are the ones their
    #        statistics' kernels evaluate).  Routines are named, not held, so that
    #        a rebound module attribute (a wrapper, say) is the one called.
    "EP": ("slope_normal_family", lambda x, a: 4.0 * np.exp(-x) + x, None, None),
    "GINI": ("slope_normal_family", lambda x, a: 2.0 * np.exp(-x) + x / 2.0, None, None),
    "CO": ("slope_normal_family",
           lambda x, a: (1.0 - x) * np.log(x) + (1.0 - EULER_GAMMA) * x, None, None),
    "MO": ("slope_normal_family", lambda x, a: np.log(x) - x, None, None),
    "JD": ("slope_J_family", psi_JD, None, None),
    "JP": ("slope_J_family", psi_JP, None, None),
    "LD": ("slope_LD", phi1_tilde, None, None),
    "KS": ("slope_KS", None, None, None),
    "MD": ("slope_MD", lambda x, t, a: 2.0 * phi1_tilde(x, t, 0.0),
           lambda s, t: 4.0 * covariance_K(s, t, 0.0), "exp"),
    "CVM": ("slope_L2_family", None, None, "cvm"),
    "AD": ("slope_L2_family", None, None, "ad"),
    "BH": ("slope_L2_family", proj_bh, _cov_bh, "exp"),
    "HE": ("slope_L2_family", proj_he, _cov_he, "exp"),
    "W": ("slope_L2_family", proj_w, _cov_w, "exp"),
    "HM1": ("slope_L2_family", _proj_hm, _cov_hm, "exp"),
    "HM2": ("slope_L2_family", _proj_hm, _cov_hm, "gauss"),
    "MP": ("slope_L2_family", _proj_mp, None, "exp"),
}

# ---------------------------------------------------------------------------
# Drifts and covariances on the x-rule and the t-rules
# ---------------------------------------------------------------------------

DRIFT_POINTS = 8  # Gauss points per t-panel of the drift
HM_STEP = 0.9  # largest x-step of HM times the largest t the weight keeps


def _x_step(name: str, a: Optional[float]) -> float:
    """LRT_STEP, or for HM, whose projection oscillates like sin(tx), HM_STEP
    over the largest t-node its weight keeps (about a/40 for HM1)."""
    return (LRT_STEP if _SLOPES[name][1] is not _proj_hm
            else min(LRT_STEP, HM_STEP / t_rule(_SLOPES[name][3], a, DRIFT_POINTS)[0][-1]))


def _influence(proj, a, t, x, w):
    """f~(x, t) = f(x, t, a) - (x - 1) int f(y, t, a) (y - 1) e^{-y} dy on the
    nodes t (rows) and the x-rule (x, w) (columns)."""
    f = proj(x, t[:, None], a)
    f -= np.multiply.outer(f @ ((x - 1.0) * np.exp(-x) * w), x - 1.0)
    return f


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


_CATALOGUE = tuple(map(get_family, LOCAL_FAMILIES))


def _family_column(fam):
    """(families, column): the catalogue's local families and fam's place
    among them when fam is one of those objects, so that one drift pass per
    (statistic, a) serves all four; otherwise (fam,) and 0."""
    for j, local in enumerate(_CATALOGUE):
        if fam is local:
            return _CATALOGUE, j
    return (fam,), 0


def _drift(name: str, a: Optional[float], fams: tuple, t):
    """b(t) = int f~(x, t) g'(x) dx on the nodes t for each family of fams, as
    a (t.size, len(fams)) matrix: each row block of f~ (CACHE_BUDGET
    elements) is built once and contracted with every family's scores."""
    proj = _SLOPES[name][1]
    if proj is None:
        return np.stack([_edf_drift(fam, t) for fam in fams], axis=1)
    x, w = _x_rule(_x_step(name, a))
    scores = np.stack([fam.deriv0(x) * w for fam in fams], axis=1)
    rows = max(1, CACHE_BUDGET // x.size)
    return np.concatenate([_influence(proj, a, t[k:k + rows], x, w) @ scores
                           for k in range(0, t.size, rows)])


def _cov_edf(t, below):
    """Covariance e^{-max(s,t)} - (1 + st) e^{-s-t} of the EDF process on the
    nodes t, its kink integrated exactly by `below` (panel_gauss_below)."""
    es, eu = np.exp(-t)[:, None], np.exp(-t)[None, :]
    return eu + (es - eu) * below - (1.0 + np.outer(t, t)) * es * eu


def _l2_kernel(name: str, a: Optional[float], t, npts: int):
    """K of an L2 member on the nodes t of its npts-point t-rule: the closed
    form, the EDF covariance, or (MP) the Gram of f~ on the x-rule."""
    _, proj, cov, _ = _SLOPES[name]
    if proj is None:
        return _cov_edf(t, panel_gauss_below(npts, t.size // npts + 1)[:t.size, :t.size])
    if cov is None:
        x, w = _x_rule(_x_step(name, a))
        f = _influence(proj, a, t, x, w)
        return (f * (np.exp(-x) * w)) @ f.T
    return cov(t[:, None], t[None, :])


@lru_cache(maxsize=None)
def _l2_operator_eigenvalue(name: str, a: Optional[float]) -> float:
    """lambda1: top eigenvalue of K (_l2_kernel) on L2(w dt), the last rung of
    numeric.operator_eigenvalue's ladder; NumericsError when it does not converge."""
    return operator_eigenvalue(partial(_l2_kernel, name, a), _SLOPES[name][3], a)[-1][1]


@lru_cache(maxsize=None)
def _ks_sup_variance() -> float:
    """sup_t K(t,t) = sup_t e^{-2t}(e^t - t^2 - 1) of the EDF process."""
    (val,), _ = maximize_log_grid(
        lambda x, rows: np.exp(-2 * x) * (np.exp(x) - x * x - 1.0),
        1e-3, 40.0, ngrid=2048, tol=1e-12)
    return float(val)


# ---------------------------------------------------------------------------
# The three slope kinds and the routines of the table
# ---------------------------------------------------------------------------

def _normal_slope(stat: StatisticId, fam):
    """c_coeff = (int psi g')^2 / Var psi(X), a_T = 1/Var psi(X), on the x-rule."""
    x, w = _x_rule(LRT_STEP)
    mass = np.exp(-x) * w
    psi = _SLOPES[stat.name][1](x, stat.a)
    psi = psi - psi @ mass
    var = float((psi * psi) @ mass)
    num = float(psi @ (fam.deriv0(x) * w))
    return num * num / var, 1.0 / var


@lru_cache(maxsize=None)
def _l2_numerators(name: str, a: Optional[float], fams: tuple) -> tuple:
    """int b^2 w dt of each family of fams."""
    t, mass = t_rule(_SLOPES[name][3], a, DRIFT_POINTS)
    b = _drift(name, a, fams, t)
    return tuple(map(float, mass @ (b * b)))


@lru_cache(maxsize=None)
def _sup_drifts_sq(name: str, a: Optional[float], fams: tuple, hi: float) -> tuple:
    """sup_t b(t)^2 over [1e-4, hi] of each family of fams: the families are
    the rows of one maximize_log_grid scan, and a refine probe takes its
    row's column of the drift."""
    def drift_sq(t, rows):
        b = _drift(name, a, fams, t.ravel())
        b = b.T if isinstance(rows, slice) else b[np.arange(rows.size), rows][:, None]
        return b * b

    sup_b2, _ = maximize_log_grid(drift_sq, 1e-4, hi, ngrid=512, tol=1e-10)
    return tuple(map(float, sup_b2))


def _l2_slope(stat: StatisticId, fam, lam: float):
    """c_coeff = int b^2 w dt / lambda1, a_T = 1/lambda1."""
    fams, j = _family_column(fam)
    return _l2_numerators(stat.name, stat.a, fams)[j] / lam, 1.0 / lam


def _sup_slope(stat: StatisticId, fam, sup_k: float, hi: float):
    """c_coeff = sup_t b(t)^2 / sup_k, a_T = 1/sup_k, for sup_k = sup_t K(t,t);
    b^2 is maximized over [1e-4, hi]."""
    fams, j = _family_column(fam)
    return _sup_drifts_sq(stat.name, stat.a, fams, hi)[j] / sup_k, 1.0 / sup_k


def slope_normal_family(stat: StatisticId, fam):
    return _normal_slope(stat, fam)


def slope_J_family(stat: StatisticId, fam):
    return _normal_slope(stat, fam)


def slope_MD(stat: StatisticId, fam):
    return _l2_slope(stat, fam, 6.0 * largest_eigenvalue_delta1(stat.a).delta1)


def slope_L2_family(stat: StatisticId, fam):
    return _l2_slope(stat, fam, _l2_operator_eigenvalue(stat.name, stat.a))


def slope_LD(stat: StatisticId, fam):
    return _sup_slope(stat, fam, sup_variance(stat.a).sup_variance,
                      ld_upper_bound(stat.a))


def slope_KS(stat: StatisticId, fam):
    return _sup_slope(stat, fam, _ks_sup_variance(), 40.0)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _slope_and_tail(stat: StatisticId, fam):
    """(c_coeff, a_T, L2) of a statistic on a local family object."""
    routine, _, _, weight = _SLOPES[stat.name]
    c_coeff, a_t = globals()[routine](stat, fam)
    return c_coeff, a_t, weight is not None


def slope_coefficient(stat: StatisticId, family) -> float:
    """theta^2-coefficient of the approximate Bahadur slope for any statistic."""
    return _slope_and_tail(stat, _local_family(family))[0]


def efficiency(stat: StatisticId, family) -> SlopeReport:
    fam = _local_family(family)
    c_coeff, a_t, l2 = _slope_and_tail(stat, fam)
    b_coeff = c_coeff / a_t if l2 else math.sqrt(max(c_coeff, 0.0) / a_t)
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
    return [{"statistic": r.statistic.name, "a": float_cell(r.statistic.a),
             "family": r.family, "a_T": float_cell(r.a_T),
             "c_coeff": float_cell(r.c_coeff), "lrt_coeff": float_cell(r.lrt_coeff),
             "efficiency": float_cell(r.efficiency), "b_coeff": float_cell(r.b_coeff),
             "flagged": r.flagged}
            for r in reports]


def efficiency_curve(stat_name: str, family, a_grid):
    """Efficiencies of a tuned statistic over a grid of tuning parameters."""
    return [(float(a), efficiency(StatisticId(stat_name, float(a)), family).efficiency)
            for a in a_grid]
