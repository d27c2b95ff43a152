"""Catalog of alternative distribution families for power and efficiency work.

Every family is parameterized so that it lives on (0, infinity).  The four
"local" families (Weibull, Gamma, LFR, EMNW) reduce to the standard
exponential Exp(1) at theta = 0 and carry an analytic score
g'_theta(x; 0), which is what the Bahadur slope integrals consume.  The
remaining families are fixed-shape alternatives used in the power tables.

Parameterization notes (theta is always the CLI-facing parameter):
  Weibull      g = (1+theta) x^theta exp(-x^(1+theta));  shape k = 1+theta
  Gamma        g = x^theta exp(-x) / Gamma(theta+1);     shape k = 1+theta
  LFR          g = (1+theta x) exp(-x - theta x^2/2)     (linear failure rate)
  EMNW(beta)   g = (1+theta) e^-x - theta beta e^(-beta x), 0 < theta <= 1/(beta-1)
  HalfNormal   |N(0,1)|, no parameter
  Uniform      U(0,1), no parameter
  Chen         G = 1 - exp(2(1 - exp(x^theta)))
  EV           G = 1 - exp((1 - e^x)/theta)
  LogNormal    log X ~ N(0, theta^2)
  Dhillon      G = 1 - exp(-(log(x+1))^(theta+1))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import RngStream
from .errors import DomainError
from .numeric import special

EULER_GAMMA = float(np.euler_gamma)

DEFAULT_EMNW_BETA = 3.0  # _inv_emnw solves the cubic that beta = 3 gives


def _clamped_inverse_cdf(family, gen, theta, size):
    # keep u strictly inside (0,1) so inverse-cdf values stay positive
    u = np.maximum(gen.random(size=size), 1e-300)
    return family.inverse_cdf(u, theta)


@dataclass(frozen=True)
class AlternativeFamily:
    id: str
    theta_domain: tuple  # open/closed handling via contains()
    pdf: Callable  # pdf(x, theta)
    cdf: Callable  # cdf(x, theta)
    inverse_cdf: Callable  # inverse_cdf(u, theta) vectorized
    mean_analytic: Optional[Callable] = None  # mean(theta) where closed form exists
    deriv0: Optional[Callable] = None  # d/dtheta pdf at theta=0 (local families)
    mu_prime0: Optional[float] = None  # d/dtheta mean at theta=0 (local families)
    uses_theta: bool = True
    closed_upper: bool = False  # whether the upper domain end is attainable
    sampler: Callable = _clamped_inverse_cdf  # sampler(family, gen, theta, size)

    def contains(self, theta: float) -> bool:
        if not self.uses_theta:
            return True
        lo, hi = self.theta_domain
        if theta <= lo:
            return False
        return theta <= hi if self.closed_upper else theta < hi


def _newton(g, dg, x):
    """Newton's method for g(x) = 0 from a start whose iterates move
    monotonically to the root; stops once no step exceeds 1e-9 relative,
    which leaves an error of rounding size under quadratic convergence."""
    for _ in range(60):
        step = g(x) / dg(x)
        x = x - step
        if not np.any(np.abs(step) > 1e-9 * np.abs(x)):
            break
    return x


def _inv_emnw(u, theta):
    """Inverse of the EMNW cdf (beta = 3) by Newton's method on its cubic.

    With s = 1 - e^-x the cdf is (1-2 theta) s + 3 theta s^2 - theta s^3,
    increasing and convex on [0, 1]; with q = e^-x its complement is
    (1+theta) q - theta q^3, increasing and concave on [0, 1].  u <= 1/2 is
    solved for s from above the root (the smaller of the roots left when the
    quadratic or the linear term is dropped) and u > 1/2 for q from below
    it, so the iterates never overshoot, and each form keeps its own tail
    accurate: x = -log1p(-s) near 0 and x = -log(q) far out.  Finite and
    positive for u in [1e-300, 1 - 2^-53], the range the sampler draws.
    """
    u = np.asarray(u, dtype=float)
    x = np.empty_like(u)
    low = u <= 0.5
    ul = u[low]
    s = np.minimum(1.0, np.sqrt(ul / (2.0 * theta)))
    if theta < 0.5:
        s = np.minimum(s, ul / (1.0 - 2.0 * theta))
    s = _newton(lambda s: s * (1.0 - 2.0 * theta + theta * s * (3.0 - s)) - ul,
                lambda s: 1.0 - 2.0 * theta + 3.0 * theta * s * (2.0 - s), s)
    x[low] = -np.log1p(-s)
    v = 1.0 - u[~low]  # exact for u >= 1/2
    q = _newton(lambda q: q * (1.0 + theta - theta * q * q) - v,
                lambda q: 1.0 + theta - 3.0 * theta * q * q, v / (1.0 + theta))
    x[~low] = -np.log(q)
    return x


def _inv_lfr(u, theta):
    s = -np.log1p(-np.asarray(u, dtype=float))
    if theta == 0:
        return s
    return (np.sqrt(1.0 + 2.0 * theta * s) - 1.0) / theta


def _make_families():
    fams = {}

    fams["weibull"] = AlternativeFamily(
        id="weibull",
        theta_domain=(-1.0, math.inf),
        pdf=lambda x, th: (1 + th) * x**th * np.exp(-x**(1 + th)),
        cdf=lambda x, th: -np.expm1(-x**(1 + th)),
        inverse_cdf=lambda u, th: (-np.log1p(-u)) ** (1.0 / (1 + th)),
        mean_analytic=lambda th: special().gamma(1 + 1.0 / (1 + th)),
        deriv0=lambda x: np.exp(-x) * (1 + np.log(x) - x * np.log(x)),
        mu_prime0=EULER_GAMMA - 1.0,
    )

    fams["gamma"] = AlternativeFamily(
        id="gamma",
        theta_domain=(-1.0, math.inf),
        pdf=lambda x, th: x**th * np.exp(-x) / special().gamma(th + 1),
        cdf=lambda x, th: special().gammainc(th + 1, x),
        inverse_cdf=lambda u, th: special().gammaincinv(th + 1, u),
        mean_analytic=lambda th: th + 1.0,
        deriv0=lambda x: np.exp(-x) * (np.log(x) + EULER_GAMMA),
        mu_prime0=1.0,
        sampler=lambda fam, gen, th, size: gen.gamma(th + 1.0, size=size),
    )

    fams["lfr"] = AlternativeFamily(
        id="lfr",
        theta_domain=(0.0, math.inf),
        pdf=lambda x, th: (1 + th * x) * np.exp(-x - th * x * x / 2),
        cdf=lambda x, th: -np.expm1(-x - th * x * x / 2),
        inverse_cdf=_inv_lfr,
        # the survival function e^{-x - theta x^2/2} integrated
        mean_analytic=lambda th: (math.sqrt(math.pi / (2 * th))
                                  * special().erfcx(1 / math.sqrt(2 * th))),
        deriv0=lambda x: np.exp(-x) * (x - x * x / 2),
        mu_prime0=-1.0,
    )

    beta = DEFAULT_EMNW_BETA
    fams["emnw"] = AlternativeFamily(
        id="emnw",
        theta_domain=(0.0, 1.0 / (beta - 1.0)),
        closed_upper=True,
        pdf=lambda x, th: (1 + th) * np.exp(-x) - th * beta * np.exp(-beta * x),
        cdf=lambda x, th: (1 + th) * (-np.expm1(-x)) - th * (-np.expm1(-beta * x)),
        inverse_cdf=_inv_emnw,
        mean_analytic=lambda th: 1.0 + th * (1.0 - 1.0 / beta),
        deriv0=lambda x: np.exp(-x) - beta * np.exp(-beta * x),
        mu_prime0=1.0 - 1.0 / beta,
    )

    fams["halfnormal"] = AlternativeFamily(
        id="halfnormal",
        theta_domain=(-math.inf, math.inf),
        uses_theta=False,
        pdf=lambda x, th=None: math.sqrt(2.0 / math.pi) * np.exp(-x * x / 2),
        cdf=lambda x, th=None: special().erf(x / math.sqrt(2.0)),
        inverse_cdf=lambda u, th=None: math.sqrt(2.0) * special().erfinv(u),
        mean_analytic=lambda th=None: math.sqrt(2.0 / math.pi),
        sampler=lambda fam, gen, th, size: np.abs(gen.standard_normal(size=size)),
    )

    fams["uniform"] = AlternativeFamily(
        id="uniform",
        theta_domain=(-math.inf, math.inf),
        uses_theta=False,
        pdf=lambda x, th=None: np.where((x > 0) & (x < 1), 1.0, 0.0),
        cdf=lambda x, th=None: np.clip(x, 0.0, 1.0),
        inverse_cdf=lambda u, th=None: np.asarray(u, dtype=float),
        mean_analytic=lambda th=None: 0.5,
    )

    fams["chen"] = AlternativeFamily(
        id="chen",
        theta_domain=(0.0, math.inf),
        pdf=lambda x, th: 2 * th * x**(th - 1)
        * np.exp(np.minimum(x**th, 30.0)
                 + 2.0 * (1.0 - np.exp(np.minimum(x**th, 30.0)))),
        cdf=lambda x, th: -np.expm1(2.0 * (1.0 - np.exp(x**th))),
        inverse_cdf=lambda u, th: np.log1p(-np.log1p(-np.asarray(u, float)) / 2.0)
        ** (1.0 / th),
    )

    fams["ev"] = AlternativeFamily(
        id="ev",
        theta_domain=(0.0, math.inf),
        pdf=lambda x, th: np.exp(np.minimum(x, 700.0)
                                 - np.expm1(np.minimum(x, 700.0)) / th) / th,
        cdf=lambda x, th: -np.expm1(-np.expm1(x) / th),
        inverse_cdf=lambda u, th: np.log1p(-th * np.log1p(-np.asarray(u, float))),
    )

    fams["lognormal"] = AlternativeFamily(
        id="lognormal",
        theta_domain=(0.0, math.inf),
        pdf=lambda x, th: np.exp(-np.log(x) ** 2 / (2 * th * th))
        / (x * th * math.sqrt(2 * math.pi)),
        cdf=lambda x, th: 0.5 * (1 + special().erf(np.log(x) / (th * math.sqrt(2.0)))),
        inverse_cdf=lambda u, th: np.exp(
            th * math.sqrt(2.0) * special().erfinv(2 * np.asarray(u, float) - 1)),
        mean_analytic=lambda th: math.exp(th * th / 2.0),
        sampler=lambda fam, gen, th, size: np.exp(th * gen.standard_normal(size=size)),
    )

    fams["dhillon"] = AlternativeFamily(
        id="dhillon",
        theta_domain=(0.0, math.inf),
        pdf=lambda x, th: (th + 1) * np.log1p(x) ** th / (1 + x)
        * np.exp(-np.log1p(x) ** (th + 1)),
        cdf=lambda x, th: -np.expm1(-np.log1p(x) ** (th + 1)),
        inverse_cdf=lambda u, th: np.expm1((-np.log1p(-np.asarray(u, float)))
                                           ** (1.0 / (th + 1))),
    )

    return fams


FAMILIES = _make_families()

LOCAL_FAMILIES = ("weibull", "gamma", "lfr", "emnw")


def get_family(family_id: str) -> AlternativeFamily:
    try:
        return FAMILIES[family_id.lower()]
    except KeyError:
        raise DomainError(f"unknown family: {family_id!r}; "
                          f"choose from {sorted(FAMILIES)}") from None


def _check_theta(family: AlternativeFamily, theta) -> float:
    if not family.uses_theta:
        return 0.0
    if theta is None:
        raise DomainError(f"family {family.id} requires a theta value")
    theta = float(theta)
    if not family.contains(theta):
        raise DomainError(f"theta={theta} outside domain {family.theta_domain} "
                          f"of family {family.id}")
    return theta


def density_theta_deriv_at_zero(family, x):
    """Score function d g(x; theta)/d theta at theta = 0."""
    if isinstance(family, str):
        family = get_family(family)
    if family.deriv0 is None:
        raise DomainError(f"family {family.id} does not include Exp(1) at theta=0; "
                          "no local score is defined")
    return family.deriv0(np.asarray(x, dtype=float))


def family_mean(family, theta=None) -> float:
    """Mean of the family at theta: analytic where available, else quadrature."""
    if isinstance(family, str):
        family = get_family(family)
    theta = _check_theta(family, theta)
    if family.mean_analytic is not None:
        return float(family.mean_analytic(theta) if family.uses_theta
                     else family.mean_analytic())
    # imported here: scipy.integrate costs start-up time in every process
    from scipy import integrate
    # integrate x g(x) dx through the inverse cdf: E X = int_0^1 G^{-1}(u) du
    val, err = integrate.quad(lambda u: float(family.inverse_cdf(u, theta)),
                              0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=400)
    if not np.isfinite(val) or err > 1e-8:
        raise DomainError(f"mean quadrature failed for {family.id}(theta={theta})")
    return float(val)


def sample_alternative(family, theta, n: int, rng: RngStream) -> np.ndarray:
    """Draw n i.i.d. variates from the family; shape may be (replicates, n)."""
    if isinstance(family, str):
        family = get_family(family)
    theta = _check_theta(family, theta)
    return family.sampler(family, rng.generator(), theta, n)
