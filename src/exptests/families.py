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
from scipy import special

from .core import RngStream
from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

DEFAULT_EMNW_BETA = 3.0


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


def _inv_emnw(u, theta, beta=DEFAULT_EMNW_BETA):
    """Monotone numeric inversion of the EMNW cdf by bisection."""
    u = np.asarray(u, dtype=float)
    lo = np.zeros_like(u)
    hi = -np.log1p(-u) + 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        f = (1 + theta) * (-np.expm1(-mid)) - theta * (-np.expm1(-beta * mid))
        high = f > u
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


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
        mean_analytic=lambda th: special.gamma(1 + 1.0 / (1 + th)),
        deriv0=lambda x: np.exp(-x) * (1 + np.log(x) - x * np.log(x)),
        mu_prime0=EULER_GAMMA - 1.0,
    )

    fams["gamma"] = AlternativeFamily(
        id="gamma",
        theta_domain=(-1.0, math.inf),
        pdf=lambda x, th: x**th * np.exp(-x) / special.gamma(th + 1),
        cdf=lambda x, th: special.gammainc(th + 1, x),
        inverse_cdf=lambda u, th: special.gammaincinv(th + 1, u),
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
        inverse_cdf=lambda u, th: _inv_emnw(u, th, beta),
        mean_analytic=lambda th: 1.0 + th * (1.0 - 1.0 / beta),
        deriv0=lambda x: np.exp(-x) - beta * np.exp(-beta * x),
        mu_prime0=1.0 - 1.0 / beta,
    )

    fams["halfnormal"] = AlternativeFamily(
        id="halfnormal",
        theta_domain=(-math.inf, math.inf),
        uses_theta=False,
        pdf=lambda x, th=None: math.sqrt(2.0 / math.pi) * np.exp(-x * x / 2),
        cdf=lambda x, th=None: special.erf(x / math.sqrt(2.0)),
        inverse_cdf=lambda u, th=None: math.sqrt(2.0) * special.erfinv(u),
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
        cdf=lambda x, th: 0.5 * (1 + special.erf(np.log(x) / (th * math.sqrt(2.0)))),
        inverse_cdf=lambda u, th: np.exp(th * math.sqrt(2.0)
                                         * special.erfinv(2 * np.asarray(u, float) - 1)),
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
    gen = rng.generator() if isinstance(rng, RngStream) else rng
    return family.sampler(family, gen, theta, n)
