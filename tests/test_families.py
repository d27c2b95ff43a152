import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from exptests.core import RngStream
from exptests.errors import DomainError
from exptests.families import (FAMILIES, LOCAL_FAMILIES,
                               density_theta_deriv_at_zero, family_mean,
                               get_family, sample_alternative)

# representative theta per family (None for the fixed-shape ones)
THETAS = {
    "weibull": 0.4, "gamma": 1.0, "lfr": 2.0, "emnw": 0.5,
    "halfnormal": None, "uniform": None, "chen": 1.0, "ev": 1.5,
    "lognormal": 0.8, "dhillon": 1.0,
}


def test_catalog_contents():
    assert set(THETAS) == set(FAMILIES)
    assert set(LOCAL_FAMILIES) <= set(FAMILIES)


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        get_family("nosuch")


def test_theta_domains():
    emnw = get_family("emnw")
    assert emnw.contains(0.5)       # closed upper end 1/(beta-1)
    assert not emnw.contains(0.51)
    assert not emnw.contains(0.0)
    assert not get_family("weibull").contains(-1.0)
    with pytest.raises(DomainError):
        sample_alternative("lfr", -0.5, 5, RngStream(0))
    with pytest.raises(DomainError):
        sample_alternative("gamma", None, 5, RngStream(0))


def test_lfr_inverse_closed_form():
    # G(x; 2) = 1 - exp(-x - x^2) = 1/2  =>  x = (-1 + sqrt(1 + 4 log 2)) / 2
    fam = get_family("lfr")
    expected = (-1.0 + math.sqrt(1.0 + 4.0 * math.log(2.0))) / 2.0
    assert abs(float(fam.inverse_cdf(0.5, 2.0)) - expected) < 1e-12
    assert abs(expected - 0.4711576) < 1e-6


@pytest.mark.parametrize("fid", sorted(FAMILIES))
def test_inverse_cdf_inverts_cdf(fid):
    fam = get_family(fid)
    th = THETAS[fid]
    u = np.linspace(0.02, 0.98, 25)
    x = np.asarray(fam.inverse_cdf(u, th), dtype=float)
    assert np.all(x > 0)
    np.testing.assert_allclose(np.asarray(fam.cdf(x, th), dtype=float), u,
                               atol=1e-7)


def _emnw_bisection(u, theta):
    # 100-step bisection of the EMNW(beta=3) cdf in x: accurate to about
    # 1e-16 / (x (1-u)) relative, so only inside the tails
    lo = np.zeros_like(u)
    hi = -np.log1p(-u) + 40.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        high = (1 + theta) * -np.expm1(-mid) + theta * np.expm1(-3.0 * mid) > u
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    return 0.5 * (lo + hi)


def _emnw_quantile_40_digits(u, theta):
    # geometric bisection in 40-digit arithmetic: on s = 1 - e^-x for
    # u <= 1/2, on q = e^-x above; each root is at least half its right side
    with mpmath.workdps(40):
        u, th = mpmath.mpf(u), mpmath.mpf(theta)
        if u <= 0.5:
            side = lambda s: ((1 - 2 * th) + th * s * (3 - s)) * s - u
            rhs = u
        else:
            side = lambda q: ((1 + th) - th * q * q) * q - (1 - u)
            rhs = 1 - u
        lo, hi = rhs / 2, mpmath.mpf(1)
        for _ in range(90):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (lo, mid) if side(mid) > 0 else (mid, hi)
        root = mpmath.sqrt(lo * hi)
        return float(-mpmath.log1p(-root) if u <= 0.5 else -mpmath.log(root))


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.5])
def test_emnw_inverse_matches_bisection(theta):
    u = np.random.default_rng(17).random(100_000)
    x = get_family("emnw").inverse_cdf(u, theta)
    np.testing.assert_allclose(x, _emnw_bisection(u, theta), rtol=1e-11, atol=0)


@pytest.mark.parametrize("theta", [0.1, 0.25, 0.5])
def test_emnw_inverse_tails(theta):
    # log grids toward both ends of [1e-300, 1 - 2^-53], where the bisection
    # in x loses its relative accuracy
    u = np.concatenate([np.geomspace(1e-300, 0.5, 40),
                        1.0 - np.geomspace(0.5, 2.0**-53, 40)])
    x = get_family("emnw").inverse_cdf(u, theta)
    assert np.all(np.isfinite(x) & (x > 0))
    exact = [_emnw_quantile_40_digits(ui, theta) for ui in u]
    np.testing.assert_allclose(x, exact, rtol=1e-14, atol=0)


@pytest.mark.parametrize("fid", sorted(FAMILIES))
def test_pdf_is_cdf_derivative(fid):
    fam = get_family(fid)
    th = THETAS[fid]
    xs = np.asarray(fam.inverse_cdf(np.array([0.2, 0.5, 0.8]), th), float)
    h = 1e-5
    for x in xs:
        num = (fam.cdf(x + h, th) - fam.cdf(x - h, th)) / (2 * h)
        assert abs(num - float(fam.pdf(x, th))) < 1e-5 * (1 + abs(num))


@pytest.mark.parametrize("fid", sorted(FAMILIES))
def test_sampler_matches_cdf(fid):
    fam = get_family(fid)
    th = THETAS[fid]
    x = sample_alternative(fam, th, 4000, RngStream(99))
    assert x.shape == (4000,)
    assert np.all(x > 0)
    xs = np.sort(x)
    emp = np.arange(1, xs.size + 1) / xs.size
    theo = np.asarray(fam.cdf(xs, th), dtype=float)
    # Kolmogorov distance bound ~ 3/sqrt(n)
    assert np.max(np.abs(emp - theo)) < 0.05


def test_sampler_accepts_matrix_shape():
    x = sample_alternative("weibull", 0.4, (7, 5), RngStream(3))
    assert x.shape == (7, 5)
    y = sample_alternative("weibull", 0.4, (7, 5), RngStream(3))
    np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("fid", LOCAL_FAMILIES)
def test_local_families_reduce_to_exponential(fid):
    fam = get_family(fid)
    x = np.linspace(0.05, 8.0, 40)
    th0 = 1e-12 if fid in ("lfr", "emnw") else 0.0  # open lower ends
    np.testing.assert_allclose(np.asarray(fam.pdf(x, th0), float),
                               np.exp(-x), atol=1e-9)


@pytest.mark.parametrize("fid", LOCAL_FAMILIES)
def test_score_matches_finite_difference(fid):
    fam = get_family(fid)
    x = np.linspace(0.1, 6.0, 30)
    h = 1e-6
    num = (np.asarray(fam.pdf(x, 2 * h), float)
           - np.asarray(fam.pdf(x, h), float)) / h
    np.testing.assert_allclose(density_theta_deriv_at_zero(fid, x), num,
                               atol=5e-5)


@pytest.mark.parametrize("fid", LOCAL_FAMILIES)
def test_score_integrates_to_zero(fid):
    fam = get_family(fid)
    val, _ = integrate.quad(lambda x: float(fam.deriv0(x)), 0, np.inf,
                            limit=200)
    assert abs(val) < 1e-9


@pytest.mark.parametrize("fid", LOCAL_FAMILIES)
def test_mean_slope_matches_finite_difference(fid):
    fam = get_family(fid)
    h = 1e-5
    num = (family_mean(fam, 2 * h) - family_mean(fam, h)) / h
    assert abs(num - fam.mu_prime0) < 1e-3


@pytest.mark.parametrize("fid", ["chen", "ev", "dhillon"])
def test_quadrature_mean_agrees_with_density(fid):
    fam = get_family(fid)
    th = THETAS[fid]
    mu = family_mean(fam, th)
    direct, _ = integrate.quad(lambda x: x * float(fam.pdf(x, th)), 0, np.inf,
                               limit=400)
    assert abs(mu - direct) < 1e-7


def test_analytic_means():
    assert abs(family_mean("gamma", 1.0) - 2.0) < 1e-12
    assert abs(family_mean("uniform") - 0.5) < 1e-12
    assert abs(family_mean("halfnormal") - math.sqrt(2 / math.pi)) < 1e-12
    assert abs(family_mean("lognormal", 0.8) - math.exp(0.32)) < 1e-12
    assert abs(family_mean("emnw", 0.5) - (1 + 0.5 * (2 / 3))) < 1e-12


@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1))
def test_sampler_deterministic(fid, seed):
    th = THETAS[fid]
    a = sample_alternative(fid, th, 8, RngStream(seed))
    b = sample_alternative(fid, th, 8, RngStream(seed))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("fid,direct", [
    ("gamma", lambda g: g.gamma(2.0, size=(3, 4))),
    ("halfnormal", lambda g: np.abs(g.standard_normal(size=(3, 4)))),
    ("lognormal", lambda g: np.exp(0.8 * g.standard_normal(size=(3, 4)))),
    ("weibull", lambda g: get_family("weibull").inverse_cdf(
        np.maximum(g.random(size=(3, 4)), 1e-300), 0.4)),
])
def test_sampler_generator_calls(fid, direct):
    # the variates come from these generator calls, so they stay reproducible
    th = {"gamma": 1.0, "halfnormal": None, "lognormal": 0.8, "weibull": 0.4}[fid]
    x = sample_alternative(fid, th, (3, 4), RngStream(11, 2))
    np.testing.assert_array_equal(x, direct(RngStream(11, 2).generator()))
