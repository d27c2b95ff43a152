"""End-to-end acceptance suite.

Each test class maps to one acceptance criterion: Monte Carlo null size,
reference power and efficiency values, closed-form-vs-quadrature equality,
covariance/kernel verification, eigen machinery, the asymptotic tail law,
and the standalone property checks.  Monte Carlo tests use fixed seeds so
the suite is reproducible; tolerances are stated next to each assertion.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from exptests.core import RngStream
from exptests.families import get_family, sample_alternative
from exptests.nulldist import (calibrate_critical_value, covariance_K,
                               eigen_matrix, h2_tilde,
                               largest_eigenvalue_delta1,
                               matrix_largest_eigenvalue, p_value_mc,
                               simulate_null_statistics)
from exptests.powersim import estimate_power
from exptests.slopes import efficiency
from exptests.statistics import (ALL_STATISTICS, TUNED_STATISTICS,
                                 StatisticId, evaluate)

from oracles import oracle_statistic

SEED = 20260823


# ---------------------------------------------------------------------------
# Criterion 1: null rejection rate at the calibrated 5% threshold
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["MD", "LD"])
@pytest.mark.parametrize("a", [0.2, 1.0, 2.0, 10.0])
@pytest.mark.parametrize("n", [20, 50])
def test_null_size(name, a, n):
    stat = StatisticId(name, a)
    cal = calibrate_critical_value(stat, n, 0.05, 50_000, RngStream(SEED))
    crit = cal.critical_values[0.05]
    vals = simulate_null_statistics(stat, n, 10_000, RngStream(SEED, stream=1))
    rate = float(np.mean(vals > crit))
    assert 0.044 <= rate <= 0.056


# ---------------------------------------------------------------------------
# Criterion 2: power table reproduction, tolerance +/- 2 percentage points
# ---------------------------------------------------------------------------

POWER_CELLS = [
    # (stat name, a, family, theta, n, reference percent)
    ("MD", 1.0, "gamma", 1.0, 20, 63),
    ("MD", 1.0, "lognormal", 0.8, 20, 60),
    ("LD", 2.0, "uniform", None, 20, 71),
    ("MD", 10.0, "uniform", None, 50, 98),
    ("LD", 5.0, "ev", 1.5, 50, 92),
]


@pytest.mark.parametrize("name,a,family,theta,n,percent", POWER_CELLS)
def test_power_reproduction(name, a, family, theta, n, percent):
    stat = StatisticId(name, a)
    cal = calibrate_critical_value(stat, n, 0.05, 100_000, RngStream(SEED))
    cell = estimate_power(stat, family, theta, n, 0.05, 10_000,
                          RngStream(SEED, stream=1), cal)
    assert abs(100.0 * cell.power - percent) <= 2.0


# ---------------------------------------------------------------------------
# Criterion 3: local efficiency reproduction
# ---------------------------------------------------------------------------

EFFICIENCY_TARGETS = [
    # (stat, a, family, reference efficiency, tolerance)
    ("EP", None, "weibull", 0.876, 0.02),
    ("CO", None, "weibull", 1.000, 0.02),
    ("MO", None, "gamma", 1.000, 0.02),
    ("AD", None, "weibull", 0.909, 0.03),   # operator eigenvalue enters
    ("KS", None, "emnw", 0.686, 0.02),
    ("JP", 1.0, "emnw", 0.955, 0.02),
    ("MD", 1.0, "gamma", 0.825, 0.03),      # operator eigenvalue enters
    ("LD", 2.0, "emnw", 0.988, 0.02),
    ("BH", 1.0, "emnw", 0.996, 0.03),       # operator eigenvalue enters
]


@pytest.mark.parametrize("name,a,family,target,tol", EFFICIENCY_TARGETS)
def test_efficiency_reproduction(name, a, family, target, tol):
    rep = efficiency(StatisticId(name, a), family)
    assert abs(rep.efficiency - target) <= tol
    assert not rep.flagged


# ---------------------------------------------------------------------------
# Criterion 4: closed forms equal adaptive quadrature of defining integrals
# ---------------------------------------------------------------------------

QUADRATURE_STATS = ("MD", "JD", "JP", "MP", "BH", "HE", "W", "HM1", "HM2",
                    "CVM", "AD")


def test_closed_forms_match_quadrature():
    gen = np.random.default_rng(SEED)
    for k in range(100):
        n = int(gen.integers(5, 21))
        x = gen.exponential(size=n) * float(gen.uniform(0.5, 3.0))
        name = QUADRATURE_STATS[k % len(QUADRATURE_STATS)]
        a = float(gen.uniform(0.5, 5.0)) if name in TUNED_STATISTICS else None
        closed = evaluate(StatisticId(name, a), x).value
        assert abs(closed - oracle_statistic(name, x, a)) < 1e-8, (name, a, k)


# ---------------------------------------------------------------------------
# Criterion 5: covariance closed form and projected kernel vs raw definitions
# ---------------------------------------------------------------------------

def _phi1_numeric(x, t):
    """First projection of the symmetrized pair-minimum kernel at Exp(1),
    with the conditional expectation done by quadrature (independent of the
    closed forms in the package)."""
    head, _ = integrate.quad(lambda z: math.exp(-2 * t * z - z), 0.0, x,
                             epsabs=1e-13, limit=200)
    tail = math.exp(-2 * t * x) * math.exp(-x)
    return 0.5 * math.exp(-t * x) + 0.5 / (1.0 + t) - (head + tail)


def test_covariance_matches_double_integration():
    gen = np.random.default_rng(SEED + 1)
    for _ in range(50):
        s = float(gen.uniform(0.1, 4.0))
        t = float(gen.uniform(0.1, 4.0))
        a = float(gen.uniform(0.2, 5.0))
        num, _ = integrate.quad(
            lambda x: _phi1_numeric(x, s) * _phi1_numeric(x, t) * math.exp(-x),
            0.0, 60.0, epsabs=1e-12, limit=400)
        expected = math.exp(-a * (s + t)) * num
        assert abs(covariance_K(s, t, a) - expected) < 1e-8


def _pair_transform_terms(u, v):
    """Coefficients/exponents of the symmetrized pair Laplace transform
    (e^{-tu} + e^{-tv})/2 - e^{-2t min(u,v)} as sum c_i e^{-t e_i}."""
    return ((0.5, u), (0.5, v), (-1.0, 2.0 * np.minimum(u, v)))


def test_h2_tilde_matches_monte_carlo():
    # h2_tilde(u, v) is the expectation over two extra Exp(1) draws of the
    # symmetrized order-4 kernel of the weighted L2 statistic
    a = 1.0
    points = [(0.5, 0.5), (0.5, 2.0), (1.0, 1.0), (1.0, 3.0), (2.5, 0.2)]
    ndraw = 10_000_000
    gen = np.random.default_rng(SEED + 2)
    for u, v in points:
        samples = np.empty(ndraw)
        done = 0
        while done < ndraw:
            m = min(2_000_000, ndraw - done)
            x3 = gen.standard_exponential(m)
            x4 = gen.standard_exponential(m)

            def h0(p1, p2):
                acc = 0.0
                for c1, e1 in _pair_transform_terms(*p1):
                    for c2, e2 in _pair_transform_terms(*p2):
                        acc = acc + c1 * c2 / (a + e1 + e2)
                return acc

            samples[done:done + m] = (h0((u, v), (x3, x4))
                                      + 2.0 * h0((u, x3), (v, x4))) / 3.0
            done += m
        se = samples.std(ddof=1) / math.sqrt(ndraw)
        assert abs(samples.mean() - h2_tilde(u, v, a)) < 3.0 * se


# ---------------------------------------------------------------------------
# Criterion 6: eigenvalue machinery
# ---------------------------------------------------------------------------

def test_eigen_constant_kernel():
    approx = eigen_matrix(1.0, 500, 25.0,
                          kernel=lambda x, y, a: np.ones(np.broadcast(x, y).shape))
    assert abs(matrix_largest_eigenvalue(approx) - 1.0) < 1e-12


def test_eigen_separable_kernel():
    approx = eigen_matrix(1.0, 2000, 30.0,
                          kernel=lambda x, y, a: np.exp(-x - y))
    assert abs(matrix_largest_eigenvalue(approx) - 1.0 / 3.0) < 1e-3


@pytest.mark.parametrize("a", [0.2, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_delta1_ladder_converges(a):
    result = largest_eigenvalue_delta1(a)  # raises NumericsError on failure
    (_, e0), (_, e1) = result.trace[-2:]
    assert abs(e1 - e0) < 1e-10 * abs(e1)
    assert result.delta1 > 0


# ---------------------------------------------------------------------------
# Criterion 7: asymptotic tail of the weighted L2 statistic
# ---------------------------------------------------------------------------

def test_tail_slope_matches_asymptotic_law():
    n, reps, a = 500, 20_000, 1.0
    vals = n * simulate_null_statistics(StatisticId("MD", a), n, reps,
                                        RngStream(SEED, stream=7))
    qs = np.linspace(0.95, 0.999, 25)
    u = np.quantile(vals, qs)
    slope = np.polyfit(u, np.log1p(-qs), 1)[0]
    target = -1.0 / (12.0 * largest_eigenvalue_delta1(a).delta1)
    assert abs(slope / target - 1.0) < 0.25


# ---------------------------------------------------------------------------
# Criterion 8: standalone property checks
# ---------------------------------------------------------------------------

class TestProperties:
    def test_scale_invariance(self):
        gen = np.random.default_rng(SEED + 3)
        x = gen.exponential(size=18)
        for name in sorted(ALL_STATISTICS):
            stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
            v1 = evaluate(stat, x).value
            v2 = evaluate(stat, 137.0 * x).value
            assert abs(v1 - v2) < 1e-8 * (1 + abs(v1)), name

    def test_kernel_symmetry(self):
        gen = np.random.default_rng(SEED + 4)
        u = gen.uniform(0.1, 5.0, size=30)
        v = gen.uniform(0.1, 5.0, size=30)
        np.testing.assert_allclose(h2_tilde(u, v, 1.0), h2_tilde(v, u, 1.0),
                                   rtol=1e-10)
        np.testing.assert_allclose(covariance_K(u, v, 1.0),
                                   covariance_K(v, u, 1.0), rtol=1e-12)

    @pytest.mark.parametrize("fid,theta", [("weibull", 0.4), ("gamma", 1.0),
                                           ("lfr", 2.0), ("emnw", 0.5),
                                           ("uniform", None), ("chen", 1.0),
                                           ("lognormal", 0.8)])
    def test_sampler_cdf(self, fid, theta):
        fam = get_family(fid)
        x = np.sort(sample_alternative(fam, theta, 4000, RngStream(SEED + 5)))
        emp = np.arange(1, x.size + 1) / x.size
        theo = np.asarray(fam.cdf(x, theta), dtype=float)
        assert np.max(np.abs(emp - theo)) < 0.05

    def test_p_value_uniformity(self):
        # p-values under the null are (discretely) uniform: check the
        # empirical cdf of 100 Monte Carlo p-values against Uniform(0,1)
        stat = StatisticId("MD", 1.0)
        gen = RngStream(SEED + 6)
        ps = []
        for k in range(100):
            x = gen.substream(k).generator().standard_exponential(10)
            ps.append(p_value_mc(stat, x, 2000, RngStream(SEED + 7)))
        ps = np.sort(ps)
        emp = np.arange(1, 101) / 100.0
        # Kolmogorov distance bound ~ 1.63/sqrt(100) at the 1% level
        assert np.max(np.abs(emp - ps)) < 0.163

    def test_seed_determinism(self):
        stat = StatisticId("LD", 2.0)
        v1 = simulate_null_statistics(stat, 12, 10_000, RngStream(SEED + 8))
        v2 = simulate_null_statistics(stat, 12, 10_000, RngStream(SEED + 8),
                                      threads=2)
        np.testing.assert_array_equal(v1, v2)
