import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from exptests import slopes
from exptests.errors import DomainError
from exptests.families import LOCAL_FAMILIES, get_family
from exptests.nulldist import h2_tilde, largest_eigenvalue_delta1
from exptests.numeric import (graded_halfline_nodes, largest_eigenvalue,
                              panel_gauss_nodes)
from exptests.slopes import (EFFICIENCY_SLACK, SlopeReport, efficiency,
                             efficiency_curve, lrt_local_coefficient,
                             min_pair_laplace, mp_projected_kernel, phi1_tilde,
                             psi_JD, psi_JP, slope_coefficient)
from exptests.statistics import ALL_STATISTICS, TUNED_STATISTICS, StatisticId
from oracles import l2_numerator_reference, pair_score_integral

# frozen double-integral oracles (adaptive quadrature of the projected kernel
# against the family scores, recorded at development time)
MD_INTEGRALS = [
    (1.0, "gamma", 0.00146565),
    (10.0, "weibull", 6.49367e-5),
    (1.0, "weibull", 0.0033029),
    (2.0, "emnw", 0.000318562),
    (0.2, "lfr", 0.00107302),
]


def _rel(got, expected):
    return abs(got - expected) / abs(expected)


class TestLRTCoefficient:
    def test_weibull_exact(self):
        assert _rel(lrt_local_coefficient("weibull"), math.pi**2 / 6) < 1e-12

    def test_gamma_exact(self):
        assert _rel(lrt_local_coefficient("gamma"), math.pi**2 / 6 - 1) < 1e-12

    def test_lfr_exact(self):
        assert _rel(lrt_local_coefficient("lfr"), 1.0) < 1e-12

    def test_emnw_exact(self):
        # beta = 3: coefficient integrates to 16/45
        assert _rel(lrt_local_coefficient("emnw"), 16.0 / 45.0) < 1e-12

    def test_non_local_family_rejected(self):
        with pytest.raises(DomainError):
            lrt_local_coefficient("uniform")

    def test_stub_family_sharing_an_id(self):
        # the LRT coefficient comes from the family object, not from its id:
        # a family that is weibull in all but its id and sampler gets
        # weibull's coefficient and efficiency, registry families are unchanged
        weibull = get_family("weibull")
        stub = dataclasses.replace(
            get_family("gamma"), pdf=weibull.pdf, cdf=weibull.cdf,
            inverse_cdf=weibull.inverse_cdf,
            mean_analytic=weibull.mean_analytic, deriv0=weibull.deriv0,
            mu_prime0=weibull.mu_prime0)
        ep = StatisticId("EP")
        got = efficiency(ep, stub)
        expected = efficiency(ep, "weibull")
        assert got.lrt_coeff == expected.lrt_coeff
        assert got.efficiency == expected.efficiency
        assert abs(got.lrt_coeff - 1.645) < 1e-3
        assert abs(got.efficiency - 0.876) < 1e-3
        assert efficiency(ep, "gamma").lrt_coeff == lrt_local_coefficient("gamma")


class TestProjections:
    def test_min_pair_laplace(self):
        # E e^{-2 t min(x, X)}, X ~ Exp(1), via direct quadrature
        for x, t in [(0.5, 1.0), (2.0, 0.3), (1.0, 4.0)]:
            direct, _ = integrate.quad(
                lambda z: math.exp(-2 * t * min(x, z)) * math.exp(-z), 0, 50,
                points=[x], limit=200)
            assert abs(min_pair_laplace(x, t) - direct) < 1e-10

    @pytest.mark.parametrize("t", [0.2, 1.0, 5.0])
    def test_phi1_tilde_centered(self, t):
        # the first projection has zero mean under Exp(1)
        val, _ = integrate.quad(
            lambda x: phi1_tilde(x, t, 1.0) * math.exp(-x), 0, 60, limit=200)
        assert abs(val) < 1e-10

    def test_phi1_tilde_vanishes_at_zero_frequency(self):
        assert abs(phi1_tilde(1.3, 1e-12, 1.0)) < 1e-9

    @pytest.mark.parametrize("psi,a", [(psi_JD, 1.0), (psi_JD, 5.0),
                                       (psi_JP, 1.0), (psi_JP, 5.0)])
    def test_psi_centered(self, psi, a):
        val, _ = integrate.quad(lambda x: float(psi(x, a)) * math.exp(-x),
                                0, 80, limit=300)
        assert abs(val) < 1e-8

    def test_mp_projected_kernel_symmetric_and_degenerate(self, gen):
        x = gen.uniform(0.1, 4.0, size=10)
        y = gen.uniform(0.1, 4.0, size=10)
        np.testing.assert_allclose(mp_projected_kernel(x, y, 1.0),
                                   mp_projected_kernel(y, x, 1.0), rtol=1e-9)
        for u in (0.5, 2.0):
            val, _ = integrate.quad(
                lambda v: float(mp_projected_kernel(u, v, 1.0)) * math.exp(-v),
                0, 60, limit=300)
            assert abs(val) < 1e-8


class TestSlopeMechanics:
    def test_md_integral_oracles(self):
        # the t-grid numerator against the frozen oracles (6 digits) and
        # against the double integral of h2_tilde on the pair grid
        for a, fam_id, expected in MD_INTEGRALS:
            fam = get_family(fam_id)
            got = slopes._md_numerator(a, fam)
            assert abs(got - expected) < 1e-5 * abs(expected)
            pair = pair_score_integral(h2_tilde, a, fam)
            assert abs(got - pair) < 1e-13 * abs(pair)

    def test_zero_score_gives_zero_slope(self):
        stub = dataclasses.replace(get_family("gamma"),
                                   deriv0=lambda x: np.zeros_like(x),
                                   mu_prime0=0.0)
        for stat in (StatisticId("MD", 1.0), StatisticId("EP"),
                     StatisticId("JD", 1.0), StatisticId("BH", 1.0)):
            assert abs(slope_coefficient(stat, stub)) < 1e-12

    def test_non_local_family_rejected(self):
        with pytest.raises(DomainError):
            efficiency(StatisticId("MD", 1.0), "uniform")

    def test_custom_local_family_accepted(self):
        # a family is local by its scores, not by its id
        ep = StatisticId("EP")
        custom = dataclasses.replace(get_family("weibull"), id="myweibull")
        got = efficiency(ep, custom)
        assert got.family == "myweibull"
        assert dataclasses.replace(got, family="weibull") == efficiency(ep, "weibull")
        with pytest.raises(DomainError):
            efficiency(ep, get_family("uniform"))

    def test_continuity_in_a(self):
        e1 = efficiency(StatisticId("MD", 1.0), "gamma").efficiency
        e2 = efficiency(StatisticId("MD", 1.02), "gamma").efficiency
        assert abs(e1 - e2) < 0.01

    def test_quadrature_converged(self):
        # the slopes on a grid twice as fine (half the inner panel, twice the
        # panels, a longer tail) and, for W, on a covariance grid of twice
        # the panels
        fine = graded_halfline_nodes(inner=5e-5, outer=80.0, panels=120, npts=12)
        md = StatisticId("MD", 1.0)
        gamma = get_family("gamma")
        c_fine = (pair_score_integral(h2_tilde, 1.0, gamma, fine)
                  / largest_eigenvalue_delta1(1.0).delta1)
        assert _rel(slope_coefficient(md, gamma), c_fine) < 1e-4

        w = StatisticId("W", 1.0)
        weibull = get_family("weibull")
        kernel, cov, _ = slopes._L2_KERNELS["W"]
        t, wt = panel_gauss_nodes(
            np.concatenate([[0.0], np.geomspace(0.02, 100.0, 80)]), 20)
        mass = np.sqrt(wt * np.exp(-t))
        eig = largest_eigenvalue(cov(t[:, None], t[None, :]) * np.outer(mass, mass))
        w_fine = l2_numerator_reference(kernel, 1.0, weibull, fine) / (2.0 * eig)
        assert _rel(slope_coefficient(w, weibull), w_fine) < 1e-4

    @pytest.mark.parametrize("name", sorted(ALL_STATISTICS))
    def test_report_decomposition(self, name):
        # quadratic statistics: c = a_T * b; normal/sup: c = a_T * b^2
        stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
        rep = efficiency(stat, "weibull")
        b_part = rep.b_coeff if slopes._SLOPES[name][1] else rep.b_coeff**2
        assert rep.a_T > 0
        assert abs(rep.a_T * b_part - rep.c_coeff) <= 1e-12 * abs(rep.c_coeff)

    def test_efficiencies_within_unit_interval(self):
        for stat, fam in [(StatisticId("MD", 1.0), "gamma"),
                          (StatisticId("LD", 2.0), "emnw"),
                          (StatisticId("CO", None), "weibull"),
                          (StatisticId("MO", None), "gamma"),
                          (StatisticId("GINI", None), "weibull")]:
            rep = efficiency(stat, fam)
            assert not rep.flagged
            assert 0.0 <= rep.efficiency <= EFFICIENCY_SLACK


PAIR_GRID_STATISTICS = ([StatisticId("CVM"), StatisticId("AD")]
                        + [StatisticId(name, a)
                           for name in ("MD", "MP", "BH", "HE", "W", "HM1", "HM2")
                           for a in (0.5, 2.0)])


def _per_family_slope(stat, fam):
    """slope_coefficient with its numerator from the per-family references."""
    if stat.name == "MD":
        return (pair_score_integral(h2_tilde, stat.a, fam)
                / largest_eigenvalue_delta1(stat.a).delta1)
    if stat.name == "MP":
        return (pair_score_integral(mp_projected_kernel, stat.a, fam)
                / slopes._mp_eigenvalue(stat.a))
    kernel = slopes._L2_KERNELS[stat.name][0]
    return (l2_numerator_reference(kernel, stat.a, fam)
            / (2.0 * slopes._l2_operator_eigenvalue(stat.name, stat.a)))


@pytest.fixture(scope="module")
def per_family_slopes():
    return {(stat, fam_id): _per_family_slope(stat, get_family(fam_id))
            for stat in PAIR_GRID_STATISTICS for fam_id in LOCAL_FAMILIES}


class TestPairKernelContraction:
    """One cached kernel matrix per (statistic, a) gives the slopes of the
    per-family double integrals, whatever order the families come in."""

    @staticmethod
    def _check(stat, fam, expected):
        got = slope_coefficient(stat, fam)
        assert abs(got - expected) <= 1e-12 * abs(expected), (stat, fam)

    def test_families_inner(self, per_family_slopes):
        for stat in PAIR_GRID_STATISTICS:
            for fam_id in LOCAL_FAMILIES:
                self._check(stat, fam_id, per_family_slopes[stat, fam_id])

    def test_families_outer(self, per_family_slopes):
        for fam_id in LOCAL_FAMILIES:
            for stat in PAIR_GRID_STATISTICS:
                self._check(stat, fam_id, per_family_slopes[stat, fam_id])

    def test_stub_family_sharing_an_id(self, per_family_slopes):
        # scores come from the family object, not from its id
        weibull = get_family("weibull")
        stub = dataclasses.replace(get_family("gamma"), deriv0=weibull.deriv0,
                                   mu_prime0=weibull.mu_prime0)
        for stat in PAIR_GRID_STATISTICS:
            self._check(stat, "gamma", per_family_slopes[stat, "gamma"])
            self._check(stat, stub, per_family_slopes[stat, "weibull"])


class TestReferenceEfficiencies:
    """Light spot checks; the full table sweep is in the acceptance suite."""

    def test_co_weibull_is_optimal(self):
        assert abs(efficiency(StatisticId("CO"), "weibull").efficiency
                   - 1.0) < 0.01

    def test_mo_gamma_is_optimal(self):
        assert abs(efficiency(StatisticId("MO"), "gamma").efficiency
                   - 1.0) < 0.01

    def test_gini_matches_ep_on_weibull(self):
        # algebraic identity between the two score integrals
        g = efficiency(StatisticId("GINI"), "weibull").efficiency
        e = efficiency(StatisticId("EP"), "weibull").efficiency
        assert abs(g - e) < 1e-9

    def test_curve_matches_pointwise(self):
        curve = efficiency_curve("JD", "lfr", [1.0, 5.0])
        assert len(curve) == 2
        a0, e0 = curve[0]
        assert a0 == 1.0
        assert abs(e0 - efficiency(StatisticId("JD", 1.0), "lfr").efficiency) \
            < 1e-12

    def test_ks_weibull_rate_extrapolates_to_limit(self):
        # b/theta tends to 0.363397 as theta decreases (halving steps, so
        # the second Richardson step removes an O(theta^2) remainder)
        rep = efficiency(StatisticId("KS"), "weibull")
        assert abs(rep.b_coeff - 0.363397) < 5e-6
