import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from exptests import numeric, slopes, statistics
from exptests.errors import DomainError, NumericsError
from exptests.families import LOCAL_FAMILIES, get_family
from exptests.nulldist import (covariance_K, h2_tilde, largest_eigenvalue_delta1,
                               min_pair_laplace)
from exptests.numeric import largest_eigenvalue, panel_gauss_nodes
from exptests.slopes import (EFFICIENCY_SLACK, LRT_STEP, SlopeReport, efficiency,
                             efficiency_curve, lrt_local_coefficient,
                             phi1_tilde, psi_JD, psi_JP, slope_coefficient)
from exptests.statistics import ALL_STATISTICS, TUNED_STATISTICS, StatisticId
from oracles import (edf_eigenvalue, edf_weibull_numerator, graded_halfline_grid,
                     kernel_w, l2_numerator_reference, mp_projected_kernel,
                     pair_score_integral, psi_jd_scipy, psi_jp_scipy)

# frozen double-integral oracles (adaptive quadrature of the projected kernel
# against the family scores, recorded at development time)
MD_INTEGRALS = [
    (1.0, "gamma", 0.00146565),
    (10.0, "weibull", 6.49367e-5),
    (1.0, "weibull", 0.0033029),
    (2.0, "emnw", 0.000318562),
    (0.2, "lfr", 0.00107302),
]


# the per-(statistic, a, families) drift results
DRIFT_CACHES = (slopes._l2_numerators, slopes._sup_drifts_sq)


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

    @pytest.mark.parametrize("a", [0.2, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_psi_numpy_ei_moves_little_from_scipy(self, a):
        # JD's and JP's projections on the x-rule (to x = 600, where scipy's
        # e^-z Ei(z) is still finite) with numeric.exp1 and numeric.expi
        # against scipy's: within 2e-14 of max|psi| (6.5e-15 measured)
        x, _ = slopes._x_rule(LRT_STEP)
        x = x[x < 600.0]
        for psi, ref in ((psi_JD, psi_jd_scipy), (psi_JP, psi_jp_scipy)):
            want = ref(x, a)
            assert np.max(np.abs(psi(x, a) - want)) <= 2e-14 * np.max(np.abs(want)), psi

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
        # the numerator c * delta1 of MD's L2 route against the frozen oracles
        # (6 digits) and against the double integral of h2_tilde on the
        # x-rule's pair grid
        for a, fam_id, expected in MD_INTEGRALS:
            fam = get_family(fam_id)
            got = (slope_coefficient(StatisticId("MD", a), fam)
                   * largest_eigenvalue_delta1(a).delta1)
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
        # the slopes against pair-grid double integrals of the kernels on a
        # graded grid, for W with its mu-derivatives by central differences
        # and on a covariance grid of its own
        fine = graded_halfline_grid(5e-5, 80.0, 120, 12)
        md = StatisticId("MD", 1.0)
        gamma = get_family("gamma")
        c_fine = (pair_score_integral(h2_tilde, 1.0, gamma, fine)
                  / largest_eigenvalue_delta1(1.0).delta1)
        assert _rel(slope_coefficient(md, gamma), c_fine) < 1e-4

        w = StatisticId("W", 1.0)
        weibull = get_family("weibull")
        t, wt = panel_gauss_nodes(
            np.concatenate([[0.0], np.geomspace(0.02, 100.0, 80)]), 20)
        eig = largest_eigenvalue(slopes._cov_w(t[:, None], t[None, :]), wt * np.exp(-t))
        w_fine = l2_numerator_reference(kernel_w, 1.0, weibull, fine) / (2.0 * eig)
        assert _rel(slope_coefficient(w, weibull), w_fine) < 1e-4

    @pytest.mark.parametrize("stat", [StatisticId("CVM"), StatisticId("AD"),
                                      StatisticId("HM1", 0.5), StatisticId("HM2", 0.2),
                                      StatisticId("MP", 10.0), StatisticId("BH", 0.2),
                                      StatisticId("MD", 0.5), StatisticId("MD", 2.0)])
    def test_halved_x_step_and_more_t_panels(self, stat, monkeypatch):
        # the x-rules at half the step and 1.5 times the t-panels move no
        # efficiency by 1e-9; MD's delta1 moves with the t-panels too
        def slopes_now():
            for cached in (slopes._x_rule, numeric.t_rule, slopes._l2_operator_eigenvalue,
                           largest_eigenvalue_delta1, *DRIFT_CACHES):
                cached.cache_clear()
            return [slope_coefficient(stat, fam) for fam in LOCAL_FAMILIES]

        base = slopes_now()
        monkeypatch.setattr(slopes, "LRT_STEP", slopes.LRT_STEP / 2)
        monkeypatch.setattr(slopes, "HM_STEP", slopes.HM_STEP / 2)
        monkeypatch.setattr(numeric, "T_PANELS", 3 * numeric.T_PANELS // 2)
        fine = slopes_now()
        monkeypatch.undo()
        slopes_now()
        for fam, c, c_fine in zip(LOCAL_FAMILIES, base, fine):
            assert abs(c - c_fine) < 1e-9 * lrt_local_coefficient(fam), fam

    @pytest.mark.parametrize("name", sorted(ALL_STATISTICS))
    def test_report_decomposition(self, name):
        # L2 statistics (those with a weight): c = a_T * b; normal/sup: c = a_T * b^2
        stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
        rep = efficiency(stat, "weibull")
        l2 = slopes._SLOPES[name][3] is not None
        b_part = rep.b_coeff if l2 else rep.b_coeff**2
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


ROUTE_STATISTICS = ([StatisticId("CVM"), StatisticId("AD"), StatisticId("KS")]
                    + [StatisticId(name, a)
                       for name in ("MD", "MP", "BH", "HE", "W", "HM1", "HM2")
                       for a in (0.5, 2.0)])


def _clear_slope_caches():
    for cached in (slopes._x_rule, numeric.t_rule, slopes._l2_operator_eigenvalue,
                   slopes.lrt_local_coefficient, *DRIFT_CACHES):
        cached.cache_clear()


def _fresh_slope(stat, fam):
    """slope_coefficient with every cache of the slopes emptied first."""
    _clear_slope_caches()
    return slope_coefficient(stat, fam)


@pytest.fixture(scope="module")
def fresh_slopes():
    return {(stat, fam_id): _fresh_slope(stat, get_family(fam_id))
            for stat in ROUTE_STATISTICS for fam_id in LOCAL_FAMILIES}


class TestFamilyOrder:
    """A slope depends on its statistic and family object only, whatever
    order the families come in and whatever the caches hold."""

    @staticmethod
    def _check(stat, fam, expected):
        got = slope_coefficient(stat, fam)
        assert abs(got - expected) <= 1e-12 * abs(expected), (stat, fam)

    def test_families_inner(self, fresh_slopes):
        for stat in ROUTE_STATISTICS:
            for fam_id in LOCAL_FAMILIES:
                self._check(stat, fam_id, fresh_slopes[stat, fam_id])

    def test_families_outer(self, fresh_slopes):
        for fam_id in LOCAL_FAMILIES:
            for stat in ROUTE_STATISTICS:
                self._check(stat, fam_id, fresh_slopes[stat, fam_id])

    def test_stub_family_sharing_an_id(self, fresh_slopes):
        # scores come from the family object, not from its id
        weibull = get_family("weibull")
        stub = dataclasses.replace(get_family("gamma"), deriv0=weibull.deriv0,
                                   mu_prime0=weibull.mu_prime0)
        for stat in ROUTE_STATISTICS:
            self._check(stat, "gamma", fresh_slopes[stat, "gamma"])
            self._check(stat, stub, fresh_slopes[stat, "weibull"])


SHARED_STATISTICS = ([StatisticId(name) for name in sorted(ALL_STATISTICS - TUNED_STATISTICS)]
                     + [StatisticId(name, a) for name in sorted(TUNED_STATISTICS)
                        for a in (0.5, 2.0)])


def _efficiencies(families):
    """{(stat, family id): efficiency} of SHARED_STATISTICS, the statistics
    outer and the families in the order given, from emptied caches."""
    _clear_slope_caches()
    return {(stat, fam.id): efficiency(stat, fam).efficiency
            for stat in SHARED_STATISTICS for fam in families}


class TestSharedDrifts:
    """A catalogue family takes its drift from one pass over all four local
    families; any other family object, from a pass of its own."""

    @pytest.fixture(scope="class")
    def shared(self):
        return _efficiencies([get_family(f) for f in LOCAL_FAMILIES])

    def test_copies_take_their_own_pass(self, shared):
        # a dataclasses.replace copy equals its family but is not the
        # catalogue object, so it takes the one-family tuple
        copies = [dataclasses.replace(get_family(f)) for f in LOCAL_FAMILIES]
        assert slopes._family_column(copies[1]) == ((copies[1],), 0)
        assert slopes._family_column(get_family("gamma")) == (slopes._CATALOGUE, 1)
        for key, got in _efficiencies(copies).items():
            assert abs(got - shared[key]) <= 1e-13 * abs(shared[key]), key

    def test_family_order_does_not_matter(self, shared):
        reverse = [get_family(f) for f in reversed(LOCAL_FAMILIES)]
        assert _efficiencies(reverse) == shared


class TestProjectionReferences:
    """The projections, drifts and eigenvalues against references that do
    not share their route."""

    @pytest.mark.parametrize("name,a,step", [("BH", 0.7, LRT_STEP), ("HE", 0.7, LRT_STEP),
                                             ("W", 0.7, LRT_STEP), ("HM1", 1.0, 0.02),
                                             ("MD", 0.7, LRT_STEP)])
    def test_influence_gram_is_the_covariance(self, name, a, step):
        # E f~(X, s) f~(X, t) under Exp(1) on the x-rule against K(s, t);
        # MD's is 4 K(s, t; 0) of the pair-minimum process
        _, proj, cov, _ = slopes._SLOPES[name]
        t = np.array([0.05, 0.4, 1.3, 2.7, 4.8])
        x, w = slopes._x_rule(step)
        f = slopes._influence(proj, a, t, x, w)
        gram = (f * (np.exp(-x) * w)) @ f.T
        expected = cov(t[:, None], t[None, :])
        if name == "MD":
            np.testing.assert_array_equal(
                expected, 4.0 * covariance_K(t[:, None], t[None, :], 0.0))
        assert np.abs(gram - expected).max() < 1e-11 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["BH", "HE", "W"])
    def test_slope_takes_the_kernels_projection(self, name):
        # one projection f(x, t, a) per statistic: its kernel evaluates the
        # same function object that its drift and covariance take
        assert statistics._KERNELS[name][0].args[0].args == (slopes._SLOPES[name][1],)

    @pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
    def test_mp_gram_is_the_projected_kernel(self, a):
        # MP's projection, like the pair-minimum phi1_tilde of MD and LD, needs
        # no scale correction, and (1/6) of its t-Gram against e^{-at} is the
        # closed-form second projection of its kernel
        x = np.array([0.01, 0.3, 1.0, 2.5, 7.0])
        t, mass = numeric.t_rule("exp", a, 20)
        xs, ws = slopes._x_rule(LRT_STEP)
        for proj in (slopes._proj_mp, phi1_tilde):
            f = proj(xs, t[:, None], a)
            assert np.abs(slopes._influence(proj, a, t, xs, ws) - f).max() < 1e-13
        f = slopes._proj_mp(x[:, None], t[None, :], a)
        expected = mp_projected_kernel(x[:, None], x[None, :], a)
        assert np.abs((f * mass) @ f.T / 6.0 - expected).max() < 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name,ad", [("CVM", False), ("AD", True)])
    def test_edf_numerator_is_the_defining_limit(self, name, ad):
        # int b^2 w on weibull against lim b_T(theta)/theta^2 in 40 digits
        weibull = get_family("weibull")
        t, mass = numeric.t_rule(slopes._SLOPES[name][3], None, slopes.DRIFT_POINTS)
        b = slopes._drift(name, None, (weibull,), t)[:, 0]
        assert _rel(float(mass @ (b * b)), edf_weibull_numerator(ad)) < 1e-8

    @pytest.mark.parametrize("name,ad", [("CVM", False), ("AD", True)])
    def test_edf_eigenvalue_from_the_brownian_bridge(self, name, ad):
        assert _rel(slopes._l2_operator_eigenvalue(name, None), edf_eigenvalue(ad)) < 1e-10

    def test_ks_lfr_closed_form(self):
        # lfr's drift e^{-t}(t^2/2 - t) peaks in modulus at t = 2 - sqrt(2)
        rep = efficiency(StatisticId("KS"), "lfr")
        b = (math.sqrt(2.0) - 1.0) * math.exp(-(2.0 - math.sqrt(2.0)))
        assert abs(rep.b_coeff - b) < 1e-9 * b
        assert _rel(rep.efficiency, rep.a_T * b * b / lrt_local_coefficient("lfr")) < 1e-9


L2_MEMBERS = [("CVM", None), ("AD", None)] + [
    (name, a) for name in ("MD", "BH", "HE", "W", "HM1", "HM2", "MP") for a in (0.5, 2.0)]


class TestEigenLadder:
    """Every L2 lambda1 comes from numeric.operator_eigenvalue: the rungs of
    EIGEN_LADDER up to the first that agrees with the one before it."""

    @pytest.mark.parametrize("name,a", L2_MEMBERS)
    def test_matches_a_28_point_build(self, name, a):
        t, mass = numeric.t_rule(slopes._SLOPES[name][3], a, 28)
        ref = largest_eigenvalue(slopes._l2_kernel(name, a, t, 28), mass)
        assert _rel(slopes._l2_operator_eigenvalue(name, a), ref) < 1e-10

    def test_hm1_at_small_a_against_a_finer_build(self):
        # HM1's covariance needs 40 points per panel at a = 0.2; a fixed 20
        # points per panel was 2.2e-9 off a 44-point build
        t, mass = numeric.t_rule("exp", 0.2, 44)
        ref = largest_eigenvalue(slopes._cov_hm(t[:, None], t[None, :]), mass)
        assert _rel(slopes._l2_operator_eigenvalue("HM1", 0.2), ref) < 1e-10

    def test_unconverged_ladder_raises_with_its_trace(self):
        # at a = 0.1 HM1's ladder does not settle by 40 points per panel; a
        # fixed 20 points per panel returned an efficiency 6e-6 off
        with pytest.raises(NumericsError, match="did not converge") as exc:
            efficiency(StatisticId("HM1", 0.1), "weibull")
        assert len(exc.value.trace) >= 2


class TestReferenceEfficiencies:
    """Light spot checks; the full table sweep is in the acceptance suite."""

    @pytest.mark.parametrize("name,variance", [
        ("EP", 1.0 / 3.0), ("GINI", 1.0 / 12.0), ("CO", math.pi**2 / 6.0),
        ("MO", math.pi**2 / 6.0 - 1.0)])
    def test_normal_variance_closed_forms(self, name, variance):
        # Var psi(X) under Exp(1) on the x-rule against its closed form, and
        # psi orthogonal to x - 1 (no scale correction)
        rep = efficiency(StatisticId(name), "weibull")
        assert _rel(1.0 / rep.a_T, variance) < 1e-12
        x, w = slopes._x_rule(LRT_STEP)
        psi = slopes._SLOPES[name][1](x, None)
        assert abs(psi @ ((x - 1.0) * np.exp(-x) * w)) < 1e-14

    def test_co_weibull_is_optimal(self):
        assert abs(efficiency(StatisticId("CO"), "weibull").efficiency
                   - 1.0) < 1e-10

    def test_mo_gamma_is_optimal(self):
        assert abs(efficiency(StatisticId("MO"), "gamma").efficiency
                   - 1.0) < 1e-10

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

    def test_ks_weibull_drift_coefficient(self):
        # sup_t |b(t)| of the weibull drift int_0^t g' + mu'(0) t e^{-t}
        rep = efficiency(StatisticId("KS"), "weibull")
        assert abs(rep.b_coeff - 0.36339687) < 1e-8
