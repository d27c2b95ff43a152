import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from exptests import nulldist, numeric
from exptests.core import RngStream
from exptests.errors import DomainError, NumericsError
from exptests.nulldist import (CALIBRATION_COLUMNS,
                               calibrate_critical_value, covariance_K,
                               eigen_matrix, expint_Ei,
                               gl_nystrom_delta1, grid_ladder_delta1, h2_tilde,
                               largest_eigenvalue_delta1, load_calibrations,
                               matrix_largest_eigenvalue,
                               null_critical_values, null_p_value,
                               p_value_mc, phi1_tilde,
                               save_calibrations, simulate_null_statistics,
                               sup_variance)
from exptests.numeric import t_rule
from exptests.slopes import _l2_operator_eigenvalue, efficiency
from exptests.statistics import StatisticId

from oracles import h2_tilde_mpmath

# frozen reference values computed independently (high-precision quadrature /
# converged eigen ladders recorded at development time; DELTA1 to 12 digits,
# on which the t-panel ladder and the graded x-panel Nystrom of h2_tilde agree)
DELTA1 = {0.2: 0.012922695697, 0.5: 0.0059438169337, 1.0: 0.0027177573569,
          2.0: 0.0010169556120, 5.0: 0.00019752315824, 10.0: 4.4268184145e-05}
SUP_K = {0.2: 4.3953884947e-3, 0.5: 2.7628622457e-3, 1.0: 1.6213725806e-3,
         2.0: 7.9500460052e-4, 5.0: 2.3507992139e-4, 10.0: 7.8062109557e-5}


class TestSpecialFunctions:
    def test_ei_reference_values(self):
        assert abs(expint_Ei(1.0) - 1.8951178163559368) < 1e-12
        assert abs(expint_Ei(-1.0) - (-0.21938393439552029)) < 1e-12

    def test_ei_pole_rejected(self):
        with pytest.raises(DomainError):
            expint_Ei(0.0)
        with pytest.raises(DomainError):
            expint_Ei(np.array([1.0, 0.0]))

    def test_ei_vectorized(self):
        out = expint_Ei(np.array([1.0, 2.0]))
        assert out.shape == (2,)


class TestH2Tilde:
    def test_symmetry(self, gen):
        u = gen.uniform(0.1, 5.0, size=20)
        v = gen.uniform(0.1, 5.0, size=20)
        for a in (0.5, 1.0, 2.0):
            np.testing.assert_allclose(h2_tilde(u, v, a), h2_tilde(v, u, a),
                                       rtol=1e-10)

    def test_reference_value(self):
        assert abs(h2_tilde(1.0, 2.0, 1.0) - (-8.974622e-5)) < 1e-9

    def test_against_mpmath_near_origin_at_large_a(self):
        # at a = 10 the closed form's O(1) terms cancel to h2_tilde ~ 2e-4
        # near the origin; Ei arguments that extend an e^x factor's x are
        # summed exactly (_ei_of_sum), which keeps the error near 1e-12
        pts = np.array([1e-4, 1e-3, 1e-2, 5e-2])
        u, v = np.meshgrid(pts, pts, indexing="ij")
        ref = np.array([[h2_tilde_mpmath(s, t, 10.0) for t in pts] for s in pts])
        assert np.max(np.abs(h2_tilde(u, v, 10.0) / ref - 1)) < 1.2e-12

    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0, 10.0])
    def test_numpy_ei_moves_little_from_scipy(self, a, monkeypatch):
        # h2_tilde on a graded grid with numeric.expi against the same closed
        # form with scipy's Ei: within 1e-13 of max|h2| (5.9e-14 measured at
        # a = 10, where its O(1) terms cancel most)
        g = np.concatenate([[1e-4, 1e-2], np.geomspace(0.05, 30.0, 60)])
        u, v = g[:, None], g[None, :]
        got = h2_tilde(u, v, a)
        monkeypatch.setattr(nulldist, "expi", special.expi)
        ref = h2_tilde(u, v, a)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("u", [0.3, 1.0, 2.5])
    def test_first_projection_vanishes(self, u):
        # integrating out one argument against Exp(1) gives zero: the kernel
        # is degenerate of order 2
        val, _ = integrate.quad(lambda v: h2_tilde(u, v, 1.0) * math.exp(-v),
                                0, 60.0, limit=400)
        assert abs(val) < 1e-9

    def test_factorises_through_the_pair_minimum_process(self, gen):
        # h2_tilde(u, v; a) = (2/3) int e^{-at} phi(u, t) phi(v, t) dt and
        # K(s, t; 0) = E phi(X, s) phi(X, t), with phi the centred first
        # projection of (e^{-tx} + e^{-ty})/2 - e^{-2t min(x, y)}
        def phi(x, t):
            q = 2.0 * t + 1.0
            return (0.5 * math.exp(-t * x) + 0.5 / (1.0 + t)
                    - (-math.expm1(-q * x)) / q - math.exp(-q * x))

        def quad(f):
            return integrate.quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13,
                                  limit=500)[0]

        for a in (0.2, 1.0, 5.0):
            u, v = gen.uniform(0.01, 5.0, size=2)
            val = 2.0 / 3.0 * quad(lambda t: math.exp(-a * t) * phi(u, t) * phi(v, t))
            assert abs(val - h2_tilde(u, v, a)) < 1e-10 * abs(val), (u, v, a)
        for s_, t_ in gen.uniform(0.01, 5.0, size=(3, 2)):
            val = quad(lambda x: math.exp(-x) * phi(x, s_) * phi(x, t_))
            assert abs(val - covariance_K(s_, t_, 0.0)) < 1e-12 * val, (s_, t_)


class TestCovarianceK:
    def test_diagonal_closed_form(self):
        # K(1, 1; a) = 11 e^{-2a} / 1680
        for a in (0.2, 1.0, 3.0):
            assert abs(covariance_K(1.0, 1.0, a)
                       - 11.0 * math.exp(-2 * a) / 1680.0) < 1e-15

    def test_symmetry_and_boundary(self, gen):
        s = gen.uniform(0.1, 5.0, size=10)
        t = gen.uniform(0.1, 5.0, size=10)
        np.testing.assert_allclose(covariance_K(s, t, 1.0),
                                   covariance_K(t, s, 1.0), rtol=1e-12)
        assert covariance_K(0.0, 1.0, 1.0) == 0.0

    def test_positive_diagonal(self, gen):
        t = gen.uniform(0.05, 20.0, size=50)
        assert np.all(covariance_K(t, t, 0.5) > 0)


class TestSupVariance:
    @pytest.mark.parametrize("a", sorted(SUP_K))
    def test_frozen_values(self, a):
        h = sup_variance(a)
        assert abs(h.sup_variance - SUP_K[a]) < 1e-9 * SUP_K[a] + 1e-13

    def test_certificate(self, gen):
        # the reported supremum dominates K(t,t) on a random probe grid
        h = sup_variance(1.0)
        t = gen.uniform(1e-4, 40.0, size=2000)
        assert np.all(covariance_K(t, t, 1.0) <= h.sup_variance + 1e-15)
        assert abs(covariance_K(h.argmax_t, h.argmax_t, 1.0)
                   - h.sup_variance) < 1e-12

    def test_invalid_a(self):
        with pytest.raises(DomainError):
            sup_variance(0.0)
        for a in (np.inf, np.nan):
            with pytest.raises(DomainError, match="positive finite"):
                sup_variance(a)
            with pytest.raises(DomainError, match="positive finite"):
                largest_eigenvalue_delta1(a)


def _grid(m, B):
    """Cell midpoints and cell masses of eigen_matrix's grid."""
    i = np.arange(m + 1, dtype=float)
    p = np.exp(-i * (B / m)) - np.exp(-(i + 1) * (B / m))
    return (i + 0.5) * (B / m), p / (-np.expm1(-B))


class TestEigenMachinery:
    def test_constant_kernel_eigenvalue_one(self):
        approx = eigen_matrix(1.0, 200, 25.0,
                              kernel=lambda x, y, a: np.ones(np.broadcast(x, y).shape))
        assert abs(matrix_largest_eigenvalue(approx) - 1.0) < 1e-10

    def test_separable_kernel(self):
        # rank-one kernel e^{-x} e^{-y} on L2(Exp(1)): the only nonzero
        # eigenvalue is int e^{-2x} e^{-x} dx = 1/3
        approx = eigen_matrix(1.0, 2000, 30.0,
                              kernel=lambda x, y, a: np.exp(-x - y))
        assert abs(matrix_largest_eigenvalue(approx) - 1.0 / 3.0) < 1e-3

    def test_row_blocks_match_full_broadcast(self):
        m, B = 2000, 30.0
        nodes, mass = _grid(m, B)
        full = h2_tilde(nodes[:, None], nodes[None, :], 1.0)
        got = eigen_matrix(1.0, m, B)
        assert got.matrix.tobytes() == full.tobytes()
        assert got.mass.tobytes() == mass.tobytes()

    @pytest.mark.parametrize("B", [25.0, 30.0])
    @pytest.mark.parametrize("m", [100, 777, 2000])
    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0, 10.0])
    def test_default_kernel_matches_broadcast(self, a, m, B):
        # the grid matrix of the closed-form h2_tilde against the broadcast of
        # its factorization (2/3) sum_k w_k e^{-a t_k} phi(x_i, t_k) phi(x_j, t_k)
        # on the 8-point t-rule, where delta1's ladder stops, entrywise:
        # |diff| <= 2e-13 max|h2| (8.9e-14 measured)
        nodes, _ = _grid(m, B)
        t, mass = t_rule("exp", a, 8)
        phi = phi1_tilde(nodes[:, None], t, 0.0)
        ref = 2.0 / 3.0 * (phi * mass) @ phi.T
        got = eigen_matrix(a, m, B).matrix
        assert np.all(np.abs(got - ref) <= 2e-13 * np.abs(got).max())

    @pytest.mark.parametrize("m, B", [(100, 25.0), (500, 25.0), (777, 30.0)])
    @pytest.mark.parametrize("a", [0.2, 1.0, 10.0])
    def test_phi_gram_rung_matches_grid_matrix(self, a, m, B):
        # a grid rung is the t-operator of the Gram of phi on the grid; it
        # must give the top eigenvalue of the grid matrix of h2_tilde itself
        ref = matrix_largest_eigenvalue(eigen_matrix(a, m, B))
        assert abs(nulldist._grid_delta1(a, m, B) - ref) < 1e-12 * ref

    def test_row_block_temporaries_stay_cache_sized(self):
        # blocks of CACHE_BUDGET // (m+1) rows: h2_tilde's temporaries stay
        # cache-sized, and only the (m+1)^2 matrix (30.5 MiB) grows with m
        tracemalloc.start()
        try:
            approx = eigen_matrix(1.0, 2000, 30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - approx.matrix.nbytes < 10 * 2**20

    def test_validation(self):
        with pytest.raises(DomainError):
            eigen_matrix(1.0, 50, 25.0)
        with pytest.raises(DomainError):
            eigen_matrix(1.0, 200, 5.0)

    @pytest.mark.parametrize("a", sorted(DELTA1))
    def test_frozen_delta1(self, a):
        est = largest_eigenvalue_delta1(a).delta1
        assert abs(est - DELTA1[a]) < 1e-9 * DELTA1[a]

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_delta1_is_the_md_slope_operator(self, a):
        # nMD converges to 6 sum delta_k W_k^2: lambda1 of the slope table's
        # MD operator 4 K(s, t; 0) on L2(e^{-at} dt), at its own points per panel
        lam = _l2_operator_eigenvalue("MD", a)
        assert abs(6.0 * largest_eigenvalue_delta1(a).delta1 - lam) < 1e-13 * lam

    @pytest.mark.parametrize("a", sorted(DELTA1))
    def test_matches_graded_x_panel_nystrom(self, a):
        # the x-side check gl_nystrom_delta1: Nystrom of h2_tilde itself, 8
        # Gauss points on each graded x-panel (1.2e-14 measured at a = 10)
        ref = gl_nystrom_delta1(a, 8)
        assert abs(largest_eigenvalue_delta1(a).delta1 - ref) < 1e-12 * ref

    def test_ladder_trace_and_cache(self):
        r1 = largest_eigenvalue_delta1(1.0)
        r2 = largest_eigenvalue_delta1(1.0)
        assert r1 is r2  # cached
        assert len(r1.trace) == 3
        n0, e0 = r1.trace[-2]
        n1, e1 = r1.trace[-1]
        assert n0 < n1
        assert abs(e1 - e0) < 1e-10 * e1

    def test_grid_route_agrees_with_primary(self):
        extr, trace = grid_ladder_delta1(1.0)
        primary = largest_eigenvalue_delta1(1.0).delta1
        assert len(trace) == 3
        assert abs(extr - primary) < 5e-4 * primary

    def test_nonconvergence_raises_with_trace(self, monkeypatch):
        monkeypatch.setattr(numeric, "EIGEN_LADDER", (4, 8))
        monkeypatch.setattr(numeric, "EIGEN_REL_TOL", 1e-12)
        largest_eigenvalue_delta1.cache_clear()
        try:
            with pytest.raises(NumericsError) as exc:
                largest_eigenvalue_delta1(0.31415)
        finally:
            largest_eigenvalue_delta1.cache_clear()
        assert len(exc.value.trace) == 2

    def test_invalid_a(self):
        with pytest.raises(DomainError):
            largest_eigenvalue_delta1(-1.0)

    @pytest.mark.parametrize("a", [-1.0, 0.0, math.nan, math.inf])
    def test_every_route_rejects_invalid_a(self, a):
        for route in (grid_ladder_delta1, lambda a: gl_nystrom_delta1(a, 8),
                      lambda a: eigen_matrix(a, 100, 25.0)):
            with pytest.raises(DomainError, match="positive finite"):
                route(a)

    @pytest.mark.parametrize("n_nodes", [0, -3])
    def test_gauss_legendre_route_needs_a_node(self, n_nodes):
        with pytest.raises(DomainError, match="node"):
            gl_nystrom_delta1(1.0, n_nodes)


class TestTailCoefficient:
    def test_md_and_ld(self):
        a_md = efficiency(StatisticId("MD", 1.0), "gamma").a_T
        assert abs(a_md - 1.0 / (6.0 * DELTA1[1.0])) < 1e-9 * a_md
        a_ld = efficiency(StatisticId("LD", 1.0), "gamma").a_T
        assert abs(a_ld - 1.0 / SUP_K[1.0]) < 1e-6 * a_ld


class TestCalibration:
    def test_validation(self):
        with pytest.raises(DomainError):
            calibrate_critical_value(StatisticId("MD", 1.0), 1)
        with pytest.raises(DomainError):
            calibrate_critical_value(StatisticId("MD", 1.0), 20, alpha=1.5)
        with pytest.raises(DomainError):
            calibrate_critical_value(StatisticId("MD", 1.0), 20,
                                     replicates=500)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, threads):
        stat = StatisticId("MD", 1.0)
        with pytest.raises(DomainError, match="threads"):
            simulate_null_statistics(stat, 10, 10, RngStream(5), threads=threads)
        with pytest.raises(DomainError, match="threads"):
            calibrate_critical_value(stat, 10, rng=RngStream(5), threads=threads)
        with pytest.raises(DomainError, match="threads"):
            p_value_mc(stat, [1.0, 2.0], 10, RngStream(5), threads=threads)

    @pytest.mark.parametrize("replicates", [0, -5])
    def test_rejects_replicate_count_below_one(self, replicates):
        stat = StatisticId("EP")
        with pytest.raises(DomainError, match="replicates"):
            simulate_null_statistics(stat, 10, replicates, RngStream(5))
        with pytest.raises(DomainError, match="replicates"):
            p_value_mc(stat, [1.0, 2.0], replicates, RngStream(5))

    def test_deterministic_and_thread_invariant(self):
        stat = StatisticId("MD", 1.0)
        v1 = simulate_null_statistics(stat, 10, 12_000, RngStream(5), threads=1)
        v2 = simulate_null_statistics(stat, 10, 12_000, RngStream(5), threads=3)
        np.testing.assert_array_equal(v1, v2)

    def test_quantiles_ordered_and_se(self):
        cal = calibrate_critical_value(StatisticId("MD", 1.0), 15,
                                       alpha=[0.1, 0.05, 0.01],
                                       replicates=10_000, rng=RngStream(1))
        c = cal.critical_values
        assert c[0.1] < c[0.05] < c[0.01]
        assert abs(cal.standard_errors[0.05]
                   - math.sqrt(0.05 * 0.95 / 10_000)) < 1e-12

    @pytest.mark.parametrize("reps", [10_000, 10_001, 12_345, 50_000])
    def test_critical_values_are_np_quantile_bit_for_bit(self, reps):
        # type-7 from np.partition and numpy's own lerp (b - (b - a)(1 - g)
        # for g >= 1/2): equal to np.quantile, not just close
        values = np.random.default_rng(reps).standard_exponential(reps)
        alphas = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.2, 0.5, 0.9)
        crit, _ = null_critical_values(values, alphas)
        for al in alphas:
            assert crit[al] == float(np.quantile(values, 1.0 - al)), al

    def test_nan_null_value_raises(self):
        values = np.random.default_rng(3).standard_exponential(10_000)
        values[17] = np.nan
        with pytest.raises(NumericsError, match="1 of 10000"):
            null_critical_values(values, (0.05,))

    def test_roundtrip_csv(self, tmp_path):
        cal = calibrate_critical_value(StatisticId("LD", 2.0), 10,
                                       alpha=[0.05, 0.01],
                                       replicates=10_000, rng=RngStream(2))
        path = tmp_path / "cal.csv"
        save_calibrations(path, [cal])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CALIBRATION_COLUMNS)
        loaded = load_calibrations(path)
        assert len(loaded) == 1
        got = loaded[0]
        assert got.statistic == cal.statistic
        assert got.n == cal.n
        assert got.critical_values == cal.critical_values

    def test_roundtrip_csv_keeps_stream_and_key(self, tmp_path):
        stat = StatisticId("MD", 1.0)
        cals = [calibrate_critical_value(stat, 5, replicates=10_000, rng=rng)
                for rng in (RngStream(7, stream=3),
                            RngStream(7, stream=3).substream(2).substream(0),
                            RngStream(7))]
        path = tmp_path / "cal.csv"
        save_calibrations(path, cals)
        loaded = load_calibrations(path)
        assert [c.seed for c in loaded] == [c.seed for c in cals]
        assert loaded == cals

    def test_repeated_row_is_rejected_with_its_line(self, tmp_path):
        # a second row for the same calibration and alpha is an error, not
        # a silent overwrite of the first
        path = tmp_path / "cal.csv"
        path.write_text(",".join(CALIBRATION_COLUMNS) + "\n"
                        "MD,1.0,5,0.05,0.01,0.0021794494717703367,10000,7,0,\n"
                        "MD,1.0,5,0.05,0.99,0.0021794494717703367,10000,7,0,\n")
        with pytest.raises(DomainError, match=f"{path}:3: repeats alpha=0.05 of MD"):
            load_calibrations(path)

    def test_row_with_extra_cells_is_rejected_with_its_line(self, tmp_path):
        # cells past the header's columns are an error, not silently dropped
        path = tmp_path / "cal.csv"
        path.write_text(",".join(CALIBRATION_COLUMNS) + "\n"
                        "MD,1.0,5,0.05,0.01,0.0021794494717703367,10000,7,0,\n"
                        "MD,1.0,5,0.01,0.02,0.0009949874371066199,10000,7,0,,3,4\n")
        with pytest.raises(DomainError, match=f"{path}:3: the row has 12 cells, the header 10"):
            load_calibrations(path)

    def test_repeated_header_column_is_rejected(self, tmp_path):
        # a column named twice is an error, not a silent win of its last cell
        path = tmp_path / "cal.csv"
        path.write_text(",".join(CALIBRATION_COLUMNS) + ",seed\n"
                        "MD,1.0,5,0.05,0.01,0.0021794494717703367,10000,7,0,,9\n")
        with pytest.raises(DomainError) as info:
            load_calibrations(path)
        assert str(info.value) == f"{path}: the header repeats 'seed'"

    def test_alphas_are_floats_and_survive_the_csv(self, tmp_path):
        cal = calibrate_critical_value(StatisticId("MD", 1.0), 5,
                                       alpha=np.array([0.05]),
                                       replicates=10_000, rng=RngStream(3))
        assert [type(al) for al in cal.alphas] == [float]
        path = tmp_path / "cal.csv"
        save_calibrations(path, [cal])
        (back,) = load_calibrations(path)
        assert repr(cal) == repr(back)

    def test_csv_without_stream_columns_loads_as_stream_zero(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("statistic,a,n,alpha,critical_value,se,replicates,seed\n"
                        "MD,1.0,5,0.05,0.0123,0.0021794494717703367,10000,7\n")
        (got,) = load_calibrations(path)
        assert got.seed == RngStream(7, stream=0, key=())
        assert got.critical_values == {0.05: 0.0123}


class TestPValue:
    def test_sentinels(self, gen):
        x = gen.exponential(size=10)
        stat = StatisticId("MD", 1.0)
        null = simulate_null_statistics(stat, x.size, 10_000, RngStream(3))
        hi = null_p_value(null, np.inf)
        lo = null_p_value(null, -np.inf)
        assert abs(hi - 1.0 / 10_001) < 1e-15
        assert abs(lo - 1.0) < 1e-15

    def test_rejects_single_observation(self):
        with pytest.raises(DomainError):
            p_value_mc(StatisticId("MD", 1.0), [1.5], 10_000, RngStream(3))

    @pytest.mark.parametrize("raw", [[1.0, -2.0, 3.0], [1.5]])
    def test_checks_sample_before_null_run(self, raw, monkeypatch):
        def no_null_run(*args, **kwargs):
            raise AssertionError("the null was simulated for a bad sample")
        monkeypatch.setattr(nulldist, "simulate_null_statistics", no_null_run)
        with pytest.raises(DomainError, match="index 1" if len(raw) > 1 else "at least 2"):
            p_value_mc(StatisticId("MD", 1.0), raw, 20_000, RngStream(3))

    def test_never_zero_or_above_one(self, gen):
        x = gen.exponential(size=12)
        p = p_value_mc(StatisticId("LD", 1.0), x, 10_000, RngStream(4))
        assert 0.0 < p <= 1.0
