import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from exptests import numeric, statistics
from exptests.core import scale_sample
from exptests.errors import DomainError, NumericsError
from exptests.statistics import (ALL_STATISTICS, PLAIN_STATISTICS,
                                 TUNED_STATISTICS, StatisticId, evaluate,
                                 evaluate_many, kernel_hm1, kernel_hm2,
                                 ld_upper_bound, vn_process)

from oracles import (he_scipy, hm1_mpmath, hm2_mpmath, kernel_ad, kernel_cvm,
                     laplace_pair_mpmath, ld_mpmath, md_mpmath, mp_mpmath,
                     mp_quad_mpmath, oracle_statistic, plain_reference,
                     vn_mpmath)

positive_samples = st.lists(st.floats(0.05, 20.0), min_size=5, max_size=25)
# every statistic at n = 50, at a = 1 where it takes a tuning parameter
_EVERY_STAT_AT_N50 = [(name, 1.0 if name in TUNED_STATISTICS else None, 50)
                      for name in sorted(ALL_STATISTICS)]


def _with_edge_rows(x, a):
    """The rows x and, up to n = 50, the rows that try the ends of the
    t-rule: one with half its points at 1e-6, a uniform(0.5, 1.5) one and, at
    n >= 10 and a <= 1, one with a point at 40, far out in the scaled
    sample, whose transform needs the rule's nodes near t = 1/n."""
    n = x.shape[1]
    if n > 50:
        return x
    half = x[0].copy()
    half[:n // 2] = 1e-6
    rows = [x, half[None], np.random.default_rng(n).uniform(0.5, 1.5, (1, n))]
    if n >= 10 and a <= 1.0:
        far = x[1].copy()
        far[0] = 40.0
        rows.append(far[None])
    return np.concatenate(rows)


class TestStatisticId:
    def test_label_and_case_folding(self):
        s = StatisticId("md", 0.5)
        assert s.name == "MD"
        assert s.label() == "MD[a=0.5]"
        assert StatisticId("KS").label() == "KS"

    def test_validation(self):
        with pytest.raises(DomainError):
            StatisticId("XX")
        with pytest.raises(DomainError):
            StatisticId("MD")          # tuned, missing a
        with pytest.raises(DomainError):
            StatisticId("MD", -1.0)    # nonpositive a
        for a in (np.inf, -np.inf, np.nan):
            with pytest.raises(DomainError, match="positive finite"):
                StatisticId("LD", a)
        with pytest.raises(DomainError):
            StatisticId("KS", 1.0)     # plain, spurious a

    def test_partition(self):
        assert TUNED_STATISTICS | PLAIN_STATISTICS == ALL_STATISTICS
        assert not TUNED_STATISTICS & PLAIN_STATISTICS


class TestClosedFormsAgainstQuadrature:
    """Spot versions of the full closed-form-vs-integral acceptance sweep."""

    @pytest.mark.parametrize("name,a", [
        ("MD", 1.0), ("MD", 0.2), ("JD", 2.0), ("JP", 1.0), ("MP", 1.5),
        ("BH", 1.0), ("HE", 1.5), ("W", 2.0), ("HM1", 2.5), ("HM2", 2.5),
    ])
    def test_tuned(self, name, a, gen):
        x = gen.exponential(size=12) * 3.0
        closed = evaluate(StatisticId(name, a), x).value
        assert abs(closed - oracle_statistic(name, x, a)) < 1e-8

    @pytest.mark.parametrize("name", ["CVM", "AD"])
    def test_edf(self, name, gen):
        x = gen.exponential(size=10)
        closed = evaluate(StatisticId(name), x).value
        assert abs(closed - oracle_statistic(name, x)) < 1e-8


class TestMDAndLD:
    def test_md_zero_only_in_limit(self, gen):
        # MD is a squared distance: strictly positive on finite samples
        x = gen.exponential(size=15)
        assert evaluate(StatisticId("MD", 1.0), x).value > 0

    @pytest.mark.parametrize("n", [5, 20, 50, 120])
    @pytest.mark.parametrize("a", [0.2, 1.0, 10.0])
    def test_md_against_mpmath(self, n, a):
        # the t-rule against MD's double sum in 40 digits
        rows = 4 if n <= 50 else 2
        x = _with_edge_rows(np.random.default_rng(0).standard_exponential((rows, n)), a)
        ref = np.array([md_mpmath(row, a) for row in x])
        np.testing.assert_allclose(evaluate_many(StatisticId("MD", a), x),
                                   ref, rtol=5e-12, atol=0)

    def test_vn_process_matches_direct(self, gen):
        x = gen.exponential(size=9)
        s = scale_sample(x)
        y = s.values
        for t in (0.3, 1.0, 4.0):
            l1 = np.mean(np.exp(-t * y))
            l2 = np.mean(np.exp(-2 * t * np.minimum(y[:, None], y[None, :])))
            direct = (l1 - l2) * np.exp(-1.0 * t)
            assert abs(vn_process(s, 1.0, t) - direct) < 1e-12

    @pytest.mark.parametrize("a", [5.0, 10.0])
    def test_vn_process_against_mpmath(self, a):
        # 40-digit oracle on one n=50 row: both transforms come from one
        # expm1 per point, so no two numbers near 1 are subtracted
        s = scale_sample(np.random.default_rng(0).standard_exponential(50))
        n = s.values.size
        ts = np.geomspace(1e-4, ld_upper_bound(a), 16)
        with mpmath.workdps(40):
            y = [mpmath.mpf(v) for v in s.values]
            z = [mpmath.mpf(v) for v in s.sorted_values]
            w = [mpmath.mpf(2 * (n - i) + 1) / n**2 for i in range(1, n + 1)]
            ref = np.array([float(
                (mpmath.fsum(mpmath.exp(-t * v) for v in y) / n
                 - mpmath.fsum(wi * mpmath.exp(-2 * t * v) for wi, v in zip(w, z)))
                * mpmath.exp(-a * t)) for t in map(mpmath.mpf, ts)])
        assert np.max(np.abs(vn_process(s, a, ts) / ref - 1)) < 2e-13

    @pytest.mark.parametrize("a", [0.2, 1.0, 10.0])
    def test_vn_derivatives_against_mpmath(self, a):
        # the analytic slope and curvature of LD's refine against mpmath.diff
        # of the 40-digit vn, relative to each one's largest value
        x = np.random.default_rng(3).standard_exponential(20)
        ts = np.geomspace(1e-4, ld_upper_bound(a), 8)
        got = statistics._vn(scale_sample(x).sorted_values[:, None], a, ts,
                             derivatives=True)
        with mpmath.workdps(40):
            f = vn_mpmath(x, a)
            ref = np.array([[float(mpmath.diff(f, mpmath.mpf(t), k)) for t in ts]
                            for k in range(3)])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=1, keepdims=True))

    @pytest.mark.parametrize("n", [5, 20, 50])
    @pytest.mark.parametrize("a", [0.2, 1.0, 10.0])
    def test_ld_against_mpmath(self, n, a):
        # against a 512-point scan and golden-section refine in 40 digits
        x = np.random.default_rng(0).standard_exponential((2, n))
        ref = np.array([ld_mpmath(row, a) for row in x])
        np.testing.assert_allclose(evaluate_many(StatisticId("LD", a), x),
                                   ref, rtol=1e-12, atol=0)

    def test_ld_refine_capped_below_convergence_raises(self, gen, monkeypatch):
        monkeypatch.setattr(numeric, "NEWTON_STEPS", 1)
        with pytest.raises(NumericsError, match="row 0 did not converge"):
            evaluate(StatisticId("LD", 1.0), gen.exponential(size=20))

    def test_ld_matches_dense_grid(self, gen):
        x = gen.exponential(size=14)
        s = scale_sample(x)
        for a in (0.5, 1.0, 5.0):
            ts = np.linspace(1e-4, max(40.0 / a, 4.0), 200_001)
            brute = float(np.max(np.abs(vn_process(s, a, ts))))
            val = evaluate(StatisticId("LD", a), x).value
            assert val >= brute - 1e-9
            assert abs(val - brute) < 1e-6

    def test_ld_at_least_grid_value(self, gen):
        x = gen.exponential(size=10)
        s = scale_sample(x)
        a = 1.0
        ts = np.geomspace(1e-4, 40.0, 512)
        assert (evaluate(StatisticId("LD", a), x).value
                >= np.max(np.abs(vn_process(s, a, ts))) - 1e-12)

    @pytest.mark.parametrize("seed,row,a,expected", [
        # the 512-point scan ranked this row's two near-equal peaks wrong
        # and returned 0.0190502, the peak at t ~ 0.34
        (11, 483, 0.2, 0.0190527),
        # one step of a 32-point scan holds two peaks here
        (1, 16680, 0.5, 0.0101761),
    ])
    def test_ld_finds_the_higher_of_close_peaks(self, seed, row, a, expected):
        x = np.random.default_rng(seed).standard_exponential((20000, 20))[row]
        s = scale_sample(x)
        # dense reference: 2^16-point log scan, then a bounded refine
        ts = np.geomspace(1e-4, ld_upper_bound(a), 2**16)
        k = int(np.argmax(np.abs(vn_process(s, a, ts))))
        ref = -minimize_scalar(lambda t: -abs(vn_process(s, a, t)),
                               bounds=(ts[k - 1], ts[k + 1]), method="bounded",
                               options={"xatol": 1e-12}).fun
        assert abs(ref - expected) < 1e-7
        assert abs(evaluate(StatisticId("LD", a), x).value - ref) < 1e-10 * ref

    def test_invalid_a(self, gen):
        x = gen.exponential(size=5)
        with pytest.raises(DomainError):
            evaluate(StatisticId("MD", 0.0), x)
        with pytest.raises(DomainError):
            evaluate(StatisticId("LD", -2.0), x)
        with pytest.raises(DomainError):
            vn_process(scale_sample(x), 0.0, 1.0)
        with pytest.raises(DomainError, match="positive finite"):
            vn_process(scale_sample(x), np.inf, 1.0)

    @pytest.mark.parametrize("t", [-5.0, -1e-300, np.nan, np.inf, [0.5, np.nan]])
    def test_vn_process_rejects_bad_t(self, t, gen):
        with pytest.raises(DomainError, match="non-negative finite"):
            vn_process(scale_sample(gen.exponential(size=5)), 1.0, t)

    def test_vn_process_is_zero_at_t_zero(self, gen):
        s = scale_sample(gen.exponential(size=5))
        assert vn_process(s, 1.0, 0.0) == 0.0
        np.testing.assert_array_equal(vn_process(s, 1.0, [0.0, 0.0]), [0.0, 0.0])


class TestBatteryForms:
    @pytest.mark.parametrize("n", [5, 20, 120])
    @pytest.mark.parametrize("a", [0.2, 1.0, 10.0])
    def test_mp_against_mpmath(self, n, a):
        # the t-rule against MP's closed form in 40 digits, at n = 120 against
        # its 40-digit quadrature, which reproduces the closed form at n = 5
        rows = 4 if n <= 50 else 1
        x = _with_edge_rows(np.random.default_rng(n).standard_exponential((rows, n)), a)
        ref = np.array([(mp_mpmath if n <= 20 else mp_quad_mpmath)(row, a) for row in x])
        if n == 5:
            assert mp_quad_mpmath(x[0], a) == pytest.approx(ref[0], rel=1e-15, abs=0)
        np.testing.assert_allclose(evaluate_many(StatisticId("MP", a), x),
                                   ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("a", [1e2, 1e3, 1e4, 1e5, 1e6])
    def test_mp_against_mpmath_at_large_a(self, a):
        # the rule reaches below the damping scale 1/a, and D - L, which is
        # O(t) at t ~ 1/a, is summed in expm1 form, so no cancellation grows with a
        x = np.random.default_rng(8).standard_exponential((3, 8))
        ref = np.array([mp_mpmath(row, a) for row in x])
        np.testing.assert_allclose(evaluate_many(StatisticId("MP", a), x),
                                   ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0, 10.0])
    def test_hm1_against_mpmath(self, a):
        # 40-digit pair mean of the published kernel.  Where the pair mean
        # cancels strongly (row 0 at a = 10: mean|kernel| is 7e4 times HM1),
        # rounding the kernel values alone costs more than 5e-13 relative, so
        # the bound is the larger of 5e-13 relative and eps/4 of the pair
        # mean of |kernel|
        x = np.random.default_rng(0).standard_exponential((4, 50))
        ref, scale = np.array([hm1_mpmath(row, a) for row in x]).T
        err = np.abs(evaluate_many(StatisticId("HM1", a), x) - ref)
        eps = np.finfo(float).eps
        assert np.all(err <= np.maximum(5e-13 * np.abs(ref), 0.25 * eps * scale))

    @pytest.mark.parametrize("a", [0.2, 1.0] + [
        pytest.param(a, marks=pytest.mark.xfail(strict=True, reason="HM2's kernel cancels"))
        for a in (5.0, 10.0)])
    def test_hm2_against_mpmath(self, a):
        # HM1's bound.  At a = 5 and 10 each kernel value cancels inside: its
        # leading term sqrt(pi/a)/4 (1 - u)(1 - v)/a has a pair mean that
        # vanishes at mean(y) = 1, and the float64 kernel is about 16 times
        # the bound off (the circular-diagonal pass and the full n^2 mean alike)
        x = np.random.default_rng(0).standard_exponential((4, 50))
        ref, scale = np.array([hm2_mpmath(row, a) for row in x]).T
        err = np.abs(evaluate_many(StatisticId("HM2", a), x) - ref)
        eps = np.finfo(float).eps
        assert np.all(err <= np.maximum(5e-13 * np.abs(ref), 0.25 * eps * scale))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("name,kernel", [("HM1", kernel_hm1), ("HM2", kernel_hm2)])
    def test_pair_pass_is_the_mean_over_all_pairs(self, name, kernel, n):
        # n//2 + 1 circular diagonals, weighted 1, 2, ..., 2 and 1 for k = n/2
        # at even n, cover each of the n^2 ordered pairs once
        x = np.random.default_rng(n).standard_exponential((20, n))
        y = x / x.mean(axis=1, keepdims=True)
        full = kernel(y[:, :, None], y[:, None, :], 1.0).mean(axis=(1, 2))
        np.testing.assert_allclose(evaluate_many(StatisticId(name, 1.0), x), full,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [5, 20, 21, 50])
    @pytest.mark.parametrize("name", ["HM1", "HM2"])
    def test_pair_rows_do_not_depend_on_cache_budget(self, name, n, monkeypatch):
        # chunks of 7, 64 and 1000 rows: every diagonal sums along its own
        # row and the weighted diagonal sums along each row, so every value is
        # bit-identical; odd and even n (the k = n/2 diagonal weighs 1)
        x = np.random.default_rng(60 + n).standard_exponential((1000, n))
        stat = StatisticId(name, 1.0)
        whole = evaluate_many(stat, x)
        per_row = statistics._KERNELS[name][1](n, 1.0)
        for rows in (7, 64, 1000):
            monkeypatch.setattr(statistics, "CACHE_BUDGET", rows * per_row)
            np.testing.assert_array_equal(evaluate_many(stat, x), whole)

    @pytest.mark.parametrize("name", ["BH", "HE", "W"])
    @pytest.mark.parametrize("a", [1.0, 10.0])
    def test_laplace_battery_against_mpmath(self, name, a):
        # the t-rule on the expm1-form projection against the 40-digit pair
        # mean of the published kernel, whose O(1) terms cancel to O(1/n): in
        # float64 that pair mean was 5.9e-9 (HE) and 1.4e-10 (W) off at a = 10
        x = np.random.default_rng(0).standard_exponential((4, 50))
        ref = np.array([laplace_pair_mpmath(name, row, a) for row in x])
        np.testing.assert_allclose(evaluate_many(StatisticId(name, a), x),
                                   ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [5, 20, 50])
    @pytest.mark.parametrize("a", [0.2, 1.0, 5.0])
    def test_he_against_scipy_pair_mean(self, n, a):
        # the pair mean of HE's kernel with scipy's Ei cancels O(1) terms to
        # HE = O(1/n), so it agrees with the t-rule to a few eps of the sum
        # of |terms| (2.0 eps measured)
        x = np.random.default_rng(100 + n).standard_exponential((400, n))
        ref, scale = he_scipy(x, a)
        err = np.abs(evaluate_many(StatisticId("HE", a), x) - ref)
        assert np.all(err <= 8 * np.finfo(float).eps * scale)

    def test_mp_chunks_sized_by_nodes(self):
        # 10^4 rows at n = 5: chunks of CACHE_BUDGET // n^2 rows would hold
        # (2621, 44) arrays; chunking by MP's node count keeps the peak low
        x = np.random.default_rng(5).standard_exponential((10_000, 5))
        tracemalloc.start()
        try:
            evaluate_many(StatisticId("MP", 1.0), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("n", [5, 20])
    @pytest.mark.parametrize("name", ["MD", "BH", "HE", "W", "MP"])
    def test_laplace_rows_do_not_depend_on_cache_budget(self, name, n, monkeypatch):
        # chunks of 7, 64 and 1000 rows (every chunk holds two rows or more):
        # each t-node's pass over n and the node sum run in the same order
        # for every row of a chunk, so every value is bit-identical
        x = np.random.default_rng(50 + n).standard_exponential((1000, n))
        stat = StatisticId(name, 1.0)
        whole = evaluate_many(stat, x)
        per_row = statistics._KERNELS[name][1](n, 1.0)
        for rows in (7, 64, 1000):
            monkeypatch.setattr(statistics, "CACHE_BUDGET", rows * per_row)
            np.testing.assert_array_equal(evaluate_many(stat, x), whole)

    @pytest.mark.parametrize("name,kernel", [("CVM", kernel_cvm),
                                             ("AD", kernel_ad)])
    def test_sorted_forms_match_pair_means(self, name, kernel, gen):
        # the V-statistic means of the published pair kernels
        x = gen.exponential(size=(30, 17)) * 2.0
        y = x / x.mean(axis=1, keepdims=True)
        pair = kernel(y[:, :, None], y[:, None, :]).mean(axis=(1, 2))
        np.testing.assert_allclose(evaluate_many(StatisticId(name), x), pair,
                                   rtol=1e-12, atol=0)


class TestKernels:
    @pytest.mark.parametrize("kernel", [kernel_cvm, kernel_ad])
    @given(x=st.floats(0.05, 30.0), y=st.floats(0.05, 30.0))
    @settings(max_examples=25)
    def test_edf_kernel_symmetry(self, kernel, x, y):
        assert abs(kernel(x, y) - kernel(y, x)) < 1e-12

    @pytest.mark.parametrize("kernel", [kernel_hm1, kernel_hm2])
    @given(x=st.floats(0.05, 30.0), y=st.floats(0.05, 30.0),
           a=st.floats(0.2, 10.0))
    @settings(max_examples=25)
    def test_laplace_kernel_symmetry(self, kernel, x, y, a):
        assert abs(kernel(x, y, a) - kernel(y, x, a)) < 1e-10

    def test_ad_kernel_overflow_free(self):
        val = kernel_ad(800.0, 900.0)
        assert np.isfinite(val)
        assert abs(val - (800.0 + 900.0 - 1.0 - 900.0)) < 1e-9


class TestScaleInvariance:
    @pytest.mark.parametrize("name", sorted(ALL_STATISTICS))
    @given(data=positive_samples, c=st.floats(0.01, 100.0))
    @settings(max_examples=10)
    def test_invariant_under_rescaling(self, name, data, c):
        x = np.asarray(data)
        stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
        v1 = evaluate(stat, x).value
        v2 = evaluate(stat, c * x).value
        assert abs(v1 - v2) < 1e-8 * (1 + abs(v1))


class TestEvaluateMany:
    @pytest.mark.parametrize("name,a", [("MD", 1.0), ("LD", 2.0),
                                        ("KS", None), ("MP", 1.0)])
    def test_rows_match_single_evaluation(self, name, a, gen):
        stat = StatisticId(name, a)
        x = gen.exponential(size=(6, 11))
        many = evaluate_many(stat, x)
        single = np.array([evaluate(stat, row).value for row in x])
        np.testing.assert_allclose(many, single, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_evaluate_is_its_row_bit_for_bit(self, n):
        # a one-row chunk is reduced as two copies of the row, so `evaluate`
        # sums in the order of every larger chunk
        x = np.random.default_rng(70 + n).standard_exponential((12, n))
        for name in sorted(ALL_STATISTICS):
            stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
            many = evaluate_many(stat, x)
            single = np.array([evaluate(stat, row).value for row in x])
            np.testing.assert_array_equal(single, many, err_msg=name)

    @pytest.mark.parametrize("name", ["EP", "CO", "GINI", "MO", "KS"])
    def test_plain_rows_match_loop_reference(self, name, gen):
        x = gen.exponential(size=(20, 13)) * 2.5
        many = evaluate_many(StatisticId(name), x)
        reference = [plain_reference(name, row) for row in x]
        np.testing.assert_allclose(many, reference, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [5, 20, 21, 50])
    @pytest.mark.parametrize("name", sorted(ALL_STATISTICS))
    def test_rows_do_not_depend_on_cache_budget(self, name, n, monkeypatch):
        # chunks of 7, 64 and 1000 rows, from CACHE_BUDGET set to that many
        # rows of the kernel's per_row elements: every sum over n, the nodes
        # or the circular diagonals runs in the same order for every row of a
        # chunk, so every value is bit-identical; odd and even n (the
        # k = n/2 diagonal of HM1 and HM2 weighs 1 at even n)
        x = np.random.default_rng(80 + n).standard_exponential((1000, n))
        stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
        whole = evaluate_many(stat, x)
        per_row = statistics._KERNELS[name][1](n, stat.a)
        for rows in (7, 64, 1000):
            monkeypatch.setattr(statistics, "CACHE_BUDGET", rows * per_row)
            np.testing.assert_array_equal(evaluate_many(stat, x), whole)

    def test_chunking_does_not_change_results(self, gen):
        # n = 150 gives chunks of 2 rows (JP's (rows, n, n) temporaries), 5
        # (HM1 and HM2), 218 (LD), 1074 (MP) or 436 (n per row), against
        # chunks of 7 (the last one of 2 rows)
        x = gen.exponential(size=(100, 150))
        for name in sorted(ALL_STATISTICS):
            stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
            whole = evaluate_many(stat, x)
            parts = np.concatenate([evaluate_many(stat, x[k:k + 7])
                                    for k in range(0, 100, 7)])
            np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("name", sorted(ALL_STATISTICS))
    def test_pair_kernel_chunking_is_exact_at_n50(self, name, gen):
        # chunks of 26 ((rows, n, n) temporaries) or all 60 rows against
        # chunks of 7
        stat = StatisticId(name, 1.0 if name in TUNED_STATISTICS else None)
        x = gen.exponential(size=(60, 50))
        parts = np.concatenate([evaluate_many(stat, x[k:k + 7])
                                for k in range(0, 60, 7)])
        np.testing.assert_array_equal(evaluate_many(stat, x), parts)

    @pytest.mark.parametrize("n", [20, 50])
    def test_ld_scan_step_does_not_change_results(self, n, gen, monkeypatch):
        # the scan takes one grid point per pass, so the chunk's rows are what
        # can vary: chunks of 2, 5 and 10 rows against all 40 at once.  The
        # scan's sums over n and the refine's per-probe sums run in the same
        # order for every row, so each row's supremum is bit-identical
        x = gen.exponential(size=(40, n))
        stat = StatisticId("LD", 1.0)
        whole = evaluate_many(stat, x)
        for rows in (2, 5, 10):
            monkeypatch.setattr(statistics, "CACHE_BUDGET", rows * 2 * n)
            np.testing.assert_array_equal(evaluate_many(stat, x), whole)

    @pytest.mark.parametrize("name,a,n", _EVERY_STAT_AT_N50 + [("LD", 1.0, 20)],
                             ids=[f"{name}-{a}" for name, a, _ in _EVERY_STAT_AT_N50]
                             + ["LD-1.0-n20"])
    def test_temporaries_stay_cache_sized(self, name, a, n, gen):
        # 2000 rows of every statistic: one (400, 50, 50) temporary would be
        # 7.6 MiB; here the sorted rows take 0.8 MB at n = 50 and each
        # CACHE_BUDGET temporary 0.5 MiB; LD's 64-point scan of a 1638-row
        # chunk at n = 20 keeps 0.8 MB
        x = gen.exponential(size=(2000, n))
        tracemalloc.start()
        try:
            evaluate_many(StatisticId(name, a), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_rejects_wrong_shape(self, gen):
        with pytest.raises(DomainError):
            evaluate_many(StatisticId("MD", 1.0), gen.exponential(size=7))

    @pytest.mark.parametrize("bad", [0.0, -2.0, np.nan, np.inf])
    def test_rejects_bad_entry_with_row_and_column(self, bad):
        x = np.ones((3, 4))
        x[1, 2] = bad
        with pytest.raises(DomainError, match="row 1, column 2"):
            evaluate_many(StatisticId("MD", 1.0), x)

    def test_rejects_negative_entry_in_single_row(self):
        with pytest.raises(DomainError, match="row 0, column 1"):
            evaluate_many(StatisticId("MD", 1.0), [[1.0, -2.0, 3.0]])

    def test_evaluate_names_first_offending_index(self):
        with pytest.raises(DomainError, match="index 2"):
            evaluate(StatisticId("LD", 1.0), [1.0, 2.0, -1.0, 3.0])


class TestClassicalValues:
    def test_ks_handles_both_jump_sides(self):
        # single observation: F0(1) = 1 - 1/e; distance max(1/e, 1 - 1/e)
        v = evaluate(StatisticId("KS"), np.array([5.0, 5.0])).value
        f0 = 1.0 - np.exp(-1.0)
        assert abs(v - max(1.0 - f0, f0 - 0.0)) < 1e-12

    def test_ep_sign_convention(self):
        # all-equal sample: mean e^{-Y} = e^{-1} < 1/2, so EP < 0
        v = evaluate(StatisticId("EP"), np.full(4, 2.0)).value
        assert v < 0
        assert abs(v - np.sqrt(48.0) * (np.exp(-1.0) - 0.5)) < 1e-12

    def test_gini_and_mo_are_folded(self, gen):
        x = gen.exponential(size=40)
        assert evaluate(StatisticId("GINI"), x).value >= 0
        assert evaluate(StatisticId("MO"), x).value >= 0
