import mpmath
import numpy as np
import pytest

from exptests import expint_Ei, numeric
from exptests.errors import DomainError, NumericsError
from exptests.nulldist import eigen_matrix, h2_tilde
from exptests.numeric import (E1_SERIES_END, EI_BLOCK, EI_SERIES_END, EIGEN_LADDER,
                              EIGEN_REL_TOL, LANCZOS_STEPS, ei_scaled, exp1, expi,
                              laplace_t_rule, largest_eigenvalue, maximize_log_grid,
                              newton_maximize_log_grid, operator_eigenvalue,
                              panel_gauss_below, panel_gauss_nodes, t_rule)
from exptests.slopes import _cov_bh, _cov_edf


def _log_parabolas(peaks):
    # -log(t/p)^2 per row, and its value, slope and curvature in t
    def f(t, rows):
        return -np.log(t / peaks[rows]) ** 2

    def df(t, rows):
        s = np.log(t / peaks[rows][:, 0])
        return np.array([-s * s, -2.0 * s / t, (2.0 * s - 2.0) / t**2])
    return f, df


def _maximize(newton, f, df, lo, hi, ngrid, tol):
    if newton:
        return newton_maximize_log_grid(f, df, lo, hi, ngrid, tol)
    return maximize_log_grid(f, lo, hi, ngrid, tol)


def test_rows_are_maximized_together(newton=False):
    # each row peaks at its own point of a log-scale parabola
    f, df = _log_parabolas(np.array([[3e-3], [0.5], [30.0]]))
    values, argmax = _maximize(newton, f, df, 1e-4, 40.0, 512, 1e-10)
    assert values.shape == argmax.shape == (3,)
    np.testing.assert_allclose(argmax, [3e-3, 0.5, 30.0], rtol=1e-7)
    assert np.all((values <= 0) & (values > -1e-12))


def test_newton_maximizes_rows_together():
    test_rows_are_maximized_together(newton=True)


@pytest.mark.parametrize("lo,hi,ngrid,tol", [
    (1e-3, np.inf, 64, 1e-8), (1e-3, np.nan, 64, 1e-8), (np.nan, 1.0, 64, 1e-8),
    (0.0, 1.0, 64, 1e-8), (-1.0, 1.0, 64, 1e-8), (2.0, 1.0, 64, 1e-8),
    (1.0, 1.0, 64, 1e-8), (1e-3, 1.0, 1, 1e-8), (1e-3, 1.0, 64, 0.0),
    (1e-3, 1.0, 64, -1e-8), (1e-3, 1.0, 64, np.nan)])
def test_bad_arguments_raise(lo, hi, ngrid, tol):
    # before these checks an infinite hi returned nan, tol <= 0 skipped the
    # refine, lo > hi returned an unrefined grid value and lo = 0 raised a
    # bare ValueError; both maximizers share the checks
    f, df = _log_parabolas(np.array([[0.5]]))
    with pytest.raises(DomainError):
        maximize_log_grid(f, lo, hi, ngrid, tol)
    with pytest.raises(DomainError):
        newton_maximize_log_grid(f, df, lo, hi, ngrid, tol)


def test_newton_refine_capped_below_convergence_raises(monkeypatch):
    f, df = _log_parabolas(np.array([[3e-3], [0.5], [30.0]]))
    newton_maximize_log_grid(f, df, 1e-4, 40.0, 64)
    monkeypatch.setattr(numeric, "NEWTON_STEPS", 0)
    with pytest.raises(NumericsError, match="row 0 did not converge"):
        newton_maximize_log_grid(f, df, 1e-4, 40.0, 64)


def test_newton_probe_that_crawls_falls_back_to_bisection():
    # a slope that Newton steps follow by 1e-6 at a time, as they can on
    # rounding noise: without the bisection fallback the probe was still
    # moving after NEWTON_STEPS and raised NumericsError
    f, _ = _log_parabolas(np.array([[0.5]]))

    def crawl(t, rows):
        return np.array([f(t[:, None], rows)[:, 0], np.full_like(t, 1e-6), -np.ones_like(t)])

    (value,), (argmax,) = newton_maximize_log_grid(f, crawl, 1e-4, 40.0, 64)
    ts = np.geomspace(1e-4, 40.0, 64)
    peak = np.argmax(f(ts[None, :], slice(None))[0])
    assert ts[peak] <= argmax <= ts[peak + 1]
    assert value == f(np.array([[argmax]]), slice(None))[0, 0]


def test_one_row_case_and_grid_floor():
    # a spike between grid points: the result never falls below the grid
    ts = np.geomspace(1e-3, 10.0, 64)
    f = lambda t, rows: np.where(np.abs(t - ts[20]) < 1e-12, 1.0, 0.0)
    (value,), (argmax,) = maximize_log_grid(f, 1e-3, 10.0, ngrid=64)
    assert value == 1.0 and argmax == ts[20]


def test_golden_section_reaches_tolerance():
    (value,), (argmax,) = maximize_log_grid(lambda t, rows: t * np.exp(-t), 1e-3,
                                            50.0, tol=1e-9)
    assert abs(argmax - 1.0) < 1e-6
    assert abs(value - np.exp(-1.0)) < 1e-13


def _bumps(centers, heights, width=0.1):
    # rows of Gaussian bumps in log t, the largest of them at each t, and
    # its value, slope and curvature in t; centers and heights are (rows, bumps)
    centers, heights = np.asarray(centers), np.asarray(heights)

    def f(t, rows):
        d = np.log(t[..., None] / centers[rows][:, None, :]) / width
        return np.max(heights[rows][:, None, :] * np.exp(-d * d), axis=-1)

    def df(t, rows):
        d = np.log(t[:, None] / centers[rows]) / width
        v = heights[rows] * np.exp(-d * d)
        k = np.argmax(v, axis=1)
        v, d = v[np.arange(t.size), k], d[np.arange(t.size), k]
        return np.array([v, -2.0 * d * v / (width * t),
                         v * (4.0 * d * d - 2.0 + 2.0 * d * width) / (width * t) ** 2])
    return f, df


def test_every_local_maximum_is_refined(newton=False):
    # row 0: the higher bump sits halfway between grid points, so the best
    # grid point lies on the lower bump, which sits on a grid point;
    # row 1: one bump, so the probes of the two rows must not mix
    ts = np.geomspace(1e-3, 10.0, 64)
    mid = np.sqrt(ts[40] * ts[41])
    f, df = _bumps([[ts[15], mid], [ts[30], ts[30]]], [[0.9, 1.0], [0.7, 0.7]])
    grid = f(ts[None, :], slice(None))
    assert np.argmax(grid[0]) == 15 and grid[0, 15] == 0.9
    values, argmax = _maximize(newton, f, df, 1e-3, 10.0, 64, 1e-10)
    np.testing.assert_allclose(values, [1.0, 0.7], rtol=1e-14)
    np.testing.assert_allclose(argmax, [mid, ts[30]], rtol=1e-8)


def test_newton_refines_every_local_maximum():
    test_every_local_maximum_is_refined(newton=True)


def test_flat_and_plateau_rows_return_grid_maximum():
    # row 0 is flat and row 1 rises to a plateau: one probe each, and each
    # row returns its grid maximum
    probes = []

    def f(t, rows):
        if not isinstance(rows, slice):
            probes.append(rows)
        rises = np.arange(2)[rows][:, None] == 1
        return np.where(rises, np.minimum(t, 1.0), 0.0)

    values, argmax = maximize_log_grid(f, 1e-3, 10.0, ngrid=64)
    np.testing.assert_array_equal(values, [0.0, 1.0])
    ts = np.geomspace(1e-3, 10.0, 64)
    np.testing.assert_array_equal(argmax, [ts[0], ts[ts >= 1.0][0]])
    np.testing.assert_array_equal(np.sort(probes[0]), [0, 1])


# (kernel matrix, node masses) of a quadrature rule
def _nystrom_kernel():
    # h2_tilde on gl_nystrom_delta1's graded x-panels, 3 points per panel
    x, w = panel_gauss_nodes(np.concatenate([[0.0], np.geomspace(1e-3, 45.0, 40)]), 3)
    return h2_tilde(x[:, None], x[None, :], 1.0), w * np.exp(-x)


def _grid_kernel():
    approx = eigen_matrix(1.0, 500, 25.0)
    return approx.matrix, approx.mass


def _l2_covariance_kernel():
    t, w = panel_gauss_nodes(np.concatenate([[0.0], np.geomspace(0.02, 100.0, 40)]), 20)
    return _cov_bh(t[:, None], t[None, :]), w * np.exp(-t)


def _edf_covariance_kernel():
    t, w = panel_gauss_nodes(np.concatenate([[0.0], np.geomspace(1e-3, 60.0, 24)]), 12)
    return _cov_edf(t, panel_gauss_below(12, 24)), w * np.exp(-t)


def _rank_one_kernel():
    v = np.exp(-np.linspace(0.0, 5.0, 60))
    return np.outer(v, v), np.ones(v.size)


@pytest.mark.parametrize("build", [_nystrom_kernel, _grid_kernel, _l2_covariance_kernel,
                                   _edf_covariance_kernel, _rank_one_kernel],
                         ids=["nystrom", "grid", "l2-covariance", "edf-covariance",
                              "rank-one"])
def test_largest_eigenvalue_matches_full_spectrum(build):
    # the top eigenvalue of sqrt(m_i) K_ij sqrt(m_j), and K left as it was
    kernel, mass = build()
    before = kernel.copy()
    sq = np.sqrt(mass)
    expected = np.linalg.eigvalsh(kernel * np.outer(sq, sq))[-1]
    got = largest_eigenvalue(kernel, mass)
    assert abs(got - expected) <= 1e-12 * abs(expected)
    assert largest_eigenvalue(kernel, mass) == got
    assert kernel.tobytes() == before.tobytes()


def test_largest_eigenvalue_nonconvergence_raises():
    # eigenvalues 1 - u^2 on an even grid of 400 points crowd at the top
    # (gaps of order 1/400^2), so the residual test still fails after
    # LANCZOS_STEPS < 400 steps
    assert LANCZOS_STEPS < 400
    with pytest.raises(NumericsError, match="did not converge"):
        largest_eigenvalue(np.diag(1.0 - np.linspace(0.0, 1.0, 400) ** 2), np.ones(400))


def test_largest_eigenvalue_rejects_nan():
    kernel, mass = _rank_one_kernel()
    kernel[7, 30] = kernel[30, 7] = np.nan
    with pytest.raises(NumericsError, match="not finite"):
        largest_eigenvalue(kernel, mass)


def test_operator_eigenvalue_stops_at_the_first_agreeing_rung():
    # the constant kernel on L2(e^{-t} dt) has the one eigenvalue
    # int e^{-t} dt = 1 (to e^{-36} on the rule); each rung is the t-rule of
    # its points per panel, and only the last two rungs agree
    trace = operator_eigenvalue(lambda t, npts: np.ones((t.size, t.size)), "cvm", None)
    sizes, ests = zip(*trace)
    assert list(sizes) == [t_rule("cvm", None, k)[0].size for k in EIGEN_LADDER[:len(trace)]]
    assert abs(ests[-1] - ests[-2]) <= EIGEN_REL_TOL * ests[-1]
    assert all(abs(e1 - e0) > EIGEN_REL_TOL * e1 for e0, e1 in zip(ests[:-2], ests[1:-1]))
    assert abs(ests[-1] - 1.0) < 1e-12


def test_operator_eigenvalue_raises_with_the_whole_ladder():
    # a kernel that grows with the points per panel never settles
    with pytest.raises(NumericsError, match="did not converge") as exc:
        operator_eigenvalue(lambda t, npts: np.full((t.size, t.size), float(npts)), "exp", 10.0)
    assert [n for n, _ in exc.value.trace] == [t_rule("exp", 10.0, k)[0].size
                                               for k in EIGEN_LADDER]


def test_panel_gauss_below_integrates_the_interpolant():
    # exact from 0 to every node for a polynomial of degree below npts, and
    # each pair of nodes splits its unit between B_ij and B_ji
    t, w = panel_gauss_nodes([0.0, 0.3, 1.0, 2.2], 6)
    below = panel_gauss_below(6, 3)
    f = 1.0 + t - 0.5 * t**3 + 0.1 * t**5
    np.testing.assert_allclose(below @ (w * f), t + t**2 / 2 - t**4 / 8 + t**6 / 60,
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(below + below.T, 1.0, rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 50, 120])
def test_laplace_t_rule_integrates_every_sample_exponential(n):
    # sum w e^{-ct} = 1/(a + c) for c in [0, 4n]: the squared transforms of
    # a scaled sample of n points (max Y <= n) hold e^{-ct} with c up to 4n,
    # as MD's D holds e^{-2tZ}; on 36 to 74 nodes
    c = np.linspace(0.0, 4.0 * n, 401)
    for a in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        t, w = laplace_t_rule(a, n)
        assert 36 <= t.size <= 74
        np.testing.assert_allclose(np.exp(-np.outer(c, t)) @ w, 1.0 / (a + c),
                                   rtol=2e-13, atol=0)


EI_ROOT = 0.37250741078136663  # Ei(x) = 0


def _around(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


@pytest.fixture(scope="module")
def ei_points():
    """x on [1e-12, 700], the branch switches and Ei's root included, with
    E1(x), Ei(x) and e^-x Ei(x) in 40 digits."""
    x = np.unique(np.concatenate([np.geomspace(1e-12, 700.0, 1201),
                                  _around(E1_SERIES_END), _around(EI_SERIES_END),
                                  _around(EI_ROOT), np.linspace(0.3, 0.45, 61)]))
    with mpmath.workdps(40):
        ref = np.array([[float(f(mpmath.mpf(v))) for f in
                         (mpmath.e1, mpmath.ei, lambda z: mpmath.exp(-z) * mpmath.ei(z))]
                        for v in x])
    return x, ref.T


def test_exp1_against_mpmath(ei_points):
    # E1 underflows past x = 708, where both are 0
    x, (e1, _, _) = ei_points
    got = exp1(x)
    live = e1 > 0
    assert np.all(np.abs(got[live] / e1[live] - 1) < 1e-14)
    assert np.all(got[~live] == 0.0)
    np.testing.assert_array_equal(expi(-x), -got)


def test_expi_against_mpmath(ei_points):
    # relative away from the root 0.3725, absolute near it (Ei' = e^x/x ~ 4 there)
    x, (_, ei, scaled) = ei_points
    got = expi(x)
    near = np.abs(x - EI_ROOT) < 0.05
    assert np.all(np.abs(got[~near] / ei[~near] - 1) < 1e-14)
    assert np.all(np.abs(got[near] - ei[near]) < 1e-15)
    assert np.all(np.abs(ei_scaled(x[~near]) / scaled[~near] - 1) < 1e-14)


def test_ei_edges_and_shapes():
    # the poles, the domain of E1, overflow, infinity and nan; a number gives
    # a float, an array its shape, and both take the same route to the same
    # bits, in blocks of EI_BLOCK elements that change no value
    assert exp1(0.0) == np.inf and expi(0.0) == -np.inf
    assert np.isnan(exp1(-1.0)) and np.isnan(expi(np.nan))
    assert expi(710.0) == np.inf and exp1(800.0) == 0.0
    assert expi(np.inf) == np.inf and expint_Ei(np.inf) == np.inf
    assert exp1(np.inf) == 0.0 and ei_scaled(np.inf) == 0.0 and expi(-np.inf) == 0.0
    assert isinstance(exp1(2.0), float) and isinstance(expi(np.float64(-2.0)), float)
    x = np.random.default_rng(4).uniform(-60.0, 60.0, (3, EI_BLOCK // 2 + 7))
    for f in (expi, exp1):
        got = f(x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got[1:2], f(x[1:2]))
        for v, g in zip(x[:, :50:7].ravel(), got[:, :50:7].ravel()):
            assert f(v) == g or np.isnan(g)
