import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

from exptests.errors import NumericsError
from exptests.nulldist import eigen_matrix, h2_tilde
from exptests.numeric import (exp_measure_nodes, largest_eigenvalue,
                              maximize_log_grid, panel_gauss_nodes)
from exptests.slopes import _cov_bh


def test_rows_are_maximized_together():
    # each row peaks at its own point of a log-scale parabola
    peaks = np.array([[3e-3], [0.5], [30.0]])
    values, argmax = maximize_log_grid(lambda t: -np.log(t / peaks) ** 2,
                                       1e-4, 40.0, tol=1e-10)
    assert values.shape == argmax.shape == (3,)
    np.testing.assert_allclose(argmax, peaks[:, 0], rtol=1e-7)
    assert np.all((values <= 0) & (values > -1e-12))


def test_one_row_case_and_grid_floor():
    # a spike between grid points: the result never falls below the grid
    ts = np.geomspace(1e-3, 10.0, 64)
    f = lambda t: np.where(np.abs(t - ts[20]) < 1e-12, 1.0, 0.0)
    (value,), (argmax,) = maximize_log_grid(f, 1e-3, 10.0, ngrid=64)
    assert value == 1.0 and argmax == ts[20]


def test_golden_section_reaches_tolerance():
    (value,), (argmax,) = maximize_log_grid(lambda t: t * np.exp(-t), 1e-3, 50.0,
                                            tol=1e-9)
    assert abs(argmax - 1.0) < 1e-6
    assert abs(value - np.exp(-1.0)) < 1e-13


def _nystrom_matrix():
    x, w = exp_measure_nodes(120)
    return h2_tilde(x[:, None], x[None, :], 1.0) * np.sqrt(np.outer(w, w))


def _l2_covariance_matrix():
    t, w = panel_gauss_nodes(np.concatenate([[0.0], np.geomspace(0.02, 100.0, 40)]), 20)
    mass = w * np.exp(-t)
    return _cov_bh(t[:, None], t[None, :]) * np.sqrt(np.outer(mass, mass))


def _rank_one_matrix():
    v = np.exp(-np.linspace(0.0, 5.0, 60))
    return np.outer(v, v)


@pytest.mark.parametrize("build", [_nystrom_matrix,
                                   lambda: eigen_matrix(1.0, 500, 25.0).matrix,
                                   _l2_covariance_matrix, _rank_one_matrix],
                         ids=["nystrom", "grid", "l2-covariance", "rank-one"])
def test_largest_eigenvalue_matches_full_spectrum(build):
    mat = build()
    expected = np.linalg.eigvalsh(mat)[-1]
    got = largest_eigenvalue(mat)
    assert abs(got - expected) <= 1e-12 * abs(expected)
    assert largest_eigenvalue(mat) == got


def test_largest_eigenvalue_nonconvergence_raises(monkeypatch):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

    # largest_eigenvalue imports eigsh when it is called
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(NumericsError):
        largest_eigenvalue(np.eye(30))
