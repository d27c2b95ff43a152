import numpy as np

from exptests.numeric import maximize_log_grid


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
