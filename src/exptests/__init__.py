"""Goodness-of-fit tests for exponentiality from empirical Laplace transforms.

The package implements two tests built on the characterization of the
exponential law through the pair minimum (X equidistributed with
2 min(X1, X2)): a weighted L2 statistic (MD) and a weighted supremum
statistic (LD), together with Monte Carlo calibration, power studies against
a catalog of alternatives, and local approximate Bahadur efficiencies for a
battery of classical competitors.
"""

from .core import RngStream, ScaledSample, min_pair_weights, read_sample, scale_sample
from .errors import DomainError, NumericsError
from .families import (FAMILIES, AlternativeFamily, density_theta_deriv_at_zero,
                       family_mean, get_family, sample_alternative)
from .nulldist import (CovarianceHandle, NullCalibration, calibrate_critical_value,
                       covariance_K, expint_Ei, h2_tilde,
                       largest_eigenvalue_delta1, p_value_mc, sup_variance)
from .powersim import (BootstrapTuning, PowerCell, bootstrap_select_a,
                       estimate_power, estimate_power_adaptive)
from .slopes import SlopeReport, efficiency, efficiency_curve, slope_coefficient
from .statistics import StatisticId, StatValue, evaluate, evaluate_many, vn_process

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
