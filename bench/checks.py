"""Output checks of the benchmark against references recorded by
make_reference.py and against independent evaluations of the statistics.

Tolerances follow the tier-1 suite:

* Monte Carlo outputs (critical values, power, p-values) are compared on the
  probability scale.  A run that rejects a fraction r of its R replicates at
  threshold c is checked against the reference tail probability e = P(T > c)
  read off a quantile table of the statistic's distribution, allowing Z
  combined binomial standard errors of the run and of the reference, the
  table's grid spacing and one replicate.  A correct change that draws other
  random numbers stays inside this band.
* Efficiencies: the absolute tolerances of tests/test_acceptance.py, 0.03
  where an operator eigenvalue enters and 0.02 otherwise.
* delta1: the Nystrom rungs and the grid extrapolation within 1e-4 relative
  of the reference delta1 (the ladder's convergence criterion), each grid
  rung within 1e-3 relative of its recorded value.
* `exptests test` statistic values: 1e-6 relative of the defining integral
  (or supremum) evaluated here without the package.
"""

import json
import math

import numpy as np
from scipy import integrate, optimize

Z = 5.0
EIGEN_BASED = {"MD", "MP", "CVM", "AD", "BH", "HE", "W", "HM1", "HM2"}


class Reference:
    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.replicates = data["replicates"]
        self.tables = {k: np.asarray(v) for k, v in data["quantiles"].items()}
        self.efficiency = data["efficiency"]
        self.delta1 = data["delta1"]

    def monte_carlo(self, table, threshold, rate, replicates):
        """Check that `rate`, the fraction of `replicates` draws above
        `threshold` (alpha for a critical value, the power of a cell, a
        p-value), matches the reference distribution `table`."""
        q = self.tables[table]
        probs = np.linspace(0.0, 1.0, q.size)
        expected = 1.0 - float(np.interp(threshold, q, probs))
        var = expected * (1.0 - expected) * (1.0 / replicates + 1.0 / self.replicates)
        tol = Z * math.sqrt(var) + 1.0 / (q.size - 1) + 1.0 / replicates
        ok = abs(rate - expected) <= tol
        return ok, f"rate {rate:.5f} vs reference {expected:.5f} +/- {tol:.5f}"

    def efficiency_value(self, key, name, value):
        ref = self.efficiency[key]
        tol = 0.03 if name in EIGEN_BASED else 0.02
        return abs(value - ref) <= tol, f"{value:.5f} vs reference {ref:.5f} +/- {tol}"

    def delta1_value(self, key, value):
        final = self.delta1["final"]
        if key.startswith("grid:"):
            ref = self.delta1[key]
            tol = 1e-3 * ref
        else:
            ref, tol = final, 1e-4 * final
        return abs(value - ref) <= tol, f"{value:.9g} vs reference {ref:.9g} +/- {tol:.2g}"


def _quad(f):
    val, _ = integrate.quad(f, 0.0, np.inf, epsabs=1e-15, epsrel=1e-12, limit=500)
    return val


def reference_statistic(name, a, x):
    """The statistic from its definition on the scaled sample Y = X / mean(X)."""
    y = np.asarray(x, dtype=float) / np.mean(x)
    n = y.size
    z = np.sort(y)
    # fraction of the n^2 ordered pairs whose minimum is z_i
    w = (2.0 * (n - np.arange(1, n + 1)) + 1.0) / n**2

    def gap(t):  # sample Laplace transform minus that of 2 min(Y_i, Y_j)
        return np.mean(np.exp(-t * y)) - w @ np.exp(-2.0 * t * z)

    if name == "MD":
        return _quad(lambda t: gap(t) ** 2 * math.exp(-a * t))
    if name == "HM1":
        return _quad(lambda t: (np.mean(np.sin(t * y)) - t * np.mean(np.cos(t * y))) ** 2
                     * math.exp(-a * t))
    if name == "AD":
        # Anderson-Darling A^2 / n against the fitted Exp(1)
        i = np.arange(1, n + 1)
        logf = np.log(-np.expm1(-z))
        return float((-n - np.mean((2 * i - 1) * (logf + (-z[::-1])))) / n)
    if name == "LD":
        def neg(t):
            return -abs(gap(t)) * math.exp(-a * t)
        ts = np.geomspace(1e-4, max(40.0 / a, 4.0), 20_001)
        vals = np.array([neg(t) for t in ts])
        k = int(np.argmin(vals))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, ts.size - 1)]
        best = optimize.minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                                        options={"xatol": 1e-12})
        return -min(best.fun, vals[k])
    raise ValueError(f"no reference for {name}")


def statistic_value(name, a, x, value):
    ref = reference_statistic(name, a, x)
    return (abs(value - ref) <= 1e-6 * abs(ref),
            f"{value:.12g} vs definition {ref:.12g}")
