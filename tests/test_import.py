import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# packages that only some computations need; importing them costs every
# process start-up time, so the package imports them where they are used.
# A name covers the package and all its submodules.
DEFERRED = ("scipy",)


def _loaded_after(code, deferred=DEFERRED):
    """Run `code` in a fresh interpreter; the loaded modules under `deferred`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    check = (f"\nprint(','.join(m for m in sys.modules if any("
             f"m == p or m.startswith(p + '.') for p in {deferred!r})))")
    done = subprocess.run([sys.executable, "-c", "import sys\n" + code + check],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""


@pytest.mark.parametrize("module", ["exptests", "exptests.cli"])
def test_import_defers_scipy(module):
    assert _loaded_after(f"import {module}") == ""


def test_monte_carlo_commands_load_no_scipy(tmp_path):
    # `exptests test` for the bench statistics, and a calibration with power
    # cells on the families whose samplers need no special function; nor
    # numpy.ma, which np.quantile loads (the data file comes from np.savetxt,
    # which does not)
    data = tmp_path / "sample.txt"
    code = f"""
import contextlib, io
import numpy as np
from exptests import RngStream, StatisticId, calibrate_critical_value, estimate_power
from exptests.cli import run_command
np.savetxt({str(data)!r}, np.random.default_rng(1).standard_exponential(50))
for name, a in (("MD", "1"), ("LD", "1"), ("AD", None), ("HM1", "1")):
    argv = ["test", "--stat", name, "--input", {str(data)!r},
            "--replicates", "10000", "--seed", "1", "--threads", "2"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run_command(argv + (["--a", a] if a else [])) == 0
stat = StatisticId("MD", 1.0)
cal = calibrate_critical_value(stat, 20, rng=RngStream(2))
for family, theta in (("weibull", 0.4), ("emnw", 0.5), ("uniform", None), ("lognormal", 0.8)):
    estimate_power(stat, family, theta, 20, 0.05, 1000, RngStream(3), cal)
"""
    assert _loaded_after(code, ("scipy", "numpy.ma")) == ""


def test_eigen_command_loads_no_scipy():
    # both delta1 routes of `exptests eigen` are numpy: the primary t-panel
    # ladder and the grid route's Gram of the pair-minimum projection
    code = """
import contextlib, io
from exptests.cli import run_command
with contextlib.redirect_stdout(io.StringIO()):
    assert run_command(["eigen", "--a", "0.5,1"]) == 0
"""
    assert _loaded_after(code) == ""


def test_efficiency_path_defers_integrate_and_arpack():
    # the JD slope takes Ei and delta1 takes a top eigenvalue: neither loads
    # quadrature or ARPACK (nor any other scipy module, as the next test shows)
    code = """
from exptests import StatisticId, efficiency, largest_eigenvalue_delta1
efficiency(StatisticId("JD", 1.0), "lfr")
largest_eigenvalue_delta1(1.0)
"""
    assert _loaded_after(code, ("scipy.integrate", "scipy.sparse")) == ""


def test_efficiency_loads_no_scipy():
    # every slope, on every local family, is numpy quadrature; JD's and JP's
    # projections take Ei and E1 from numeric.expi and numeric.exp1
    code = """
from exptests import StatisticId, efficiency
from exptests.families import LOCAL_FAMILIES
from exptests.statistics import ALL_STATISTICS, TUNED_STATISTICS
for name in sorted(ALL_STATISTICS):
    for family in LOCAL_FAMILIES:
        efficiency(StatisticId(name, 1.0 if name in TUNED_STATISTICS else None), family)
"""
    assert _loaded_after(code) == ""


def test_he_in_thread_pool_loads_no_scipy():
    # HE's kernel on the t-rule from the pool's threads: the pooled result
    # is the serial one, and no scipy module is loaded
    code = """
import numpy as np
from exptests import RngStream, StatisticId
from exptests.nulldist import simulate_null_statistics
stat = StatisticId("HE", 1.0)
pooled = simulate_null_statistics(stat, 20, 10_000, RngStream(3), threads=2)
serial = simulate_null_statistics(stat, 20, 10_000, RngStream(3), threads=1)
assert np.array_equal(pooled, serial)
"""
    assert _loaded_after(code) == ""
