import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# modules that only some computations need; importing them costs every
# process start-up time, so the package imports them where they are used
DEFERRED = ("scipy.integrate", "scipy.sparse.linalg")


@pytest.mark.parametrize("module", ["exptests", "exptests.cli"])
def test_import_defers_integrate_and_arpack(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import sys, {module}\n"
            f"print(','.join(m for m in {DEFERRED!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
