"""The package and its command line import without scipy.

scipy costs about a second of start-up, so only the checks and the
invariant-space quadratures that need it import it, inside their bodies.
"""
import os
import subprocess
import sys

import gategeom

PROBE = """
import sys
import gategeom, gategeom.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
from gategeom import CheckResult, run_checks
assert gategeom.run_checks is run_checks
assert CheckResult.__module__ == "gategeom.verify"
"""


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(gategeom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
