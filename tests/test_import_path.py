"""The package, its command line and every numerical route run without scipy.

scipy costs about a second of start-up and is needed only by the tests,
which use it as an independent reference.  Each probe runs in a fresh
process and then asserts that no scipy module was loaded.
"""
import os
import subprocess
import sys

import pytest

import gategeom

PROBE = """
import sys
import gategeom, gategeom.cli
from gategeom import CheckResult, run_checks
assert gategeom.run_checks is run_checks
assert CheckResult.__module__ == "gategeom.verify"
"""

RUNS = {
    "run_checks": """
from gategeom import run_checks
results = run_checks("quick")
assert len(results) == 16 and all(r.passed for r in results), [r.detail for r in results]
""",
    "cylinder_volume_quadrature": """
from gategeom import cylinder_volume_quadrature
assert cylinder_volume_quadrature((0.5, 0.0), 0.25, 0.2) > 0
assert cylinder_volume_quadrature((0.5, 0.0), 1.0, 0.2) > 0
""",
    "origin_volume_quadrature": """
from gategeom import origin_volume_quadrature
for shape, height in (("cube", None), ("cylinder", 0.3), ("sphere", None)):
    assert origin_volume_quadrature(shape, 0.4, height) > 0
""",
    "cli-volume-cylinder": """
from gategeom.cli import main
try:
    main(["volume", "cylinder", "--center", "0.3,0.1,0", "--radius", "0.2", "--height", "0.4"])
except SystemExit as exc:
    assert not exc.code, exc.code
""",
}

NO_SCIPY = """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded[:5]
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(gategeom.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code + NO_SCIPY],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_import_loads_no_scipy():
    done = run_fresh(PROBE)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_loads_no_scipy(run):
    done = run_fresh(RUNS[run])
    assert done.returncode == 0, done.stderr
