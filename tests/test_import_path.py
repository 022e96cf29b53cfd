"""The package, its command line and every numerical route run without scipy.

scipy costs about a second of start-up and is needed only by the tests,
which use it as an independent reference.  Each probe runs in a fresh
process and then asserts that no scipy module was loaded.

Importing the command line does no numerical work: no quadrature rule
is built and no closed-form series is expanded until a command needs it.

The package's own modules import one another at module level only, and
those imports form no cycle, so the import order is one way.  Every
private function of the package, and every public one outside
``__all__``, is called from the package, and every private module-level
constant is read there: production modules hold no code that only the
tests use.
"""
import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gategeom

PROBE = """
import sys
import gategeom, gategeom.cli
from gategeom import run_checks
from gategeom.verify import CheckResult
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
from gategeom.volumes import cylinder_volume_quadrature
assert cylinder_volume_quadrature((0.5, 0.0), 0.25, 0.2) > 0
assert cylinder_volume_quadrature((0.5, 0.0), 1.0, 0.2) > 0
""",
    "origin_volume_quadrature": """
from gategeom.volumes import origin_volume_quadrature
for shape, height in (("cube", None), ("cylinder", 0.3), ("sphere", None)):
    assert origin_volume_quadrature(shape, 0.4, height) > 0
""",
    "region_volume-quadrature": """
from gategeom import Region, region_volume
regions = [Region("pe"), Region("cube_c", (1.2, 0.6, 0.3), 0.2, clip="unclipped"),
           Region("cube_c", (1.2, 0.6, 0.3), 0.2), Region("cube_g", (0.0, 0.0, 0.0), 0.3),
           Region("cylinder_g", (0.5, 0.0, 0.0), 0.25, 0.2), Region("sphere_g", (0.0, 0.0, 0.0), 0.4)]
for region in regions:
    assert region_volume(region, "quadrature").value > 0
""",
    "cli-volume-cylinder": """
from gategeom.cli import main
try:
    main(["volume", "cylinder", "--center", "0.3,0.1,0", "--radius", "0.2", "--height", "0.4"])
except SystemExit as exc:
    assert not exc.code, exc.code
""",
}

STARTUP = """
import gategeom.cli
from gategeom import quadrature, volumes
assert quadrature._gauss_legendre.cache_info().currsize == 0
built = [n for n, v in vars(volumes).items()
         if isinstance(v, volumes._TrigSeries) and "_coeffs" in vars(v)]
assert not built, built
"""

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


def test_cli_import_builds_no_rule_and_no_series():
    done = run_fresh(STARTUP)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_loads_no_scipy(run):
    done = run_fresh(RUNS[run])
    assert done.returncode == 0, done.stderr


PACKAGE = Path(gategeom.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def package_targets(node):
    """Package modules an import statement reads from; ``__init__``
    stands for names taken from the package itself."""
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        module = node.module or ""
    elif (node.module or "").split(".")[0] == "gategeom":
        module = node.module.partition(".")[2]
    else:
        return []
    if module:
        return [module.split(".")[0]]
    return [a.name if a.name in MODULES else "__init__" for a in node.names]


def parse(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def test_no_package_import_inside_a_function():
    found = [
        f"{name}.{fn.name}:{node.lineno}"
        for name in MODULES
        for fn in ast.walk(parse(name))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if package_targets(node)
    ]
    assert not found, found


def test_package_imports_form_no_cycle():
    graph = {
        name: sorted({t for node in parse(name).body for t in package_targets(node)})
        for name in MODULES
    }
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(" -> ".join(path[path.index(name):] + [name]))
        if name in done:
            return
        path.append(name)
        for target in graph[name]:
            visit(target)
        path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


def is_cli_command(fn) -> bool:
    """Decorated by ``<group>.command(...)`` or ``<group>.group(...)``."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
        for d in fn.decorator_list
    )


def references(tree) -> collections.Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store)
    )


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_constants(tree) -> list[str]:
    """Private names bound by a module-level assignment."""
    targets = [
        target
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    ]
    return [
        name.id
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, ast.Name) and is_private(name.id)
    ]


def test_every_private_function_has_a_caller_in_the_package():
    """Private module-level constants count too: each is read somewhere.
    So do public functions outside ``__all__``, which no user is promised."""
    trees = [parse(name) for name in MODULES]
    read = sum((references(tree) for tree in trees), collections.Counter())
    orphans = [
        fn.name
        for tree in trees
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and (is_private(fn.name) or fn.name not in gategeom.__all__)
        and not is_cli_command(fn)
        and read[fn.name] == references(fn)[fn.name]  # read only inside itself
    ]
    orphans += [name for tree in trees for name in private_constants(tree) if not read[name]]
    assert not orphans, orphans
