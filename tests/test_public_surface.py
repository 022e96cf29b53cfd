"""The public surface is a contract: ``gategeom.__all__`` is frozen here.

README's "Library" section documents every name below.  A change that
adds or removes a public name edits this tuple and that section together,
and a change that adds or removes an option edits ``PUBLIC_OPTIONS``.
"""
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import gategeom

PUBLIC_NAMES = (
    "CanonicalCoords",
    "ConsistencyError",
    "FullCoords",
    "InvalidInvariantsError",
    "LocalInvariants",
    "NAMED_GATE_POINTS",
    "PE_VOLUME_CLOSED",
    "RangeError",
    "Region",
    "SamplerConfig",
    "SingularDensityError",
    "Su2Params",
    "ValidationError",
    "VolumeResult",
    "WEYL_DENSITY_MAX",
    "assemble",
    "bin_probabilities",
    "c_from_g",
    "canonical_coords",
    "canonical_coords_batch",
    "det_g_closed",
    "export_csv",
    "export_jsonl",
    "frame_finite_difference",
    "g_from_c",
    "generator",
    "in_weyl_chamber",
    "integrate_over_chamber",
    "is_perfect_entangler",
    "jacobian",
    "jjt_closed",
    "load_matrix_json",
    "makhlin_density",
    "makhlin_invariants",
    "metric_tensor",
    "project_su4",
    "region_volume",
    "require_unitary",
    "run_checks",
    "sample_canonical",
    "sample_full_coords",
    "sample_gates",
    "sample_invariants",
    "summarize_samples",
    "validate_invariant_ranges",
    "weyl_density",
    "weyl_density_max_point",
)

#: Names the package exported once, and no longer.  The per-shape volume
#: routes and the elliptic integrals that ``region_volume`` and ``verify``
#: call stay in ``gategeom.volumes``; only the package namespace drops them.
RETIRED_NAMES = (
    "CHAMBER_TOL",
    "CNOT",
    "CheckResult",
    "MAGIC_BASIS",
    "PhaseAngle",
    "SU2_IDENTITY",
    "SWAP",
    "box_integral_abs_density",
    "box_integral_chamber_clipped",
    "cube_volume_closed",
    "cube_volume_quadrature",
    "cylinder_volume_g",
    "cylinder_volume_quadrature",
    "elliptic_E",
    "elliptic_K",
    "full_haar_density",
    "generators",
    "integrate_pe_region",
    "invariants_at",
    "local_gate",
    "locally_equivalent",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "origin_volume_g",
    "origin_volume_quadrature",
    "pe_volume",
    "region_volume_mc",
    "su2_density",
    "su2_factor",
    "weyl_density_cosine",
    "zeta_frame",
)


def test_all_is_the_frozen_tuple():
    assert tuple(gategeom.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) <= 47


#: Every option of the surface: (public name, defaulted parameter or
#: defaulted dataclass field).  An option needs a caller outside the tests.
PUBLIC_OPTIONS = frozenset(
    {
        ("Region", "center"),
        ("Region", "clip"),
        ("Region", "height"),
        ("Region", "size"),
        ("SamplerConfig", "method"),
        ("SamplerConfig", "seed"),
        ("SamplerConfig", "worker_count"),
        ("VolumeResult", "error_estimate"),
        ("in_weyl_chamber", "tol"),
        ("region_volume", "samples"),
        ("region_volume", "seed"),
        ("region_volume", "worker_count"),
        ("require_unitary", "what"),
        ("run_checks", "level"),
        ("run_checks", "names"),
        ("run_checks", "seed"),
        ("sample_canonical", "config"),
        ("sample_full_coords", "config"),
        ("sample_gates", "config"),
        ("sample_invariants", "config"),
        ("validate_invariant_ranges", "error"),
    }
)


def _options(name):
    obj = getattr(gategeom, name)
    if dataclasses.is_dataclass(obj):
        return {
            f.name
            for f in dataclasses.fields(obj)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING
        }
    if inspect.isfunction(obj):
        params = inspect.signature(obj).parameters.values()
        return {p.name for p in params if p.default is not inspect.Parameter.empty}
    return set()


def test_options_are_the_frozen_ledger():
    ledger = {(name, option) for name in PUBLIC_NAMES for option in _options(name)}
    assert ledger == PUBLIC_OPTIONS
    assert len(PUBLIC_OPTIONS) <= 21


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(gategeom, name) is not None, name


def test_retired_names_are_gone():
    assert not set(RETIRED_NAMES) & set(PUBLIC_NAMES)
    for name in RETIRED_NAMES:
        assert not hasattr(gategeom, name), name


def test_readme_documents_every_public_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    documented = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", library))
    assert set(PUBLIC_NAMES) <= documented, sorted(set(PUBLIC_NAMES) - documented)


def test_readme_install_line_names_every_test_extra():
    """The "Tests" install line lists what the ``test`` extra installs."""
    root = Path(__file__).parents[1]
    extra = re.search(r"^test = \[(.*)\]$", (root / "pyproject.toml").read_text(), re.M)
    packages = re.findall(r'"([A-Za-z0-9_.-]+)', extra.group(1))
    line = next(x for x in (root / "README.md").read_text().splitlines() if ".[test]" in x)
    assert packages and all(p in line for p in packages), (packages, line)


BENCH = Path(__file__).parents[1] / "bench"


def dotted(node) -> str | None:
    """``a.b.c`` of a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def package_reads(path: Path) -> set[str]:
    """Every package name a file reads, as ``gategeom.<module>.<name>``:
    the names it imports from the package and the attributes it reads off
    the package modules it imports.  The file is parsed, not run."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "gategeom":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(full)
                    modules[alias.asname or alias.name] = full
                except ModuleNotFoundError:
                    reads.add(full)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "gategeom":
                    modules[alias.asname or "gategeom"] = alias.name if alias.asname else "gategeom"
    for node in ast.walk(tree):
        name = dotted(node) if isinstance(node, ast.Attribute) else None
        head, _, rest = (name or "").partition(".")
        if head in modules:
            reads.add(f"{modules[head]}.{rest}")
    return reads


def resolves(full: str) -> bool:
    """Whether a dotted name exists: its longest module prefix imports and
    the rest are attributes along the way."""
    parts = full.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_name_the_benchmark_reads_resolves():
    """The benchmark calls the per-shape volume routes and other module
    functions by name; renaming one would break it, so each name it reads
    from the package must exist, whether public or not."""
    reads = set().union(*(package_reads(BENCH / f) for f in ("workloads.py", "selftest.py")))
    assert {
        "gategeom.volumes.cube_volume_closed",
        "gategeom.volumes.pe_volume",
        "gategeom.volumes.Region",
        "gategeom.sampling.sample_gates",
        "gategeom.invariants.project_su4",
    } <= reads
    assert not sorted(full for full in reads if not resolves(full))

