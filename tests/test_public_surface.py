"""The public surface is a contract: ``gategeom.__all__`` is frozen here.

README's "Library" section documents every name below.  A change that
adds or removes a public name edits this tuple and that section together,
and a change that adds or removes an option edits ``PUBLIC_OPTIONS``.
"""
import dataclasses
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
    "cube_volume_closed",
    "cube_volume_quadrature",
    "cylinder_volume_g",
    "cylinder_volume_quadrature",
    "det_g_closed",
    "elliptic_E",
    "elliptic_K",
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
    "origin_volume_g",
    "origin_volume_quadrature",
    "pe_volume",
    "project_su4",
    "region_volume_mc",
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

#: Names the package exported before its surface was frozen, and no longer.
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
    "full_haar_density",
    "generators",
    "integrate_pe_region",
    "invariants_at",
    "local_gate",
    "locally_equivalent",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
    "su2_density",
    "su2_factor",
    "weyl_density_cosine",
    "zeta_frame",
)


def test_all_is_the_frozen_tuple():
    assert tuple(gategeom.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) <= 60


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
        ("cube_volume_quadrature", "clip"),
        ("in_weyl_chamber", "tol"),
        ("origin_volume_g", "height"),
        ("origin_volume_quadrature", "height"),
        ("pe_volume", "method"),
        ("region_volume_mc", "samples"),
        ("region_volume_mc", "seed"),
        ("region_volume_mc", "worker_count"),
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
    assert len(PUBLIC_OPTIONS) <= 25


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
