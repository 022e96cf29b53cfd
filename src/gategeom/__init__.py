"""Invariant geometry of two-qubit gates.

Canonical chamber coordinates and local invariants of 4x4 unitaries,
the invariant measure in those charts, closed-form and numerical masses
of distinguished regions, and exact samplers — plus a self-verification
battery that cross-checks every closed form against an independent
route.
"""
from .coords import (
    CHAMBER_TOL,
    CanonicalCoords,
    FullCoords,
    SU2_IDENTITY,
    Su2Params,
    in_weyl_chamber,
)
from .errors import (
    ConsistencyError,
    InvalidInvariantsError,
    RangeError,
    SingularDensityError,
    ValidationError,
)
from .gates import (
    CNOT,
    MAGIC_BASIS,
    NAMED_GATE_POINTS,
    SWAP,
    assemble,
    generator,
    generators,
    is_unitary,
    load_matrix_json,
    local_gate,
    magic_basis,
    matrix_from_json_dict,
    matrix_to_json_dict,
    require_unitary,
    su2_factor,
)
from .geometry import (
    WEYL_DENSITY_MAX,
    det_g_closed,
    frame_finite_difference,
    full_haar_density,
    jacobian,
    jjt_closed,
    makhlin_density,
    metric_tensor,
    su2_density,
    weyl_density,
    weyl_density_cosine,
    weyl_density_max_point,
    zeta_frame,
)
from .invariants import (
    LocalInvariants,
    PhaseAngle,
    c_from_g,
    canonical_coords,
    g_from_c,
    invariants_at,
    locally_equivalent,
    makhlin_invariants,
    project_su4,
    validate_invariant_ranges,
)
from .quadrature import (
    bin_probabilities,
    box_integral_abs_density,
    box_integral_chamber_clipped,
    integrate_over_chamber,
    integrate_pe_region,
)
from .sampling import (
    SamplerConfig,
    export_csv,
    export_jsonl,
    sample_canonical,
    sample_full_coords,
    sample_gates,
    sample_invariants,
    summarize_samples,
)
from .volumes import (
    PE_VOLUME_CLOSED,
    Region,
    VolumeResult,
    cube_volume_closed,
    cube_volume_quadrature,
    cylinder_volume_g,
    cylinder_volume_quadrature,
    elliptic_E,
    elliptic_K,
    is_perfect_entangler,
    origin_volume_g,
    origin_volume_quadrature,
    pe_volume,
    region_volume_mc,
)

__version__ = "0.1.0"


def __getattr__(name):
    # verify needs scipy, so it is imported on first use of its names.
    if name in ("CheckResult", "run_checks"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CHAMBER_TOL",
    "CNOT",
    "CanonicalCoords",
    "CheckResult",
    "ConsistencyError",
    "FullCoords",
    "InvalidInvariantsError",
    "LocalInvariants",
    "MAGIC_BASIS",
    "NAMED_GATE_POINTS",
    "PE_VOLUME_CLOSED",
    "PhaseAngle",
    "RangeError",
    "Region",
    "SU2_IDENTITY",
    "SWAP",
    "SamplerConfig",
    "SingularDensityError",
    "Su2Params",
    "ValidationError",
    "VolumeResult",
    "WEYL_DENSITY_MAX",
    "assemble",
    "bin_probabilities",
    "box_integral_abs_density",
    "box_integral_chamber_clipped",
    "c_from_g",
    "canonical_coords",
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
    "full_haar_density",
    "g_from_c",
    "generator",
    "generators",
    "in_weyl_chamber",
    "integrate_over_chamber",
    "integrate_pe_region",
    "invariants_at",
    "is_perfect_entangler",
    "is_unitary",
    "jacobian",
    "jjt_closed",
    "load_matrix_json",
    "local_gate",
    "locally_equivalent",
    "magic_basis",
    "makhlin_density",
    "makhlin_invariants",
    "matrix_from_json_dict",
    "matrix_to_json_dict",
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
    "su2_density",
    "su2_factor",
    "summarize_samples",
    "validate_invariant_ranges",
    "weyl_density",
    "weyl_density_cosine",
    "weyl_density_max_point",
    "zeta_frame",
]
