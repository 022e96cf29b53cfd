"""Invariant geometry of two-qubit gates.

Canonical chamber coordinates and local invariants of 4x4 unitaries,
the invariant measure in those charts, closed-form and numerical masses
of distinguished regions, and exact samplers — plus a self-verification
battery that cross-checks every closed form against an independent
route.
"""
from .coords import (
    CanonicalCoords,
    FullCoords,
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
    NAMED_GATE_POINTS,
    assemble,
    generator,
    load_matrix_json,
    require_unitary,
)
from .geometry import (
    WEYL_DENSITY_MAX,
    det_g_closed,
    frame_finite_difference,
    jacobian,
    jjt_closed,
    makhlin_density,
    metric_tensor,
    weyl_density,
    weyl_density_max_point,
)
from .invariants import (
    LocalInvariants,
    c_from_g,
    canonical_coords,
    canonical_coords_batch,
    g_from_c,
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
from .verify import run_checks

__version__ = "0.1.0"


#: The public surface; README's "Library" section documents each name.
__all__ = [
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
    "box_integral_abs_density",
    "box_integral_chamber_clipped",
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
    "integrate_pe_region",
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
]
