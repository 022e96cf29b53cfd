"""End-to-end acceptance battery.

Each test covers one numbered claim about the package, prints a single
PASS/FAIL line with the measured numbers (visible live in the test log),
and fails hard at the stated tolerance.  Tolerances here are contractual:
do not widen them to make a failure go away.
"""
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import CNOT_SWAP_MIDPOINT, chi_square_pvalue, interior_chamber_points, random_full_coords
from gategeom.coords import CanonicalCoords, FullCoords, Su2Params
from gategeom.gates import NAMED_GATE_POINTS, assemble
from gategeom.geometry import (
    det_g_closed,
    frame_finite_difference,
    jacobian,
    metric_tensor,
    weyl_density,
    weyl_density_max_point,
)
from gategeom.invariants import c_from_g, canonical_coords, g_from_c
from gategeom.quadrature import bin_probabilities, integrate_over_chamber
from gategeom.sampling import SamplerConfig, sample_canonical, sample_invariants
from gategeom.volumes import (
    PE_VOLUME_CLOSED,
    cube_volume_closed,
    cube_volume_quadrature,
    cylinder_volume_g,
    cylinder_volume_quadrature,
    is_perfect_entangler,
    origin_volume_g,
    origin_volume_quadrature,
    pe_volume,
)

CLOSED_FORM_POINTS = {
    "identity": (0.0, 0.0, 0.0),
    "swap": (np.pi / 2, np.pi / 2, np.pi / 2),
    "sqrt-swap": (np.pi / 4, np.pi / 4, np.pi / 4),
    "b-gate": (np.pi / 2, np.pi / 4, 0.0),
    "cnot": (np.pi / 2, 0.0, 0.0),
    "dcnot": (np.pi / 2, np.pi / 2, 0.0),
    "cnot-swap-midpoint": CNOT_SWAP_MIDPOINT,
}

SMALL_SIDE_EXPONENTS = {
    "identity": 9,
    "swap": 9,
    "sqrt-swap": 6,
    "b-gate": 3,
    "cnot": 5,
    "dcnot": 5,
    "cnot-swap-midpoint": 4,
}


def report(capsys, number, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\nacceptance {number:>2}: {status}  {detail}", flush=True)
    assert passed, f"acceptance criterion {number}: {detail}"


@pytest.fixture(scope="module")
def oracle_sample():
    """One million matrix-oracle draws, shared by the sampled criteria."""
    t0 = time.perf_counter()
    config = SamplerConfig(seed=2024, worker_count=os.cpu_count() or 1)
    coords = sample_canonical(1_000_000, config)
    return coords, time.perf_counter() - t0


def test_criterion_01_pe_mass_by_quadrature(capsys):
    t0 = time.perf_counter()
    value = pe_volume("quadrature").value
    elapsed = time.perf_counter() - t0
    dev = abs(value - 8.0 / (3.0 * np.pi))
    report(
        capsys,
        1,
        dev <= 2e-14 and elapsed < 30.0,
        f"wedge mass {value:.10f} vs 8/(3 pi), |dev| {dev:.2e} "
        f"(tol 2e-14), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_02_pe_mass_by_sampling(capsys, oracle_sample):
    coords, sample_time = oracle_sample
    t0 = time.perf_counter()
    fraction = float(is_perfect_entangler(coords).mean())
    elapsed = sample_time + time.perf_counter() - t0
    dev = abs(fraction - PE_VOLUME_CLOSED)
    bound = 3.0 * math.sqrt(PE_VOLUME_CLOSED * (1 - PE_VOLUME_CLOSED) / 1_000_000)
    report(
        capsys,
        2,
        dev <= bound and elapsed < 60.0,
        f"sampled fraction {fraction:.6f}, |dev| {dev:.2e} "
        f"(3 s.e. = {bound:.2e}), {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_03_chamber_density_normalised(capsys):
    value = integrate_over_chamber()
    dev = abs(value - 1.0)
    report(capsys, 3, dev <= 1e-13, f"chamber mass {value:.10f}, |dev| {dev:.2e} (tol 1e-13)")


def test_criterion_04_cube_closed_forms(capsys):
    worst = 0.0
    worst_case = ""
    cases = []
    for name, center in CLOSED_FORM_POINTS.items():
        cases += [(name, center, a) for a in (0.1, 0.2, 0.3)]
    for c1 in (0.3, 0.8, 1.4):
        cases += [(f"axis c1={c1}", (c1, 0.0, 0.0), a) for a in (0.1, 0.2, 0.25)]
    cases += [("interior", (0.9, 0.5, 0.25), a) for a in (0.1, 0.2, 0.24)]
    for name, center, side in cases:
        closed = cube_volume_closed(center, side)
        quad = cube_volume_quadrature(center, side)
        rel = abs(closed - quad) / quad
        if rel > worst:
            worst, worst_case = rel, f"{name}, side {side}"
    report(
        capsys,
        4,
        worst <= 3e-12,
        f"{len(cases)} closed-vs-quadrature cube cases, worst rel dev "
        f"{worst:.2e} at {worst_case} (tol 3e-12)",
    )


def test_criterion_05_small_side_exponents(capsys):
    a = 0.02
    worst = 0.0
    measured = {}
    for name, expected in SMALL_SIDE_EXPONENTS.items():
        center = CLOSED_FORM_POINTS[name]
        ratio = cube_volume_closed(center, 2 * a) / cube_volume_closed(center, a)
        measured[name] = math.log2(ratio)
        worst = max(worst, abs(measured[name] - expected))
    report(
        capsys,
        5,
        worst <= 0.05,
        "leading exponents "
        + ", ".join(f"{k} {v:.3f}" for k, v in measured.items())
        + f"; worst |dev| {worst:.2e} (tol 0.05)",
    )


def test_criterion_06_density_maximum(capsys):
    point, value = weyl_density_max_point()
    value_dev = abs(value - 12.0 / np.pi)
    pos_dev = np.abs(
        np.asarray(point.as_tuple()) - np.array([np.pi / 2, np.pi / 4, 0.0])
    ).max()
    report(
        capsys,
        6,
        value_dev <= 1e-13 and pos_dev <= 1e-12,
        f"max density {value:.10f} at {tuple(round(v, 6) for v in point.as_tuple())}; "
        f"|value dev| {value_dev:.2e} (tol 1e-13), |position dev| {pos_dev:.2e} (tol 1e-12)",
    )


def _clear_of_singularities(rng):
    while True:
        c = np.sort(rng.uniform(0.15, np.pi / 2 - 0.1, 3))[::-1]
        if min(c[0] - c[1], c[1] - c[2], np.pi - c[0] - c[1]) < 0.15:
            continue
        ps = [
            Su2Params(
                float(rng.uniform(0.6, 2 * np.pi - 0.6)),
                float(rng.uniform(0.4, np.pi - 0.4)),
                float(rng.uniform(0.0, 2 * np.pi)),
            )
            for _ in range(4)
        ]
        x = FullCoords(ps[0], ps[1], ps[2], ps[3], CanonicalCoords(*c))
        factors = [weyl_density(c) * np.pi / 48.0]
        factors += [np.sin(p.alpha / 2) ** 2 * np.sin(p.theta) for p in ps]
        if min(factors) >= 0.05:
            return x


def test_criterion_07_metric_determinant_and_frame(capsys):
    rng = np.random.default_rng(7001)
    worst_det = 0.0
    for _ in range(100):
        x = _clear_of_singularities(rng)
        closed = det_g_closed(x)
        worst_det = max(worst_det, abs(np.linalg.det(metric_tensor(x)) - closed) / closed)
    worst_frame = 0.0
    for _ in range(20):
        x = _clear_of_singularities(rng)
        d = abs(np.linalg.det(frame_finite_difference(x)))
        worst_frame = max(worst_frame, abs(d - math.sqrt(det_g_closed(x))) / d)
    report(
        capsys,
        7,
        worst_det <= 8e-13 and worst_frame <= 1.5e-10,
        f"det(metric) vs closed: worst rel {worst_det:.2e} over 100 points (tol 8e-13); "
        f"|det frame| vs sqrt(det): worst rel {worst_frame:.2e} over 20 points (tol 1.5e-10)",
    )


def test_criterion_08_coordinate_invariant_round_trip(capsys):
    rng = np.random.default_rng(8001)
    pts = interior_chamber_points(rng, 10_000)
    g = g_from_c(pts)
    rec = np.array([c_from_g(*row).as_tuple() for row in g])
    worst_rt = np.abs(rec - pts).max()

    worst_gate = 0.0
    for _ in range(50):
        x = random_full_coords(rng)
        got = canonical_coords(assemble(x))
        worst_gate = max(
            worst_gate, np.abs(np.array(got.as_tuple()) - x.c.as_tuple()).max()
        )
    report(
        capsys,
        8,
        worst_rt <= 1e-9 and worst_gate <= 1e-13,
        f"10^4 coordinate round-trips: worst |dev| {worst_rt:.2e} (tol 1e-9); "
        f"50 dressed gates re-canonicalised: worst |dev| {worst_gate:.2e} (tol 1e-13)",
    )


def test_criterion_09_density_change_of_variables(capsys):
    rng = np.random.default_rng(9001)
    pts = interior_chamber_points(rng, 1000)
    g = g_from_c(pts)
    rho = np.hypot(g[:, 0], g[:, 1])
    lhs = weyl_density(pts)
    rhs = (3.0 / np.pi) / rho * np.abs(np.linalg.det(jacobian(pts)))
    worst = np.abs(lhs - rhs).max()
    report(
        capsys,
        9,
        worst <= 3e-12,
        f"density vs (3/pi)/rho |det J| on 10^3 interior points: "
        f"worst |dev| {worst:.2e} (tol 3e-12)",
    )


def test_criterion_10_invariant_space_bodies(capsys):
    rho = 0.5
    worst_cyl = 0.0
    for ratio in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0):
        closed = cylinder_volume_g((rho, 0.0), rho * ratio, 0.2)
        quad = cylinder_volume_quadrature((rho, 0.0), rho * ratio, 0.2)
        worst_cyl = max(worst_cyl, abs(closed - quad) / quad)

    worst_origin = 0.0
    for shape, kwargs in (
        ("cylinder", {"height": 0.15}),
        ("sphere", {}),
        ("cube", {}),
    ):
        closed = origin_volume_g(shape, 0.2, **kwargs)
        quad = origin_volume_quadrature(shape, 0.2, **kwargs)
        worst_origin = max(worst_origin, abs(closed - quad) / quad)

    exact = (
        abs(origin_volume_g("cylinder", 0.2, height=0.15) - 6 * 0.2 * 0.15),
        abs(origin_volume_g("sphere", 0.2) - 3 * np.pi * 0.04),
        abs(origin_volume_g("cube", 0.2) - 12 * 0.04 / np.pi * math.log(1 + math.sqrt(2))),
    )
    report(
        capsys,
        10,
        worst_cyl <= 1e-13 and worst_origin <= 3e-14 and max(exact) <= 1e-15,
        f"cylinder closed-vs-quadrature worst rel {worst_cyl:.2e} across the "
        f"radius/offset branch (tol 1e-13); origin bodies worst rel "
        f"{worst_origin:.2e} (tol 3e-14); origin closed forms exact to {max(exact):.1e}",
    )


def test_criterion_11_sampled_distribution(capsys, oracle_sample):
    coords, _ = oracle_sample
    chi2_p = chi_square_pvalue(coords, bin_probabilities())

    n = 100_000
    g_coord = sample_invariants(n, SamplerConfig(seed=111, method="coordinate_density"))
    g_matrix = sample_invariants(n, SamplerConfig(seed=222, method="matrix_oracle"))
    ks_p = ks_2samp(g_coord[:, 2], g_matrix[:, 2]).pvalue
    report(
        capsys,
        11,
        chi2_p > 0.01 and ks_p > 0.01,
        f"30^3-cell chi-square on 10^6 samples: p = {chi2_p:.4f} (need > 0.01); "
        f"third-invariant two-sample KS across methods: p = {ks_p:.4f} (need > 0.01)",
    )
