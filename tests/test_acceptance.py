"""End-to-end acceptance battery.

Each test covers one numbered claim about the package, prints a single
PASS/FAIL line with the measured numbers (visible live in the test log),
and fails hard at the stated tolerance.  Tolerances are contractual: do
not widen them to make a failure go away.  A claim that ``verify`` also
measures runs ``verify``'s checks at ``full``, whose cases include this
battery's, against the one bound each quantity has (``verify._BOUNDS``).
"""
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import CNOT_SWAP_MIDPOINT, chi_square_pvalue
from gategeom.gates import assemble
from gategeom.invariants import c_from_g, canonical_coords, g_from_c
from gategeom.quadrature import bin_probabilities
from gategeom.sampling import SamplerConfig, sample_canonical, sample_invariants
from gategeom.verify import _BOUNDS, _chamber_interior_points, _random_full_coords, run_checks
from gategeom.volumes import PE_VOLUME_CLOSED, cube_volume_closed, is_perfect_entangler

#: Criterion 5's points and the leading exponent of each cube mass.
SMALL_SIDE_EXPONENTS = {
    "identity": ((0.0, 0.0, 0.0), 9),
    "swap": ((np.pi / 2, np.pi / 2, np.pi / 2), 9),
    "sqrt-swap": ((np.pi / 4, np.pi / 4, np.pi / 4), 6),
    "b-gate": ((np.pi / 2, np.pi / 4, 0.0), 3),
    "cnot": ((np.pi / 2, 0.0, 0.0), 5),
    "dcnot": ((np.pi / 2, np.pi / 2, 0.0), 5),
    "cnot-swap-midpoint": (CNOT_SWAP_MIDPOINT, 4),
}

#: Criterion 1's limit on the wedge quadrature, in seconds.
PE_QUADRATURE_SECONDS = 30


def report(capsys, number, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"\nacceptance {number:>2}: {status}  {detail}", flush=True)
    assert passed, f"acceptance criterion {number}: {detail}"


def run_full_checks(names):
    """``verify``'s named checks at ``full``, in battery order."""
    results = run_checks("full", names=names)
    assert [r.name for r in results] == names
    return all(r.passed for r in results), "; ".join(f"{r.name}: {r.detail}" for r in results)


@pytest.fixture(scope="module")
def oracle_sample():
    """One million matrix-oracle draws, shared by the sampled criteria."""
    t0 = time.perf_counter()
    config = SamplerConfig(seed=2024, worker_count=os.cpu_count() or 1)
    coords = sample_canonical(1_000_000, config)
    return coords, time.perf_counter() - t0


def test_criterion_01_pe_mass_by_quadrature(capsys):
    [result] = run_checks("full", names=["pe-volume-quadrature"])
    report(
        capsys,
        1,
        result.passed and result.duration < PE_QUADRATURE_SECONDS,
        f"{result.detail}, {result.duration:.1f}s (limit {PE_QUADRATURE_SECONDS}s)",
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
    report(capsys, 3, *run_full_checks(["chamber-normalization"]))


def test_criterion_04_cube_closed_forms(capsys):
    report(capsys, 4, *run_full_checks(["cube-closed-forms"]))


def test_criterion_05_small_side_exponents(capsys):
    a = 0.02
    worst = 0.0
    measured = {}
    for name, (center, expected) in SMALL_SIDE_EXPONENTS.items():
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
    report(capsys, 6, *run_full_checks(["density-max"]))


def test_criterion_07_metric_determinant_and_frame(capsys):
    report(capsys, 7, *run_full_checks(["metric-determinant", "frame-vs-metric"]))


def test_criterion_08_coordinate_invariant_round_trip(capsys):
    rng = np.random.default_rng(8001)
    pts = _chamber_interior_points(rng, 10_000, margin=0.05)
    g = g_from_c(pts)
    rec = np.array([c_from_g(*row).as_tuple() for row in g])
    worst_rt = np.abs(rec - pts).max()

    worst_gate = 0.0
    for _ in range(50):
        x = _random_full_coords(rng)
        got = canonical_coords(assemble(x))
        worst_gate = max(
            worst_gate, np.abs(np.array(got.as_tuple()) - x.c.as_tuple()).max()
        )
    rt_bound, gate_bound = _BOUNDS["invariant-roundtrip"], _BOUNDS["matrix-invariants"]
    report(
        capsys,
        8,
        worst_rt <= rt_bound and worst_gate <= gate_bound,
        f"10^4 coordinate round-trips: worst |dev| {worst_rt:.2e} (tol {rt_bound:g}); "
        f"50 dressed gates re-canonicalised: worst |dev| {worst_gate:.2e} (tol {gate_bound:g})",
    )


def test_criterion_09_density_change_of_variables(capsys):
    report(capsys, 9, *run_full_checks(["jacobian-identities"]))


def test_criterion_10_invariant_space_bodies(capsys):
    report(capsys, 10, *run_full_checks(["cylinder-volumes"]))


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
