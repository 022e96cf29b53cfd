"""Self-verification battery: every cross-check the package can run on
itself, each pitting two independent routes against each other.

``quick`` keeps the whole battery within a few seconds; ``full`` adds
the large-sample distribution tests.
Constants are looked up through their modules at call time, so a
deliberately corrupted constant is caught rather than baked in.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import gates as gates_mod
from . import geometry as geom
from . import invariants as inv
from . import quadrature as quad
from . import sampling as smp
from . import volumes as vol
from .coords import CanonicalCoords, FullCoords, Su2Params, in_weyl_chamber


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    duration: float


def _random_full_coords(rng, margin: float = 0.25) -> FullCoords:
    """A chart point comfortably away from every coordinate singularity."""
    def su2():
        return Su2Params(
            float(rng.uniform(margin, 4 * np.pi - margin)),
            float(rng.uniform(margin, np.pi - margin)),
            float(rng.uniform(0.0, 2 * np.pi)),
        )

    while True:
        c = np.sort(rng.uniform(0.1, np.pi / 2 - 0.05, 3))[::-1]
        if (
            c[0] - c[1] > margin / 3
            and c[1] - c[2] > margin / 3
            and c[2] > margin / 3
            and c[0] + c[1] < np.pi - margin / 3
        ):
            break
    return FullCoords(
        su2(), su2(), su2(), su2(), CanonicalCoords(float(c[0]), float(c[1]), float(c[2]))
    )


def _chamber_interior_points(rng, n: int, margin: float = 0.02) -> np.ndarray:
    pts = []
    while len(pts) < n:
        c = np.sort(rng.uniform(margin, np.pi / 2, (4 * n, 3)), axis=1)[:, ::-1]
        ok = (
            (c[:, 0] - c[:, 1] > margin)
            & (c[:, 1] - c[:, 2] > margin)
            & (c[:, 2] > margin)
            & (c[:, 0] + c[:, 1] < np.pi - margin)
        )
        pts.extend(c[ok])
    return np.asarray(pts[:n])


# --- individual checks -----------------------------------------------------


def _check_chamber_normalization(seed, full):
    v = quad.integrate_over_chamber()
    dev = abs(v - 1.0)
    return dev < 1e-13, f"chamber mass {v:.12f}, |dev| {dev:.2e}"


def _check_pe_quadrature(seed, full):
    v = quad.integrate_pe_region()
    dev = abs(v - vol.PE_VOLUME_CLOSED)
    return dev < 2e-14, f"wedge mass {v:.12f} vs closed {vol.PE_VOLUME_CLOSED:.12f}, |dev| {dev:.2e}"


def _check_pe_mc(seed, full):
    n = 1_000_000 if full else 100_000
    cfg = smp.SamplerConfig(seed=seed, method="coordinate_density")
    frac = vol.is_perfect_entangler(smp.sample_canonical(n, cfg)).mean()
    se = np.sqrt(vol.PE_VOLUME_CLOSED * (1 - vol.PE_VOLUME_CLOSED) / n)
    dev = abs(frac - vol.PE_VOLUME_CLOSED)
    return dev < 5 * se, f"fraction {frac:.6f}, {dev / se:.2f} standard errors off"


def _check_cube_closed_forms(seed, full):
    cases = [
        ((0.0, 0.0, 0.0), 0.6),
        ((np.pi / 2, np.pi / 2, np.pi / 2), 1.0),
        ((np.pi / 4, np.pi / 4, np.pi / 4), 0.8),
        ((np.pi / 2, 0.0, 0.0), 1.2),
        ((np.pi / 2, np.pi / 4, 0.0), 0.5),
        ((np.pi / 2, np.pi / 4, np.pi / 4), 0.5),
        ((0.8, 0.0, 0.0), 0.7),
        ((0.9, 0.5, 0.25), 0.2),
    ]
    worst = 0.0
    for center, side in cases:
        closed = vol.cube_volume_closed(center, side)
        numeric = vol.cube_volume_quadrature(center, side)
        worst = max(worst, abs(numeric - closed) / closed)
    return worst < 3e-13, f"worst closed-vs-quadrature relative deviation {worst:.2e}"


def _check_density_max(seed, full):
    point, value = geom.weyl_density_max_point()
    dev = abs(value - geom.WEYL_DENSITY_MAX)
    pos = np.abs(point.as_array() - np.array([np.pi / 2, np.pi / 4, 0.0])).max()
    return (
        dev < 1e-8 and pos < 1e-4,
        f"peak {value:.12f} at {tuple(round(x, 6) for x in point.as_tuple())}",
    )


def _check_metric_determinant(seed, full):
    rng = np.random.default_rng(seed)
    n = 60 if full else 15
    worst = 0.0
    for _ in range(n):
        x = _random_full_coords(rng)
        det = np.linalg.det(geom.metric_tensor(x))
        closed = geom.det_g_closed(x)
        worst = max(worst, abs(det - closed) / abs(closed))
    return worst < 1e-8, f"worst det(metric) relative deviation {worst:.2e}"


def _check_frame(seed, full):
    rng = np.random.default_rng(seed + 1)
    n = 8 if full else 3
    worst = 0.0
    for _ in range(n):
        x = _random_full_coords(rng)
        E = geom.frame_finite_difference(x)
        got = abs(np.linalg.det(E))
        want = np.sqrt(geom.det_g_closed(x))
        worst = max(worst, abs(got - want) / want)
    return worst < 1e-4, f"worst |det frame| vs sqrt(det metric) deviation {worst:.2e}"


def _check_invariant_roundtrip(seed, full):
    rng = np.random.default_rng(seed + 2)
    n = 10_000 if full else 2_000
    c = _chamber_interior_points(rng, n)
    g = inv.g_from_c(c)
    back = inv._c_from_g_batch(g)
    worst = np.abs(back - c).max()
    return worst < 1e-9, f"worst coordinate round-trip deviation {worst:.2e}"


def _check_matrix_invariants(seed, full):
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for _ in range(40 if full else 10):
        x = _random_full_coords(rng)
        U = gates_mod.assemble(x)
        got = inv.makhlin_invariants(U).as_array()
        want = inv.g_from_c(np.asarray(x.c.as_tuple()))
        worst = max(worst, np.abs(got - want).max())
        back = inv.canonical_coords(U).as_array()
        worst = max(worst, np.abs(back - x.c.as_array()).max())
    return worst < 1e-13, f"worst matrix-extraction deviation {worst:.2e}"


def _check_jacobian(seed, full):
    rng = np.random.default_rng(seed + 4)
    c = _chamber_interior_points(rng, 1_000 if full else 200)
    J = geom.jacobian(c)
    g = inv.g_from_c(c)
    worst_gram = np.abs(
        J @ np.swapaxes(J, -1, -2) - geom.jjt_closed(g[..., 0], g[..., 1], g[..., 2])
    ).max()
    # change of variables: chamber density = invariant density * |det J|
    lhs = geom.weyl_density(c)
    rhs = geom.makhlin_density(g[..., 0], g[..., 1]) * np.abs(np.linalg.det(J))
    worst_cov = np.abs(lhs - rhs).max()
    worst = max(worst_gram, worst_cov)
    return worst < 1e-8, f"worst Jacobian identity deviation {worst:.2e}"


def _check_cylinders(seed, full):
    center = (0.48, -0.36)
    rho = np.hypot(*center)
    worst = 0.0
    for ratio in (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0):
        closed = vol.cylinder_volume_g(center, rho * ratio, 0.3)
        numeric = vol.cylinder_volume_quadrature(center, rho * ratio, 0.3)
        worst = max(worst, abs(numeric - closed) / closed)
    for shape, size, h in (("cube", 0.3, None), ("cylinder", 0.5, 0.3), ("sphere", 0.4, None)):
        closed = vol.origin_volume_g(shape, size, h)
        numeric = vol.origin_volume_quadrature(shape, size, h)
        worst = max(worst, abs(numeric - closed) / closed)
    return worst < 1e-6, f"worst cylinder/origin deviation {worst:.2e}"


def _check_elliptic(seed, full):
    from scipy.special import ellipe, ellipk

    worst = 0.0
    for k in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
        worst = max(worst, abs(vol.elliptic_K(k) - ellipk(k * k)))
        worst = max(worst, abs(vol.elliptic_E(k) - ellipe(k * k)))
    return worst < 1e-10, f"worst AGM-vs-reference deviation {worst:.2e}"


def _check_sampler_determinism(seed, full):
    n = 50_000 if full else 5_000
    a = smp.sample_canonical(n, smp.SamplerConfig(seed=seed, worker_count=1, method="coordinate_density"))
    b = smp.sample_canonical(n, smp.SamplerConfig(seed=seed, worker_count=4, method="coordinate_density"))
    same = np.array_equal(a, b)
    inside = bool(np.all(in_weyl_chamber(a[:, 0], a[:, 1], a[:, 2])))
    return same and inside, f"bit-identical across workers: {same}, all in chamber: {inside}"


def _check_bin_grid(seed, full, bin_grid):
    p = bin_grid()
    dev = abs(p.sum() - 1.0)
    return dev < 1e-9 and np.all(p >= 0), f"grid mass {p.sum():.12f}"


def _check_chi_square(seed, full, bin_grid):
    n = 1_000_000 if full else 200_000
    cfg = smp.SamplerConfig(seed=seed + 5, method="coordinate_density")
    c = smp.sample_canonical(n, cfg)
    pval = chi_square_pvalue(c, bin_grid())
    return pval > 0.01, f"chi-square p-value {pval:.4f} on {n} samples"


def _check_two_method_ks(seed, full):
    from scipy import stats

    n = 200_000 if full else 40_000
    g_a = smp.sample_invariants(n, smp.SamplerConfig(seed=seed + 6, method="coordinate_density"))
    g_b = smp.sample_invariants(n, smp.SamplerConfig(seed=seed + 7, method="matrix_oracle"))
    pval = stats.ks_2samp(g_a[:, 2], g_b[:, 2]).pvalue
    return pval > 0.01, f"third-invariant two-sample KS p-value {pval:.4f}"


def chi_square_pvalue(coords: np.ndarray, probabilities: np.ndarray, min_expected: float = 10.0) -> float:
    """Chi-square goodness-of-fit of sampled coordinates on the bin grid.

    Bins with expected count below ``min_expected`` are pooled into one
    cell, the standard guard for the asymptotic distribution.
    """
    from scipy import stats

    n1 = probabilities.shape[0]
    n = coords.shape[0]
    edges = (
        np.linspace(0.0, np.pi, n1 + 1),
        np.linspace(0.0, np.pi / 2, probabilities.shape[1] + 1),
        np.linspace(0.0, np.pi / 2, probabilities.shape[2] + 1),
    )
    counts, _ = np.histogramdd(coords, bins=edges)
    expected = probabilities * n
    big = expected >= min_expected
    f_obs = np.concatenate([counts[big], [counts[~big].sum()]])
    f_exp = np.concatenate([expected[big], [expected[~big].sum()]])
    # Guard the degenerate all-pooled case; with the default grid it
    # cannot happen for any realistic sample size.
    keep = f_exp > 0
    return float(stats.chisquare(f_obs[keep], f_exp[keep]).pvalue)


_CHECKS = [
    ("chamber-normalization", _check_chamber_normalization),
    ("pe-volume-quadrature", _check_pe_quadrature),
    ("pe-volume-mc", _check_pe_mc),
    ("cube-closed-forms", _check_cube_closed_forms),
    ("density-max", _check_density_max),
    ("metric-determinant", _check_metric_determinant),
    ("frame-vs-metric", _check_frame),
    ("invariant-roundtrip", _check_invariant_roundtrip),
    ("matrix-invariants", _check_matrix_invariants),
    ("jacobian-identities", _check_jacobian),
    ("cylinder-volumes", _check_cylinders),
    ("elliptic-integrals", _check_elliptic),
    ("sampler-determinism", _check_sampler_determinism),
    ("bin-grid-mass", _check_bin_grid),
    ("sample-distribution-chi2", _check_chi_square),
    ("two-method-agreement", _check_two_method_ks),
]
#: Checks that also take ``bin_grid``, a call returning the default bin grid.
_BIN_GRID_CHECKS = frozenset({"bin-grid-mass", "sample-distribution-chi2"})


def run_checks(level: str = "quick", seed: int = 0, names=None) -> list[CheckResult]:
    """Run the verification battery and return one result per check.

    ``names``, when given, keeps only checks whose name contains one of
    the provided substrings.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}; use quick or full")
    full = level == "full"
    selected = _CHECKS
    if names:
        wanted = [w.lower() for w in names]
        selected = [(n, f) for n, f in _CHECKS if any(w in n for w in wanted)]
    # Built on first use, once per run, from the module as it is now.
    bin_grid = functools.cache(quad.bin_probabilities)
    results = []
    for name, fn in selected:
        t0 = time.perf_counter()
        args = (seed, full, bin_grid) if name in _BIN_GRID_CHECKS else (seed, full)
        try:
            passed, detail = fn(*args)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, time.perf_counter() - t0))
    return results
