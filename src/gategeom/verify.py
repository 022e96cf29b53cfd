"""Self-verification battery: every cross-check the package can run on
itself, each pitting two independent routes against each other.

``quick`` keeps the whole battery within a few seconds; ``full`` adds
the large-sample distribution tests.  The statistics are computed here
with numpy and :mod:`math`, so the battery needs nothing beyond numpy.
Constants are looked up through their modules at call time, so a
deliberately corrupted constant is caught rather than baked in.
"""
from __future__ import annotations

import functools
import math
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
    """One check's outcome, as :func:`run_checks` returns it; not exported."""

    name: str
    passed: bool
    detail: str
    duration: float


def _random_full_coords(rng, margin: float = 0.25) -> FullCoords:
    """A chart point comfortably away from every coordinate singularity.

    Each rotation angle keeps ``margin`` from 0, 4 pi and 2 pi, where
    sin(alpha / 2) = 0 and the axis angles drop out of the chart, and the
    chamber's sine product is no smaller than the least rotation factor
    sin(alpha / 2)**2 sin(theta) that allows.
    """
    floor = np.sin(margin / 2) ** 2 * np.sin(margin)

    def su2():
        alpha = float(rng.uniform(margin, 4 * np.pi - 3 * margin))
        if alpha > 2 * np.pi - margin:  # skip the band around 2 pi
            alpha += 2 * margin
        return Su2Params(
            alpha,
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
            and abs(geom._chamber_sine_product(c)) > floor
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
    v = vol.pe_volume("quadrature").value
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
        ((np.pi, np.pi / 2, np.pi / 2), 0.5),  # an image of cnot
        ((0.9, 0.5, 0.0), 0.2),  # across the c3 = 0 face, no crease
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
        dev < 1e-13 and pos < 1e-12,
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
    return worst < 5e-12, f"worst det(metric) relative deviation {worst:.2e}"


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
    return worst < 2e-10, f"worst |det frame| vs sqrt(det metric) deviation {worst:.2e}"


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
    return worst < 5e-11, f"worst Jacobian identity deviation {worst:.2e}"


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
    return worst < 1e-13, f"worst cylinder/origin deviation {worst:.2e}"


def _check_elliptic(seed, full):
    worst = 0.0
    for k in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
        K, E = _elliptic_by_quadrature(k)
        worst = max(worst, abs(vol.elliptic_K(k) - K), abs(vol.elliptic_E(k) - E))
    return worst < 2e-13, f"worst AGM-vs-quadrature deviation {worst:.2e}"


def _elliptic_by_quadrature(k: float) -> tuple[float, float]:
    """K(k) and E(k) from their defining integrals on the graded line rule.

    At theta = pi/2 - u the radicand 1 - k^2 sin^2 theta is
    sin^2 u + k'^2 cos^2 u, with k'^2 = (1 - k)(1 + k): no cancellation,
    and its near-zero sits at u = 0, where the rule grades its pieces.
    """
    kp2 = (1.0 - k) * (1.0 + k)

    def radicand(u):
        return np.sin(u) ** 2 + kp2 * np.cos(u) ** 2

    return (
        quad._integrate_line(lambda u: 1.0 / np.sqrt(radicand(u)), 0.0, np.pi / 2),
        quad._integrate_line(lambda u: np.sqrt(radicand(u)), 0.0, np.pi / 2),
    )


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
    return dev < 1e-13 and np.all(p >= 0), f"grid mass {p.sum():.12f}"


def _check_chi_square(seed, full, bin_grid):
    n = 1_000_000 if full else 200_000
    cfg = smp.SamplerConfig(seed=seed + 5, method="coordinate_density")
    c = smp.sample_canonical(n, cfg)
    pval = chi_square_pvalue(c, bin_grid())
    return pval > 0.01, f"chi-square p-value {pval:.4f} on {n} samples"


def _check_two_method_ks(seed, full):
    n = 200_000 if full else 40_000
    g_a = smp.sample_invariants(n, smp.SamplerConfig(seed=seed + 6, method="coordinate_density"))
    g_b = smp.sample_invariants(n, smp.SamplerConfig(seed=seed + 7, method="matrix_oracle"))
    pval = _ks_2samp_pvalue(g_a[:, 2], g_b[:, 2])
    return pval > 0.01, f"third-invariant two-sample KS p-value {pval:.4f}"


def _ks_2samp_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Asymptotic p-value of the two-sided two-sample Kolmogorov-Smirnov test.

    The statistic D is the largest gap between the two empirical
    distribution functions, which jump only at sample points.  The
    p-value is Kolmogorov's limit law at (sqrt(n_e) + 0.12 +
    0.11 / sqrt(n_e)) D, with n_e = n m / (n + m) (Stephens' correction;
    Numerical Recipes, section 14.3).
    """
    a, b = np.sort(a), np.sort(b)
    at = np.concatenate([a, b])
    gap = np.searchsorted(a, at, side="right") / len(a) - np.searchsorted(b, at, side="right") / len(b)
    root_ne = math.sqrt(len(a) * len(b) / (len(a) + len(b)))
    lam = (root_ne + 0.12 + 0.11 / root_ne) * float(np.abs(gap).max())
    if lam == 0.0:
        return 1.0
    if lam < 1.18:  # the dual series, fast where the alternating one is slow
        y = math.exp(-(math.pi**2) / (8.0 * lam * lam))
        return 1.0 - math.sqrt(2.0 * math.pi) / lam * (y + y**9 + y**25 + y**49)
    x = math.exp(-2.0 * lam * lam)
    return 2.0 * (x - x**4 + x**9 - x**16)


def _gamma_q(a: float, x: float) -> float:
    """Regularised upper incomplete gamma function Q(a, x), a > 0, x >= 0.

    A power series for P = 1 - Q below x = a + 1 and a continued fraction
    (modified Lentz) for Q above; Numerical Recipes, section 6.2.
    """
    if x <= 0.0:
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > total * 1e-17:
            ap += 1.0
            term *= x / ap
            total += term
        return 1.0 - front * total
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= 1e-15:
            return front * h


#: Bins expecting fewer samples than this are pooled into one cell.
_MIN_EXPECTED = 10.0


def chi_square_pvalue(coords: np.ndarray, probabilities: np.ndarray) -> float:
    """Chi-square goodness-of-fit of sampled coordinates on the bin grid.

    Bins with expected count below ``_MIN_EXPECTED`` are pooled into one
    cell, the standard guard for the asymptotic distribution.  The
    p-value is Q(dof / 2, chi^2 / 2) for dof one less than the cells.
    """
    n1 = probabilities.shape[0]
    n = coords.shape[0]
    edges = (
        np.linspace(0.0, np.pi, n1 + 1),
        np.linspace(0.0, np.pi / 2, probabilities.shape[1] + 1),
        np.linspace(0.0, np.pi / 2, probabilities.shape[2] + 1),
    )
    counts, _ = np.histogramdd(coords, bins=edges)
    expected = probabilities * n
    big = expected >= _MIN_EXPECTED
    f_obs = np.concatenate([counts[big], [counts[~big].sum()]])
    f_exp = np.concatenate([expected[big], [expected[~big].sum()]])
    # Guard the degenerate all-pooled case; with the default grid it
    # cannot happen for any realistic sample size.
    keep = f_exp > 0
    f_obs, f_exp = f_obs[keep], f_exp[keep]
    chi2 = float(np.sum((f_obs - f_exp) ** 2 / f_exp))
    return _gamma_q((len(f_exp) - 1) / 2.0, chi2 / 2.0)


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
    the provided substrings.  A bad ``level`` or ``seed`` raises before
    any check runs.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}; use quick or full")
    smp.SamplerConfig(seed=seed)  # the one seed rule, checked up front
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
