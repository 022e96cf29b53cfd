"""Self-verification battery: every cross-check the package can run on
itself, each pitting two independent routes against each other.

``quick`` keeps the whole battery within a few seconds; ``full`` adds
the large-sample distribution tests and the acceptance battery's cases,
which it measures by running these checks.  Each contractual quantity
has one bound, in ``_BOUNDS``.  The statistics are computed here with
numpy and :mod:`math`, so the battery needs nothing beyond numpy.
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


#: The one bound of each contractual quantity.  A deviation passes below
#: its bound (relative where the check's detail says so); a p-value, and
#: the sampled wedge fraction's distance in standard errors, as named.
_BOUNDS = {
    "chamber-mass": 1e-13,
    "pe-mass-quadrature": 2e-14,
    "pe-fraction-standard-errors": 5.0,
    "cube-closed-form": 3e-13,
    "density-peak-value": 1e-13,
    "density-peak-position": 1e-12,
    "metric-determinant": 8e-13,
    "frame-determinant": 1.5e-10,
    "invariant-roundtrip": 1e-9,
    "matrix-invariants": 1e-13,
    "gram-identity": 5e-11,
    "change-of-variables": 3e-12,
    "cylinder-closed-form": 1e-13,
    "origin-body-closed-form": 3e-14,
    "origin-elementary-form": 1e-15,
    "elliptic-integrals": 2e-13,
    "bin-grid-mass": 1e-13,
    "chi-square-pvalue": 0.01,
    "two-method-ks-pvalue": 0.01,
}


def _below(quantity: str, value: float) -> tuple[bool, str]:
    """Whether ``value`` is under the bound of ``quantity``, and both as text."""
    bound = _BOUNDS[quantity]
    return value < bound, f"{value:.2e} (bound {bound:g})"


def _random_full_coords(rng, margin: float = 0.25) -> FullCoords:
    """A chart point comfortably away from every coordinate singularity.

    Each rotation angle keeps ``margin`` from 0, 4 pi and 2 pi, where
    sin(alpha / 2) = 0 and the axis angles drop out of the chart, and the
    chamber's sine product is no smaller than the least rotation factor
    sin(alpha / 2)**2 sin(theta) that allows.  A coin after each try's
    uniforms reflects an accepted c1 across pi/2, which keeps every test.
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
        flip = rng.random() < 0.5
        if (
            c[0] - c[1] > margin / 3
            and c[1] - c[2] > margin / 3
            and c[2] > margin / 3
            and c[0] + c[1] < np.pi - margin / 3
            and abs(geom._chamber_sine_product(c)) > floor
        ):
            break
    if flip:
        c[0] = np.pi - c[0]
    return FullCoords(
        su2(), su2(), su2(), su2(), CanonicalCoords(float(c[0]), float(c[1]), float(c[2]))
    )


def _chamber_interior_points(rng, n: int, margin: float = 0.02) -> np.ndarray:
    """``n`` chamber points at least ``margin`` from every face, (n, 3).

    Descending-sorted uniforms fill the half with c1 <= pi/2, and a coin
    per row, drawn after each batch's uniforms, reflects c1 across pi/2
    once the margins are tested; the reflection maps them onto each other.
    """
    pts = []
    while len(pts) < n:
        c = np.sort(rng.uniform(margin, np.pi / 2, (4 * n, 3)), axis=1)[:, ::-1]
        flip = rng.random(4 * n) < 0.5
        ok = (
            (c[:, 0] - c[:, 1] > margin)
            & (c[:, 1] - c[:, 2] > margin)
            & (c[:, 2] > margin)
            & (c[:, 0] + c[:, 1] < np.pi - margin)
        )
        c[flip, 0] = np.pi - c[flip, 0]
        pts.extend(c[ok])
    return np.asarray(pts[:n])


# --- individual checks -----------------------------------------------------


def _check_chamber_normalization(seed, full):
    v = quad.integrate_over_chamber()
    passed, dev = _below("chamber-mass", abs(v - 1.0))
    return passed, f"chamber mass {v:.12f}, |dev| {dev}"


def _check_pe_quadrature(seed, full):
    v = vol.pe_volume("quadrature").value
    passed, dev = _below("pe-mass-quadrature", abs(v - vol.PE_VOLUME_CLOSED))
    return passed, f"wedge mass {v:.12f} vs closed {vol.PE_VOLUME_CLOSED:.12f}, |dev| {dev}"


def _check_pe_mc(seed, full):
    n = 1_000_000 if full else 100_000
    cfg = smp.SamplerConfig(seed=seed, method="coordinate_density")
    kernel = smp._KERNELS["canonical", cfg.method]

    def count(rng, m):
        return np.count_nonzero(vol.is_perfect_entangler(kernel(rng, m)))

    frac = sum(k for _, k in smp._blocks(n, cfg, count)) / n
    se = np.sqrt(vol.PE_VOLUME_CLOSED * (1 - vol.PE_VOLUME_CLOSED) / n)
    passed, off = _below("pe-fraction-standard-errors", abs(frac - vol.PE_VOLUME_CLOSED) / se)
    return passed, f"fraction {frac:.6f}, standard errors off {off}"


#: Cubes whose closed form ``quick`` checks against quadrature.
_QUICK_CUBES = [
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
#: ``full`` adds small cubes on the named gate points and the cnot-swap
#: midpoint, on the c1 axis and in the interior.
_FULL_CUBES = _QUICK_CUBES + [
    (center, side)
    for centers, sides in (
        (
            [*dict.fromkeys(gates_mod.NAMED_GATE_POINTS.values()), (np.pi / 2, np.pi / 4, np.pi / 4)],
            (0.1, 0.2, 0.3),
        ),
        ([(0.3, 0.0, 0.0), (0.8, 0.0, 0.0), (1.4, 0.0, 0.0)], (0.1, 0.2, 0.25)),
        ([(0.9, 0.5, 0.25)], (0.1, 0.2, 0.24)),
    )
    for center in centers
    for side in sides
]


def _check_cube_closed_forms(seed, full):
    cases = _FULL_CUBES if full else _QUICK_CUBES
    passed, dev = _below("cube-closed-form", _worst_relative(
        (vol.cube_volume_closed(*x), vol.cube_volume_quadrature(*x)) for x in cases
    ))
    return passed, f"worst closed-vs-quadrature relative deviation {dev} over {len(cases)} cubes"


def _check_density_max(seed, full):
    point, value = geom.weyl_density_max_point()
    ok_value, dev = _below("density-peak-value", abs(value - geom.WEYL_DENSITY_MAX))
    offset = np.abs(point.as_array() - np.array([np.pi / 2, np.pi / 4, 0.0])).max()
    ok_pos, pos = _below("density-peak-position", offset)
    peak = tuple(round(x, 6) for x in point.as_tuple())
    return ok_value and ok_pos, f"peak {value:.12f} at {peak}, |value dev| {dev}, |position dev| {pos}"


def _check_metric_determinant(seed, full):
    rng = np.random.default_rng(seed)
    n = 100 if full else 15
    worst = 0.0
    for _ in range(n):
        x = _random_full_coords(rng)
        det = np.linalg.det(geom.metric_tensor(x))
        closed = geom.det_g_closed(x)
        worst = max(worst, abs(det - closed) / abs(closed))
    passed, dev = _below("metric-determinant", worst)
    return passed, f"worst det(metric) relative deviation {dev} over {n} chart points"


def _check_frame(seed, full):
    rng = np.random.default_rng(seed + 1)
    n = 20 if full else 3
    worst = 0.0
    for _ in range(n):
        x = _random_full_coords(rng)
        E = geom.frame_finite_difference(x)
        got = abs(np.linalg.det(E))
        want = np.sqrt(geom.det_g_closed(x))
        worst = max(worst, abs(got - want) / want)
    passed, dev = _below("frame-determinant", worst)
    return passed, f"worst |det frame| vs sqrt(det metric) relative deviation {dev} over {n} chart points"


def _check_invariant_roundtrip(seed, full):
    rng = np.random.default_rng(seed + 2)
    n = 10_000 if full else 2_000
    c = _chamber_interior_points(rng, n)
    g = inv.g_from_c(c)
    back = inv._c_from_g_batch(g)
    passed, dev = _below("invariant-roundtrip", np.abs(back - c).max())
    return passed, f"worst coordinate round-trip deviation {dev} over {n} points"


def _check_matrix_invariants(seed, full):
    rng = np.random.default_rng(seed + 3)
    n = 40 if full else 10
    worst = 0.0
    for _ in range(n):
        x = _random_full_coords(rng)
        U = gates_mod.assemble(x)
        got = inv.makhlin_invariants(U).as_array()
        want = inv.g_from_c(np.asarray(x.c.as_tuple()))
        worst = max(worst, np.abs(got - want).max())
        back = inv.canonical_coords(U).as_array()
        worst = max(worst, np.abs(back - x.c.as_array()).max())
    passed, dev = _below("matrix-invariants", worst)
    return passed, f"worst matrix-extraction deviation {dev} over {n} gates"


def _check_jacobian(seed, full):
    rng = np.random.default_rng(seed + 4)
    n = 1_000 if full else 200
    c = _chamber_interior_points(rng, n)
    J = geom.jacobian(c)
    g = inv.g_from_c(c)
    gram = np.abs(J @ np.swapaxes(J, -1, -2) - geom.jjt_closed(g[..., 0], g[..., 1], g[..., 2])).max()
    ok_gram, gram = _below("gram-identity", gram)
    # change of variables: chamber density = invariant density * |det J|
    lhs = geom.weyl_density(c)
    rhs = geom.makhlin_density(g[..., 0], g[..., 1]) * np.abs(np.linalg.det(J))
    ok_cov, cov = _below("change-of-variables", np.abs(lhs - rhs).max())
    return ok_gram and ok_cov, (
        f"worst Gram identity deviation {gram}, change of variables {cov} over {n} points"
    )


def _worst_relative(pairs) -> float:
    """The largest |numeric - closed| / closed over (closed, numeric) masses."""
    return max(abs(numeric - closed) / closed for closed, numeric in pairs)


#: Cylinders ((g1, g2) centre, radius, height), their radii multiples of
#: the centre's distance from the axis (0.6, 0.5) across the branch at 1,
#: and origin bodies (shape, size, height); ``full`` adds smaller ones.
_QUICK_CYLINDERS = [((0.48, -0.36), 0.6 * r, 0.3) for r in (0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0)]
_FULL_CYLINDERS = _QUICK_CYLINDERS + [((0.5, 0.0), 0.5 * r, 0.2) for r in (0.5, 1 - 1e-6, 1 + 1e-6, 2.0)]
_QUICK_BODIES = [("cube", 0.3, None), ("cylinder", 0.5, 0.3), ("sphere", 0.4, None)]
_FULL_BODIES = _QUICK_BODIES + [("cylinder", 0.2, 0.15), ("sphere", 0.2, None), ("cube", 0.2, None)]


def _check_cylinders(seed, full):
    cylinders, bodies = (_FULL_CYLINDERS, _FULL_BODIES) if full else (_QUICK_CYLINDERS, _QUICK_BODIES)
    ok_cyl, cyl = _below("cylinder-closed-form", _worst_relative(
        (vol.cylinder_volume_g(*x), vol.cylinder_volume_quadrature(*x)) for x in cylinders
    ))
    ok_body, body = _below("origin-body-closed-form", _worst_relative(
        (vol.origin_volume_g(*x), vol.origin_volume_quadrature(*x)) for x in bodies
    ))
    passed = ok_cyl and ok_body
    detail = (
        f"worst relative closed-vs-quadrature deviation of {len(cylinders)} cylinders {cyl}, "
        f"of {len(bodies)} origin bodies {body}"
    )
    if full:  # the origin closed forms against their elementary values
        ok_exact, exact = _below("origin-elementary-form", max(
            abs(vol.origin_volume_g("cylinder", 0.2, 0.15) - 6 * 0.2 * 0.15),
            abs(vol.origin_volume_g("sphere", 0.2) - 3 * np.pi * 0.04),
            abs(vol.origin_volume_g("cube", 0.2) - 12 * 0.04 / np.pi * math.log(1 + math.sqrt(2))),
        ))
        passed, detail = passed and ok_exact, f"{detail}; origin closed forms exact to {exact}"
    return passed, detail


def _check_elliptic(seed, full):
    worst = 0.0
    for k in (0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9):
        K, E = _elliptic_by_quadrature(k)
        worst = max(worst, abs(vol.elliptic_K(k) - K), abs(vol.elliptic_E(k) - E))
    passed, dev = _below("elliptic-integrals", worst)
    return passed, f"worst AGM-vs-quadrature deviation {dev}"


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
    passed, dev = _below("bin-grid-mass", abs(p.sum() - 1.0))
    return passed and np.all(p >= 0), f"grid mass {p.sum():.12f}, |dev| {dev}"


def _check_chi_square(seed, full, bin_grid):
    n = 1_000_000 if full else 200_000
    cfg = smp.SamplerConfig(seed=seed + 5, method="coordinate_density")
    kernel = smp._KERNELS["canonical", cfg.method]
    probabilities = bin_grid()
    edges = _bin_edges(probabilities.shape)

    def histogram(rng, m):
        return np.histogramdd(kernel(rng, m), bins=edges)[0]

    # Integer-valued counts: their sum does not depend on the order.
    counts = sum(h for _, h in smp._blocks(n, cfg, histogram))
    pval = _counts_pvalue(counts, n, probabilities)
    bound = _BOUNDS["chi-square-pvalue"]
    return pval > bound, f"chi-square p-value {pval:.4f} on {n} samples (bound {bound:g})"


def _check_two_method_ks(seed, full):
    n = 200_000 if full else 40_000
    g3 = []
    for offset, method in ((6, "coordinate_density"), (7, "matrix_oracle")):
        cfg = smp.SamplerConfig(seed=seed + offset, method=method)
        kernel = smp._KERNELS["invariants", cfg.method]  # each block kept as its g3 column
        g3.append(smp._fill(n, cfg, lambda rng, m: kernel(rng, m)[:, 2], (), float))
    pval = _ks_2samp_pvalue(*g3)
    bound = _BOUNDS["two-method-ks-pvalue"]
    return pval > bound, f"third-invariant two-sample KS p-value {pval:.4f} (bound {bound:g})"


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


def _bin_edges(shape) -> tuple:
    """Cell edges of a bin grid of ``shape`` over [0, pi] x [0, pi/2]^2."""
    return (
        np.linspace(0.0, np.pi, shape[0] + 1),
        np.linspace(0.0, np.pi / 2, shape[1] + 1),
        np.linspace(0.0, np.pi / 2, shape[2] + 1),
    )


def _counts_pvalue(counts: np.ndarray, n: int, probabilities: np.ndarray) -> float:
    """Chi-square goodness-of-fit of ``n`` samples with these cell counts on
    the bin grid.

    Bins with expected count below ``_MIN_EXPECTED`` are pooled into one
    cell, the standard guard for the asymptotic distribution.  The
    p-value is Q(dof / 2, chi^2 / 2) for dof one less than the cells.
    """
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
