"""Volumes of distinguished regions under the invariant measure.

Closed forms are available for cubes centred on the named coordinate
points, for cylinders and origin-centred bodies in invariant space, and
for the perfect-entangler wedge; everything is backed by an independent
quadrature route so the two can be played against each other.

The cube formulas integrate the *absolute* reflected density over the
full cube, i.e. they count every reflected copy of the chamber the cube
touches; that convention is what makes single closed forms possible at
corners and edges.  A chamber-clipped variant is available through
:func:`cube_volume_quadrature`.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coords import in_weyl_chamber
from .errors import RangeError, ValidationError
from .gates import NAMED_GATE_POINTS
from .geometry import weyl_density
from .quadrature import (
    REGION_ORDER,
    _integrate_line,
    box_integral_abs_density,
    box_integral_chamber_clipped,
    integrate_pe_region,
)

#: Exact mass of the perfect-entangler wedge.
PE_VOLUME_CLOSED = 8.0 / (3.0 * np.pi)

#: Midpoint of the chamber edge joining the cnot and swap points; the
#: seventh coordinate point with its own cube closed form.
CNOT_SWAP_MIDPOINT = (np.pi / 2, np.pi / 4, np.pi / 4)


@dataclass(frozen=True)
class VolumeResult:
    """A volume value together with how it was obtained."""

    value: float
    method: str
    error_estimate: float | None = None


#: Slack of the perfect-entangler and chamber tests; boundary points
#: count as inside.
_PE_TOL = 1e-9


def is_perfect_entangler(c):
    """Whether chamber coordinates describe a perfect entangler.

    Broadcasts over (..., 3) and returns a bool (or bool array).  The
    wedge is closed: boundary points count as inside, up to ``_PE_TOL``.
    Coordinates outside the chamber are rejected outright, since the
    half-space test below is only meaningful on the fundamental cell.
    """
    arr = np.asarray(c, dtype=float)
    c1, c2, c3 = arr[..., 0], arr[..., 1], arr[..., 2]
    inside = in_weyl_chamber(c1, c2, c3, tol=_PE_TOL)
    if not np.all(inside):
        raise ValidationError(
            "coordinates outside the chamber have no perfect-entangler status"
        )
    ok = (
        (c1 + c2 >= np.pi / 2 - _PE_TOL)
        & (c1 - c2 <= np.pi / 2 + _PE_TOL)
        & (c2 + c3 <= np.pi / 2 + _PE_TOL)
    )
    return bool(ok) if ok.ndim == 0 else ok


def pe_volume(method: str = "closed") -> VolumeResult:
    """Mass of the perfect-entangler wedge, in closed form or by quadrature.

    The quadrature value uses four nodes per axis more than the default
    order; its error estimate is the change from the default order,
    floored at 1e-14 relative so that the reported digits do not hang on
    summation order.  The sampled mass is
    ``region_volume_mc(Region("pe"), ...)``.
    """
    if method == "closed":
        return VolumeResult(PE_VOLUME_CLOSED, "closed")
    if method == "quadrature":
        fine = integrate_pe_region(order=REGION_ORDER + 4)
        error = max(abs(fine - integrate_pe_region()), 1e-14 * abs(fine))
        return VolumeResult(fine, "quadrature", error)
    raise ValidationError(f"unknown method {method!r}; use closed or quadrature")


# ---------------------------------------------------------------------------
# Cube closed forms.


class _TrigSeries:
    """Evaluates c0*a + sum of a*cos(ka), a*sin(ka), cos(ka), sin(ka) terms.

    The terms are accumulated as one exact rational power series in ``a``
    before any float is produced, so the massive leading-order
    cancellations between the trig terms happen in integer arithmetic and
    the small-``a`` values come out fully accurate.
    """

    _MAX_POWER = 72

    def __init__(self, terms: Sequence[tuple[int, str, int]], prefactor: Fraction):
        self._terms, self._prefactor = terms, prefactor

    @functools.cached_property
    def _coeffs(self) -> np.ndarray:  # on first use, not at import
        coeffs = [Fraction(0)] * (self._MAX_POWER + 1)
        for coef, kind, k in self._terms:
            coef = Fraction(coef)
            if kind == "a":
                coeffs[1] += coef
                continue
            n = 0
            while True:
                if kind in ("a_cos", "cos"):
                    power = 2 * n + (1 if kind == "a_cos" else 0)
                    num = Fraction((-1) ** n * k ** (2 * n), math.factorial(2 * n))
                else:  # sin-type
                    power = 2 * n + 1 + (1 if kind == "a_sin" else 0)
                    num = Fraction(
                        (-1) ** n * k ** (2 * n + 1), math.factorial(2 * n + 1)
                    )
                if power > self._MAX_POWER:
                    break
                coeffs[power] += coef * num
                n += 1
        return np.array([float(self._prefactor * c) for c in coeffs]) / np.pi

    def __call__(self, a):
        a = np.asarray(a, dtype=float)
        out = np.zeros_like(a)
        for c in self._coeffs[::-1]:
            out = out * a + c
        return out if out.ndim else float(out)


_CORNER_SERIES = _TrigSeries(
    [(8, "a", 0), (1, "a_cos", 3), (-9, "a_cos", 1), (-3, "sin", 3), (12, "sin", 2), (-15, "sin", 1)],
    Fraction(3, 2),
)
_SQRT_SWAP_SERIES = _TrigSeries(
    [(2, "a_sin", 3), (6, "a_sin", 1), (3, "cos", 3), (-3, "cos", 1)], Fraction(3, 2)
)
_B_GATE_SERIES = _TrigSeries([(1, "a_cos", 1), (-1, "a_cos", 3)], Fraction(3))
_CNOT_SERIES = _TrigSeries(
    [(8, "a", 0), (7, "a_cos", 3), (-15, "a_cos", 1), (-9, "sin", 3), (12, "sin", 2), (3, "sin", 1)],
    Fraction(1, 2),
)
_MIDPOINT_SERIES = _TrigSeries(
    [(3, "cos", 1), (-3, "cos", 3), (-4, "a_sin", 3)], Fraction(1, 2)
)
# On the c2 = c3 = 0 axis the mass is G0 - cos(2 c1) G1 + cos(4 c1) G2.
# Near the corners those three terms cancel, so it is evaluated as
# S0 + 2 s^2 (S1 + 4 s^2 G2) with s = sin(c1), S0 = G0 - G1 + G2 and
# S1 = G1 - 4 G2 summed as exact series.
_AXIS_TERMS_G0 = [(8, "a", 0), (1, "a_cos", 3), (-9, "a_cos", 1)]
_AXIS_TERMS_G1 = [(3, "a_cos", 3), (-3, "a_cos", 1), (-3, "sin", 3), (9, "sin", 1)]
_AXIS_TERMS_G2 = [(3, "a_cos", 3), (-3, "a_cos", 1), (-6, "sin", 3), (12, "sin", 2), (-6, "sin", 1)]


def _axis_series(*weighted) -> _TrigSeries:
    terms = [(w * coef, kind, k) for w, part in weighted for coef, kind, k in part]
    return _TrigSeries(terms, Fraction(1, 2))


_AXIS_S0 = _axis_series((1, _AXIS_TERMS_G0), (-1, _AXIS_TERMS_G1), (1, _AXIS_TERMS_G2))
_AXIS_S1 = _axis_series((1, _AXIS_TERMS_G1), (-4, _AXIS_TERMS_G2))
_AXIS_G2 = _axis_series((1, _AXIS_TERMS_G2))

_POINT_FORMS = {
    "identity": (_CORNER_SERIES, np.pi),
    "swap": (_CORNER_SERIES, np.pi),
    "sqrt-swap": (_SQRT_SWAP_SERIES, np.pi / 2),
    "cnot": (_CNOT_SERIES, np.pi / 2),
    "cphase": (_CNOT_SERIES, np.pi / 2),
    "dcnot": (_CNOT_SERIES, np.pi / 2),
    "b-gate": (_B_GATE_SERIES, np.pi / 4),
    "cnot-swap-midpoint": (_MIDPOINT_SERIES, np.pi / 4),
}


def _match_named_point(center: np.ndarray) -> str | None:
    points = dict(NAMED_GATE_POINTS)
    points["cnot-swap-midpoint"] = CNOT_SWAP_MIDPOINT
    for name, pt in points.items():
        if np.abs(center - np.asarray(pt)).max() <= 1e-12:
            return name
    return None


def cube_volume_closed(center, side: float) -> float:
    """Closed-form |density| mass of the cube of the given side at ``center``.

    Available at the seven named coordinate points, along the c2 = c3 = 0
    axis, and at generic points whose cube stays clear of every crease
    plane; elsewhere a :class:`RangeError` points to the quadrature route.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (3,):
        raise ValidationError("cube center must be a coordinate triple")
    a = float(side)
    if not (a > 0.0 and np.isfinite(a)):
        raise ValidationError(f"cube side must be positive and finite, got {side!r}")

    name = _match_named_point(center)
    if name is not None:
        series, a_max = _POINT_FORMS[name]
        if a > a_max + 1e-12:
            raise RangeError(
                f"closed form at the {name} point holds for side <= {a_max:.6g}; "
                "use cube_volume_quadrature beyond that"
            )
        return float(series(a))

    c1, c2, c3 = center
    if abs(c2) <= 1e-12 and abs(c3) <= 1e-12 and 0.0 < c1 < np.pi:
        folded = min(c1, np.pi - c1)
        if a > folded + 1e-12:
            raise RangeError(
                "closed form on the axis holds for side <= distance to the "
                f"nearest corner ({folded:.6g}); use cube_volume_quadrature"
            )
        s2 = np.sin(c1) ** 2
        return float(_AXIS_S0(a) + 2.0 * s2 * (_AXIS_S1(a) + 4.0 * s2 * _AXIS_G2(a)))

    # Generic interior point: valid while the cube stays strictly inside
    # the open chamber cell, away from every crease plane.
    contained = (
        in_weyl_chamber(c1, c2, c3)
        and c3 >= a / 2 - 1e-12
        and c2 - c3 >= a - 1e-12
        and c1 - c2 >= a - 1e-12
        and c1 + c2 <= np.pi - a + 1e-12
    )
    if not contained:
        raise RangeError(
            "no closed form at this center/side; use cube_volume_quadrature"
        )
    return float(0.5 * a * np.sin(a) * np.sin(2 * a) * weyl_density(center))


def cube_volume_quadrature(center, side: float, order: int = 20, clip: str = "none") -> float:
    """Quadrature mass of a coordinate cube.

    ``clip="none"`` integrates |density| over the full cube (the closed
    forms' convention); ``clip="chamber"`` keeps only the part inside the
    fundamental cell.  ``order`` is the number of Gauss-Legendre nodes per
    axis per block in either mode.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (3,):
        raise ValidationError("cube center must be a coordinate triple")
    a = float(side)
    if not (a > 0.0 and np.isfinite(a)):
        raise ValidationError(f"cube side must be positive and finite, got {side!r}")
    lo, hi = center - a / 2.0, center + a / 2.0
    if clip == "none":
        return box_integral_abs_density(lo, hi, order=order)
    if clip == "chamber":
        return box_integral_chamber_clipped(lo, hi, order=order)
    raise ValidationError(f"unknown clip mode {clip!r}; use none or chamber")


# ---------------------------------------------------------------------------
# Elliptic integrals by arithmetic-geometric mean.


def _agm(k: float) -> tuple[float, float]:
    """AGM(1, k') and s = sum over n >= 1 of 2**(n-1) c_n**2 along the way.

    Then K(k) = pi / (2 a) and E(k) = K (1 - k**2 / 2 - s).  k' is formed
    as sqrt((1 - k)(1 + k)) and c_n as c_{n-1}**2 / (4 a_n), never as
    differences, so neither cancels as k tends to 1 or to 0.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a, b, c = (1.0 + kp) / 2.0, math.sqrt(kp), k * k / (2.0 * (1.0 + kp))
    s, p = 0.0, 1.0
    while True:
        s += p * c * c
        if c <= 1e-16 * a:
            return a, s
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), c * c / (2.0 * (a + b))
        p *= 2.0


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention."""
    k = float(k)
    if not (0.0 <= k < 1.0):
        raise ValidationError(f"modulus must satisfy 0 <= k < 1, got {k!r}")
    return math.pi / (2.0 * _agm(k)[0])


def elliptic_E(k: float) -> float:
    """Complete elliptic integral of the second kind, modulus convention."""
    k = float(k)
    if not (0.0 <= k <= 1.0):
        raise ValidationError(f"modulus must satisfy 0 <= k <= 1, got {k!r}")
    if k == 1.0:
        return 1.0
    a, s = _agm(k)
    return math.pi / (2.0 * a) * (1.0 - k * k / 2.0 - s)


# ---------------------------------------------------------------------------
# Invariant-space bodies.  The density there is (3/pi)/rho with rho the
# distance from the (g1, g2) axis and no g3 dependence, so masses of
# axis-aligned bodies reduce to plane integrals of 1/rho.


def cylinder_volume_g(center, radius: float, height: float) -> float:
    """Closed-form mass of a g3-aligned cylinder in invariant space.

    ``center`` gives (g1, g2) of the axis.  The mass ignores the support
    of the distribution (it integrates the density formula as given), so
    it matches the quadrature route everywhere and the sampled mass only
    where the cylinder stays inside the attainable set.
    """
    g1, g2 = (float(v) for v in center)
    R, h = float(radius), float(height)
    if R < 0 or h < 0:
        raise ValidationError("radius and height must be non-negative")
    rho = math.hypot(g1, g2)
    if rho == 0.0:
        return 6.0 * R * h
    if R >= rho:
        return 12.0 * R * h / math.pi * elliptic_E(rho / R)
    # 12 rho h / pi (E - k'^2 K), with E - k'^2 K = K (k^2 / 2 - s) from
    # the AGM sums, which does not cancel as k -> 0.
    k = R / rho
    a, s = _agm(k)
    return 6.0 * rho * h / a * (k * k / 2.0 - s)


def cylinder_volume_quadrature(center, radius: float, height: float) -> float:
    """Independent route: polar angle integral with the radial part exact.

    Around the divergence axis the mass is 3 h / pi times the integral
    over the polar angle of the distance a ray travels inside the disc:
    its exit distance when the axis is inside, its chord otherwise.  The
    integrands have a kink of width about sqrt(|1 - (rho/R)^2|) where the
    ray grazes the circle; both are written in the angle's distance u
    from that point and integrated on the graded line rule.
    """
    g1, g2 = (float(v) for v in center)
    R, h = float(radius), float(height)
    if R < 0 or h < 0:
        raise ValidationError("radius and height must be non-negative")
    rho = math.hypot(g1, g2)
    if R == 0.0 or h == 0.0:
        return 0.0
    if R >= rho:
        # The exit distance rho cos(p) + sqrt(R^2 - rho^2 sin^2 p): its
        # first term integrates to zero over a turn and the root is four
        # copies of p in [0, pi/2]; at p = pi/2 - u the radicand is
        # (R - rho)(R + rho) + rho^2 sin^2 u.
        def exit_root(u):
            return np.sqrt((R - rho) * (R + rho) + (rho * np.sin(u)) ** 2)

        return 12.0 * h / math.pi * _integrate_line(exit_root, 0.0, np.pi / 2)
    k = R / rho
    kp2 = (1.0 - k) * (1.0 + k)

    # The chord after substituting rho sin(p) = R sin(t) is proportional
    # to cos^2 t / sqrt(1 - k^2 sin^2 t); here at t = pi/2 - u.
    def chord(u):
        s2 = np.sin(u) ** 2
        return s2 / np.sqrt(s2 + kp2 * np.cos(u) ** 2)

    return 3.0 * h / math.pi * (4.0 * R * R / rho) * _integrate_line(chord, 0.0, np.pi / 2)


def origin_volume_g(shape: str, size: float, height: float | None = None) -> float:
    """Closed-form mass of an origin-centred body in invariant space.

    Shapes: ``cube`` (side), ``cylinder`` (radius, height), ``sphere``
    (radius).  All are centred on g = 0, where the density is radial
    around the divergence axis and the integrals collapse.
    """
    s = float(size)
    if s < 0:
        raise ValidationError("size must be non-negative")
    if shape == "cube":
        return 12.0 * s * s / math.pi * math.log(1.0 + math.sqrt(2.0))
    if shape == "cylinder":
        if height is None:
            raise ValidationError("cylinder needs a height")
        return 6.0 * s * float(height)
    if shape == "sphere":
        return 3.0 * math.pi * s * s
    raise ValidationError(f"unknown shape {shape!r}; use cube, cylinder or sphere")


def origin_volume_quadrature(shape: str, size: float, height: float | None = None) -> float:
    """Quadrature counterparts of :func:`origin_volume_g`, on the line rule."""
    s = float(size)
    if s < 0:
        raise ValidationError("size must be non-negative")
    if shape == "cube":
        half = s / 2.0
        val = _integrate_line(lambda p: half / np.cos(p), 0.0, np.pi / 4)
        return 3.0 / math.pi * s * 8.0 * val
    if shape == "cylinder":
        if height is None:
            raise ValidationError("cylinder needs a height")
        return cylinder_volume_quadrature((0.0, 0.0), s, float(height))
    if shape == "sphere":
        # Each slice's radius sqrt(s^2 - z^2), over z = s sin(theta).
        val = 2.0 * _integrate_line(lambda t: (s * np.cos(t)) ** 2, 0.0, np.pi / 2)
        return 3.0 / math.pi * 2.0 * np.pi * val
    raise ValidationError(f"unknown shape {shape!r}; use cube, cylinder or sphere")


# ---------------------------------------------------------------------------
# Monte-Carlo region masses.


#: Region kinds whose membership reads the invariants; the rest read c only.
_INVARIANT_KINDS = ("cube_g", "cylinder_g", "sphere_g")


@dataclass(frozen=True)
class Region:
    """A region whose sampled mass can be estimated.

    Kinds: ``chamber``, ``pe``, ``cube_c``, ``cube_g``, ``cylinder_g``,
    ``sphere_g``.  ``center`` is a coordinate or invariant triple (the
    (g1, g2) pair plus g3 for cylinders); ``size`` is a cube side or a
    radius; ``height`` applies to cylinders only.  ``clip`` selects, for
    coordinate cubes, whether mass means the physical chamber-clipped
    membership (``"chamber"``) or the reflected-copy count matching the
    closed cube forms (``"unclipped"``).
    """

    kind: str
    center: tuple = ()
    size: float = 0.0
    height: float = 0.0
    clip: str = "chamber"

    def __post_init__(self):
        if self.clip not in ("chamber", "unclipped"):
            raise ValidationError(f"unknown clip mode {self.clip!r}")
        if self.clip == "unclipped" and self.kind != "cube_c":
            raise ValidationError("unclipped counting applies only to coordinate cubes")

    def weights(self, c: np.ndarray, g: np.ndarray | None) -> np.ndarray:
        """Per-sample contribution: 0/1 membership, or a copy count.

        Only the invariant-space kinds read ``g``; the others accept None.
        """
        if self.kind == "cube_c" and self.clip == "unclipped":
            ctr = np.asarray(self.center, dtype=float)
            half = self.size / 2.0
            return _cube_orbit_multiplicity(c, ctr - half, ctr + half)
        return self.indicator(c, g).astype(float)

    def indicator(self, c: np.ndarray, g: np.ndarray | None) -> np.ndarray:
        if self.kind == "chamber":
            return np.ones(c.shape[0], dtype=bool)
        if self.kind == "pe":
            return is_perfect_entangler(c)
        ctr = np.asarray(self.center, dtype=float)
        if self.kind == "cube_c":
            return np.all(np.abs(c - ctr) <= self.size / 2.0, axis=-1)
        if self.kind == "cube_g":
            return np.all(np.abs(g - ctr) <= self.size / 2.0, axis=-1)
        if self.kind == "cylinder_g":
            planar = (g[:, 0] - ctr[0]) ** 2 + (g[:, 1] - ctr[1]) ** 2 <= self.size**2
            return planar & (np.abs(g[:, 2] - ctr[2]) <= self.height / 2.0)
        if self.kind == "sphere_g":
            return np.einsum("ni,ni->n", g - ctr, g - ctr) <= self.size**2
        raise ValidationError(f"unknown region kind {self.kind!r}")


def _cube_orbit_multiplicity(c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Number of reflected/translated images of each point inside a box.

    The absolute chamber density extends to all of coordinate space
    invariantly under coordinate permutations, sign flips, and shifts by
    multiples of pi.  Counting, for each sampled chamber point, how many
    of its images lie in the box makes the sample mean converge to the
    unclipped integral the closed cube forms compute — up to one factor:
    the chamber double-covers the orbits of that action (a point and its
    c1 -> pi - c1 partner share every image but carry opposite signs of
    the second invariant), so the raw count is halved.  Coincident
    images only occur on chamber walls, which carry no mass.

    The image of permutation p and signs s counts prod_j N_j(s_j c_p(j)),
    with N_j(y) the shifts of y inside [lo_j, hi_j]; summed over the signs
    it is prod_j A[j, p(j)] with A[j, i] = N_j(c_i) + N_j(-c_i), and over
    the permutations the permanent of A.  Every term is a small integer,
    exact in floating point, so the order of the sum does not matter.
    """
    columns = np.asarray(c, dtype=float).T.copy()

    def shifts(y, j):  # N_j(y)
        top, bottom = hi[j] - y, lo[j] - y
        top /= np.pi
        bottom /= np.pi
        top = np.floor(top, out=top) - np.ceil(bottom, out=bottom)
        top += 1.0
        return np.maximum(top, 0.0, out=top)

    A = [[shifts(y, j) + shifts(-y, j) for y in columns] for j in range(3)]
    total = sum(A[0][p[0]] * A[1][p[1]] * A[2][p[2]] for p in itertools.permutations(range(3)))
    return total / 2.0


def region_volume_mc(
    region: Region, samples: int = 1_000_000, seed: int = 0, worker_count: int = 1
) -> VolumeResult:
    """Estimate a region's mass from chamber samples.

    With the default ``clip="chamber"`` this is the fraction of sampled
    gates whose canonical coordinates fall in the region (binomial
    standard error).  Unclipped coordinate cubes instead average the
    reflected-copy count, matching the closed cube forms, with the
    sample standard error of that weight.
    """
    from .invariants import g_from_c
    from .sampling import SamplerConfig, sample_canonical

    if samples <= 0:
        raise ValidationError("sample count must be positive")
    c = sample_canonical(samples, SamplerConfig(seed=seed, worker_count=worker_count))
    g = g_from_c(c) if region.kind in _INVARIANT_KINDS else None
    w = region.weights(c, g)
    value = float(w.mean())
    se = float(w.std(ddof=1)) / math.sqrt(samples) if samples > 1 else 0.0
    return VolumeResult(value, "monte-carlo", se)
