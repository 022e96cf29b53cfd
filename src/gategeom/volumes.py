"""Volumes of distinguished regions under the invariant measure.

Closed forms are available for coordinate cubes, for cylinders and
origin-centred bodies in invariant space, and for the perfect-entangler
wedge; everything is backed by an independent quadrature route so the
two can be played against each other.

The cube formulas integrate the *absolute* reflected density over the
full cube, i.e. they count every reflected copy of the chamber the cube
touches; that convention is what makes single closed forms possible at
corners and edges, and leaves each cube mass unchanged by the density's
symmetries (see :func:`cube_volume_closed`).  A chamber-clipped variant
is available through :func:`cube_volume_quadrature`.  The public call,
:func:`region_volume`, dispatches to these per-shape routes.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .coords import is_perfect_entangler
from .errors import ConsistencyError, RangeError, ValidationError
from .geometry import weyl_density
from .invariants import _c_from_g_batch, g_from_c
from .quadrature import REGION_ORDER, _box_abs_mass, _box_clipped_mass, _integrate_line, _pe_mass
from .sampling import SamplerConfig, _blocks, _oracle_invariants_block, _sample_count

#: Exact mass of the perfect-entangler wedge.
PE_VOLUME_CLOSED = 8.0 / (3.0 * np.pi)


@dataclass(frozen=True)
class VolumeResult:
    """A volume value and, where its method gives one, an error estimate."""

    value: float
    error_estimate: float | None = None


def pe_volume(method: str = "closed") -> VolumeResult:
    """Mass of the perfect-entangler wedge, in closed form or by quadrature.

    The quadrature value uses four nodes per axis more than the default
    order; its error estimate is the change from the default order,
    floored at 1e-14 relative so that the reported digits do not hang on
    summation order.  The sampled mass is
    ``region_volume(Region("pe"), "mc")``.
    """
    if method == "closed":
        return VolumeResult(PE_VOLUME_CLOSED)
    if method == "quadrature":
        fine = _pe_mass(REGION_ORDER + 4)
        error = max(abs(fine - _pe_mass(REGION_ORDER)), 1e-14 * abs(fine))
        return VolumeResult(fine, error)
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
    def _coeffs(self) -> tuple[float, ...]:  # on first use, not at import
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
        return tuple(float(self._prefactor * c) / math.pi for c in reversed(coeffs))

    def __call__(self, a: float) -> float:
        out = 0.0
        for c in self._coeffs:  # Horner, highest power first
            out = out * a + c
        return out


_SQRT_SWAP_SERIES = _TrigSeries(
    [(2, "a_sin", 3), (6, "a_sin", 1), (3, "cos", 3), (-3, "cos", 1)], Fraction(3, 2)
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
# The corner's mass is three times S0's.
_CORNER_SERIES = _axis_series((3, _AXIS_TERMS_G0), (-3, _AXIS_TERMS_G1), (3, _AXIS_TERMS_G2))
_AXIS_S1 = _axis_series((1, _AXIS_TERMS_G1), (-4, _AXIS_TERMS_G2))
# G2 = (3/pi) sin(2a) (2 - 2 cos a - a sin a) vanishes at a = pi/2, where
# its own series cancels to all digits; only the bracket is a series.
_AXIS_G2_BRACKET = _TrigSeries([(2, "cos", 0), (-2, "cos", 1), (-1, "a_sin", 1)], Fraction(3))

# Reduced centres with a series of their own, and the largest side each
# holds for: the corner (identity, swap), sqrt-swap, and the image of the
# cnot-swap midpoint (pi/2, pi/4, pi/4), which is also sqrt-iswap.
_POINT_FORMS = {
    (0.0, 0.0, 0.0): (_CORNER_SERIES, np.pi),
    (np.pi / 4, np.pi / 4, np.pi / 4): (_SQRT_SWAP_SERIES, np.pi / 2),
    (np.pi / 4, np.pi / 4, 0.0): (_MIDPOINT_SERIES, np.pi / 4),
}


def _length(value, what: str, positive: bool = False) -> float:
    """``value`` as a float if finite and non-negative (positive if asked)."""
    v = float(value)
    if not (math.isfinite(v) and (v > 0.0 or v == 0.0 and not positive)):
        sign = "positive" if positive else "non-negative"
        raise ValidationError(f"{what} must be finite and {sign}, got {value!r}")
    return v


def _center(center, what: str, size: int = 3) -> np.ndarray:
    """``center`` as an array of ``size`` (three, or two for an axis) finite floats."""
    ctr = np.asarray(center, dtype=float)
    if ctr.shape != (size,) or not np.isfinite(ctr).all():
        raise ValidationError(f"{what} must be {('two', 'three')[size - 2]} finite numbers, got {center!r}")
    return ctr


_PI_TAIL = math.sin(math.pi)  # pi less its nearest double


def _nearest_pi_multiple(x) -> np.ndarray:
    """Distance of each entry of ``x`` to the nearest multiple k pi, with
    pi's tail subtracted too so that an entry next to one keeps its digits."""
    k = np.rint(np.divide(x, np.pi))
    return np.abs(x - k * np.pi - k * _PI_TAIL)


def _reduce(center: np.ndarray) -> np.ndarray:
    """One representative of ``center`` under the symmetries of |density|.

    |density| is (6/pi) |V(cos 2c1, cos 2c2, cos 2c3)| with V the
    Vandermonde product, so it is unchanged by permuting the coordinates,
    flipping their signs, shifting one by pi, and shifting all three by
    pi/2 (which negates every cosine), and so is every cube mass.  Each
    coordinate is folded into [0, pi/2] and sorted in descending order;
    of that point c and its image pi/2 - c reversed, the one with the
    smaller c2 + c3 is kept, so that a point on the c2 = c3 = 0 axis
    stays there.
    """
    c = np.sort(_nearest_pi_multiple(center))[::-1]
    image = np.pi / 2 - c[::-1] + _PI_TAIL / 2
    return image if image[1] + image[2] < c[1] + c[2] else c


def cube_volume_closed(center, side: float) -> float:
    """Closed-form |density| mass of the cube of the given side at ``center``.

    The centre is first reduced by the symmetries of the density (see
    ``_reduce``).  Closed forms then hold at the images of the corner
    (identity, swap), of sqrt-swap and of the cnot-swap midpoint, each up
    to its own largest side; along the c2 = c3 = 0 axis (cnot, cphase,
    dcnot) for sides up to c1; and for every cube that crosses no crease
    plane c_i +- c_j = k pi (b-gate among them), inside the chamber or
    not.  Elsewhere a :class:`RangeError` points to the quadrature route.
    """
    center = _center(center, "cube center")
    a = _length(side, "cube side", positive=True)
    c = _reduce(center)
    for point, (series, a_max) in _POINT_FORMS.items():
        if np.abs(c - point).max() <= 1e-12 and a <= a_max + 1e-12:
            return series(a)
    c1, c2, _ = c
    if c2 <= 1e-12 and a <= c1 + 1e-12:
        s2 = np.sin(c1) ** 2
        g2 = np.sin(2 * a) * _AXIS_G2_BRACKET(a)
        return float(_AXIS_S0(a) + 2.0 * s2 * (_AXIS_S1(a) + 4.0 * s2 * g2))
    # The density keeps one sign over a cube that crosses no crease, and
    # its cosine form then integrates to a product.
    i, j = [0, 0, 1], [1, 2, 2]
    pairs = np.concatenate([center[i] + center[j], center[i] - center[j]])
    if _nearest_pi_multiple(pairs).min() >= a - 1e-12:
        return float(0.5 * a * np.sin(a) * np.sin(2 * a) * weyl_density(center))
    raise RangeError("no closed form at this center and side; use cube_volume_quadrature")


def cube_volume_quadrature(center, side: float, clip: str = "unclipped") -> float:
    """Quadrature mass of a coordinate cube.

    ``clip="unclipped"`` integrates |density| over the full cube (the
    closed forms' convention); ``clip="chamber"`` keeps only the part
    inside the fundamental cell, as :class:`Region` spells them.  Either
    mode is converged to round-off.
    """
    center = _center(center, "cube center")
    a = _length(side, "cube side", positive=True)
    lo, hi = center - a / 2.0, center + a / 2.0
    if clip == "unclipped":
        return _box_abs_mass(lo, hi)
    if clip == "chamber":
        return _box_clipped_mass(lo, hi)
    raise ValidationError(f"unknown clip mode {clip!r}; use unclipped or chamber")


# ---------------------------------------------------------------------------
# Elliptic integrals by arithmetic-geometric mean.


#: Rounds allowed to ``_agm``.  Every k in [0, 1 - 1e-16] stops within 9
#: (measured on 240k moduli, the worst next to 1); NaN never stops.
_AGM_ROUNDS = 32


def _agm(k: float) -> tuple[float, float]:
    """AGM(1, k') and s = sum over n >= 1 of 2**(n-1) c_n**2 along the way.

    Then K(k) = pi / (2 a) and E(k) = K (1 - k**2 / 2 - s).  k' is formed
    as sqrt((1 - k)(1 + k)) and c_n as c_{n-1}**2 / (4 a_n), never as
    differences, so neither cancels as k tends to 1 or to 0.
    """
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    a, b, c = (1.0 + kp) / 2.0, math.sqrt(kp), k * k / (2.0 * (1.0 + kp))
    s, p = 0.0, 1.0
    for _ in range(_AGM_ROUNDS):
        s += p * c * c
        if c <= 1e-16 * a:
            return a, s
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), c * c / (2.0 * (a + b))
        p *= 2.0
    raise ConsistencyError(f"the AGM of modulus {k!r} did not converge in {_AGM_ROUNDS} rounds")


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
    g1, g2 = _center(center, "center", 2).tolist()
    R, h = _length(radius, "radius"), _length(height, "height")
    rho = _length(math.hypot(g1, g2), "the center's distance from the g3 axis")
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
    g1, g2 = _center(center, "center", 2).tolist()
    R, h = _length(radius, "radius"), _length(height, "height")
    rho = _length(math.hypot(g1, g2), "the center's distance from the g3 axis")
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
    s = _length(size, "size")
    if shape == "cube":
        return 12.0 * s * s / math.pi * math.log(1.0 + math.sqrt(2.0))
    if shape == "cylinder":
        if height is None:
            raise ValidationError("cylinder needs a height")
        return cylinder_volume_g((0.0, 0.0), s, height)
    if shape == "sphere":
        return 3.0 * math.pi * s * s
    raise ValidationError(f"unknown shape {shape!r}; use cube, cylinder or sphere")


def origin_volume_quadrature(shape: str, size: float, height: float | None = None) -> float:
    """Quadrature counterparts of :func:`origin_volume_g`, on the line rule."""
    s = _length(size, "size")
    if shape == "cube":
        half = s / 2.0
        val = _integrate_line(lambda p: half / np.cos(p), 0.0, np.pi / 4)
        return 3.0 / math.pi * s * 8.0 * val
    if shape == "cylinder":
        if height is None:
            raise ValidationError("cylinder needs a height")
        return cylinder_volume_quadrature((0.0, 0.0), s, height)
    if shape == "sphere":
        # Each slice's radius sqrt(s^2 - z^2), over z = s sin(theta).
        val = 2.0 * _integrate_line(lambda t: (s * np.cos(t)) ** 2, 0.0, np.pi / 2)
        return 3.0 / math.pi * 2.0 * np.pi * val
    raise ValidationError(f"unknown shape {shape!r}; use cube, cylinder or sphere")


# ---------------------------------------------------------------------------
# Regions, their masses by each method, and the Monte-Carlo route.


_KINDS = ("pe", "cube_c", "cube_g", "cylinder_g", "sphere_g")


@dataclass(frozen=True)
class Region:
    """A region of the chamber or of invariant space.

    Kinds: ``pe``, ``cube_c``, ``cube_g``, ``cylinder_g``, ``sphere_g``.
    ``center`` is a coordinate or invariant triple (the (g1, g2) pair plus
    g3 for cylinders); ``size`` is a cube side or a radius; ``height``
    applies to cylinders only.  ``clip`` selects, for coordinate cubes,
    whether mass means the physical chamber-clipped membership
    (``"chamber"``) or the reflected-copy count matching the closed cube
    forms (``"unclipped"``).
    """

    kind: str
    center: tuple = ()
    size: float = 0.0
    height: float = 0.0
    clip: str = "chamber"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown region kind {self.kind!r}")
        if self.clip not in ("chamber", "unclipped"):
            raise ValidationError(f"unknown clip mode {self.clip!r}")
        if self.clip == "unclipped" and self.kind != "cube_c":
            raise ValidationError("unclipped counting applies only to coordinate cubes")
        if self.kind != "pe":
            _center(self.center, "region center")
            what = "cube side" if self.kind.startswith("cube") else "radius"
            _length(self.size, what, positive=self.kind == "cube_c")
        if self.kind == "cylinder_g":
            _length(self.height, "height")

    def weights(self, c: np.ndarray) -> np.ndarray:
        """Per-sample contribution of chamber points ``c``: 0/1
        membership, or a copy count.  The invariant-space kinds map
        ``c`` to invariants themselves."""
        ctr = np.asarray(self.center, dtype=float)
        if self.kind == "pe":
            inside = is_perfect_entangler(c)
        elif self.kind == "cube_c":
            half = self.size / 2.0
            if self.clip == "unclipped":
                return _cube_orbit_multiplicity(c, ctr - half, ctr + half)
            inside = np.all(np.abs(c - ctr) <= half, axis=-1)
        elif self.kind == "cube_g":
            inside = np.all(np.abs(g_from_c(c) - ctr) <= self.size / 2.0, axis=-1)
        elif self.kind == "cylinder_g":
            g = g_from_c(c)
            planar = (g[:, 0] - ctr[0]) ** 2 + (g[:, 1] - ctr[1]) ** 2 <= self.size**2
            inside = planar & (np.abs(g[:, 2] - ctr[2]) <= self.height / 2.0)
        else:
            g = g_from_c(c)
            inside = np.einsum("ni,ni->n", g - ctr, g - ctr) <= self.size**2
        return inside.astype(float)


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


def _mc_sample_count(samples) -> int:
    """``samples`` as an int, if it is an integer of at least two: the
    standard error of a Monte-Carlo mass needs two samples."""
    n = _sample_count(samples)
    if n < 2:
        raise ValidationError(f"a Monte-Carlo mass needs at least 2 samples, got {n}")
    return n


def _mc_points_block(rng, m: int) -> np.ndarray:
    """Chamber points of one block of the matrix oracle's gates, shape
    (m, 3): Makhlin's invariants, then the roots of ``c_from_g``'s cubic."""
    return _c_from_g_batch(_oracle_invariants_block(rng, m))


def region_volume_mc(
    region: Region, samples: int = 1_000_000, seed: int = 0, worker_count: int = 1
) -> VolumeResult:
    """Estimate a region's mass from Haar-random gates.

    With the default ``clip="chamber"`` this is the fraction of sampled
    gates whose canonical coordinates fall in the region (binomial
    standard error).  Unclipped coordinate cubes instead average the
    reflected-copy count, matching the closed cube forms, with the
    sample standard error of that weight.

    The samples are the matrix oracle's gates, the rows of
    ``sample_canonical``'s stream, but their chamber points come from
    Makhlin's trace invariants and the roots of ``c_from_g``'s cubic: no
    spectrum is computed and no density formula is read.  A weight asks
    only on which side of a boundary a point falls, and the cubic's
    losses (see :func:`c_from_g`) moved no weight of five region shapes
    over 2^24 rows at each of two seeds.

    Each block's weights are reduced in its worker to their sum and sum of
    squares.  Every weight is a multiple of 1/2, so both sums are exact in
    any order, the value is the mean of all the weights bit for bit, and
    memory does not grow with ``samples`` (at least 2).  An unclipped cube
    whose sums could pass 2^53 quarters raises before any block is drawn.
    """
    n = _mc_sample_count(samples)
    if region.clip == "unclipped":
        # A coordinate has at most k = floor(side / pi) + 1 shifts in the side, one
        # more for rounding here, so a weight (a halved permanent) is at most 24 k^3.
        k = math.floor(region.size / math.pi) + 2
        if 4 * n * (24 * k**3) ** 2 > 2**53:
            raise ValidationError(
                f"cube side {region.size!r} is too large to sum exactly over {n} samples"
            )
    config = SamplerConfig(seed=seed, worker_count=worker_count)

    def moments(rng, m):
        w = region.weights(_mc_points_block(rng, m))
        # Not w @ w: a BLAS call in a worker contends with BLAS's own threads.
        return float(w.sum()), float((w * w).sum())

    total = squares = 0.0
    for _, (s1, s2) in _blocks(n, config, moments):
        total += s1
        squares += s2
    variance = max(squares - total * total / n, 0.0) / (n - 1)
    return VolumeResult(total / n, math.sqrt(variance / n))


def region_volume(
    region: Region, method: str, samples: int = 1_000_000, seed: int = 0, worker_count: int = 1
) -> VolumeResult:
    """Mass of ``region`` by ``method``: ``"closed"``, ``"quadrature"`` or ``"mc"``.

    ``samples``, ``seed`` and ``worker_count`` reach ``"mc"`` only, which is
    :func:`region_volume_mc`; the others return the bits of the per-shape
    routes.  A method that does not exist for the region raises
    :class:`RangeError`: a chamber-clipped cube has no closed form, and
    invariant-space cubes and spheres have only ``"mc"`` off g = 0.
    """
    if method == "mc":
        return region_volume_mc(region, samples, seed, worker_count)
    if method not in ("closed", "quadrature"):
        raise ValidationError(f"unknown method {method!r}; use closed, quadrature or mc")
    closed, kind, ctr, size = method == "closed", region.kind, region.center, region.size
    if kind == "pe":
        return pe_volume(method)
    if kind == "cube_c" and closed and region.clip == "chamber":
        raise RangeError("a chamber-clipped cube has no closed form; use quadrature")
    if kind == "cube_c":
        value = cube_volume_closed(ctr, size) if closed else cube_volume_quadrature(ctr, size, region.clip)
    elif kind == "cylinder_g":
        route = cylinder_volume_g if closed else cylinder_volume_quadrature
        value = route(ctr[:2], size, region.height)
    elif any(ctr):
        raise RangeError(f"a {kind} region has a {method} mass only at the origin; use mc")
    else:
        route = origin_volume_g if closed else origin_volume_quadrature
        value = route("sphere" if kind == "sphere_g" else "cube", size)
    return VolumeResult(value)
