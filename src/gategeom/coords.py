"""Coordinate containers for the two-qubit gate parametrisation.

A two-qubit gate (up to global phase) is specified by fifteen real
numbers: four axis-angle triples for the single-qubit factors of the
outer local operations, and three canonical coordinates ``(c1, c2, c3)``
for the commuting core.  The flattened ordering used throughout the
package is::

    (alpha1, theta1, phi1, beta1, lambda1, xi1,
     alpha2, theta2, phi2, beta2, lambda2, xi2,
     c1, c2, c3)

Angle normalisation happens only here, at construction boundaries;
numerical kernels elsewhere accept raw floats and are global in their
arguments.  The chamber and perfect-entangler membership tests live here
too, so every module that needs them imports down to this one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi

#: Tolerance of the Weyl-chamber and perfect-entangler membership tests.
#: Boundary points count as inside.
_CHAMBER_TOL = 1e-9


@dataclass(frozen=True)
class Su2Params:
    """Axis-angle parameters of one single-qubit rotation.

    ``alpha`` is the rotation angle, ``(theta, phi)`` the spherical
    coordinates of the rotation axis.  Ranges: ``alpha in [0, 4*pi)``,
    ``theta in [0, pi]``, ``phi in [0, 2*pi)``.

    >>> Su2Params(0.0, 0.0, 0.0).as_tuple()
    (0.0, 0.0, 0.0)
    """

    alpha: float
    theta: float
    phi: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.alpha, self.theta, self.phi])):
            raise ValidationError("su2 parameters must be finite")
        if not 0.0 <= self.alpha < FOUR_PI:
            raise ValidationError(f"alpha={self.alpha} outside [0, 4*pi)")
        if not 0.0 <= self.theta <= np.pi:
            raise ValidationError(f"theta={self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < TWO_PI:
            raise ValidationError(f"phi={self.phi} outside [0, 2*pi)")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.theta, self.phi)


def in_weyl_chamber(c1, c2, c3, tol: float = _CHAMBER_TOL):
    """Weyl-chamber membership test; accepts scalars or broadcastable arrays.

    The chamber is the tetrahedron with vertices (0,0,0), (pi,0,0),
    (pi/2,pi/2,0) and (pi/2,pi/2,pi/2); as half-spaces::

        c3 >= 0,  c3 <= c2,  c2 <= c1,  c1 + c2 <= pi

    Boundary points are inside (closed chamber, tolerance ``tol``).

    >>> bool(in_weyl_chamber(np.pi / 2, 0.0, 0.0))
    True
    >>> bool(in_weyl_chamber(0.2, 0.3, 0.0))
    False
    """
    c1 = np.asarray(c1)
    c2 = np.asarray(c2)
    c3 = np.asarray(c3)
    ok = (c3 >= -tol) & (c2 - c3 >= -tol) & (c1 - c2 >= -tol) & (c1 + c2 <= np.pi + tol)
    if ok.ndim == 0:
        return bool(ok)
    return ok


def is_perfect_entangler(c):
    """Whether chamber coordinates describe a perfect entangler.

    Broadcasts over (..., 3) and returns a bool (or bool array).  The
    wedge is closed: boundary points count as inside, up to ``_CHAMBER_TOL``.
    Coordinates outside the chamber are rejected outright, since the
    half-space test below is only meaningful on the fundamental cell.
    """
    arr = np.asarray(c, dtype=float)
    c1, c2, c3 = arr[..., 0], arr[..., 1], arr[..., 2]
    if not np.all(in_weyl_chamber(c1, c2, c3)):
        raise ValidationError(
            "coordinates outside the chamber have no perfect-entangler status"
        )
    ok = (
        (c1 + c2 >= np.pi / 2 - _CHAMBER_TOL)
        & (c1 - c2 <= np.pi / 2 + _CHAMBER_TOL)
        & (c2 + c3 <= np.pi / 2 + _CHAMBER_TOL)
    )
    return bool(ok) if ok.ndim == 0 else ok


@dataclass(frozen=True)
class CanonicalCoords:
    """A point in canonical-coordinate space.

    Not restricted to the Weyl chamber at construction; use
    :func:`in_weyl_chamber` to test membership.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c1, self.c2, self.c3))):
            raise ValidationError("canonical coordinates must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])


def _finite_triple(values, what: str, size: int = 3) -> np.ndarray:
    """``values`` as an array of ``size`` (three, or two for an axis) finite floats."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size,) or not np.isfinite(arr).all():
        raise ValidationError(f"{what} must be {('two', 'three')[size - 2]} finite numbers, got {values!r}")
    return arr


@dataclass(frozen=True)
class FullCoords:
    """The full fifteen-coordinate parametrisation of a two-qubit gate.

    ``a1``/``b1`` parametrise the two single-qubit factors of the left
    local operation (first/second qubit), ``a2``/``b2`` those of the right
    one, and ``c`` the commuting core.  Plain (alpha, theta, phi) triples
    and any three finite numbers for ``c`` are accepted, and converted to
    :class:`Su2Params` and :class:`CanonicalCoords`, and checked, here.
    """

    a1: Su2Params
    b1: Su2Params
    a2: Su2Params
    b2: Su2Params
    c: CanonicalCoords

    def __post_init__(self):
        for name in ("a1", "b1", "a2", "b2"):
            v = getattr(self, name)
            if not isinstance(v, Su2Params):
                object.__setattr__(self, name, Su2Params(*_finite_triple(v, name).tolist()))
        if not isinstance(self.c, CanonicalCoords):
            object.__setattr__(self, "c", CanonicalCoords(*_finite_triple(self.c, "c").tolist()))

    def as_array(self) -> np.ndarray:
        """Flatten to the canonical 15-vector ordering."""
        return np.array(
            self.a1.as_tuple()
            + self.b1.as_tuple()
            + self.a2.as_tuple()
            + self.b2.as_tuple()
            + self.c.as_tuple(),
            dtype=float,
        )
