"""Local invariants of two-qubit gates and the coordinate maps between
invariant space and the Weyl chamber.

The three real invariants (g1, g2, g3) classify gates up to single-qubit
rotations on either side.  ``g_from_c`` and ``c_from_g`` convert between
them and canonical chamber coordinates; ``makhlin_invariants`` extracts
them from an explicit unitary via the Bell-basis congruence ``m = U_B^T U_B``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import CHAMBER_TOL, CanonicalCoords, coerce_triple, in_weyl_chamber
from .errors import ConsistencyError, InvalidInvariantsError, ValidationError
from .gates import MAGIC_BASIS, require_unitary

#: Slack allowed on the exact ranges |g1| <= 1, |g2| <= 1/4, |g3| <= 3.
INVARIANT_RANGE_TOL = 1e-9
#: How far outside [-1, 1] an arccos argument may fall before the input
#: is rejected as inconsistent rather than silently clamped.
CLAMP_BUDGET = 1e-8


@dataclass(frozen=True)
class LocalInvariants:
    """The invariant triple, validated against its exact ranges."""

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        validate_invariant_ranges(self.g1, self.g2, self.g3, error=ConsistencyError)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.g1, self.g2, self.g3)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    @property
    def radial(self) -> float:
        """Distance from the (g1, g2) origin, the radial invariant."""
        return float(np.hypot(self.g1, self.g2))


@dataclass(frozen=True)
class PhaseAngle:
    """Global-phase angle chi in [0, pi/2) stripped by determinant projection."""

    chi: float

    def __post_init__(self):
        if not (0.0 <= self.chi < np.pi / 2 + 1e-15):
            raise ValidationError(f"phase angle must lie in [0, pi/2), got {self.chi!r}")


def validate_invariant_ranges(
    g1: float, g2: float, g3: float, error: type[Exception] = ValidationError
) -> None:
    """Reject invariants outside their exact ranges by raising ``error``.

    User input gets the default; extracted invariants raise ConsistencyError.
    """
    for name, v, bound in (("g1", g1, 1.0), ("g2", g2, 0.25), ("g3", g3, 3.0)):
        if not np.isfinite(v):
            raise error(f"{name} must be finite, got {v!r}")
        if abs(v) > bound + INVARIANT_RANGE_TOL:
            raise error(f"{name} = {v!r} outside its exact range [-{bound}, {bound}]")


def project_su4(U) -> tuple[np.ndarray, PhaseAngle]:
    """Strip the global phase, returning a determinant-one representative.

    The phase angle chi is folded into [0, pi/2); multiplying by
    ``exp(-i chi)`` then gives det = +1 because the determinant picks up
    ``exp(-4i chi)``.
    """
    U = require_unitary(U)
    chi = float(np.angle(np.linalg.det(U)) / 4.0) % (np.pi / 2)
    if chi >= np.pi / 2:  # fold the half-open boundary hit by rounding
        chi -= np.pi / 2
    return np.exp(-1j * chi) * U, PhaseAngle(chi)


def _makhlin_batch(U: np.ndarray) -> np.ndarray:
    """Invariant triples for a stack of unitaries, shape (n, 4, 4) -> (n, 3)."""
    Q = MAGIC_BASIS
    UB = np.einsum("ij,njk,kl->nil", Q.conj().T, U, Q, optimize=True)
    m = np.transpose(UB, (0, 2, 1)) @ UB
    tr_m = np.einsum("nii->n", m)
    tr_m2 = np.einsum("nij,nji->n", m, m)
    det = np.linalg.det(U)
    w = tr_m * tr_m / (16.0 * det)
    g3c = (tr_m * tr_m - tr_m2) / (4.0 * det)
    if np.abs(g3c.imag).max(initial=0.0) > 1e-9:
        raise ConsistencyError(
            f"third invariant has residual imaginary part {np.abs(g3c.imag).max():.3e}"
        )
    return np.stack([w.real, -w.imag, g3c.real], axis=-1)


def makhlin_invariants(U) -> LocalInvariants:
    """Extract the invariant triple from a unitary.

    The result is independent of global phase and of single-qubit
    rotations applied before or after the gate.
    """
    U = require_unitary(U)
    g = _makhlin_batch(U[None])[0]
    return LocalInvariants(float(g[0]), float(g[1]), float(g[2]))


def g_from_c(c, /):
    """Invariant triple from chamber coordinates; broadcasts over (..., 3).

    Returns an array of shape (..., 3).  Scalar callers who want a
    :class:`LocalInvariants` should use :func:`invariants_at`.
    """
    c = np.asarray(c, dtype=float)
    two = np.cos(2 * c)
    s2 = np.sin(2 * c)
    g1 = 0.25 * (two.sum(axis=-1) + two.prod(axis=-1))
    g2 = 0.25 * s2.prod(axis=-1)
    g3 = two.sum(axis=-1)
    return np.stack([g1, g2, g3], axis=-1)


def invariants_at(c) -> LocalInvariants:
    """Invariant triple at one chamber point, as a validated dataclass."""
    g = g_from_c(np.asarray(coerce_triple(c)))
    return LocalInvariants(float(g[0]), float(g[1]), float(g[2]))


def _checked_arccos(z: np.ndarray, what: str) -> np.ndarray:
    over = np.abs(z) - 1.0
    worst = over.max(initial=0.0)
    if worst > CLAMP_BUDGET:
        raise InvalidInvariantsError(
            f"{what} leaves [-1, 1] by {worst:.3e}; no gate has these invariants"
        )
    return np.arccos(np.clip(z, -1.0, 1.0))


def _c_from_g_batch(g: np.ndarray) -> np.ndarray:
    """Chamber coordinates from invariant triples, (n, 3) -> (n, 3).

    The three cosines cos(2 c_i) are the roots of a real cubic whose
    coefficients are polynomial in the invariants; with valid input the
    discriminant is non-positive, so the trigonometric three-real-root
    formula applies throughout.
    """
    g1, g2, g3 = g[:, 0], g[:, 1], g[:, 2]
    rho = np.hypot(g1, g2)
    # Depressed form t^3 + p t + q of z^3 - g3 z^2 + (4 rho - 1) z + (g3 - 4 g1).
    p = (4.0 * rho - 1.0) - g3 * g3 / 3.0
    q = -2.0 * g3**3 / 27.0 + g3 * (4.0 * rho - 1.0) / 3.0 + (g3 - 4.0 * g1)
    if p.max(initial=-np.inf) > CLAMP_BUDGET:
        raise InvalidInvariantsError(
            f"cubic discriminant condition violated (p = {p.max():.3e} > 0); "
            "no gate has these invariants"
        )
    m = 2.0 * np.sqrt(np.maximum(-p, 0.0) / 3.0)
    pm = p * m
    degenerate = np.abs(pm) < 1e-300
    arg = np.where(degenerate, 0.0, 3.0 * q / np.where(degenerate, 1.0, pm))
    phi = _checked_arccos(arg, "cubic root parameter") / 3.0
    k = np.arange(3.0)
    t = m[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * k / 3.0)
    z = np.sort(t + (g3 / 3.0)[:, None], axis=-1)
    half = _checked_arccos(z, "root cosine") / 2.0
    c1 = np.where(g2 >= 0.0, half[:, 0], np.pi - half[:, 0])
    return np.stack([c1, half[:, 1], half[:, 2]], axis=-1)


def c_from_g(g1: float, g2: float, g3: float) -> CanonicalCoords:
    """Chamber point with the given invariants.

    Raises :class:`InvalidInvariantsError` when no such point exists
    (beyond a small numerical clamp budget) and :class:`ConsistencyError`
    if the recovered point unexpectedly misses the chamber.
    """
    validate_invariant_ranges(g1, g2, g3)
    c = _c_from_g_batch(np.array([[g1, g2, g3]], dtype=float))[0]
    if not in_weyl_chamber(c[0], c[1], c[2], tol=1e-8):
        raise ConsistencyError(
            f"recovered coordinates {tuple(c)} are outside the chamber"
        )
    return CanonicalCoords(float(c[0]), float(c[1]), float(c[2]))


def canonical_coords(U) -> CanonicalCoords:
    """Chamber coordinates of a unitary's local-equivalence class."""
    inv = makhlin_invariants(U)
    return c_from_g(inv.g1, inv.g2, inv.g3)


def _canonical_coords_batch(U: np.ndarray) -> np.ndarray:
    """Batch version for stacks (n, 4, 4) -> (n, 3); skips per-row checks."""
    return _c_from_g_batch(_makhlin_batch(U))


def locally_equivalent(U, V, tol: float = 1e-9) -> bool:
    """Whether two gates agree up to single-qubit rotations and phase."""
    a = makhlin_invariants(U).as_array()
    b = makhlin_invariants(V).as_array()
    return bool(np.abs(a - b).max() <= tol)
