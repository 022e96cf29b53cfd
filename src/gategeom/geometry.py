"""Riemannian structure induced by the bi-invariant metric.

The fifteen coordinates of :class:`~gategeom.coords.FullCoords` chart the
determinant-one two-qubit gates almost everywhere.  This module supplies
the metric tensor in that chart, its closed-form determinant, the
probability densities it induces (on the chamber, and pushed forward to
invariant space), and a finite-difference frame used to cross-check all
of the above from nothing but matrix derivatives.
"""
from __future__ import annotations

import numpy as np

from .coords import CanonicalCoords, FullCoords, in_weyl_chamber
from .errors import ConsistencyError, SingularDensityError, ValidationError
from .gates import _assemble_batch, _generators

#: Peak of the chamber density, attained at (pi/2, pi/4, 0).
WEYL_DENSITY_MAX = 12.0 / np.pi

_NORMALIZATION_CHAMBER = 48.0 / np.pi


def _zeta_frame(alpha: float, theta: float, phi: float) -> np.ndarray:
    """Pullback one-forms of a single-qubit rotation in axis-angle angles.

    Row A in (x, y, z), column mu in (d alpha, d theta, d phi): the
    coefficient of d x^mu in ``i tr(sigma_A u^{-1} du) / ... `` against the
    orthonormal generator normalisation used throughout.  The rows have
    squared norms (1, 4 sin^2(alpha/2), 4 sin^2(alpha/2) sin^2 theta).
    """
    s, cc = np.sin(alpha / 2), np.cos(alpha / 2)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return np.array(
        [
            [st * cp, 2 * s * (s * sp + cc * ct * cp), 2 * s * st * (s * ct * cp - cc * sp)],
            [st * sp, 2 * s * (-s * cp + cc * ct * sp), 2 * s * st * (s * ct * sp + cc * cp)],
            [ct, -2 * s * cc * st, -2 * s * s * st * st],
        ]
    )


def _zeta_negated(alpha: float, theta: float, phi: float) -> np.ndarray:
    """Coefficient matrix for the factor entering through a reversed angle.

    Substituting alpha -> -alpha and then negating the d alpha column
    accounts for differentiating with respect to the *original* alpha.
    """
    z = _zeta_frame(-alpha, theta, phi)
    z[:, 0] = -z[:, 0]
    return z


def metric_tensor(x: FullCoords) -> np.ndarray:
    """The 15x15 metric in coordinate order (a1, b1, a2, b2, c)."""
    c1, c2, c3 = x.c.as_tuple()
    z1a = _zeta_frame(*x.a1.as_tuple())
    z1b = _zeta_frame(*x.b1.as_tuple())
    z2a = _zeta_negated(*x.a2.as_tuple())
    z2b = _zeta_negated(*x.b2.as_tuple())

    cosw = np.array([np.cos(c2) * np.cos(c3), np.cos(c1) * np.cos(c3), np.cos(c1) * np.cos(c2)])
    sinw = np.array([np.sin(c2) * np.sin(c3), np.sin(c1) * np.sin(c3), np.sin(c1) * np.sin(c2)])

    G = np.zeros((15, 15))
    for i, z in ((0, z1a), (3, z1b), (6, z2a), (9, z2b)):
        G[i : i + 3, i : i + 3] = z.T @ z
    G[12:15, 12:15] = np.eye(3)

    G[0:3, 6:9] = -z1a.T @ (cosw[:, None] * z2a)
    G[0:3, 9:12] = -z1a.T @ (sinw[:, None] * z2b)
    G[3:6, 9:12] = -z1b.T @ (cosw[:, None] * z2b)
    G[3:6, 6:9] = -z1b.T @ (sinw[:, None] * z2a)
    for r, s in ((0, 6), (0, 9), (3, 9), (3, 6)):
        G[s : s + 3, r : r + 3] = G[r : r + 3, s : s + 3].T
    return G


def _chamber_sine_product(c) -> np.ndarray:
    """Signed product of the six pairwise sines, broadcast over (..., 3)."""
    c = np.asarray(c, dtype=float)
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    return (
        np.sin(c1 + c2) * np.sin(c1 - c2)
        * np.sin(c1 + c3) * np.sin(c1 - c3)
        * np.sin(c2 + c3) * np.sin(c2 - c3)
    )


def det_g_closed(x: FullCoords) -> float:
    """Closed form of det(metric); vanishes on every chart singularity."""
    sines = _chamber_sine_product(np.asarray(x.c.as_tuple()))
    blocks = 256.0
    for v in (x.a1, x.b1, x.a2, x.b2):
        blocks *= np.sin(v.alpha / 2) ** 2 * np.sin(v.theta)
    return float((sines * blocks) ** 2)


def weyl_density(c) -> np.ndarray:
    """Normalised density of canonical coordinates; broadcasts over (..., 3).

    The absolute value makes the expression safe to evaluate outside the
    chamber, where reflected copies of the fundamental cell alternate in
    sign; inside the chamber the product is already non-negative.
    """
    return _NORMALIZATION_CHAMBER * np.abs(_chamber_sine_product(c))


#: Coefficients of the cosine form as a bilinear form a^T M b in
#: a = cos(2c), b = cos(4c); M is antisymmetric.
_COSINE_FORM = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def _weyl_density_cosine(c) -> np.ndarray:
    """The same chamber density written as a sum of cosine products.

    Equals :func:`weyl_density` inside the chamber; outside, it carries
    the sign of the reflected cell rather than the absolute value.
    """
    a = np.cos(2 * np.asarray(c, dtype=float))
    b = 2 * a * a - 1.0  # cos(4c) by double angle
    return (3.0 / np.pi) * np.sum((a @ _COSINE_FORM) * b, axis=-1)


def _cosine_density_derivatives(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient (3,) and Hessian (3, 3) of the cosine form at one point."""
    a, b = np.cos(2 * c), np.cos(4 * c)
    da, db = -2.0 * np.sin(2 * c), -4.0 * np.sin(4 * c)
    mb, am = _COSINE_FORM @ b, a @ _COSINE_FORM
    hess = np.diag(-4.0 * a * mb - 16.0 * b * am)
    hess += _COSINE_FORM * (np.outer(da, db) - np.outer(db, da))
    return (3.0 / np.pi) * (da * mb + db * am), (3.0 / np.pi) * hess


def makhlin_density(g1, g2) -> np.ndarray:
    """Density of the invariant triple; radially divergent at g1 = g2 = 0.

    The third invariant does not enter: conditioned on (g1, g2) it is
    determined up to the chamber fold, and the density is constant there.
    """
    rho = np.hypot(np.asarray(g1, dtype=float), np.asarray(g2, dtype=float))
    if np.any(rho == 0.0):
        raise SingularDensityError(
            "density diverges on the axis g1 = g2 = 0; no finite value exists"
        )
    return (3.0 / np.pi) / rho


def jacobian(c) -> np.ndarray:
    """Derivative of the invariant triple with respect to the coordinates.

    Broadcasts over (..., 3); rows index (g1, g2, g3), columns c_i.
    """
    c = np.asarray(c, dtype=float)
    s = np.sin(2 * c)
    t = np.cos(2 * c)
    J = np.empty(c.shape[:-1] + (3, 3))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        J[..., 0, i] = -0.5 * (1.0 + t[..., j] * t[..., k]) * s[..., i]
        J[..., 1, i] = 0.5 * t[..., i] * s[..., j] * s[..., k]
        J[..., 2, i] = -2.0 * s[..., i]
    return J


def jjt_closed(g1, g2, g3) -> np.ndarray:
    """Gram matrix J J^T written directly in the invariants (..., 3, 3)."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    g3 = np.asarray(g3, dtype=float)
    rho = np.hypot(g1, g2)
    out = np.empty(np.broadcast(g1, g2, g3).shape + (3, 3))
    out[..., 0, 0] = rho - 4 * g1**2 + 2 * g2**2 + g1 * g3
    out[..., 0, 1] = out[..., 1, 0] = g2 * g3 - 6 * g1 * g2
    out[..., 0, 2] = out[..., 2, 0] = 6 * rho - 2 * g1 * g3
    out[..., 1, 1] = rho + 2 * g1**2 - 4 * g2**2 - g1 * g3
    out[..., 1, 2] = out[..., 2, 1] = -2 * g2 * g3
    out[..., 2, 2] = 16 * rho + 2 - 2 * g3**2
    return 2.0 * out


#: Minimum distance from any chart singularity accepted by the
#: finite-difference frame (the chart degenerates there).
FRAME_SINGULARITY_TOL = 1e-3
#: Step of the frame's central differences.
_FRAME_STEP = 1e-5


def frame_finite_difference(x: FullCoords) -> np.ndarray:
    """Frame matrix E[A, mu] = i tr(T_A U^{-1} dU/dx^mu) by central differences.

    Satisfies E^T E = metric and |det E| = sqrt(det metric).  Points too
    close to a chart singularity are rejected: the frame is still finite
    there, but the comparison identities degrade faster than the
    truncation error and the answer would be meaningless.
    """
    factors = [np.abs(_chamber_sine_product(np.asarray(x.c.as_tuple())))]
    for v in (x.a1, x.b1, x.a2, x.b2):
        factors.append(np.sin(v.alpha / 2) ** 2 * abs(np.sin(v.theta)))
    if min(factors) < FRAME_SINGULARITY_TOL:
        raise ValidationError(
            "coordinates lie within "
            f"{FRAME_SINGULARITY_TOL} of a chart singularity; "
            "the finite-difference frame is not reliable there"
        )

    h = _FRAME_STEP
    base = x.as_array()
    probes = np.repeat(base[None, :], 30, axis=0)
    for mu in range(15):
        probes[2 * mu, mu] += h
        probes[2 * mu + 1, mu] -= h
    U_all = _assemble_batch(np.vstack([base[None, :], probes])).transpose(2, 0, 1)
    U0, U_pm = U_all[0], U_all[1:]
    dU = (U_pm[0::2] - U_pm[1::2]) / (2.0 * h)  # (15, 4, 4)
    omega = np.einsum("ij,mjk->mik", U0.conj().T, dU)
    E = 1j * np.einsum("aij,mji->am", _generators(), omega)
    worst_imag = np.abs(E.imag).max()
    if worst_imag > 10.0 * h * h:
        raise ConsistencyError(
            f"frame has imaginary residue {worst_imag:.3e}; "
            "expected pure-real coefficients up to truncation error"
        )
    return E.real


def weyl_density_max_point() -> tuple[CanonicalCoords, float]:
    """Locate the chamber density peak by grid scan plus Newton polish."""
    # An even point count keeps the exact peak off the grid, so the checks
    # of the located peak see the polish at work.
    axis = np.linspace(0.0, np.pi, 24)
    grid = np.stack(np.meshgrid(axis, axis / 2, axis / 2, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[in_weyl_chamber(grid[:, 0], grid[:, 1], grid[:, 2])]
    c = grid[np.argmax(weyl_density(grid))]

    # The cosine form is smooth and signed, so the polish cannot be fooled
    # by the |.| kink on the chamber walls; the peak sits on the c3 = 0
    # face, and the even symmetry in c3 keeps it a genuine local maximum.
    for _ in range(20):
        grad, hess = _cosine_density_derivatives(c)
        step = np.linalg.solve(hess, grad)
        c = c - step
        if np.abs(step).max() <= 1e-12:
            break
    else:
        raise ConsistencyError("Newton polish of the density peak did not converge")
    c = np.clip(c, 0.0, None)
    return CanonicalCoords(float(c[0]), float(c[1]), float(c[2])), float(_weyl_density_cosine(c))
