"""Local invariants of two-qubit gates and the coordinate maps between
invariant space and the Weyl chamber.

The three real invariants (g1, g2, g3) classify gates up to single-qubit
rotations on either side.  ``canonical_coords_batch`` is the one map from
unitaries to chamber coordinates: it reads them off the eigenphases of
the Bell-basis congruence ``m = U_B^T U_B``.  ``g_from_c`` and
``c_from_g`` convert between coordinates and invariants; every invariant
of a matrix is ``g_from_c`` of its coordinates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coords import CanonicalCoords, in_weyl_chamber
from .errors import ConsistencyError, InvalidInvariantsError, ValidationError
from .gates import require_unitary, require_unitary_stack

#: Slack allowed on the exact ranges |g1| <= 1, |g2| <= 1/4, |g3| <= 3.
INVARIANT_RANGE_TOL = 1e-9
#: Round-off allowed in the coefficients of ``c_from_g``'s cubic, relative
#: to their size; invariants further from those of any gate are rejected.
CLAMP_BUDGET = 1e-12
#: On the face c3 <= FACE_TOL, (c1, c2, c3) and (pi - c1, c2, c3) are taken
#: as one class, and the form with c1 <= pi/2 is returned.
FACE_TOL = 1e-13

#: Computational-basis to Bell-basis change of basis.  Columns are the
#: Bell-type states in which every local gate becomes real orthogonal.
_MAGIC_BASIS = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

#: Weight of Im m in the real symmetric mix that the Jacobi sweeps
#: diagonalise; irrational, so that distinct eigenvalues of m stay apart.
_MIX = np.sqrt(2.0) - 1.0
#: Off-diagonal of O^T m O beyond which the sweeps left a row unconverged
#: or the mix had a tie by chance.
_TIE_TOL = 1e-13

#: Stacks of at least this many rows take the Jacobi route, which works on
#: whole-stack arrays; below it one LAPACK call per matrix is cheaper.  Set
#: from the measured crossover (README, "Canonical coordinates").
_JACOBI_MIN_ROWS = 224
#: Cyclic Jacobi sweeps.  Fixed, so that a row's result never depends on
#: the rest of its stack.  Four converge every measured family and all but
#: about 3 in 1000 Haar rows, which go to the general solver; a fifth costs
#: a quarter more sweep time, keeps only a fifth of those rows from the
#: solver and gains no accuracy (README, "Canonical coordinates").
_JACOBI_SWEEPS = 4
#: Row of entry (i, j) of a symmetric 4x4 matrix stored as its upper
#: triangle, one row per entry.
_UPPER = np.triu_indices(4)
_UPPER_PAIRS = tuple(zip(*_UPPER))
_SYM = np.zeros((4, 4), dtype=np.intp)
_SYM[_UPPER] = _SYM.T[_UPPER] = np.arange(10)
_SYM_DIAG = np.diagonal(_SYM)
_SYM_OFF = _SYM[np.triu_indices(4, 1)]
#: The fold's eigenphase pairs: c = -(lam[_PAIR_A] + lam[_PAIR_B]).
_PAIR_A, _PAIR_B = np.array([0, 1, 0]), np.array([1, 3, 3])
_TINY = np.finfo(float).tiny
#: (row, column) of each nonzero entry of _MAGIC_BASIS.
_MAGIC_TERMS = tuple(zip(*np.nonzero(_MAGIC_BASIS)))
#: One sweep: for each pair (p, q), the rows of (p, p), (q, q), (p, q) and
#: of (r, p), (r, q) for the two other indices r.
_JACOBI_PAIRS = tuple(
    (_SYM[p, p], _SYM[q, q], _SYM[p, q],
     tuple((_SYM[r, p], _SYM[r, q]) for r in range(4) if r not in (p, q)))
    for p, q in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2))
)


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
    """Global-phase angle chi in [0, pi/2) stripped by determinant projection.

    The type of :func:`project_su4`'s second value; not exported.
    """

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
        if not math.isfinite(v):
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


def canonical_coords_batch(U) -> np.ndarray:
    """Chamber coordinates of a stack of unitaries, (n, 4, 4) -> (n, 3).

    Every row is validated as unitary.  m = U_B^T U_B is unitary and
    symmetric, and half the eigenphases lam_k of m for the SU(4)
    representative give c = -(lam0 + lam1, lam1 + lam3, lam0 + lam3) up to
    a Weyl-group move, for any order and branch; the fold reduces each c_i
    modulo pi, sorts |c_i| in descending order and, if an odd number of
    the c_i were negative, maps c1 to pi - c1 (except on the c3 = 0 face,
    see ``FACE_TOL``).  Walls included, every point comes out to about 1e-15.
    """
    return _spectral_coords(require_unitary_stack(U))


def _spectral_coords(U: np.ndarray) -> np.ndarray:
    """:func:`canonical_coords_batch` of a stack already known to be unitary.

    Stacks of fewer than ``_JACOBI_MIN_ROWS`` rows take LAPACK's ``det``
    and ``eigvals`` per matrix, larger ones the Jacobi route; the two agree
    to about 1e-15.
    """
    if U.shape[0] < _JACOBI_MIN_ROWS:
        V = U @ _MAGIC_BASIS
        # m = V^T P V with P = conj(Q) Q^dag = antidiag(1, -1, -1, 1).
        X = V[:, 0, :, None] * V[:, 3, None, :] - V[:, 1, :, None] * V[:, 2, None, :]
        det, eig = np.linalg.det(U), np.linalg.eigvals(X + X.transpose(0, 2, 1))
    else:
        u = np.ascontiguousarray(U.transpose(1, 2, 0))
        det, eig = _laplace_det(u), _jacobi_spectrum(u)
    lam = np.angle(eig)
    lam /= 2.0
    lam -= (np.angle(det) / 4.0)[:, None]
    c = lam[:, _PAIR_A]
    c += lam[:, _PAIR_B]
    np.negative(c, out=c)
    c -= np.pi * np.rint(c / np.pi)
    odd = c.prod(axis=-1) < 0.0  # an odd number of negative c_i
    c = -np.sort(-np.abs(c), axis=-1)
    flip = odd & (c[:, 2] > FACE_TOL)
    c[flip, 0] = np.pi - c[flip, 0]
    return c


def _laplace_det(u: np.ndarray) -> np.ndarray:
    """Determinants of a (4, 4, n) stack by Laplace expansion along rows 0, 1.

    The column pairs run (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), so the
    complementary minor of pair k is pair 5 - k of rows 2, 3.
    """
    i, j = np.triu_indices(4, 1)
    top = u[0, i] * u[1, j] - u[0, j] * u[1, i]
    bottom = u[2, i] * u[3, j] - u[2, j] * u[3, i]
    sign = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[:, None]
    return (sign * top * bottom[::-1]).sum(axis=0)


def _jacobi_spectrum(u: np.ndarray) -> np.ndarray:
    """Eigenvalues of m = U_B^T U_B, shape (n, 4), by vectorised Jacobi.

    ``u`` is the stack laid out as (4, 4, n), and every step is arithmetic
    on length-n arrays, one per matrix entry.  m is unitary and symmetric,
    so m = O D O^T with O real orthogonal, which also diagonalises
    a = Re m + r Im m.  Cyclic Jacobi on a applies each rotation to
    b = Im m as well, so the sweeps end with a = O^T (Re m + r Im m) O and
    b = O^T Im(m) O, whose diagonals give D.  Rows whose O^T m O keeps an
    off-diagonal entry (unconverged, or a chance tie of the mix) go to
    ``eigvals``.
    """
    m = _upper_congruence(u)
    a = m.real + _MIX * m.imag
    b = m.imag.copy()
    del m
    for _ in range(_JACOBI_SWEEPS):
        for pp, qq, pq, others in _JACOBI_PAIRS:
            # t = tan(theta) of the rotation that zeroes a[pq], |theta| <= pi/4
            # (_TINY turns 0/0 into t = 0 where a[pq] = 0 already).
            apq = a[pq]
            d = a[qq] - a[pp]
            den = np.abs(d) + np.sqrt(d * d + 4.0 * apq * apq) + _TINY
            t = np.copysign(2.0, d) * apq / den
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            shift = t * apq
            a[pp] -= shift
            a[qq] += shift
            a[pq] = 0.0
            # b's (p, q) block turns by 2 theta about its mean diagonal.
            cos2, sin2 = c * c - s * s, 2.0 * c * s
            bpp, bqq, bpq = b[pp], b[qq], b[pq]
            mean, half = 0.5 * (bpp + bqq), 0.5 * (bpp - bqq)
            turned = half * cos2 - bpq * sin2
            bpq *= cos2
            bpq += half * sin2
            np.add(mean, turned, out=bpp)
            np.subtract(mean, turned, out=bqq)
            # The other rows r turn by theta: x <- c x - s y, y <- s x + c y
            # for (x, y) = (row (r, p), row (r, q)), of a and of b alike.
            for rp, rq in others:
                for x, y in ((a[rp], a[rq]), (b[rp], b[rq])):
                    sx = s * x
                    x *= c
                    x -= s * y
                    y *= c
                    y += sx
    re_off = a[_SYM_OFF] - _MIX * b[_SYM_OFF]
    off = np.maximum(np.abs(re_off), np.abs(b[_SYM_OFF])).max(axis=0)
    tied = off > _TIE_TOL
    eig = np.empty((u.shape[2], 4), dtype=complex)
    eig.imag = b[_SYM_DIAG].T
    eig.real = a[_SYM_DIAG].T - _MIX * eig.imag
    if tied.any():
        m = _upper_congruence(u[:, :, tied])
        eig[tied] = np.linalg.eigvals(m[_SYM].transpose(2, 0, 1))
    return eig


def _upper_congruence(u: np.ndarray) -> np.ndarray:
    """m = U_B^T U_B of a (4, 4, n) stack as its upper triangle, (10, n).

    V = U @ _MAGIC_BASIS over the basis' nonzero entries, then m = V^T P V
    as in :func:`_spectral_coords`: entry (i, j) is X[i, j] + X[j, i] with
    X[i, j] = v0i v3j - v1i v2j.
    """
    v = np.zeros_like(u)
    for k, j in _MAGIC_TERMS:
        v[:, j] += _MAGIC_BASIS[k, j] * u[:, k]
    m = np.empty((10, u.shape[2]), dtype=complex)
    for row, (i, j) in enumerate(_UPPER_PAIRS):
        m[row] = (v[0, i] * v[3, j] - v[1, i] * v[2, j]) + (v[0, j] * v[3, i] - v[1, j] * v[2, i])
    return m


def canonical_coords(U) -> CanonicalCoords:
    """Chamber coordinates of a unitary's local-equivalence class."""
    return CanonicalCoords(*_spectral_coords(require_unitary(U)[None])[0].tolist())


def makhlin_invariants(U) -> LocalInvariants:
    """Extract the invariant triple from a unitary.

    The result is independent of global phase and of single-qubit
    rotations applied before or after the gate.
    """
    g = g_from_c(_spectral_coords(require_unitary(U)[None])[0])
    return LocalInvariants(*g.tolist())


def g_from_c(c, /):
    """Invariant triple from chamber coordinates; broadcasts over (..., 3).

    Returns an array of shape (..., 3); ``LocalInvariants(*g_from_c(c).tolist())``
    gives the validated triple of one point.
    """
    c = np.asarray(c, dtype=float)
    two = np.cos(2 * c)
    s2 = np.sin(2 * c)
    g1 = 0.25 * (two.sum(axis=-1) + two.prod(axis=-1))
    g2 = 0.25 * s2.prod(axis=-1)
    g3 = two.sum(axis=-1)
    return np.stack([g1, g2, g3], axis=-1)


def _c_from_g_batch(g: np.ndarray) -> np.ndarray:
    """Chamber coordinates from invariant triples, (n, 3) -> (n, 3).

    The three cosines cos(2 c_i) are the roots of a real cubic whose
    coefficients are polynomial in the invariants; with valid input the
    discriminant is non-positive, so the trigonometric three-real-root
    formula applies throughout.  Round-off is judged against the size of
    the coefficients; k equal roots move by the k-th root of a change in
    them, so root cosines may leave [-1, 1] by the cube root of the budget.
    """
    g1, g2, g3 = g[:, 0], g[:, 1], g[:, 2]
    # z^3 - g3 z^2 + e2 z - e3 with e2 = 4 rho - 1 and e3 = 4 g1 - g3.
    e2 = 4.0 * np.hypot(g1, g2) - 1.0
    e3 = 4.0 * g1 - g3
    budget = CLAMP_BUDGET * (1.0 + np.abs(g3) + np.abs(e2) + np.abs(e3))
    # Depressed form t^3 + p t + q, t = z - g3/3.
    p = e2 - g3 * g3 / 3.0
    q = -2.0 * g3**3 / 27.0 + g3 * e2 / 3.0 - e3
    m = 2.0 * np.sqrt(np.maximum(-p, 0.0) / 3.0)
    # Three real roots need p <= 0 and |q| <= m^3/4; clamping the arccos
    # argument changes q by the excess.
    edge = m**3 / 4.0
    arg = np.divide(-q, edge, out=np.zeros_like(q), where=edge > 0.0)
    phi = np.arccos(np.clip(arg, -1.0, 1.0)) / 3.0
    k = np.arange(3.0)
    t = m[:, None] * np.cos(phi[:, None] - 2.0 * np.pi * k / 3.0)
    z = np.sort(t + (g3 / 3.0)[:, None], axis=-1)
    over = np.abs(z).max(axis=-1) - 1.0
    bad = (p > budget) | (np.abs(q) - edge > budget) | (over > np.cbrt(budget))
    if bad.any():
        raise InvalidInvariantsError(
            f"no gate has the invariants {tuple(g[bad][0])}, not even within round-off"
        )
    half = np.arccos(np.clip(z, -1.0, 1.0)) / 2.0
    c1 = np.where(g2 >= 0.0, half[:, 0], np.pi - half[:, 0])
    return np.stack([c1, half[:, 1], half[:, 2]], axis=-1)


def c_from_g(g1: float, g2: float, g3: float) -> CanonicalCoords:
    """Chamber point with the given invariants.

    Raises :class:`InvalidInvariantsError` when no such point exists
    (beyond the round-off budget ``CLAMP_BUDGET``) and
    :class:`ConsistencyError` if the recovered point unexpectedly misses
    the chamber.

    Accuracy is that of the cubic's roots, measured on ``g_from_c`` of
    chamber points: about 1e-15 in the bulk, ~sqrt(eps) on faces (worst
    3e-7), 3e-4 on the edges c2 = c3 = 0 and c1 = c2 = pi/2, and 2e-3 within
    1e-2 of a vertex.  :func:`canonical_coords` of a matrix has no such loss.
    """
    validate_invariant_ranges(g1, g2, g3)
    c = _c_from_g_batch(np.array([[g1, g2, g3]], dtype=float))[0]
    if not in_weyl_chamber(c[0], c[1], c[2], tol=1e-8):
        raise ConsistencyError(
            f"recovered coordinates {tuple(c)} are outside the chamber"
        )
    return CanonicalCoords(float(c[0]), float(c[1]), float(c[2]))
