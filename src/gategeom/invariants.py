"""Local invariants of two-qubit gates and the coordinate maps between
invariant space and the Weyl chamber.

The three real invariants (g1, g2, g3) classify gates up to single-qubit
rotations on either side.  ``canonical_coords_batch`` is the one map from
unitaries to chamber coordinates: it reads them off the eigenphases of
the Bell-basis congruence ``m = U_B^T U_B``, by LAPACK for short stacks
and by Jacobi sweeps alone for long ones and sampler blocks.  The
invariants of a matrix need no spectrum: ``makhlin_invariants`` takes
them from the traces of the same m and det U, Makhlin's formulas, and
agrees with ``g_from_c`` of the coordinates to about 3e-15.  ``g_from_c``
and ``c_from_g`` convert between coordinates and invariants.
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
#: or the mix had a tie by chance, and the row takes a closing round.
_TIE_TOL = 1e-13

#: Stacks of at least this many rows take the Jacobi route, which works on
#: whole-stack arrays; below it one LAPACK call per matrix is cheaper.  Set
#: from the measured crossover (README, "Canonical coordinates").  Sampler
#: blocks take the Jacobi route at every length.
_JACOBI_MIN_ROWS = 224
#: Cyclic Jacobi sweeps.  Fixed, so that a row's result never depends on
#: the rest of its stack.  Four converge every measured family and all but
#: about 3 in 1000 Haar rows, which take a closing round; a fifth costs a
#: quarter more sweep time, keeps only a fifth of those rows from the round
#: and gains no accuracy (README, "Canonical coordinates").
_JACOBI_SWEEPS = 4
#: Row of entry (i, j) of a symmetric 4x4 matrix stored as its upper
#: triangle, one row per entry.
_UPPER = np.triu_indices(4)
_UPPER_PAIRS = tuple(zip(*_UPPER))
_SYM = np.zeros((4, 4), dtype=np.intp)
_SYM[_UPPER] = _SYM.T[_UPPER] = np.arange(10)
_SYM_DIAG = np.diagonal(_SYM)
_SYM_OFF = _SYM[np.triu_indices(4, 1)]
#: Column pairs of the Laplace expansion along rows 0, 1, and their signs.
_LAPLACE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_LAPLACE_SIGNS = (1, -1, 1, 1, -1, 1)
#: The fold's eigenphase pairing: c = lam @ _PAIRING is
#: -(lam0 + lam1, lam1 + lam3, lam0 + lam3), exactly, but for the sign of a zero.
_PAIRING = -np.array([[1, 0, 1], [1, 1, 0], [0, 0, 0], [0, 1, 1]], dtype=float)
_TINY = np.finfo(float).tiny
#: Column pairs (a, b) of _MAGIC_BASIS: column a and column b of U B are
#: both sums of columns a and b of U.
_MAGIC_PAIRS = ((0, 3), (1, 2))
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
    and ``eigvals`` per matrix, larger ones :func:`_jacobi_coords`, which
    makes no LAPACK call; the two agree to about 1e-15.
    """
    if U.shape[0] >= _JACOBI_MIN_ROWS:
        return _jacobi_coords(U)
    det, m = _det_and_congruence(U)
    return _fold(np.linalg.eigvals(m), det)


def _jacobi_coords(U: np.ndarray) -> np.ndarray:
    """The Jacobi route on a unitary (n, 4, 4) stack of any length: a copy
    in the (4, 4, n) layout, and det U by Laplace expansion."""
    u = U.transpose(1, 2, 0).copy()
    return _column_coords(u, _laplace_det(u))


def _column_coords(u: np.ndarray, det) -> np.ndarray:
    """The Jacobi route on a (4, 4, n) unitary stack, which the caller gives
    up, and its det U: ``u`` becomes V = U B and is released before the sweeps."""
    m = _upper_congruence(u)
    del u
    return _fold(_jacobi_spectrum(m), det)


def _fold(eig: np.ndarray, det) -> np.ndarray:
    """Chamber coordinates from the eigenvalues of m, (n, 4), and det U."""
    lam = np.arctan2(eig.imag, eig.real)  # np.angle, without its wrapper
    lam /= 2.0
    lam -= np.arctan2(det.imag, det.real)[..., None] / 4.0
    c = lam @ _PAIRING
    c -= np.pi * np.rint(c / np.pi)  # modulo pi, which also turns -0 into +0
    odd = np.multiply.reduce(c, axis=-1) < 0.0  # an odd number of negative c_i
    np.abs(c, out=c)
    c.sort(axis=-1)
    c = c[:, ::-1]  # descending
    c1 = c[:, 0]  # to pi - c1 after an odd number of sign flips, off the face
    np.subtract(np.pi, c1, out=c1, where=odd & (c[:, 2] > FACE_TOL))
    return c


def _det_and_congruence(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det U by LAPACK and m = U_B^T U_B as an (n, 4, 4) stack: the route of
    stacks shorter than ``_JACOBI_MIN_ROWS``."""
    V = U @ _MAGIC_BASIS
    # m = V^T P V with P = conj(Q) Q^dag = antidiag(1, -1, -1, 1), so
    # m = X + X^T with X = v0 v3^T - v1 v2^T: rows 0, 1 times rows 3, 2.
    outer = V[:, :2, :, None] * V[:, 3:1:-1, None, :]
    X = outer[:, 0] - outer[:, 1]
    return np.linalg.det(U), X + X.transpose(0, 2, 1)


def _column_invariants(u: np.ndarray, det) -> np.ndarray:
    """The trace formulas on a stack and det U taken as :func:`_column_coords`
    takes them; each off-diagonal entry of m's upper triangle stands for two."""
    m = _upper_congruence(u)
    del u
    tr = sum(m[k] for k in _SYM_DIAG)
    sq = sum(m[k] * m[k] for k in _SYM_DIAG) + 2.0 * sum(m[k] * m[k] for k in _SYM_OFF)
    return _trace_invariants(det, tr, sq)


def _trace_invariants(det, tr: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """(g1, g2, g3) from det U, tr(m) and tr(m^2), shape (n, 3): Makhlin's
    G1 = tr^2(m) / (16 det U) = g1 - i g2 and G2 = (tr^2(m) - tr(m^2)) /
    (4 det U), g3 = Re G2 (Quantum Inf. Process. 1, 243 (2002))."""
    tr2 = tr * tr  # numpy rounds tr *= tr of one row unlike its rows in a stack
    w = 0.25 / det
    G1 = (0.25 * tr2) * w
    G2 = (tr2 - sq) * w
    g = np.empty((tr.shape[0], 3))
    g[:, 0] = G1.real
    np.negative(G1.imag, out=g[:, 1])
    g[:, 2] = G2.real
    g += 0.0  # -0 to +0, as the fold returns its zeros
    return g


def _laplace_det(u: np.ndarray) -> np.ndarray:
    """Determinants of a (4, 4, n) stack by Laplace expansion along rows 0, 1.

    The column pairs run (0,1), (0,2), (0,3), (1,2), (1,3), (2,3), so the
    complementary minor of pair k is pair 5 - k of rows 2, 3.  The minors
    are formed on row views, and the terms summed in pair order from +0,
    as ``sum`` does: no determinant comes out with a -0 part, whatever the
    signs of the zeros in the terms.
    """
    det = np.zeros(u.shape[2], dtype=complex)
    for (i, j), (k, l), sign in zip(_LAPLACE_PAIRS, _LAPLACE_PAIRS[::-1], _LAPLACE_SIGNS):
        top = u[0, i] * u[1, j] - u[0, j] * u[1, i]
        bottom = u[2, k] * u[3, l] - u[2, l] * u[3, k]
        # Both minors are named, so that top stays the left operand: complex
        # products with FMA are not bitwise commutative, and numpy's
        # temporary elision may turn top * (...) around.
        term = top * bottom
        if sign > 0:
            det += term
        else:
            det -= term
    return det


def _jacobi_spectrum(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of m = U_B^T U_B, shape (n, 4), by vectorised Jacobi.

    ``m`` is the upper triangle of each matrix, (10, n), and every step is
    arithmetic on length-n arrays, one per matrix entry.  m is unitary and
    symmetric, so m = O D O^T with O real orthogonal, which also diagonalises
    a = Re m + r Im m.  Cyclic Jacobi on a applies each rotation to
    b = Im m as well, so the sweeps end with a = O^T (Re m + r Im m) O and
    b = O^T Im(m) O, whose diagonals give D.  Rows whose O^T m O keeps an
    off-diagonal entry take a closing round of as many sweeps again on the
    pair (a, Im m - r Re m), each rotation chosen on the member whose 2x2
    block spreads wider.  Two eigenvalues that tie in one member differ in
    the other; a fixed second member alone has ties of its own (Im m at
    the eigenvalues 1 and -1), and a rotation chosen on a tied block, gap
    and off-diagonal both round-off, would mix eigenvectors the other
    member had separated.  An off-diagonal E left beside an eigenvalue gap
    g moves D by about E^2 / g.
    """
    a = m.real + _MIX * m.imag
    b = m.imag.copy()
    for _ in range(_JACOBI_SWEEPS):
        _sweep(a, b)
    eig = np.empty((m.shape[1], 4), dtype=complex)
    eig.real = (a[_SYM_DIAG] - _MIX * b[_SYM_DIAG]).T
    eig.imag = b[_SYM_DIAG].T
    tied = np.flatnonzero(_largest_off_diagonal(a, b) > _TIE_TOL)
    if tied.size:
        x, y = a[:, tied], b[:, tied]
        w = 1.0 + _MIX * _MIX
        y *= w
        y -= _MIX * x  # Im m - r Re m, as wide as the mix
        for _ in range(_JACOBI_SWEEPS):
            _sweep(x, y, split=True)
        xd, yd = x[_SYM_DIAG], y[_SYM_DIAG]
        eig[tied] = ((xd - _MIX * yd) + 1j * (yd + _MIX * xd)).T / w
    return eig


def _sweep(x: np.ndarray, y: np.ndarray, split: bool = False) -> None:
    """One cyclic Jacobi sweep on two (10, n) upper triangles, in place: its
    rotations zero x's off-diagonal and turn y along.  With ``split``, each
    rotation is chosen on whichever of x's and y's 2x2 blocks spreads wider,
    and zeroes that block's off-diagonal: a pair that one member leaves
    tied, off-diagonal and gap both round-off, is turned by the other."""
    for pp, qq, pq, others in _JACOBI_PAIRS:
        # t = tan(theta) of the rotation that zeroes x[pq], |theta| <= pi/4
        # (_TINY turns 0/0 into t = 0 where x[pq] = 0 already).
        xpq = x[pq]
        d = x[qq] - x[pp]
        if split:
            ypq, dy = y[pq], y[qq] - y[pp]
            wider = dy * dy + 4.0 * ypq * ypq > d * d + 4.0 * xpq * xpq
            xpq, d = np.where(wider, ypq, xpq), np.where(wider, dy, d)
        den = np.abs(d) + np.sqrt(d * d + 4.0 * xpq * xpq) + _TINY
        t = np.copysign(2.0, d) * xpq / den
        c = 1.0 / np.sqrt(1.0 + t * t)
        s = t * c
        if not split:
            shift = t * xpq
            x[pp] -= shift
            x[qq] += shift
            x[pq] = 0.0
        # y's (p, q) block, and with split x's too, turns by 2 theta about
        # its mean diagonal.
        cos2, sin2 = c * c - s * s, 2.0 * c * s
        for z in (x, y) if split else (y,):
            zpp, zqq, zpq = z[pp], z[qq], z[pq]
            mean, half = 0.5 * (zpp + zqq), 0.5 * (zpp - zqq)
            turned = half * cos2 - zpq * sin2
            zpq *= cos2
            zpq += half * sin2
            np.add(mean, turned, out=zpp)
            np.subtract(mean, turned, out=zqq)
        # The other rows r turn by theta: u <- c u - s v, v <- s u + c v
        # for (u, v) = (row (r, p), row (r, q)), of x and of y alike.
        for rp, rq in others:
            for u, v in ((x[rp], x[rq]), (y[rp], y[rq])):
                su = s * u
                u *= c
                u -= s * v
                v *= c
                v += su


def _largest_off_diagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The largest |Re| and |Im| off the diagonal of each O^T m O, (n,),
    from the sweeps' a and b: a running maximum over the six rows."""
    off = np.zeros(a.shape[1])
    for k in _SYM_OFF:
        np.maximum(off, np.abs(a[k] - _MIX * b[k]), out=off)
        np.maximum(off, np.abs(b[k]), out=off)
    return off


def _upper_congruence(u: np.ndarray) -> np.ndarray:
    """m = U_B^T U_B of a contiguous (4, 4, n) stack as its upper triangle,
    (10, n); ``u`` is overwritten with V = U @ _MAGIC_BASIS.

    Each column pair (a, b) of ``_MAGIC_PAIRS`` is formed over the basis'
    nonzero entries with one saved column: column j of V is
    B[a, j] U[:, a] + B[b, j] U[:, b], and adding +0 to that sum gives the
    bits of the sum started from zero, signs of zeros included.  Then
    m = V^T P V as in :func:`_det_and_congruence`: entry (i, j) is
    X[i, j] + X[j, i] with X[i, j] = v0i v3j - v1i v2j.
    """
    first, term = np.empty((2, 4, u.shape[2]), dtype=complex)
    for a, b in _MAGIC_PAIRS:
        x, y = u[:, a], u[:, b]
        first[...] = x
        np.multiply(_MAGIC_BASIS[a, a], first, out=x)
        x += np.multiply(_MAGIC_BASIS[b, a], y, out=term)
        x += 0.0
        np.multiply(_MAGIC_BASIS[a, b], first, out=first)
        first += np.multiply(_MAGIC_BASIS[b, b], y, out=term)
        np.add(first, 0.0, out=y)
    del first, term
    v = u  # V now
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
    rotations applied before or after the gate.  It comes from Makhlin's
    trace formulas (:func:`_trace_invariants`), with no eigenvalues, and
    lies within about 3e-15 of ``g_from_c`` of :func:`canonical_coords`.
    """
    det, m = _det_and_congruence(require_unitary(U)[None])
    g = _trace_invariants(det, m.trace(axis1=1, axis2=2), (m * m).sum(axis=(1, 2)))
    return LocalInvariants(*g[0].tolist())


def g_from_c(c, /):
    """Invariant triple from chamber coordinates; broadcasts over (..., 3).

    With s and p the sum and product of cos(2 c_i), g1 = (s + p) / 4,
    g2 = prod sin(2 c_i) / 4 and g3 = s.  Returns an array of shape
    (..., 3); ``LocalInvariants(*g_from_c(c).tolist())`` gives the
    validated triple of one point.
    """
    two_c = 2.0 * np.asarray(c, dtype=float)
    cos2, sin2 = np.cos(two_c), np.sin(two_c)
    del two_c  # freed before g is allocated: three (..., 3) arrays at most
    g = np.empty(cos2.shape[:-1] + (3,))
    total = np.add.reduce(cos2, axis=-1, out=g[..., 2])  # g3
    g[..., 0] = 0.25 * (total + np.multiply.reduce(cos2, axis=-1))
    g[..., 1] = 0.25 * np.multiply.reduce(sin2, axis=-1)
    return g


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
    shift = g3 / 3.0
    x, y, w = (m * np.cos(phi - 2.0 * np.pi * k / 3.0) + shift for k in (0.0, 1.0, 2.0))
    # A three-comparator sorting network writes the roots into the columns
    # of c in ascending order, so the largest |root| is at an end.
    c = np.empty((len(g), 3))
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    mid = np.minimum(hi, w, out=x)
    np.maximum(hi, w, out=c[:, 2])
    np.minimum(lo, mid, out=c[:, 0])
    np.maximum(lo, mid, out=c[:, 1])
    over = np.maximum(-c[:, 0], c[:, 2]) - 1.0
    bad = (p > budget) | (np.abs(q) - edge > budget) | (over > np.cbrt(budget))
    if bad.any():
        raise InvalidInvariantsError(
            f"no gate has the invariants {tuple(g[bad][0])}, not even within round-off"
        )
    np.clip(c, -1.0, 1.0, out=c)
    np.arccos(c, out=c)
    c /= 2.0
    np.subtract(np.pi, c[:, 0], out=c[:, 0], where=g2 < 0.0)
    return c


def c_from_g(g1: float, g2: float, g3: float) -> CanonicalCoords:
    """Chamber point with the given invariants.

    Raises :class:`InvalidInvariantsError` when no such point exists
    (beyond the round-off budget ``CLAMP_BUDGET``) and
    :class:`ConsistencyError` if the recovered point unexpectedly misses
    the chamber.

    Accuracy is that of the cubic's roots, measured on ``g_from_c`` of
    chamber points.  Most of the bulk comes back to about 1e-15, but not
    all of it: near the interior plane c1 = pi/2, which is no chamber face,
    the arccos of cos(2 c1) ~ -1 is ill-conditioned, and points within
    1e-2 of it lose up to 1.3e-9 (7e-9 within 1e-4); within 0.15 of the
    identity vertex the loss reaches 6e-11.  On faces it is ~sqrt(eps)
    (worst 3e-7), 3e-4 on the edges c2 = c3 = 0 and c1 = c2 = pi/2, and
    2e-3 within 1e-2 of a vertex.  :func:`canonical_coords` of a matrix has
    no such loss.
    """
    validate_invariant_ranges(g1, g2, g3)
    c = _c_from_g_batch(np.array([[g1, g2, g3]], dtype=float))[0]
    if not in_weyl_chamber(c[0], c[1], c[2], tol=1e-8):
        raise ConsistencyError(
            f"recovered coordinates {tuple(c)} are outside the chamber"
        )
    return CanonicalCoords(float(c[0]), float(c[1]), float(c[2]))
