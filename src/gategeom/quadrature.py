"""Deterministic quadrature over regions of coordinate space.

Every integral in the package runs on the Gauss-Legendre nodes cached
here: integrals over regions through one engine, :func:`_integrate`,
and the one-dimensional integrals of the invariant-space bodies and of
the elliptic check through its line form, :func:`_integrate_line`.  A
region is a list of blocks with affine limits, cut so that the integrand
is analytic inside each block, and tensor Gauss-Legendre places
``order`` nodes per axis in every block.  Convergence is spectral, and
each kind of region has its order as a module constant, at which its
rule is converged to round-off.

A block is one row of 12 floats::

    x0, x1,  a0, a1, b0, b1,  p0, p1, p2, q0, q1, q2

meaning x in [x0, x1], y in [a0 + a1 x, b0 + b1 x] and
z in [p0 + p1 x + p2 y, q0 + q1 x + q2 y].  The generators below write
the chamber, the perfect-entangler wedge, chamber-clipped boxes (and so
histogram bins) and crease-split boxes of the reflected density as such
lists.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import weyl_density

_PI = np.pi
_EPS = 1e-12

#: Gauss-Legendre order for the chamber and the wedge, whose blocks are
#: few and large; exact to about 1e-15.
REGION_ORDER = 12
#: Gauss-Legendre order in every block of a box; orders 12 to 40 agree
#: within 2e-14 on random boxes of either clip mode.
_BOX_ORDER = 20

# Nodes per vectorised pass; bounds the temporaries at a few megabytes.
_NODES_PER_PASS = 1 << 16

# The line rule: this many nodes on each of this many pieces.
_LINE_ORDER = 24
_LINE_PIECES = 40

# 0 <= z <= y <= x for x <= pi/2, and y <= pi - x beyond.
_CHAMBER = np.array(
    [
        [0.0, _PI / 2, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [_PI / 2, _PI, 0.0, 0.0, _PI, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
)

# The wedge is cut by the planes c1 + c2 = pi/2, c1 - c2 = pi/2 and
# c2 + c3 = pi/2; splitting c1 at pi/2 and c2 at pi/4 leaves blocks whose
# limits are single affine functions.
_PE_WEDGE = np.array(
    [
        [_PI / 4, _PI / 2, _PI / 2, -1.0, _PI / 4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [_PI / 4, _PI / 2, _PI / 4, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, _PI / 2, 0.0, -1.0],
        [_PI / 2, 3 * _PI / 4, -_PI / 2, 1.0, _PI / 4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [_PI / 2, 3 * _PI / 4, _PI / 4, 0.0, _PI, -1.0, 0.0, 0.0, 0.0, _PI / 2, 0.0, -1.0],
    ]
)


@lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _nodes(lo, hi, t, w):
    """Map unit nodes onto [lo, hi] along a new trailing axis."""
    mid, rad = (lo + hi)[..., None] / 2.0, (hi - lo)[..., None] / 2.0
    return mid + rad * t, rad * w


def _integrate(fn, blocks, order: int, groups=None, n_groups: int = 0):
    """Tensor Gauss-Legendre integral of ``fn(c)`` over a list of blocks.

    ``fn`` maps (..., 3) coordinates to values.  Returns the total, or,
    when ``groups`` gives a non-negative integer per block, the sum of
    each group as an array of length at least ``n_groups``.
    """
    t, w = _gauss_legendre(order)
    blocks = np.asarray(blocks, dtype=float).reshape(-1, 12)
    sums = np.empty(len(blocks))
    step = max(1, _NODES_PER_PASS // order**3)
    for s in range(0, len(blocks), step):
        x0, x1, a0, a1, b0, b1, p0, p1, p2, q0, q1, q2 = blocks[s : s + step].T[:, :, None]
        x, wx = _nodes(x0[:, 0], x1[:, 0], t, w)  # (B, N)
        y, wy = _nodes(a0 + a1 * x, b0 + b1 * x, t, w)  # (B, N, N)
        z, wz = _nodes(  # (B, N, N, N)
            (p0 + p1 * x)[..., None] + p2[..., None] * y,
            (q0 + q1 * x)[..., None] + q2[..., None] * y,
            t,
            w,
        )
        c = np.empty(z.shape + (3,))
        c[..., 0] = x[:, :, None, None]
        c[..., 1] = y[..., None]
        c[..., 2] = z
        inner = np.einsum("bijk,bijk->bij", wz, fn(c))
        sums[s : s + step] = np.einsum("bi,bij,bij->b", wx, wy, inner)
    if groups is None:
        return float(sums.sum())
    return np.bincount(groups, weights=sums, minlength=n_groups)


def _integrate_line(fn, lo: float, hi: float) -> float:
    """Composite Gauss-Legendre integral of ``fn`` over [lo, hi].

    The pieces shrink by a factor 4 towards ``lo``, the last one 4**-39
    of the interval, so a kink or an integrable singularity at ``lo`` of
    any width down to that is resolved, while an integrand analytic on
    the whole interval loses nothing.  Write the integrand in the
    distance from its near-singular end, so that nodes close to it keep
    their relative precision.
    """
    t, w = _gauss_legendre(_LINE_ORDER)
    edges = lo + (hi - lo) * 0.25 ** np.arange(_LINE_PIECES, -1.0, -1.0)
    edges[0] = lo
    x, wx = _nodes(edges[:-1], edges[1:], t, w)
    return float(np.sum(wx * fn(x)))


def integrate_over_chamber() -> float:
    """Mass of the chamber under the density, 1 up to quadrature error."""
    return _integrate(weyl_density, _CHAMBER, REGION_ORDER)


def _pe_mass(order: int) -> float:
    """Mass of the perfect-entangler wedge at the given order."""
    return _integrate(weyl_density, _PE_WEDGE, order)


# ---------------------------------------------------------------------------
# Boxes.


def _split_points(lo: float, hi: float, candidates) -> list[float]:
    """Sorted piece edges: lo, hi and the candidates strictly inside."""
    pts = [lo]
    for p in sorted(float(c) for c in candidates if lo + _EPS < c < hi - _EPS):
        if p - pts[-1] > _EPS:
            pts.append(p)
    pts.append(hi)
    return pts


def _traces(v: float, lo: float, hi: float) -> list[tuple[float, float]]:
    """``(m pi, sign)`` of every line ``sign * v + m pi`` strictly inside (lo, hi)."""
    out = []
    for sign in (1.0, -1.0):
        for m in range(math.floor((lo - sign * v) / _PI), math.ceil((hi - sign * v) / _PI) + 1):
            if lo + _EPS < sign * v + m * _PI < hi - _EPS:
                out.append((m * _PI, sign))
    return out


def _shifted(vals, lo: float, hi: float) -> list[float]:
    """All points +-v + m pi strictly inside (lo, hi)."""
    return [sign * v + off for v in vals for off, sign in _traces(v, lo, hi)]


def _crease_blocks(lo, hi) -> list[list[float]]:
    """An axis-aligned box cut along every crease of the reflected density.

    The signed density changes sign only across the planes
    c_i = +-c_j + m pi.  The z edges of a piece are the box faces and the
    traces z = +-x + m pi and z = +-y + m pi; the y edges are the faces,
    the traces y = +-x + m pi, the points where a z trace enters or
    leaves the z range (y = +-z_end + m pi) and where two z traces cross
    (y = m pi / 2); x is cut at the images of all of those.  No edge then
    meets another inside a piece, so membership and order, classified at
    the piece centre, hold throughout, every limit is affine and the
    density keeps one sign inside every block.
    """
    (x0, y0, z0), (x1, y1, z1) = (float(v) for v in lo), (float(v) for v in hi)
    xs = _split_points(x0, x1, _shifted([y0, y1, z0, z1, 0.0, _PI / 2], x0, x1))
    y_cuts = [(v, 0.0) for v in _split_points(y0, y1, _shifted([z0, z1, 0.0, _PI / 2], y0, y1))]
    rows = []
    for xa, xb in zip(xs[:-1], xs[1:]):
        xm = 0.5 * (xa + xb)
        y_edges = sorted(y_cuts + _traces(xm, y0, y1), key=lambda e: e[0] + e[1] * xm)
        zx = [(z0, 0.0, 0.0), (z1, 0.0, 0.0)] + [(off, s, 0.0) for off, s in _traces(xm, z0, z1)]
        for (a0, a1), (b0, b1) in zip(y_edges[:-1], y_edges[1:]):
            ym = 0.5 * (a0 + b0 + (a1 + b1) * xm)
            z_edges = sorted(
                zx + [(off, 0.0, s) for off, s in _traces(ym, z0, z1)],
                key=lambda e: e[0] + e[1] * xm + e[2] * ym,
            )
            for zlo, zhi in zip(z_edges[:-1], z_edges[1:]):
                rows.append([xa, xb, a0, a1, b0, b1, *zlo, *zhi])
    return rows


def _box_abs_mass(lo, hi) -> float:
    """Integral of the absolute reflected density over an axis-aligned box.

    ``lo`` and ``hi`` are length-3 corner coordinates (c1, c2, c3 axes),
    ``hi`` dominating ``lo``.  The box is cut along every crease of
    |density| (see :func:`_crease_blocks`), so every block sees an
    analytic integrand and convergence is spectral in the order.
    """
    return _integrate(weyl_density, _crease_blocks(lo, hi), _BOX_ORDER)


def _clipped_blocks(lo, hi) -> list[list[float]]:
    """The chamber cut by an axis-aligned box, as blocks with affine limits.

    In the chamber 0 <= z <= y <= cap(x) = min(x, pi - x), so inside the
    box y runs from max(by0, 0) to min(by1, cap(x)) and z from
    max(bz0, 0) to min(bz1, y).  Cutting x at pi/2 and wherever cap(x)
    meets a y or z face, and y at the z faces, leaves a single affine
    branch for each min and max on every piece.
    """
    (bx0, by0, bz0), (bx1, by1, bz1) = (float(v) for v in lo), (float(v) for v in hi)
    x0, x1 = max(bx0, 0.0), min(bx1, _PI)
    y0, z0 = max(by0, 0.0), max(bz0, 0.0)
    if x1 <= x0 or by1 <= max(y0, z0) or bz1 <= z0:
        return []
    faces = (by0, by1, bz0, bz1)
    xs = _split_points(x0, x1, [_PI / 2, *faces, *(_PI - v for v in faces)])
    ys = _split_points(y0, by1, [bz0, bz1])
    rows = []
    for xa, xb in zip(xs[:-1], xs[1:]):
        xm = 0.5 * (xa + xb)
        cap = (0.0, 1.0) if xm < _PI / 2 else (_PI, -1.0)
        cap_mid = cap[0] + cap[1] * xm
        for ya, yb in zip(ys[:-1], ys[1:]):
            if ya >= cap_mid or yb <= z0:
                continue
            y_hi = (yb, 0.0) if yb <= cap_mid else cap
            z_hi = (0.0, 0.0, 1.0) if yb <= bz1 else (bz1, 0.0, 0.0)
            rows.append([xa, xb, ya, 0.0, *y_hi, z0, 0.0, 0.0, *z_hi])
    return rows


def _box_clipped_mass(lo, hi) -> float:
    """Mass of the chamber density inside box-and-chamber intersection."""
    return _integrate(weyl_density, _clipped_blocks(lo, hi), _BOX_ORDER)


#: Cells per axis of the bin grid over [0, pi] x [0, pi/2] x [0, pi/2];
#: even, so that c1 = pi/2 is a cell edge.
_BINS = 30
#: Gauss-Legendre order per axis in each piece of a bin cell.
_BIN_ORDER = 8


def bin_probabilities() -> np.ndarray:
    """Exact chamber-density mass of each cell of a regular coordinate grid.

    The grid has 30 cells (``_BINS``) along each axis of [0, pi] x
    [0, pi/2] x [0, pi/2].  Each cell is the chamber clipped to a box;
    the result sums to 1 up to quadrature error.
    """
    n = _BINS
    e1 = np.linspace(0.0, _PI, n + 1)
    e2 = np.linspace(0.0, _PI / 2, n + 1)
    rows, groups = [], []
    for i in range(n):
        for j in range(n):
            for k in range(j + 1):  # z <= y in the chamber
                cell = _clipped_blocks((e1[i], e2[j], e2[k]), (e1[i + 1], e2[j + 1], e2[k + 1]))
                rows += cell
                groups += [(i * n + j) * n + k] * len(cell)
    out = _integrate(weyl_density, rows, _BIN_ORDER, np.array(groups, dtype=np.intp), n**3)
    return out.reshape(n, n, n)
