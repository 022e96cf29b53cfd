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
z in [p0 + p1 x + p2 y, q0 + q1 x + q2 y].  The chamber and the
perfect-entangler wedge are fixed lists; every box is cut by one
generator, :func:`_clipped_blocks`, which clips it to the chamber.  That
serves histogram bins and chamber-clipped cubes directly, and unclipped
boxes of the reflected density once :func:`_fold` has folded them into
[0, pi/2]^3.
"""
from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .geometry import weyl_density

_PI = np.pi
_EPS = 1e-12

#: Gauss-Legendre order for the chamber and the wedge, whose blocks are
#: few and large; exact to about 1e-15.
REGION_ORDER = 12
#: Gauss-Legendre order in every block of a box; orders 12 to 40 agree
#: within 1.6e-14 absolute on 200 random boxes of either clip mode.
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


def _clipped_blocks(lo, hi) -> list[list[float]]:
    """The chamber cut by an axis-aligned box, as blocks with affine limits.

    In the chamber 0 <= z <= y <= cap(x) = min(x, pi - x), so inside the
    box z runs from max(bz0, 0) to min(bz1, y), and y, which cannot lie
    below z, from max(by0, bz0, 0) to min(by1, cap(x)).  Cutting x at
    pi/2 and wherever cap(x) meets a y or z face, and y at bz1, leaves a
    single affine branch for each min and max on every piece.  A branch
    is chosen at the piece's middle, so a cut dropped because two faces
    lie within ``_EPS`` of each other costs a sliver, never a sign.
    """
    (bx0, by0, bz0), (bx1, by1, bz1) = (float(v) for v in lo), (float(v) for v in hi)
    x0, x1 = max(bx0, 0.0), min(bx1, _PI)
    y0, z0 = max(by0, bz0, 0.0), max(bz0, 0.0)
    if x1 <= x0 or by1 <= y0 or bz1 <= z0:
        return []
    faces = (by0, by1, bz0, bz1)
    xs = _split_points(x0, x1, [_PI / 2, *faces, *(_PI - v for v in faces)])
    ys = _split_points(y0, by1, [bz1])
    rows = []
    for xa, xb in zip(xs[:-1], xs[1:]):
        xm = 0.5 * (xa + xb)
        cap = (0.0, 1.0) if xm < _PI / 2 else (_PI, -1.0)
        cap_mid = cap[0] + cap[1] * xm
        for ya, yb in zip(ys[:-1], ys[1:]):
            if ya >= cap_mid:
                continue
            y_hi = (yb, 0.0) if yb <= cap_mid else cap
            z_hi = (0.0, 0.0, 1.0) if ya + yb <= 2 * bz1 else (bz1, 0.0, 0.0)
            rows.append([xa, xb, ya, 0.0, *y_hi, z0, 0.0, 0.0, *z_hi])
    return rows


def _box_clipped_mass(lo, hi) -> float:
    """Mass of the chamber density inside box-and-chamber intersection."""
    return _integrate(weyl_density, _clipped_blocks(lo, hi), _BOX_ORDER)


def _fold(lo: float, hi: float) -> Counter:
    """[lo, hi] cut at multiples of pi/2, each piece reflected into [0, pi/2].

    |density| is even and pi-periodic in each coordinate, so the piece in
    [k pi/2, (k+1) pi/2] maps by c - k pi/2 for even k and (k+1) pi/2 - c
    for odd k.  Each end takes one subtraction from the exact multiple,
    and an end on a cut maps onto the wall, so no piece loses width.
    Returns the (a, b) images with their multiplicities, in cell order.
    """
    q, pieces = _PI / 2, Counter()
    # first: the least k with k q >= lo; end: the greatest with k q <= hi
    # (rounding of the quotients moves either by one at most).  Cells first
    # to end - 1 lie whole in [lo, hi] and each maps onto (0, pi/2): they
    # are counted at once, so the cost does not grow with the length.
    first, end = math.ceil(lo / q), math.floor(hi / q)
    first += int(first * q < lo) - int((first - 1) * q >= lo)
    end += int((end + 1) * q <= hi) - int(end * q > hi)
    for k in dict.fromkeys((first - 1, first, end)):
        if first <= k < end:
            pieces[0.0, q] += end - first
            continue
        m, n = k * q, (k + 1) * q
        a, b = max(lo, m), min(hi, n)
        if a < b and k % 2 == 0:
            pieces[a - m, q if b == n else b - m] += 1
        elif a < b:
            pieces[n - b, q if a == m else n - a] += 1
    return pieces


def _box_abs_mass(lo, hi) -> float:
    """Integral of the absolute reflected density over an axis-aligned box.

    ``lo`` and ``hi`` are length-3 corner coordinates (c1, c2, c3 axes),
    ``hi`` dominating ``lo``.  |density| is also symmetric in its
    coordinates, so the box's mass is that of its folded images in
    [0, pi/2]^3, each taken in all six orders of its sides and clipped to
    the chamber part c3 <= c2 <= c1 there.  Identical images are
    integrated once and weighted by their multiplicity.  Each image's
    mass is at most 1, so a box whose multiplicities sum beyond the
    largest float is rejected.
    """
    images = Counter()
    for pieces in itertools.product(*(_fold(float(a), float(b)).items() for a, b in zip(lo, hi))):
        weight = math.prod(n for _, n in pieces)
        for image in itertools.permutations(side for side, _ in pieces):
            images[image] += weight
    if sum(images.values()) > sys.float_info.max:
        raise ValidationError(f"the box from {lo} to {hi} holds too many images for a float mass")
    blocks = [_clipped_blocks(*zip(*image)) for image in images]
    groups = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    rows = list(itertools.chain.from_iterable(blocks))
    sums = _integrate(weyl_density, rows, _BOX_ORDER, groups, len(blocks))
    return float(sums @ np.array(list(images.values()), dtype=float))


#: Cells per axis of the bin grid over [0, pi] x [0, pi/2] x [0, pi/2];
#: even, so that c1 = pi/2 is a cell edge.
_BINS = 30
#: Gauss-Legendre order per axis in each piece of a bin cell.
_BIN_ORDER = 8


def bin_probabilities() -> np.ndarray:
    """Exact chamber-density mass of each cell of a regular coordinate grid.

    The grid has 30 cells (``_BINS``) along each axis of [0, pi] x
    [0, pi/2] x [0, pi/2].  Each cell is the chamber clipped to a box;
    the result sums to 1 up to quadrature error.  The chamber and its
    density are symmetric under c1 -> pi - c1, which maps cell i along c1
    to cell 29 - i, so only the cells with c1 <= pi/2 are integrated.
    """
    n, half = _BINS, _BINS // 2
    e1 = np.linspace(0.0, _PI, n + 1)
    e2 = np.linspace(0.0, _PI / 2, n + 1)
    rows, groups = [], []
    for i in range(half):
        for j in range(n):
            for k in range(j + 1):  # z <= y in the chamber
                cell = _clipped_blocks((e1[i], e2[j], e2[k]), (e1[i + 1], e2[j + 1], e2[k + 1]))
                rows += cell
                groups += [(i * n + j) * n + k] * len(cell)
    out = _integrate(weyl_density, rows, _BIN_ORDER, np.array(groups, dtype=np.intp), half * n * n)
    out = out.reshape(half, n, n)
    return np.concatenate([out, out[::-1]])
