import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from gategeom import quadrature
from gategeom.errors import ValidationError
from gategeom.geometry import weyl_density
from gategeom.quadrature import (
    _BOX_ORDER,
    _CHAMBER,
    _PE_WEDGE,
    REGION_ORDER,
    _box_abs_mass,
    _box_clipped_mass,
    _clipped_blocks,
    _fold,
    _integrate,
    _pe_mass,
    bin_probabilities,
    integrate_over_chamber,
)
from gategeom.volumes import cube_volume_quadrature

PE_VERTICES = np.array(
    [
        (np.pi / 4, np.pi / 4, 0.0),
        (np.pi / 4, np.pi / 4, np.pi / 4),
        (np.pi / 2, 0.0, 0.0),
        (np.pi / 2, np.pi / 2, 0.0),
        (3 * np.pi / 4, np.pi / 4, 0.0),
        (3 * np.pi / 4, np.pi / 4, np.pi / 4),
    ]
)


def _one(c):
    return np.ones(np.asarray(c).shape[:-1])


def _volume(blocks):
    """Coordinate volume of a region: the engine on a constant integrand."""
    return _integrate(_one, blocks, REGION_ORDER)


class TestChamberIntegrals:
    def test_density_normalised(self):
        assert integrate_over_chamber() == pytest.approx(1.0, abs=1e-6)

    def test_coordinate_volume_is_tetrahedral(self):
        # Edge-vector determinant oracle for the chamber tetrahedron with
        # vertices 0, (pi,0,0), (pi/2,pi/2,0), (pi/2,pi/2,pi/2).
        edges = np.array(
            [
                [np.pi, 0.0, 0.0],
                [np.pi / 2, np.pi / 2, 0.0],
                [np.pi / 2, np.pi / 2, np.pi / 2],
            ]
        )
        oracle = abs(np.linalg.det(edges)) / 6.0
        assert _volume(_CHAMBER) == pytest.approx(oracle, rel=1e-12)


class TestPerfectEntanglerIntegrals:
    def test_mass(self):
        assert _pe_mass(REGION_ORDER) == pytest.approx(8.0 / (3.0 * np.pi), abs=1e-6)

    def test_coordinate_volume_matches_convex_hull(self):
        hull = ConvexHull(PE_VERTICES)
        assert _volume(_PE_WEDGE) == pytest.approx(hull.volume, abs=1e-9)

    def test_wedge_is_half_the_chamber_by_volume(self):
        assert _volume(_PE_WEDGE) == pytest.approx(_volume(_CHAMBER) / 2.0, rel=1e-12)


class TestBoxIntegrals:
    def test_interior_box_clipping_is_a_no_op(self):
        lo = np.array([0.8, 0.4, 0.15])
        hi = np.array([1.0, 0.6, 0.35])
        unclipped = _box_abs_mass(lo, hi)
        clipped = _box_clipped_mass(lo, hi)
        assert abs(unclipped - clipped) < 1e-12

    def test_origin_cube_clips_to_one_forty_eighth(self):
        """[-a, a]^3 meets the chamber in one of 48 congruent images
        (6 orderings x 8 sign patterns) of equal reflected-density mass."""
        a = 0.3
        unclipped = _box_abs_mass([-a] * 3, [a] * 3)
        clipped = _box_clipped_mass([-a] * 3, [a] * 3)
        assert clipped == pytest.approx(unclipped / 48.0, rel=1e-6)

    def test_pi_translation_invariance(self):
        lo = np.array([0.8, 0.4, 0.15])
        hi = np.array([1.0, 0.6, 0.35])
        base = _box_abs_mass(lo, hi)
        shifted = _box_abs_mass(lo + [np.pi, 0, 0], hi + [np.pi, 0, 0])
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_axis_permutation_invariance(self):
        base = _box_abs_mass([0.8, 0.4, 0.15], [1.0, 0.6, 0.35])
        permuted = _box_abs_mass([0.4, 0.15, 0.8], [0.6, 0.35, 1.0])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_reflection_invariance(self):
        base = _box_abs_mass([0.8, 0.4, 0.15], [1.0, 0.6, 0.35])
        mirrored = _box_abs_mass([-1.0, 0.4, 0.15], [-0.8, 0.6, 0.35])
        assert mirrored == pytest.approx(base, rel=1e-12)

    def test_spectral_convergence_in_order(self):
        """Random boxes, clipped to the chamber and folded into
        [0, pi/2]^3 as the unclipped mass integrates them: orders 12 and
        the fixed box order land within 1e-13 of order 40 (measured worst
        2.8e-15 over 584 boxes)."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            lo = rng.uniform(-0.5, 3.0, 3)
            hi = lo + rng.uniform(0.05, 2.0, 3)
            boxes = [(lo, hi)] + [
                tuple(zip(*image))
                for pieces in itertools.product(*(_fold(a, b) for a, b in zip(lo, hi)))
                for image in itertools.permutations(pieces)
            ]
            for box in boxes:
                blocks = _clipped_blocks(*box)
                fine = _integrate(weyl_density, blocks, 40)
                for order in (12, _BOX_ORDER):
                    assert _integrate(weyl_density, blocks, order) == pytest.approx(
                        fine, rel=0, abs=1e-13
                    )

    def test_box_holding_the_chamber_clips_to_one(self):
        whole = _box_clipped_mass([-0.5, -0.2, -0.3], [3.5, 2.0, 1.7])
        assert whole == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "center, twin",
        [
            # z faces 5e-13 below the y faces: the y cut at bz1 is dropped,
            # and the z top must still be y below it.
            ((1.0, 0.5, 0.5 - 5e-13), (1.0, 0.5, 0.5)),
            # bz0 5e-13 below by1: only a sliver of y lies above z0.
            ((1.2, 0.5, 0.7 - 5e-13), None),
        ],
    )
    def test_clipped_faces_closer_than_eps(self, center, twin):
        mass = cube_volume_quadrature(center, 0.2, clip="chamber")
        if twin is None:
            assert 0.0 <= mass < 1e-30
        else:
            twin_mass = cube_volume_quadrature(twin, 0.2, clip="chamber")
            assert mass == pytest.approx(twin_mass, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @example(lo=(0.0, 0.0, 1e-14), side=(2.0, 1.0, 1.0), axis=0, at=0.5)
    @given(
        # Corners near the chamber, so that most clipped boxes are not empty.
        lo=st.tuples(st.floats(-0.5, 2.8), st.floats(-0.5, 1.2), st.floats(-0.5, 1.2)),
        side=st.tuples(*[st.floats(0.05, 2.0)] * 3),
        axis=st.integers(0, 2),
        at=st.floats(0.05, 0.95),
    )
    def test_split_box_masses_add_up(self, lo, side, axis, at):
        lo = np.array(lo)
        hi = lo + np.array(side)
        cut = lo[axis] + at * side[axis]
        lower_hi, upper_lo = hi.copy(), lo.copy()
        lower_hi[axis] = upper_lo[axis] = cut
        for mass in (_box_abs_mass, _box_clipped_mass):
            whole = mass(lo, hi)
            assert mass(lo, lower_hi) + mass(upper_lo, hi) == pytest.approx(
                whole, rel=1e-12, abs=1e-15
            )

    @settings(max_examples=50, deadline=None)
    @given(lo=st.floats(-7.0, 7.0), side=st.floats(1e-9, 7.0))
    def test_fold_keeps_the_width_inside_a_quarter(self, lo, side):
        hi = lo + side
        pieces = _fold(lo, hi)
        assert all(0.0 <= a < b <= np.pi / 2 for a, b in pieces)
        width = sum((b - a) * n for (a, b), n in pieces.items())
        assert width == pytest.approx(hi - lo, rel=1e-12, abs=1e-14)

    def test_fold_of_a_sliver_across_a_wall(self):
        assert _fold(-1e-7, 1e-7) == {(0.0, 1e-7): 2}

    def test_fold_of_whole_quarters(self):
        q = math.pi / 2
        assert _fold(-q, 2 * q) == {(0.0, q): 3}
        assert _fold(3 * q, 5 * q) == {(0.0, q): 2}

    def test_fold_counts_the_cells_the_loop_visits(self):
        """Same pieces, counts and order as visiting every cell: random
        intervals, ends on multiples of pi/2 and one float either side of
        them, and long intervals up to 1e6."""
        rng = np.random.default_rng(44)
        q = math.pi / 2
        centers, sides = rng.uniform(-50.0, 50.0, 3000), 10.0 ** rng.uniform(-12.0, 3.0, 3000)
        intervals = [(c - s / 2, c + s / 2) for c, s in zip(centers.tolist(), sides.tolist())]
        for j in range(-6, 7):
            for i in range(j + 1, j + 8):
                lo, hi = j * q, i * q
                intervals += [(lo, hi), (lo, hi - 0.3), (lo + 0.3, hi)]
                intervals += [(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)),
                              (math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf))]
        intervals += [(0.3 - s / 2, 0.3 + s / 2) for s in (1e4, 1e5, 1e6)] + [(-1e6, 0.7)]
        for lo, hi in intervals:
            assert list(_fold(lo, hi).items()) == list(fold_by_cells(lo, hi).items()), (lo, hi)

    def test_long_boxes_take_constant_time(self):
        """Visiting every cell takes time in proportion to the side; with
        the whole cells counted, side 1e12 returns at once, and the mass
        grows as the side cubed, up to the end pieces."""
        big = cube_volume_quadrature((0.0, 0.0, 0.0), 1e12)
        assert cube_volume_quadrature((0.0, 0.0, 0.0), 2e12) == pytest.approx(8.0 * big, rel=1e-9)

    def test_box_whose_images_overflow_a_float_is_rejected(self):
        """It raised a bare OverflowError, which the command line does not map."""
        with pytest.raises(ValidationError, match="too many images"):
            cube_volume_quadrature((0.0, 0.0, 0.0), 1e300)

    def test_corner_validation(self):
        """Boxes reach the engines as cubes, validated by the cube route."""
        with pytest.raises(ValidationError):
            cube_volume_quadrature([0.0, 0.0], 1.0, clip="chamber")
        with pytest.raises(ValidationError):
            cube_volume_quadrature([0.5, 0.5, 0.5], -0.1, clip="chamber")


def fold_by_cells(lo, hi):
    """The fold by visiting every cell between the ends, one at a time:
    the reference for ``_fold``'s count of the whole cells."""
    q, pieces = math.pi / 2, Counter()
    for k in range(math.floor(lo / q) - 1, math.ceil(hi / q) + 1):
        m, n = k * q, (k + 1) * q
        a, b = max(lo, m), min(hi, n)
        if a < b and k % 2 == 0:
            pieces[a - m, q if b == n else b - m] += 1
        elif a < b:
            pieces[n - b, q if a == m else n - a] += 1
    return pieces


@pytest.fixture(scope="module")
def bins():
    return bin_probabilities()


def bin_probabilities_every_cell():
    """The bin grid with every cell integrated, c1 > pi/2 included."""
    n = quadrature._BINS
    e1 = np.linspace(0.0, np.pi, n + 1)
    e2 = np.linspace(0.0, np.pi / 2, n + 1)
    rows, groups = [], []
    for i, j in itertools.product(range(n), range(n)):
        for k in range(j + 1):
            cell = _clipped_blocks((e1[i], e2[j], e2[k]), (e1[i + 1], e2[j + 1], e2[k + 1]))
            rows += cell
            groups += [(i * n + j) * n + k] * len(cell)
    out = _integrate(weyl_density, rows, quadrature._BIN_ORDER, np.array(groups), n**3)
    return out.reshape(n, n, n)


class TestBinProbabilities:
    def test_mirrored_half_matches_every_cell_integrated(self, bins):
        """Cell i along c1 is the mirror of cell 29 - i; measured worst
        deviation from integrating it 2.8e-18."""
        assert np.array_equal(bins, bins[::-1])
        np.testing.assert_allclose(bins, bin_probabilities_every_cell(), rtol=0, atol=1e-17)

    def test_partition_of_unity(self):
        P = bin_probabilities()
        assert P.shape == (30, 30, 30)
        assert P.min() >= 0.0
        assert abs(P.sum() - 1.0) < 1e-13

    def test_peak_cell_sits_at_the_density_maximum(self):
        P = bin_probabilities()
        i, j, k = np.unravel_index(np.argmax(P), P.shape)
        centre = (
            (i + 0.5) * np.pi / 30,
            (j + 0.5) * np.pi / 60,
            (k + 0.5) * np.pi / 60,
        )
        # Maximum density lives at (pi/2, pi/4, 0) on the lower c3 face.
        assert abs(centre[0] - np.pi / 2) < np.pi / 30
        assert abs(centre[1] - np.pi / 4) < np.pi / 60
        assert k == 0

    @pytest.mark.parametrize(
        "cell",
        [
            (15, 10, 4),  # interior
            (3, 6, 2),  # crossed by the wall c2 = c1
            (26, 7, 3),  # crossed by the wall c2 = pi - c1
            (3, 6, 6),  # crossed by c2 = c1 and cut by c3 = c2
            (14, 29, 29),  # the apex below c1 = pi/2: c2 = c1 and c3 = c2
            (15, 29, 0),  # the apex above c1 = pi/2, on the c3 = 0 face
            (3, 20, 5),  # above the wall c2 = c1: empty
            (10, 3, 5),  # above the wall c3 = c2: empty
        ],
    )
    def test_cells_match_clipped_boxes(self, bins, cell):
        i, j, k = cell
        e1 = np.linspace(0.0, np.pi, 31)
        e2 = np.linspace(0.0, np.pi / 2, 31)
        box = _box_clipped_mass(
            [e1[i], e2[j], e2[k]], [e1[i + 1], e2[j + 1], e2[k + 1]]
        )
        assert box == pytest.approx(bins[i, j, k], rel=0, abs=1e-15)
