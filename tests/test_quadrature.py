import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from gategeom.errors import ValidationError
from gategeom.quadrature import (
    bin_probabilities,
    box_integral_abs_density,
    box_integral_chamber_clipped,
    integrate_over_chamber,
    integrate_pe_region,
)

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
        assert integrate_over_chamber(_one) == pytest.approx(oracle, rel=1e-12)


class TestPerfectEntanglerIntegrals:
    def test_mass(self):
        assert integrate_pe_region() == pytest.approx(8.0 / (3.0 * np.pi), abs=1e-6)

    def test_coordinate_volume_matches_convex_hull(self):
        hull = ConvexHull(PE_VERTICES)
        assert integrate_pe_region(_one) == pytest.approx(hull.volume, abs=1e-9)

    def test_wedge_is_half_the_chamber_by_volume(self):
        assert integrate_pe_region(_one) == pytest.approx(
            integrate_over_chamber(_one) / 2.0, rel=1e-12
        )


class TestBoxIntegrals:
    def test_interior_box_clipping_is_a_no_op(self):
        lo = np.array([0.8, 0.4, 0.15])
        hi = np.array([1.0, 0.6, 0.35])
        unclipped = box_integral_abs_density(lo, hi)
        clipped = box_integral_chamber_clipped(lo, hi)
        assert abs(unclipped - clipped) < 1e-12

    def test_origin_cube_clips_to_one_forty_eighth(self):
        """[-a, a]^3 meets the chamber in one of 48 congruent images
        (6 orderings x 8 sign patterns) of equal reflected-density mass."""
        a = 0.3
        unclipped = box_integral_abs_density([-a] * 3, [a] * 3)
        clipped = box_integral_chamber_clipped([-a] * 3, [a] * 3)
        assert clipped == pytest.approx(unclipped / 48.0, rel=1e-6)

    def test_pi_translation_invariance(self):
        lo = np.array([0.8, 0.4, 0.15])
        hi = np.array([1.0, 0.6, 0.35])
        base = box_integral_abs_density(lo, hi)
        shifted = box_integral_abs_density(lo + [np.pi, 0, 0], hi + [np.pi, 0, 0])
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_axis_permutation_invariance(self):
        base = box_integral_abs_density([0.8, 0.4, 0.15], [1.0, 0.6, 0.35])
        permuted = box_integral_abs_density([0.4, 0.15, 0.8], [0.6, 0.35, 1.0])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_reflection_invariance(self):
        base = box_integral_abs_density([0.8, 0.4, 0.15], [1.0, 0.6, 0.35])
        mirrored = box_integral_abs_density([-1.0, 0.4, 0.15], [-0.8, 0.6, 0.35])
        assert mirrored == pytest.approx(base, rel=1e-12)

    def test_spectral_convergence_in_order(self):
        lo, hi = [0.8, 0.4, 0.15], [1.0, 0.6, 0.35]
        coarse = box_integral_abs_density(lo, hi, order=12)
        fine = box_integral_abs_density(lo, hi, order=30)
        assert coarse == pytest.approx(fine, abs=1e-12)

    def test_box_holding_the_chamber_clips_to_one(self):
        whole = box_integral_chamber_clipped([-0.5, -0.2, -0.3], [3.5, 2.0, 1.7])
        assert whole == pytest.approx(1.0, abs=1e-13)

    @settings(max_examples=25, deadline=None)
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
        for mass in (box_integral_abs_density, box_integral_chamber_clipped):
            whole = mass(lo, hi)
            assert mass(lo, lower_hi) + mass(upper_lo, hi) == pytest.approx(
                whole, rel=1e-12, abs=1e-15
            )

    def test_corner_validation(self):
        with pytest.raises(ValidationError):
            box_integral_chamber_clipped([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            box_integral_chamber_clipped([0.5, 0.5, 0.5], [0.4, 0.6, 0.6])


@pytest.fixture(scope="module")
def bins():
    return bin_probabilities()


class TestBinProbabilities:
    def test_partition_of_unity(self):
        P = bin_probabilities()
        assert P.shape == (30, 30, 30)
        assert P.min() >= 0.0
        assert abs(P.sum() - 1.0) < 1e-9

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
        box = box_integral_chamber_clipped(
            [e1[i], e2[j], e2[k]], [e1[i + 1], e2[j + 1], e2[k + 1]]
        )
        assert box == pytest.approx(bins[i, j, k], rel=0, abs=1e-15)
