import itertools
import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import simpson

from gategeom.errors import RangeError, ValidationError
from gategeom.gates import NAMED_GATE_POINTS
from gategeom.quadrature import box_integral_chamber_clipped
from gategeom.volumes import (
    CNOT_SWAP_MIDPOINT,
    PE_VOLUME_CLOSED,
    Region,
    VolumeResult,
    _cube_orbit_multiplicity,
    cube_volume_closed,
    cube_volume_quadrature,
    cylinder_volume_g,
    cylinder_volume_quadrature,
    elliptic_E,
    elliptic_K,
    is_perfect_entangler,
    origin_volume_g,
    origin_volume_quadrature,
    pe_volume,
    region_volume_mc,
)

ALL_CLOSED_FORM_POINTS = dict(NAMED_GATE_POINTS) | {
    "cnot-swap-midpoint": CNOT_SWAP_MIDPOINT
}


class TestPerfectEntanglerPredicate:
    def test_pinned_memberships(self):
        assert is_perfect_entangler((np.pi / 2, np.pi / 4, 0.0))
        assert is_perfect_entangler((np.pi / 2, 0.0, 0.0))  # wedge boundary
        assert is_perfect_entangler((np.pi / 4, np.pi / 4, np.pi / 4))
        assert is_perfect_entangler(CNOT_SWAP_MIDPOINT)
        assert not is_perfect_entangler((0.0, 0.0, 0.0))
        assert not is_perfect_entangler((np.pi / 2, np.pi / 2, np.pi / 2))

    def test_broadcasts(self):
        flags = is_perfect_entangler(
            [[np.pi / 2, np.pi / 4, 0.0], [0.1, 0.05, 0.0]]
        )
        np.testing.assert_array_equal(flags, [True, False])

    def test_rejects_points_outside_chamber(self):
        with pytest.raises(ValidationError):
            is_perfect_entangler((0.2, 0.6, 0.1))


class TestPeVolume:
    def test_closed_value(self):
        result = pe_volume()
        assert isinstance(result, VolumeResult)
        assert result.value == 8.0 / (3.0 * np.pi) == PE_VOLUME_CLOSED

    def test_quadrature_agrees(self):
        result = pe_volume("quadrature")
        assert result.value == pytest.approx(PE_VOLUME_CLOSED, abs=1e-6)
        assert result.error_estimate is not None

    def test_monte_carlo_agrees(self):
        result = region_volume_mc(Region("pe"), samples=200_000, seed=11)
        assert abs(result.value - PE_VOLUME_CLOSED) <= 3.0 * result.error_estimate
        assert result.error_estimate == pytest.approx(
            math.sqrt(PE_VOLUME_CLOSED * (1 - PE_VOLUME_CLOSED) / 200_000), rel=0.05
        )

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            pe_volume("bootstrap")


class TestCubeClosedForms:
    @pytest.mark.parametrize("name", sorted(ALL_CLOSED_FORM_POINTS))
    @pytest.mark.parametrize("side", [0.15, 0.4])
    def test_named_points_match_quadrature(self, name, side):
        center = ALL_CLOSED_FORM_POINTS[name]
        closed = cube_volume_closed(center, side)
        quad = cube_volume_quadrature(center, side, order=30)
        # Measured worst 2.2e-15 (cnot-swap midpoint, side 0.15).
        assert closed == pytest.approx(quad, rel=2e-13, abs=0.0)

    def test_identity_and_swap_share_the_same_mass(self):
        for side in (0.2, 0.5):
            assert cube_volume_closed((0.0, 0.0, 0.0), side) == cube_volume_closed(
                (np.pi / 2, np.pi / 2, np.pi / 2), side
            )

    @pytest.mark.parametrize("c1", [0.3, 0.8, 1.4])
    def test_axis_family_matches_quadrature(self, c1):
        closed = cube_volume_closed((c1, 0.0, 0.0), 0.25)
        quad = cube_volume_quadrature((c1, 0.0, 0.0), 0.25, order=30)
        # Measured worst 2.0e-15, at c1 = 0.3.
        assert closed == pytest.approx(quad, rel=2e-13, abs=0.0)

    @pytest.mark.parametrize("c1", [1e-3, 0.02, 0.1, np.pi - 0.03])
    def test_axis_family_near_the_corners(self, c1):
        """The axis form's three terms cancel as c1 nears 0 or pi."""
        side = 0.9 * min(c1, np.pi - c1)
        closed = cube_volume_closed((c1, 0.0, 0.0), side)
        quad = cube_volume_quadrature((c1, 0.0, 0.0), side, order=30)
        assert closed == pytest.approx(quad, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("side", [0.1, 0.24])
    def test_interior_formula_matches_quadrature(self, side):
        center = (0.9, 0.5, 0.25)
        closed = cube_volume_closed(center, side)
        quad = cube_volume_quadrature(center, side, order=30)
        # Measured worst 1.0e-15, at side 0.1.
        assert closed == pytest.approx(quad, rel=1e-13, abs=0.0)

    def test_monotone_in_side(self):
        values = [
            cube_volume_closed((np.pi / 2, np.pi / 4, 0.0), a)
            for a in np.linspace(0.05, 0.7, 8)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_side_leading_terms(self):
        # The next terms of the series leave 8.3e-5 and 5.4e-4 relative.
        a = 0.01
        b_gate = cube_volume_closed((np.pi / 2, np.pi / 4, 0.0), a)
        assert b_gate == pytest.approx(12.0 * a**3 / np.pi, rel=1e-3, abs=0.0)
        a = 0.05
        identity = cube_volume_closed((0.0, 0.0, 0.0), a)
        assert identity == pytest.approx(a**9 / (40.0 * np.pi), rel=2e-3, abs=0.0)

    def test_small_side_exponent_table(self):
        # Leading small-side exponent of the cube mass at each centre.
        exponents = {
            "identity": 9,
            "swap": 9,
            "sqrt-swap": 6,
            "b-gate": 3,
            "cnot": 5,
            "cphase": 5,
            "dcnot": 5,
            "cnot-swap-midpoint": 4,
        }
        assert exponents.keys() == ALL_CLOSED_FORM_POINTS.keys()
        a = 0.02
        for name, exponent in exponents.items():
            center = ALL_CLOSED_FORM_POINTS[name]
            ratio = cube_volume_closed(center, 2 * a) / cube_volume_closed(center, a)
            assert math.log2(ratio) == pytest.approx(exponent, abs=0.05)

    def test_range_errors_point_to_quadrature(self):
        with pytest.raises(RangeError, match="cube_volume_quadrature"):
            cube_volume_closed((np.pi / 2, np.pi / 4, 0.0), 1.0)
        with pytest.raises(RangeError, match="cube_volume_quadrature"):
            cube_volume_closed((0.3, 0.0, 0.0), 0.7)
        with pytest.raises(RangeError, match="cube_volume_quadrature"):
            cube_volume_closed((0.9, 0.5, 0.25), 0.6)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            cube_volume_closed((0.0, 0.0), 0.1)
        with pytest.raises(ValidationError):
            cube_volume_closed((0.0, 0.0, 0.0), -0.1)
        with pytest.raises(ValidationError):
            cube_volume_quadrature((0.0, 0.0, 0.0), 0.1, clip="both")


class TestEllipticIntegrals:
    def test_pinned_values(self):
        assert elliptic_K(0.0) == pytest.approx(np.pi / 2, abs=1e-15)
        assert elliptic_E(0.0) == pytest.approx(np.pi / 2, abs=1e-15)
        assert elliptic_E(1.0) == 1.0

    def test_against_scipy(self):
        for k in (0.1, 0.5, 0.9, 0.999):
            assert elliptic_K(k) == pytest.approx(scipy.special.ellipk(k * k), rel=1e-12)
            assert elliptic_E(k) == pytest.approx(scipy.special.ellipe(k * k), rel=1e-12)

    def test_against_defining_integrals(self):
        theta = np.linspace(0.0, np.pi / 2, 20_001)
        k = 0.5
        base = 1.0 - (k * np.sin(theta)) ** 2
        assert elliptic_K(k) == pytest.approx(
            simpson(1.0 / np.sqrt(base), x=theta), abs=1e-10
        )
        assert elliptic_E(k) == pytest.approx(simpson(np.sqrt(base), x=theta), abs=1e-10)

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            elliptic_K(1.0)
        with pytest.raises(ValidationError):
            elliptic_K(-0.1)
        with pytest.raises(ValidationError):
            elliptic_E(1.2)


class TestCylinderVolumes:
    @pytest.mark.parametrize(
        "radius", [0.25, 0.5 * (1 - 1e-6), 0.5 * (1 + 1e-6), 1.0]
    )
    def test_closed_matches_quadrature_across_the_branch(self, radius):
        # Measured worst 1.0e-15, at 0.5 * (1 + 1e-6).
        closed = cylinder_volume_g((0.5, 0.0), radius, 0.2)
        quad = cylinder_volume_quadrature((0.5, 0.0), radius, 0.2)
        assert closed == pytest.approx(quad, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", [1e-5, 1e-3, 0.02])
    def test_thin_off_axis_cylinders(self, k):
        """The off-axis closed form does not cancel as k = R / rho -> 0.

        E + (k^2 - 1) K was 3.2e-7, 2.4e-10 and 5.5e-13 off here; the AGM
        form measures at most 5.0e-16 against the line rule.
        """
        rho = 0.6
        closed = cylinder_volume_g((0.36, 0.48), k * rho, 0.3)
        quad = cylinder_volume_quadrature((0.36, 0.48), k * rho, 0.3)
        assert closed == pytest.approx(quad, rel=5e-14, abs=0.0)

    def test_continuous_across_the_branch_point(self):
        rho = 0.5
        below = cylinder_volume_g((rho, 0.0), rho * (1 - 1e-9), 0.2)
        above = cylinder_volume_g((rho, 0.0), rho * (1 + 1e-9), 0.2)
        assert above == pytest.approx(below, rel=1e-7)

    def test_origin_axis_form(self):
        assert cylinder_volume_g((0.0, 0.0), 0.3, 0.4) == pytest.approx(
            6.0 * 0.3 * 0.4, rel=1e-15, abs=0.0
        )

    def test_small_radius_asymptote(self):
        # Far from the divergence axis the density is locally constant,
        # so the mass tends to 3 R^2 h / rho.
        rho, R, h = 0.9, 0.05, 0.2
        assert cylinder_volume_g((rho, 0.0), R, h) == pytest.approx(
            3.0 * R * R * h / rho, rel=5e-3
        )

    def test_degenerate_sizes(self):
        assert cylinder_volume_g((0.5, 0.0), 0.0, 0.2) == pytest.approx(0.0, abs=1e-15)
        assert cylinder_volume_quadrature((0.5, 0.0), 0.2, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            cylinder_volume_g((0.5, 0.0), -0.1, 0.2)
        with pytest.raises(ValidationError):
            cylinder_volume_quadrature((0.5, 0.0), 0.1, -0.2)


class TestOriginVolumes:
    def test_cube_closed_form(self):
        a = 0.2
        assert origin_volume_g("cube", a) == pytest.approx(
            12.0 * a * a / np.pi * math.log(1.0 + math.sqrt(2.0)), rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize("shape", ["cube", "cylinder", "sphere"])
    def test_closed_matches_quadrature(self, shape):
        kwargs = {"height": 0.15} if shape == "cylinder" else {}
        closed = origin_volume_g(shape, 0.2, **kwargs)
        quad = origin_volume_quadrature(shape, 0.2, **kwargs)
        assert closed == pytest.approx(quad, rel=3e-14, abs=0.0)  # measured worst 3.1e-16

    def test_sphere_and_cylinder_forms(self):
        assert origin_volume_g("sphere", 0.25) == pytest.approx(3.0 * np.pi * 0.0625)
        assert origin_volume_g("cylinder", 0.1, height=0.3) == pytest.approx(0.18)

    def test_validation(self):
        with pytest.raises(ValidationError):
            origin_volume_g("torus", 0.1)
        with pytest.raises(ValidationError):
            origin_volume_g("cylinder", 0.1)
        with pytest.raises(ValidationError):
            origin_volume_g("cube", -0.1)


def cube_images_loop(c, lo, hi):
    """Images of each point in the box, counted over the 48 permutations
    and sign patterns one at a time, then halved."""
    total = np.zeros(c.shape[0])
    for perm in itertools.permutations(range(3)):
        x = c[:, perm]
        for signs in itertools.product((1.0, -1.0), repeat=3):
            y = x * np.array(signs)
            counts = np.floor((hi - y) / np.pi) - np.ceil((lo - y) / np.pi) + 1.0
            total += np.clip(counts, 0.0, None).prod(axis=1)
    return total / 2.0


class TestCubeOrbitMultiplicity:
    def test_permanent_equals_the_image_loop(self):
        """Bit for bit, on random points and boxes, and on points and box
        faces placed exactly on walls and at multiples of pi/2."""
        rng = np.random.default_rng(41)
        h = np.pi / 2
        grid = np.array(list(itertools.product((0.0, h / 2, h, np.pi), repeat=3)))
        walls = np.array(
            [[h, h, 0.0], [h, 0.0, 0.0], [np.pi, 0.0, 0.0], [h, h, h], [0.7, 0.7, 0.2],
             [2.0, np.pi - 2.0, 0.3], [1.1, 0.4, 0.4], [0.9, 0.5, 0.0]]
        )
        points = np.concatenate([rng.uniform(0.0, np.pi, (3000, 3)), grid, walls])
        boxes = [
            ((0.0, 0.0, 0.0), (np.pi, h, h)),
            ((-np.pi, -h, 0.0), (np.pi, h, np.pi)),
            ((h, 0.0, -h), (np.pi, h, 0.0)),
            ((-2 * np.pi, -np.pi, -np.pi), (2 * np.pi, np.pi, 3 * np.pi)),
            ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
            ((h, h / 2, 0.0), (h, h / 2, 0.0)),
        ]
        for _ in range(40):
            center = rng.uniform(-np.pi, 2 * np.pi, 3)
            side = rng.uniform(0.05, 7.0, 3)
            boxes.append((center - side / 2, center + side / 2))
        most = 0.0
        for lo, hi in boxes:
            lo, hi = np.asarray(lo), np.asarray(hi)
            expected = cube_images_loop(points, lo, hi)
            np.testing.assert_array_equal(_cube_orbit_multiplicity(points, lo, hi), expected)
            most = max(most, expected.max())
        assert most > 10.0  # the large boxes hold many images of a point


class TestRegionMonteCarlo:
    def test_chamber_mass_is_exactly_one(self):
        result = region_volume_mc(Region("chamber"), samples=10_000, seed=3)
        assert result.value == 1.0
        assert result.error_estimate == 0.0

    def test_unclipped_cube_tracks_the_closed_form(self):
        closed = cube_volume_closed((np.pi / 2, np.pi / 4, 0.0), 0.3)
        result = region_volume_mc(
            Region("cube_c", (np.pi / 2, np.pi / 4, 0.0), 0.3, clip="unclipped"),
            samples=200_000,
            seed=5,
        )
        assert abs(result.value - closed) <= 3.0 * result.error_estimate

    def test_clipped_cube_tracks_clipped_quadrature(self):
        center = np.full(3, np.pi / 4)
        reference = box_integral_chamber_clipped(center - 0.2, center + 0.2)
        result = region_volume_mc(
            Region("cube_c", tuple(center), 0.4), samples=200_000, seed=6
        )
        assert abs(result.value - reference) <= 3.0 * result.error_estimate

    def test_sphere_tracks_the_origin_form(self):
        result = region_volume_mc(
            Region("sphere_g", (0.0, 0.0, 0.0), 0.05), samples=400_000, seed=7
        )
        assert abs(result.value - 3.0 * np.pi * 0.05**2) <= 3.0 * result.error_estimate

    def test_worker_split_does_not_change_the_estimate(self):
        region = Region("pe")
        one = region_volume_mc(region, samples=50_000, seed=8, worker_count=1)
        four = region_volume_mc(region, samples=50_000, seed=8, worker_count=4)
        assert one.value == four.value

    def test_region_validation(self):
        with pytest.raises(ValidationError):
            Region("sphere_g", (0.0, 0.0, 0.0), 0.1, clip="unclipped")
        with pytest.raises(ValidationError):
            Region("pe", clip="reflect")
        with pytest.raises(ValidationError):
            region_volume_mc(Region("blob"), samples=100)
        with pytest.raises(ValidationError):
            region_volume_mc(Region("pe"), samples=0)
