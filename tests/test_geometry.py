import numpy as np
import pytest
from scipy.integrate import simpson

import gategeom.geometry
from gategeom.coords import CanonicalCoords, FullCoords, Su2Params, in_weyl_chamber
from gategeom.errors import ConsistencyError, SingularDensityError, ValidationError
from gategeom.geometry import (
    FRAME_SINGULARITY_TOL,
    WEYL_DENSITY_MAX,
    det_g_closed,
    frame_finite_difference,
    _chamber_sine_product,
    _cosine_density_derivatives,
    _weyl_density_cosine as weyl_density_cosine,
    _zeta_frame as zeta_frame,
    jacobian,
    jjt_closed,
    makhlin_density,
    metric_tensor,
    weyl_density,
    weyl_density_max_point,
)
from gategeom.invariants import g_from_c
from gategeom.verify import _chamber_interior_points, _random_full_coords


def su2_density(alpha, theta, phi=None) -> np.ndarray:
    """Haar density of one single-qubit factor in axis-angle angles.

    The azimuth is accepted for signature symmetry but does not enter.
    """
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return np.sin(alpha / 2) ** 2 * np.sin(theta) / (8.0 * np.pi**2)


def full_haar_density(x: FullCoords) -> float:
    """Invariant density in the fifteen-coordinate chart: the chamber
    density times one single-qubit density per factor."""
    val = 3.0 / (256.0 * np.pi**9) * abs(_chamber_sine_product(x.c.as_array()))
    for v in (x.a1, x.b1, x.a2, x.b2):
        val *= np.sin(v.alpha / 2) ** 2 * np.sin(v.theta)
    return float(val)


class TestZetaFrame:
    def test_hand_value_at_half_turn(self):
        """alpha = pi, theta = pi/2, phi = 0, worked by hand from the
        definition of the one-form coefficients."""
        z = zeta_frame(np.pi, np.pi / 2, 0.0)
        expected = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, -2.0, 0.0],
                [0.0, 0.0, -2.0],
            ]
        )
        np.testing.assert_allclose(z, expected, atol=1e-15)

    def test_small_angle_limit_is_axis_direction(self):
        theta, phi = 1.1, 2.3
        z = zeta_frame(1e-7, theta, phi)
        axis = np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )
        np.testing.assert_allclose(z[:, 0], axis, atol=1e-6)
        assert np.abs(z[:, 1:]).max() < 1e-6

    def test_column_gram(self, rng):
        for _ in range(30):
            alpha = float(rng.uniform(0.1, 4 * np.pi - 0.1))
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            phi = float(rng.uniform(0, 2 * np.pi))
            z = zeta_frame(alpha, theta, phi)
            s2 = np.sin(alpha / 2) ** 2
            expect = np.diag([1.0, 4 * s2, 4 * s2 * np.sin(theta) ** 2])
            np.testing.assert_allclose(z.T @ z, expect, atol=1e-12)


class TestMetricTensor:
    def test_commuting_core_block_is_identity(self, rng):
        G = metric_tensor(_random_full_coords(rng))
        np.testing.assert_allclose(G[12:15, 12:15], np.eye(3), atol=0)

    def test_cross_blocks_at_swap_point(self, rng):
        x0 = _random_full_coords(rng)
        x = FullCoords(
            x0.a1, x0.b1, x0.a2, x0.b2, CanonicalCoords(np.pi / 2, np.pi / 2, np.pi / 2)
        )
        G = metric_tensor(x)
        # All three cosine weights vanish, so the same-qubit cross blocks do.
        assert np.abs(G[0:3, 6:9]).max() < 1e-15
        assert np.abs(G[3:6, 6:9]).max() > 1e-3  # sine-weighted blocks survive

    def test_symmetric(self, rng):
        G = metric_tensor(_random_full_coords(rng))
        np.testing.assert_array_equal(G, G.T)

    def test_positive_semidefinite(self, rng):
        worst = np.inf
        for _ in range(1000):
            G = metric_tensor(_random_full_coords(rng, margin=0.05))
            worst = min(worst, np.linalg.eigvalsh(G)[0])
        assert worst >= -1e-9

    def test_determinant_vanishes_on_chart_singularities(self, rng):
        x0 = _random_full_coords(rng)
        degenerate_c = FullCoords(
            x0.a1, x0.b1, x0.a2, x0.b2, CanonicalCoords(0.9, 0.9, 0.2)
        )
        assert det_g_closed(degenerate_c) == 0.0
        assert abs(np.linalg.det(metric_tensor(degenerate_c))) < 1e-12

        degenerate_alpha = FullCoords(
            Su2Params(0.0, 1.0, 1.0), x0.b1, x0.a2, x0.b2, x0.c
        )
        assert det_g_closed(degenerate_alpha) == 0.0
        assert abs(np.linalg.det(metric_tensor(degenerate_alpha))) < 1e-12


class TestWeylDensity:
    def test_peak_value(self):
        assert weyl_density([np.pi / 2, np.pi / 4, 0.0]) == pytest.approx(12.0 / np.pi)
        assert WEYL_DENSITY_MAX == pytest.approx(12.0 / np.pi, abs=0)

    def test_hand_value(self):
        # (pi/3, pi/6, 0): pairwise sines 1, 1/2, sqrt3/2, sqrt3/2, 1/2, 1/2
        # multiply to 3/32, times 48/pi.
        assert weyl_density([np.pi / 3, np.pi / 6, 0.0]) == pytest.approx(4.5 / np.pi)

    def test_vanishes_on_chamber_walls(self):
        for c in [
            (np.pi / 4, np.pi / 4, np.pi / 4),
            (np.pi / 2, 0.0, 0.0),
            (np.pi / 2, np.pi / 4, np.pi / 4),
            (np.pi / 2, np.pi / 2, np.pi / 2),
            (0.0, 0.0, 0.0),
        ]:
            assert weyl_density(c) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_form_agrees_inside_chamber(self):
        n = 50
        c1 = np.linspace(0, np.pi, 2 * n)
        c2 = np.linspace(0, np.pi / 2, n)
        grid = np.stack(np.meshgrid(c1, c2, c2, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[in_weyl_chamber(grid[:, 0], grid[:, 1], grid[:, 2])]
        np.testing.assert_allclose(
            weyl_density_cosine(grid), weyl_density(grid), atol=1e-12
        )

    def test_newton_derivatives_match_finite_differences(self, rng):
        h = 1e-4
        steps = h * np.eye(3)
        for c in rng.uniform(0.0, np.pi, (5, 3)):
            grad, hess = _cosine_density_derivatives(c)
            fd_grad = [
                (weyl_density_cosine(c + e) - weyl_density_cosine(c - e)) / (2 * h)
                for e in steps
            ]
            fd_hess = [
                [
                    (
                        weyl_density_cosine(c + e + f) - weyl_density_cosine(c + e - f)
                        - weyl_density_cosine(c - e + f) + weyl_density_cosine(c - e - f)
                    ) / (4 * h * h)
                    for f in steps
                ]
                for e in steps
            ]
            np.testing.assert_allclose(grad, fd_grad, atol=1e-6)
            np.testing.assert_allclose(hess, fd_hess, atol=1e-5)

    def test_located_maximum(self):
        point, value = weyl_density_max_point()
        assert value == pytest.approx(12.0 / np.pi, abs=1e-8)
        np.testing.assert_allclose(
            point.as_tuple(), (np.pi / 2, np.pi / 4, 0.0), atol=1e-4
        )


class TestSu2Density:
    def test_pinned_value(self):
        assert su2_density(np.pi, np.pi / 2) == pytest.approx(1.0 / (8 * np.pi**2))

    def test_normalised(self):
        alpha = np.linspace(0.0, 4 * np.pi, 401)
        theta = np.linspace(0.0, np.pi, 201)
        vals = su2_density(alpha[:, None], theta[None, :])
        integral = 2 * np.pi * simpson(simpson(vals, x=theta, axis=1), x=alpha)
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_azimuth_does_not_enter(self):
        assert su2_density(1.0, 1.0, 0.3) == su2_density(1.0, 1.0, 5.9)


def metric_tensor_u4(x: FullCoords) -> np.ndarray:
    """Metric with a leading global-phase coordinate prepended (16x16).

    The phase direction is orthogonal to everything else and has squared
    length 4 against the same generator normalisation.
    """
    G = np.zeros((16, 16))
    G[0, 0] = 4.0
    G[1:, 1:] = metric_tensor(x)
    return G


def full_haar_density_u4(x: FullCoords) -> float:
    """Invariant density including a uniform phase angle on [0, pi/2)."""
    return (2.0 / np.pi) * full_haar_density(x)


class TestFullHaarDensity:
    def test_factorises(self, rng):
        for _ in range(20):
            x = _random_full_coords(rng)
            product = weyl_density(np.asarray(x.c.as_tuple()))
            for p in (x.a1, x.b1, x.a2, x.b2):
                product *= su2_density(p.alpha, p.theta)
            assert full_haar_density(x) == pytest.approx(float(product), rel=1e-12)

    def test_proportional_to_volume_element(self, rng):
        ratios = [
            full_haar_density(x) / np.sqrt(det_g_closed(x))
            for x in (_random_full_coords(rng) for _ in range(20))
        ]
        np.testing.assert_allclose(ratios, 3.0 / (65536.0 * np.pi**9), rtol=1e-8)

    def test_phase_extended_variant(self, rng):
        x = _random_full_coords(rng)
        assert full_haar_density_u4(x) == pytest.approx(
            (2.0 / np.pi) * full_haar_density(x), rel=1e-15
        )
        G = metric_tensor_u4(x)
        assert G.shape == (16, 16)
        assert G[0, 0] == 4.0
        assert np.abs(G[0, 1:]).max() == 0.0
        np.testing.assert_array_equal(G[1:, 1:], metric_tensor(x))


class TestMakhlinDensity:
    def test_pinned_value(self):
        assert makhlin_density(0.6, -0.8) == pytest.approx(3.0 / np.pi)

    def test_divergent_axis_rejected(self):
        with pytest.raises(SingularDensityError):
            makhlin_density(0.0, 0.0)


class TestJacobian:
    def test_third_row_closed_form(self, rng):
        pts = _chamber_interior_points(rng, 50)
        J = jacobian(pts)
        np.testing.assert_allclose(J[:, 2, :], -2.0 * np.sin(2 * pts), atol=1e-15)

    def test_vanishes_at_origin(self):
        np.testing.assert_allclose(jacobian(np.zeros(3)), np.zeros((3, 3)), atol=0)

    def test_against_finite_differences(self, rng):
        h = 1e-5
        for c in _chamber_interior_points(rng, 20):
            J = jacobian(c)
            for mu in range(3):
                e = np.zeros(3)
                e[mu] = h
                col = (g_from_c(c + e) - g_from_c(c - e)) / (2 * h)
                np.testing.assert_allclose(J[:, mu], col, atol=1e-8)

    def test_gram_corner_entry_at_sqrt_swap(self):
        # Row three is (-2, -2, -2) there, so the (2, 2) Gram entry is 12.
        out = jjt_closed(0.0, 0.25, 0.0)
        assert out[2, 2] == pytest.approx(12.0, abs=1e-12)


class TestFiniteDifferenceFrame:
    def test_gram_reproduces_metric(self, rng):
        for x in (_random_full_coords(rng) for _ in range(5)):
            E = frame_finite_difference(x)
            np.testing.assert_allclose(E.T @ E, metric_tensor(x), rtol=0, atol=1.5e-10)

    def test_imaginary_residue_is_held_to_round_off(self, rng, monkeypatch):
        """A chart that leaves the unitary group at rate 1e-9 along c1
        gives E an imaginary part of about that size, which the round-off
        bound (100 eps / h, 2.3e-11) rejects."""
        assemble = gategeom.geometry._assemble_batch

        def drifting(params):
            U = assemble(params)
            U[0] *= np.exp(1e-9 * params[:, 12])
            return U

        monkeypatch.setattr(gategeom.geometry, "_assemble_batch", drifting)
        with pytest.raises(ConsistencyError, match="imaginary residue"):
            frame_finite_difference(_random_full_coords(rng))

    def test_rejects_chart_singularities(self, rng):
        x0 = _random_full_coords(rng)
        bad = FullCoords(
            Su2Params(1e-4, 1.0, 1.0), x0.b1, x0.a2, x0.b2, x0.c
        )
        with pytest.raises(ValidationError):
            frame_finite_difference(bad)
        assert FRAME_SINGULARITY_TOL == 1e-3
