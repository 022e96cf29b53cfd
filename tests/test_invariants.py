import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CNOT,
    SWAP,
    interior_chamber_points,
    local_gate,
    random_full_coords,
    random_su2_params,
)
from gategeom.coords import in_weyl_chamber
from gategeom.errors import ConsistencyError, InvalidInvariantsError, ValidationError
from gategeom import invariants
from gategeom.gates import (
    _abelian_batch,
    _kron_batch,
    _su2_matrix,
    abelian_gate,
    assemble,
)
from gategeom.invariants import (
    FACE_TOL,
    LocalInvariants,
    _JACOBI_MIN_ROWS,
    _MIX,
    _laplace_det,
    c_from_g,
    canonical_coords,
    canonical_coords_batch,
    g_from_c,
    makhlin_invariants,
    project_su4,
    validate_invariant_ranges,
)

SQRT_SWAP_POINT = (np.pi / 4, np.pi / 4, np.pi / 4)
B_GATE_POINT = (np.pi / 2, np.pi / 4, 0.0)


def locally_equivalent(U, V, tol: float = 1e-9) -> bool:
    """Whether two gates agree up to single-qubit rotations and phase."""
    a = makhlin_invariants(U).as_array()
    b = makhlin_invariants(V).as_array()
    return bool(np.abs(a - b).max() <= tol)


class TestMakhlinInvariants:
    def test_identity(self):
        g = makhlin_invariants(np.eye(4))
        np.testing.assert_allclose(g.as_tuple(), (1.0, 0.0, 3.0), atol=1e-14)

    def test_cnot(self):
        g = makhlin_invariants(CNOT)
        np.testing.assert_allclose(g.as_tuple(), (0.0, 0.0, 1.0), atol=1e-14)

    def test_swap(self):
        g = makhlin_invariants(SWAP)
        np.testing.assert_allclose(g.as_tuple(), (-1.0, 0.0, -3.0), atol=1e-14)

    def test_invariant_under_local_dressing(self, rng):
        for _ in range(20):
            U = assemble(random_full_coords(rng))
            k1 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
            k2 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
            g0 = np.array(makhlin_invariants(U).as_tuple())
            g1 = np.array(makhlin_invariants(k1 @ U @ k2).as_tuple())
            np.testing.assert_allclose(g1, g0, rtol=0, atol=1e-12)

    def test_invariant_under_global_phase(self, rng):
        U = assemble(random_full_coords(rng))
        for chi in rng.uniform(0, 2 * np.pi, 5):
            g0 = np.array(makhlin_invariants(U).as_tuple())
            g1 = np.array(makhlin_invariants(np.exp(1j * chi) * U).as_tuple())
            np.testing.assert_allclose(g1, g0, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            makhlin_invariants(np.ones((4, 4)))

    def test_equals_invariants_of_the_coordinates_bitwise(self, rng):
        gates = [assemble(random_full_coords(rng)) for _ in range(30)] + [np.eye(4), CNOT, SWAP]
        for U in gates:
            got = makhlin_invariants(U).as_tuple()
            assert got == tuple(g_from_c(canonical_coords(U).as_array()).tolist())


class TestInvariantRanges:
    def test_out_of_range_triple_is_inconsistent(self):
        with pytest.raises(ConsistencyError):
            LocalInvariants(1.5, 0.0, 0.0)

    def test_user_facing_validation(self):
        with pytest.raises(ValidationError):
            validate_invariant_ranges(0.0, 0.3, 0.0)

    def test_radial_part(self):
        assert LocalInvariants(0.6, -0.8 / 4, 0.0).radial == pytest.approx(
            np.hypot(0.6, 0.2)
        )


class TestForwardMap:
    def test_identity_point(self):
        np.testing.assert_allclose(g_from_c(np.zeros(3)), (1, 0, 3), atol=0)

    def test_sqrt_swap_point(self):
        np.testing.assert_allclose(
            g_from_c(np.array(SQRT_SWAP_POINT)), (0.0, 0.25, 0.0), atol=1e-15
        )

    def test_b_gate_point_lands_on_origin(self):
        np.testing.assert_allclose(g_from_c(np.array(B_GATE_POINT)), np.zeros(3), atol=1e-15)

    def test_broadcasts(self, rng):
        pts = interior_chamber_points(rng, 7)
        batch = g_from_c(pts)
        for i in range(7):
            np.testing.assert_allclose(batch[i], g_from_c(pts[i]), atol=0)


def _invert(g):
    return np.array(c_from_g(*np.asarray(g, dtype=float)).as_tuple())


def _invert_batch(g):
    return np.array([_invert(row) for row in np.atleast_2d(g)])


class TestInverseMap:
    def test_identity_class(self):
        np.testing.assert_allclose(_invert((1.0, 0.0, 3.0)), np.zeros(3), atol=1e-7)

    def test_sqrt_swap_class_with_grid_scan_oracle(self):
        """A chamber grid scan finds no second preimage cluster for (0, 1/4, 0).

        g2 attains its maximum 1/4 exactly there, so near-preimages spread
        like the square root of the g-distance; the check is that they form a
        single cluster, not that the cluster is tight.
        """
        n = 60
        c1 = np.linspace(0, np.pi, 2 * n)
        c2 = np.linspace(0, np.pi / 2, n)
        grid = np.stack(np.meshgrid(c1, c2, c2, indexing="ij"), axis=-1).reshape(-1, 3)
        grid = grid[in_weyl_chamber(grid[:, 0], grid[:, 1], grid[:, 2])]
        dist = np.abs(g_from_c(grid) - np.array([0.0, 0.25, 0.0])).max(axis=1)
        close = grid[dist < 0.05]
        assert close.shape[0] > 50
        spread = np.abs(close - np.array(SQRT_SWAP_POINT)).max()
        assert spread < 0.5, "near-preimages of (0,1/4,0) form a single cluster"
        np.testing.assert_allclose(_invert((0.0, 0.25, 0.0)), SQRT_SWAP_POINT, atol=1e-9)

    def test_round_trip_on_interior(self, rng):
        pts = interior_chamber_points(rng, 10_000)
        rec = _invert_batch(g_from_c(pts))
        assert np.abs(rec - pts).max() <= 1e-9

    def test_g_round_trip(self, rng):
        pts = interior_chamber_points(rng, 1_000)
        g = g_from_c(pts)
        np.testing.assert_allclose(g_from_c(_invert_batch(g)), g, atol=1e-9)

    def test_cubic_roots_match_double_angle_cosines(self, rng):
        """np.roots of the inversion cubic equals {cos 2c_i} as a multiset."""
        for c in interior_chamber_points(rng, 50):
            g1, g2, g3 = g_from_c(c)
            rho = np.hypot(g1, g2)
            roots = np.roots([1.0, -g3, 4.0 * rho - 1.0, g3 - 4.0 * g1])
            assert np.abs(roots.imag).max() < 1e-8
            np.testing.assert_allclose(
                np.sort(roots.real), np.sort(np.cos(2.0 * c)), atol=1e-10
            )

    def test_unattainable_triple_rejected(self):
        with pytest.raises(InvalidInvariantsError):
            c_from_g(-1.0, 0.25, 3.0)

    def test_result_always_in_chamber(self, rng):
        pts = interior_chamber_points(rng, 200)
        rec = _invert_batch(g_from_c(pts))
        assert in_weyl_chamber(rec[:, 0], rec[:, 1], rec[:, 2]).all()


class TestCanonicalCoords:
    def test_recovers_dressed_interior_point(self, rng):
        for _ in range(20):
            x = random_full_coords(rng)
            rec = canonical_coords(assemble(x))
            np.testing.assert_allclose(rec.as_tuple(), x.c.as_tuple(), rtol=0, atol=1e-12)

    def test_cnot_class_point(self):
        rec = canonical_coords(CNOT)
        np.testing.assert_allclose(rec.as_tuple(), (np.pi / 2, 0.0, 0.0), rtol=0, atol=1e-12)

    def test_swap_class_point(self):
        rec = canonical_coords(SWAP)
        np.testing.assert_allclose(
            rec.as_tuple(), (np.pi / 2, np.pi / 2, np.pi / 2), rtol=0, atol=1e-12
        )

    def test_idempotent_through_commuting_core(self, rng):
        for _ in range(10):
            U = assemble(random_full_coords(rng))
            c = canonical_coords(U)
            again = canonical_coords(abelian_gate(c.as_tuple()))
            np.testing.assert_allclose(again.as_tuple(), c.as_tuple(), rtol=0, atol=1e-12)

    def test_invariants_at_matches_forward_map(self, rng):
        c = interior_chamber_points(rng, 1)[0]
        got = LocalInvariants(*g_from_c(c).tolist())
        np.testing.assert_allclose(got.as_tuple(), g_from_c(c), atol=1e-15)


class TestPhaseProjection:
    def test_special_unitary_input_unchanged(self, rng):
        U = assemble(random_full_coords(rng))
        V, phase = project_su4(U)
        assert phase.chi == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(V, U, atol=1e-12)

    def test_scalar_phase_extracted(self):
        V, phase = project_su4(np.exp(1j * np.pi / 8) * np.eye(4))
        assert phase.chi == pytest.approx(np.pi / 8, abs=1e-12)
        np.testing.assert_allclose(V, np.eye(4), atol=1e-12)

    def test_phase_in_canonical_window(self, rng):
        for chi in rng.uniform(0, 2 * np.pi, 10):
            U = np.exp(1j * chi) * CNOT
            _, phase = project_su4(U)
            assert 0.0 <= phase.chi < np.pi / 2

    def test_projected_matrix_is_special(self, rng):
        U = np.exp(1j * 0.9) * assemble(random_full_coords(rng))
        V, _ = project_su4(U)
        assert abs(np.linalg.det(V) - 1.0) < 1e-10


class TestLocalEquivalence:
    def test_dressed_copy_is_equivalent(self, rng):
        U = assemble(random_full_coords(rng))
        k1 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        k2 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        assert locally_equivalent(U, k1 @ U @ k2)

    def test_cnot_vs_swap(self):
        assert not locally_equivalent(CNOT, SWAP)

    def test_phase_shifted_copy_is_equivalent(self, rng):
        U = assemble(random_full_coords(rng))
        assert locally_equivalent(U, np.exp(1j * 1.234) * U)


# --- the spectral kernel on the chamber's boundary ---------------------------

#: Vertices of the chamber tetrahedron; its faces are c3 = 0 (0, 1, 2),
#: c2 = c3 (0, 1, 3), c1 = c2 (0, 2, 3) and c1 + c2 = pi (1, 2, 3).
CHAMBER_VERTICES = np.array(
    [(0.0, 0.0, 0.0), (np.pi, 0.0, 0.0), (np.pi / 2, np.pi / 2, 0.0), (np.pi / 2,) * 3]
)
SIMPLICES = [(v,) for v in range(4)] + [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
]


def class_distance(c, true) -> float:
    """Max-norm distance allowing the c3 = 0 face identification."""
    c, true = np.asarray(c, dtype=float), np.asarray(true, dtype=float)
    mirror = np.array([np.pi - true[0], true[1], -true[2]])
    return float(min(np.abs(c - true).max(), np.abs(c - mirror).max()))


def dressed(rng, c) -> np.ndarray:
    """k1 A(c) k2 with random local gates and a random global phase."""
    def local():
        return local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))

    return np.exp(2j * np.pi * rng.random()) * local() @ abelian_gate(c) @ local()


def boundary_point(simplex, weights) -> np.ndarray:
    w = np.asarray(weights[: len(simplex)], dtype=float) + 1e-3
    return (w / w.sum()) @ CHAMBER_VERTICES[list(simplex)]


class TestSpectralKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        simplex=st.sampled_from(SIMPLICES),
        weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boundary_points_recovered(self, simplex, weights, seed):
        c = boundary_point(simplex, weights)
        got = canonical_coords(dressed(np.random.default_rng(seed), c))
        assert in_weyl_chamber(*got.as_tuple(), tol=1e-15)
        assert class_distance(got.as_tuple(), c) <= 1e-12

    @pytest.mark.parametrize(
        "family,points",
        [
            ("xx", [(t, 0.0, 0.0) for t in (1e-9, 1e-6, 1e-4, 0.3, np.pi / 2, 2.5, np.pi - 1e-6)]),
            ("xy", [(t, t, 0.0) for t in (1e-9, 1e-6, 1e-4, 0.4, np.pi / 2 - 1e-7, np.pi / 2)]),
            ("heisenberg", [(t, t, t) for t in (1e-9, 1e-6, 1e-4, np.pi / 4, np.pi / 2 - 1e-7)]),
            ("near identity", [(3e-5, 2e-5, 1e-5), (1e-8, 1e-9, 1e-10)]),
            ("near swap", [(np.pi / 2 - d, np.pi / 2 - 2 * d, np.pi / 2 - 3 * d) for d in (1e-5, 1e-8)]),
            ("near cnot", [(np.pi / 2 + d, d, d / 2) for d in (1e-5, 1e-8)]),
        ],
    )
    def test_gate_families(self, rng, family, points):
        for c in points:
            got = canonical_coords(dressed(rng, c))
            assert class_distance(got.as_tuple(), c) <= 1e-12, (family, c, got)

    @pytest.mark.parametrize("theta", [1e-6, 1e-4, 1e-3, 0.1, 0.25, 0.5, np.pi, 5.0])
    def test_cphase(self, rng, theta):
        k1 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        k2 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        U = k1 @ np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]) @ k2
        got = canonical_coords(U)
        assert class_distance(got.as_tuple(), (theta / 2, 0.0, 0.0)) <= 1e-12

    def test_dressed_bulk_batch(self, rng):
        pts = interior_chamber_points(rng, 2000, margin=0.0)
        U = np.array([dressed(rng, c) for c in pts])
        assert np.abs(canonical_coords_batch(U) - pts).max() <= 1e-12

    def test_scalar_equals_batch_row(self, rng):
        pts = np.concatenate(
            [interior_chamber_points(rng, 50), [boundary_point(s, (0.3, 0.5, 0.2)) for s in SIMPLICES]]
        )
        U = np.array([dressed(rng, c) for c in pts])
        batch = canonical_coords_batch(U)
        for i in range(U.shape[0]):
            assert canonical_coords(U[i]).as_tuple() == tuple(batch[i])

    def test_face_convention(self, rng):
        """On c3 = 0 both (c1, c2, 0) and (pi - c1, c2, 0) give c1 <= pi/2."""
        for c in [(2.5, 0.3, 0.0), (0.64, 0.3, 0.0), (2.0, 0.0, 0.0), (np.pi, 0.0, 0.0)]:
            got = canonical_coords(dressed(rng, c)).as_tuple()
            assert got[0] <= np.pi / 2 and got[2] <= FACE_TOL
            assert class_distance(got, c) <= 1e-12

    def test_accidental_tie_takes_general_eigensolver(self, rng, monkeypatch):
        """A global phase that makes two eigenvalues of m tie in the mix.

        For exp(i phi) A(c), m has the eigenphases -(s . c) + 2 phi; those of
        s = (+,-,+) and (+,+,-) sum to -2 c1 + 4 phi, and cos t + r sin t
        takes one value at two phases t that sum to 2 atan(r).  Local gates
        mix the tied eigenvectors, so only the general solver gets D right;
        a scalar call takes it directly.
        """
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        c = np.array([0.7, 0.3, 0.1])
        phi = (2.0 * np.arctan(_MIX) + 2.0 * c[0]) / 4.0
        k1 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        k2 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        got = canonical_coords(np.exp(1j * phi) * k1 @ abelian_gate(c) @ k2)
        assert calls == [(1, 4, 4)]
        assert np.abs(np.array(got.as_tuple()) - c).max() <= 1e-12

    def test_rejects_non_unitary_row(self, rng):
        U = np.array([dressed(rng, (0.5, 0.2, 0.1)) for _ in range(3)])
        U[1] *= 1.01
        with pytest.raises(ValidationError, match="index 1"):
            canonical_coords_batch(U)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            canonical_coords_batch(np.eye(4))
        with pytest.raises(ValidationError):
            canonical_coords(np.eye(3))


# --- the Jacobi route, which stacks of _JACOBI_MIN_ROWS rows or more take ------

FAMILY_POINTS = np.array(
    [(t, 0.0, 0.0) for t in (1e-9, 1e-6, 1e-4, 0.3, np.pi / 2, 2.5, np.pi - 1e-6)]
    + [(t, t, 0.0) for t in (1e-9, 1e-6, 1e-4, 0.4, np.pi / 2 - 1e-7, np.pi / 2)]
    + [(t, t, t) for t in (1e-9, 1e-6, 1e-4, np.pi / 4, np.pi / 2 - 1e-7)]
    + [(3e-5, 2e-5, 1e-5), (1e-8, 1e-9, 1e-10)]
    + [(np.pi / 2 - d, np.pi / 2 - 2 * d, np.pi / 2 - 3 * d) for d in (1e-5, 1e-8)]
    + [(np.pi / 2 + d, d, d / 2) for d in (1e-5, 1e-8)]
)
CPHASE_ANGLES = np.array([1e-6, 1e-4, 1e-3, 0.1, 0.25, 0.5, np.pi, 5.0])


def random_locals(rng, n: int) -> np.ndarray:
    """n random local gates u (x) v, shape (n, 4, 4)."""
    def su2():
        return _su2_matrix(
            rng.uniform(0.0, 4 * np.pi, n), np.arccos(rng.uniform(-1.0, 1.0, n)),
            rng.uniform(0.0, 2 * np.pi, n),
        )

    return _kron_batch(su2(), su2())


def dressed_stack(rng, cores: np.ndarray) -> np.ndarray:
    """k1 core k2 per row, with random local gates and global phases."""
    phase = np.exp(2j * np.pi * rng.random(cores.shape[0]))[:, None, None]
    return phase * random_locals(rng, cores.shape[0]) @ cores @ random_locals(rng, cores.shape[0])


def tiled(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` repeated to fill one stack of the Jacobi route."""
    return np.resize(points, (max(_JACOBI_MIN_ROWS, len(points)), *points.shape[1:]))


def both_routes(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of a stack from the Jacobi route and from the ``eigvals`` route."""
    assert U.shape[0] >= _JACOBI_MIN_ROWS
    parts = np.array_split(U, -(-2 * U.shape[0] // _JACOBI_MIN_ROWS))
    assert max(len(p) for p in parts) < _JACOBI_MIN_ROWS
    return canonical_coords_batch(U), np.concatenate([canonical_coords_batch(p) for p in parts])


def class_distances(c: np.ndarray, true: np.ndarray) -> np.ndarray:
    """Row-wise :func:`class_distance`."""
    mirror = np.stack([np.pi - true[:, 0], true[:, 1], -true[:, 2]], axis=-1)
    return np.minimum(np.abs(c - true).max(axis=1), np.abs(c - mirror).max(axis=1))


class TestJacobiRoute:
    @settings(max_examples=200, deadline=None)
    @given(
        simplex=st.sampled_from(SIMPLICES),
        weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boundary_points_recovered(self, simplex, weights, seed):
        c = tiled(boundary_point(simplex, weights)[None])
        jacobi, lapack = both_routes(dressed_stack(np.random.default_rng(seed), _abelian_batch(c)))
        assert in_weyl_chamber(jacobi[:, 0], jacobi[:, 1], jacobi[:, 2], tol=1e-15).all()
        assert class_distances(jacobi, c).max() <= 1e-12
        assert np.abs(jacobi - lapack).max() <= 1e-14

    def test_gate_families_and_cphase(self, rng):
        c = tiled(FAMILY_POINTS)
        theta = tiled(CPHASE_ANGLES)
        cphase = np.zeros((theta.size, 4, 4), dtype=complex)
        cphase[:, [0, 1, 2], [0, 1, 2]] = 1.0
        cphase[:, 3, 3] = np.exp(1j * theta)
        for cores, true in (
            (_abelian_batch(c), c),
            (cphase, np.stack([theta / 2, 0 * theta, 0 * theta], axis=-1)),
        ):
            jacobi, lapack = both_routes(dressed_stack(rng, cores))
            assert class_distances(jacobi, true).max() <= 1e-12
            assert np.abs(jacobi - lapack).max() <= 1e-14

    def test_accidental_tie_takes_general_eigensolver(self, rng, monkeypatch):
        """The tie of TestSpectralKernel survives local dressing, so every row has it."""
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        c = np.array([0.7, 0.3, 0.1])
        phi = (2.0 * np.arctan(_MIX) + 2.0 * c[0]) / 4.0
        n = _JACOBI_MIN_ROWS
        U = np.exp(1j * phi) * random_locals(rng, n) @ abelian_gate(c) @ random_locals(rng, n)
        got = canonical_coords_batch(U)
        assert calls == [(_JACOBI_MIN_ROWS, 4, 4)]
        assert np.abs(got - c).max() <= 1e-12

    @pytest.mark.parametrize("sweeps,iswaps", [(1, 0), (0, 512)])
    def test_unconverged_rows_take_general_eigensolver(self, rng, monkeypatch, sweeps, iswaps):
        """With one sweep no bulk row converges; every one must reach ``eigvals``.

        Dressed iSWAPs without a global phase have a real m, so before any
        sweep only the real part of the off-diagonal shows them unconverged.
        """
        n = 1024  # a Jacobi-route stack, half of it iSWAPs in the second case
        assert n >= _JACOBI_MIN_ROWS
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
        monkeypatch.setattr(invariants, "_JACOBI_SWEEPS", sweeps)
        bulk = interior_chamber_points(rng, n - iswaps, margin=0.0)
        iswap = np.tile([np.pi / 2, np.pi / 2, 0.0], (iswaps, 1))
        U = np.concatenate([
            dressed_stack(rng, _abelian_batch(bulk)),
            random_locals(rng, iswaps) @ _abelian_batch(iswap) @ random_locals(rng, iswaps),
        ])
        got = canonical_coords_batch(U)
        assert calls == [(n, 4, 4)]
        assert class_distances(got, np.concatenate([bulk, iswap])).max() <= 1e-12

    def test_route_follows_stack_length(self, rng, monkeypatch):
        """At the threshold no per-matrix LAPACK call runs over the whole
        stack (unconverged rows may still reach ``eigvals``); below it, one does."""
        U = dressed_stack(rng, _abelian_batch(interior_chamber_points(rng, _JACOBI_MIN_ROWS)))
        expected = canonical_coords_batch(U)
        rows = []

        def counted(solver):
            def call(a, *args, **kwargs):
                rows.append(len(a))
                return solver(a, *args, **kwargs)
            return call

        for name in ("det", "eigh", "eigvals"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        np.testing.assert_array_equal(canonical_coords_batch(U), expected)
        assert max(rows, default=0) < len(U)
        rows.clear()
        canonical_coords_batch(U[1:])
        assert len(U) - 1 in rows

    @pytest.mark.parametrize("n", [1, 3, 1024])
    def test_closed_form_determinant(self, rng, n):
        A = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
        want = np.linalg.det(A)
        got = _laplace_det(np.ascontiguousarray(A.transpose(1, 2, 0)))
        assert (np.abs(got - want) / np.abs(want)).max() <= 1e-12


class TestInverseMapOnBoundary:
    @settings(max_examples=300, deadline=None)
    @given(
        simplex=st.sampled_from(SIMPLICES),
        weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    )
    def test_never_raises_on_valid_invariants(self, simplex, weights):
        """Walls cost accuracy (documented at c_from_g), never an exception."""
        c = boundary_point(simplex, weights)
        got = c_from_g(*g_from_c(c))
        assert in_weyl_chamber(*got.as_tuple(), tol=1e-8)
        assert class_distance(got.as_tuple(), c) <= 1e-2
