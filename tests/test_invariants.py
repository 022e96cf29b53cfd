import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CNOT,
    SWAP,
    abelian_gate,
    cores,
    lapack_calls,
    local_gate,
    random_su2_params,
    same_bits,
    structured_stack,
)
from gategeom.coords import in_weyl_chamber
from gategeom.errors import ConsistencyError, InvalidInvariantsError, ValidationError
from gategeom import invariants
from gategeom.gates import NAMED_GATE_POINTS, _assemble_batch, assemble
from gategeom.sampling import BLOCK_SIZE
from gategeom.invariants import (
    FACE_TOL,
    LocalInvariants,
    _JACOBI_MIN_ROWS,
    _MIX,
    _SYM_OFF,
    _column_invariants,
    _det_and_congruence,
    _laplace_det,
    _largest_off_diagonal,
    _trace_invariants,
    c_from_g,
    canonical_coords,
    canonical_coords_batch,
    g_from_c,
    makhlin_invariants,
    project_su4,
    validate_invariant_ranges,
)
from gategeom.verify import _chamber_interior_points, _random_full_coords

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
            U = assemble(_random_full_coords(rng))
            k1 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
            k2 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
            g0 = np.array(makhlin_invariants(U).as_tuple())
            g1 = np.array(makhlin_invariants(k1 @ U @ k2).as_tuple())
            np.testing.assert_allclose(g1, g0, rtol=0, atol=1e-12)

    def test_invariant_under_global_phase(self, rng):
        U = assemble(_random_full_coords(rng))
        for chi in rng.uniform(0, 2 * np.pi, 5):
            g0 = np.array(makhlin_invariants(U).as_tuple())
            g1 = np.array(makhlin_invariants(np.exp(1j * chi) * U).as_tuple())
            np.testing.assert_allclose(g1, g0, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            makhlin_invariants(np.ones((4, 4)))

    def test_agrees_with_invariants_of_the_coordinates(self, rng):
        """The trace formulas and the spectral kernel are independent routes."""
        gates = [assemble(_random_full_coords(rng)) for _ in range(30)] + [np.eye(4), CNOT, SWAP]
        for U in gates:
            got = makhlin_invariants(U).as_array()
            np.testing.assert_allclose(got, g_from_c(canonical_coords(U).as_array()), rtol=0, atol=1e-14)


class TestInvariantRanges:
    def test_out_of_range_triple_is_inconsistent(self):
        with pytest.raises(ConsistencyError):
            LocalInvariants(1.5, 0.0, 0.0)

    def test_user_facing_validation(self):
        with pytest.raises(ValidationError):
            validate_invariant_ranges(0.0, 0.3, 0.0)


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
        pts = _chamber_interior_points(rng, 7)
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
        pts = _chamber_interior_points(rng, 10_000)
        rec = _invert_batch(g_from_c(pts))
        assert np.abs(rec - pts).max() <= 1e-9

    def test_g_round_trip(self, rng):
        pts = _chamber_interior_points(rng, 1_000)
        g = g_from_c(pts)
        np.testing.assert_allclose(g_from_c(_invert_batch(g)), g, atol=1e-9)

    def test_cubic_roots_match_double_angle_cosines(self, rng):
        """np.roots of the inversion cubic equals {cos 2c_i} as a multiset."""
        for c in _chamber_interior_points(rng, 50):
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
        pts = _chamber_interior_points(rng, 200)
        rec = _invert_batch(g_from_c(pts))
        assert in_weyl_chamber(rec[:, 0], rec[:, 1], rec[:, 2]).all()


class TestCanonicalCoords:
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
            U = assemble(_random_full_coords(rng))
            c = canonical_coords(U)
            again = canonical_coords(abelian_gate(c.as_tuple()))
            np.testing.assert_allclose(again.as_tuple(), c.as_tuple(), rtol=0, atol=1e-12)

    def test_invariants_at_matches_forward_map(self, rng):
        c = _chamber_interior_points(rng, 1)[0]
        got = LocalInvariants(*g_from_c(c).tolist())
        np.testing.assert_allclose(got.as_tuple(), g_from_c(c), atol=1e-15)


class TestPhaseProjection:
    def test_special_unitary_input_unchanged(self, rng):
        U = assemble(_random_full_coords(rng))
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
        U = np.exp(1j * 0.9) * assemble(_random_full_coords(rng))
        V, _ = project_su4(U)
        assert abs(np.linalg.det(V) - 1.0) < 1e-10


class TestLocalEquivalence:
    def test_dressed_copy_is_equivalent(self, rng):
        U = assemble(_random_full_coords(rng))
        k1 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        k2 = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
        assert locally_equivalent(U, k1 @ U @ k2)

    def test_cnot_vs_swap(self):
        assert not locally_equivalent(CNOT, SWAP)

    def test_phase_shifted_copy_is_equivalent(self, rng):
        U = assemble(_random_full_coords(rng))
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
        pts = _chamber_interior_points(rng, 2000, margin=0.0)
        U = np.array([dressed(rng, c) for c in pts])
        assert np.abs(canonical_coords_batch(U) - pts).max() <= 1e-12

    def test_scalar_equals_batch_row(self, rng):
        pts = np.concatenate(
            [_chamber_interior_points(rng, 50), [boundary_point(s, (0.3, 0.5, 0.2)) for s in SIMPLICES]]
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


def scalar_families(rng) -> np.ndarray:
    """One-gate inputs of every family a single call meets, as one stack
    below the Jacobi route: Haar gates; the named points, bare and dressed;
    CPhase(theta) over [0, 2 pi); XX over [0, pi]; XY and Heisenberg over
    [0, pi/2]; and classes exactly on the c3 = 0 face, bare and dressed."""
    gates = [np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
             for _ in range(40)]
    for c in NAMED_GATE_POINTS.values():
        gates += [abelian_gate(c), dressed(rng, c)]
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        gates.append(dressed(rng, (0.0, 0.0, 0.0)) @ np.diag([1, 1, 1, np.exp(1j * theta)]))
    for shape, top in (((1, 0, 0), np.pi), ((1, 1, 0), np.pi / 2), ((1, 1, 1), np.pi / 2)):
        gates += [dressed(rng, t * np.array(shape, dtype=float)) for t in np.linspace(0.0, top, 12)]
    for c1 in np.linspace(0.0, np.pi, 10):
        c = (c1, 0.7 * min(c1, np.pi - c1), 0.0)
        gates += [abelian_gate(c), dressed(rng, c)]
    return np.array(gates)


class TestScalarIsABatchRow:
    """A one-gate call returns the bits of its row in a stacked call."""

    def test_canonical_coords(self, rng):
        U = scalar_families(rng)
        assert U.shape[0] < _JACOBI_MIN_ROWS
        batch = canonical_coords_batch(U)
        for i in range(U.shape[0]):
            assert np.array(canonical_coords(U[i]).as_tuple()).tobytes() == batch[i].tobytes()

    def test_makhlin_invariants(self, rng):
        U = scalar_families(rng)
        g = lapack_invariants(U)
        for i in range(U.shape[0]):
            assert np.array(makhlin_invariants(U[i]).as_tuple()).tobytes() == g[i].tobytes()


class TestOneKernel:
    """Scalar calls are one-row stacks through the batched maps: one ``det``
    on a (1, 4, 4) stack, and one ``eigvals`` for coordinates only; no
    scalar-only route."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []

        def spy(name, fn):
            def wrapped(a):
                log.append((name, np.shape(a)))
                return fn(a)
            return wrapped

        monkeypatch.setattr(np.linalg, "det", spy("det", np.linalg.det))
        monkeypatch.setattr(np.linalg, "eigvals", spy("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(invariants, "_spectral_coords", spy("kernel", invariants._spectral_coords))
        return log

    @pytest.mark.parametrize(
        "call,want",
        [
            (canonical_coords, [("kernel", (1, 4, 4)), ("det", (1, 4, 4)), ("eigvals", (1, 4, 4))]),
            (makhlin_invariants, [("det", (1, 4, 4))]),
        ],
        ids=["canonical_coords", "makhlin_invariants"],
    )
    def test_one_gate(self, rng, calls, call, want):
        U = dressed(rng, (0.7, 0.3, 0.1))
        calls.clear()
        call(U)
        assert calls == want

    def test_small_stack(self, rng, calls):
        U = np.array([dressed(rng, (0.7, 0.3, 0.1)) for _ in range(3)])
        calls.clear()
        canonical_coords_batch(U)
        assert calls == [("kernel", (3, 4, 4)), ("det", (3, 4, 4)), ("eigvals", (3, 4, 4))]


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
    """n random local gates u (x) v, shape (n, 4, 4): the gates assembled with c = 0."""
    params = np.zeros((n, 15))
    for f in range(2):
        params[:, 3 * f] = rng.uniform(0.0, 4 * np.pi, n)
        params[:, 3 * f + 1] = np.arccos(rng.uniform(-1.0, 1.0, n))
        params[:, 3 * f + 2] = rng.uniform(0.0, 2 * np.pi, n)
    return _assemble_batch(params).transpose(2, 0, 1)


def dressed_stack(rng, cores: np.ndarray) -> np.ndarray:
    """k1 core k2 per row, with random local gates and global phases."""
    phase = np.exp(2j * np.pi * rng.random(cores.shape[0]))[:, None, None]
    return phase * random_locals(rng, cores.shape[0]) @ cores @ random_locals(rng, cores.shape[0])


def tiled(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` repeated to fill one stack of the Jacobi route."""
    return np.resize(points, (max(_JACOBI_MIN_ROWS, len(points)), *points.shape[1:]))


def lapack_invariants(U: np.ndarray) -> np.ndarray:
    """Makhlin's trace formulas on an (n, 4, 4) stack by the LAPACK
    determinant and the stacked congruence: ``makhlin_invariants``'s route."""
    det, m = _det_and_congruence(U)
    return _trace_invariants(det, m.trace(axis1=1, axis2=2), (m * m).sum(axis=(1, 2)))


def column_invariants(U: np.ndarray) -> np.ndarray:
    """The trace formulas on the samplers' route: the (4, 4, n) copy, with
    its Laplace determinant."""
    u = U.transpose(1, 2, 0).copy()
    return _column_invariants(u, _laplace_det(u))


def both_routes(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of a stack from the Jacobi route and from the ``eigvals`` route."""
    assert U.shape[0] >= _JACOBI_MIN_ROWS
    parts = np.array_split(U, -(-2 * U.shape[0] // _JACOBI_MIN_ROWS))
    assert max(len(p) for p in parts) < _JACOBI_MIN_ROWS
    return canonical_coords_batch(U), np.concatenate([canonical_coords_batch(p) for p in parts])


def flagged_rows(monkeypatch) -> list:
    """A log of how many rows of each Jacobi-route stack the sweeps leave
    with an off-diagonal above ``_TIE_TOL``, for the closing round."""
    log = []

    def spy(a, b):
        off = largest(a, b)
        log.append(int(np.count_nonzero(off > invariants._TIE_TOL)))
        return off

    largest = invariants._largest_off_diagonal
    monkeypatch.setattr(invariants, "_largest_off_diagonal", spy)
    return log


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
        jacobi, lapack = both_routes(dressed_stack(np.random.default_rng(seed), cores(c)))
        assert in_weyl_chamber(jacobi[:, 0], jacobi[:, 1], jacobi[:, 2], tol=1e-15).all()
        assert class_distances(jacobi, c).max() <= 1e-12
        assert np.abs(jacobi - lapack).max() <= 1e-14

    def test_gate_families_and_cphase(self, rng):
        c = tiled(FAMILY_POINTS)
        theta = tiled(CPHASE_ANGLES)
        cphase = np.zeros((theta.size, 4, 4), dtype=complex)
        cphase[:, [0, 1, 2], [0, 1, 2]] = 1.0
        cphase[:, 3, 3] = np.exp(1j * theta)
        for core, true in (
            (cores(c), c),
            (cphase, np.stack([theta / 2, 0 * theta, 0 * theta], axis=-1)),
        ):
            jacobi, lapack = both_routes(dressed_stack(rng, core))
            assert class_distances(jacobi, true).max() <= 1e-12
            assert np.abs(jacobi - lapack).max() <= 1e-14

    @pytest.mark.parametrize(
        "c,k",
        [
            ((0.7, 0.3, 0.1), 0),
            ((np.pi / 4, 0.3, 0.1), 0),
            ((np.pi / 2, np.pi / 4, 0.0), 1),
            ((1e-9, 1e-9, 0.0), 0),
        ],
        ids=["tie", "c1=pi/4", "B gate", "near identity"],
    )
    def test_accidental_tie_is_split_without_lapack(self, rng, monkeypatch, c, k):
        """The tie of TestSpectralKernel, on the pair summing to
        -2 c_k + 4 phi, survives local dressing, so every row has it, and
        the closing round splits it with no LAPACK call.

        The other pair sums to 2 c_k + 4 phi; at c_k = pi/4 it ties in
        Im m - r Re m as well, where a rotation chosen on that member alone
        would mix eigenvectors the mix had separated.  Near the identity all
        four eigenvalues lie within 4e-9, the mix's within 1e-16, and one
        closing sweep leaves them 1e-10 from their class.
        """
        c = np.array(c)
        phi = (2.0 * np.arctan(_MIX) + 2.0 * c[k]) / 4.0
        n = _JACOBI_MIN_ROWS
        U = np.exp(1j * phi) * random_locals(rng, n) @ abelian_gate(c) @ random_locals(rng, n)
        calls, flagged = lapack_calls(monkeypatch), flagged_rows(monkeypatch)
        got = canonical_coords_batch(U)
        assert calls == [] and flagged == [n]
        assert class_distances(got, np.tile(c, (n, 1))).max() <= 1e-12

    def test_unconverged_rows_are_finished_without_lapack(self, rng, monkeypatch):
        """Two sweeps leave nearly every bulk row unconverged, and the closing
        round takes them to the ``eigvals`` route's coordinates.

        Dressed iSWAPs without a global phase have a real m, whose
        eigenvalues 1 and -1 tie in Im m up to round-off.
        """
        n, iswaps = 1024, 512  # a Jacobi-route stack, half of it iSWAPs
        bulk = _chamber_interior_points(rng, n - iswaps, margin=0.0)
        iswap = np.tile([np.pi / 2, np.pi / 2, 0.0], (iswaps, 1))
        U = np.concatenate([
            dressed_stack(rng, cores(bulk)),
            random_locals(rng, iswaps) @ cores(iswap) @ random_locals(rng, iswaps),
        ])
        lapack = both_routes(U)[1]
        monkeypatch.setattr(invariants, "_JACOBI_SWEEPS", 2)
        calls, flagged = lapack_calls(monkeypatch), flagged_rows(monkeypatch)
        got = canonical_coords_batch(U)
        assert calls == [] and flagged[0] >= (n - iswaps) * 0.9
        assert np.abs(got - lapack).max() <= 1e-13
        assert class_distances(got, np.concatenate([bulk, iswap])).max() <= 1e-12

    def test_closing_round_keeps_a_converged_row(self, rng, monkeypatch):
        """Every row of the gate families, the real-m iSWAPs and the structured
        gates sent through the closing round as well: it must not undo what
        the sweeps got right.  A closing sweep chosen on Im m alone turns
        the eigenvalues 1 and -1 of a real m into each other (measured 1.6)."""
        family = cores(tiled(FAMILY_POINTS))
        iswap = cores(np.tile([np.pi / 2, np.pi / 2, 0.0], (len(family), 1)))
        U = np.concatenate([
            dressed_stack(rng, family),
            *(random_locals(rng, len(core)) @ core @ random_locals(rng, len(core)) for core in (family, iswap)),
            structured_stack(),
        ])
        lapack = both_routes(U)[1]
        monkeypatch.setattr(invariants, "_TIE_TOL", -1.0)
        assert np.abs(canonical_coords_batch(U) - lapack).max() <= 1e-14

    def test_face_points_lie_inside_at_tolerance_zero(self, rng):
        """On the face c1 + c2 = pi the fold's c1 and c2 add to at most pi in
        floating point, though pi - c1 - c2 may read -1.1e-16."""
        w = rng.random((2000, 3))
        c = (w / w.sum(axis=1, keepdims=True)) @ CHAMBER_VERTICES[[1, 2, 3]]
        for got in both_routes(dressed_stack(rng, cores(c))):
            assert in_weyl_chamber(got[:, 0], got[:, 1], got[:, 2], tol=0.0).all()
            assert class_distances(got, c).max() <= 1e-12

    def test_route_follows_stack_length(self, rng, monkeypatch):
        """At the threshold no LAPACK call runs; below it, one per-matrix
        call runs over the whole stack."""
        U = dressed_stack(rng, cores(_chamber_interior_points(rng, _JACOBI_MIN_ROWS)))
        expected = canonical_coords_batch(U)
        calls = lapack_calls(monkeypatch)
        np.testing.assert_array_equal(canonical_coords_batch(U), expected)
        assert calls == []
        canonical_coords_batch(U[1:])
        assert ("eigvals", (len(U) - 1, 4, 4)) in calls

    @pytest.mark.parametrize("n", [1, 3, 1024])
    def test_closed_form_determinant(self, rng, n):
        A = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
        want = np.linalg.det(A)
        got = _laplace_det(np.ascontiguousarray(A.transpose(1, 2, 0)))
        assert (np.abs(got - want) / np.abs(want)).max() <= 1e-12


# --- bit-identical rewrites of the Jacobi route's kernels --------------------


def laplace_det_gathered(u: np.ndarray) -> np.ndarray:
    """The Laplace determinant on fancy-indexed (6, n) minors, the reference
    whose bits :func:`_laplace_det` keeps."""
    i, j = np.triu_indices(4, 1)
    top = u[0, i] * u[1, j] - u[0, j] * u[1, i]
    bottom = u[2, i] * u[3, j] - u[2, j] * u[3, i]
    sign = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])[:, None]
    return (sign * top * bottom[::-1]).sum(axis=0)


def largest_off_diagonal_gathered(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The convergence test on gathered (6, n) rows, the reference whose
    bits :func:`_largest_off_diagonal` keeps."""
    re_off = a[_SYM_OFF] - _MIX * b[_SYM_OFF]
    return np.maximum(np.abs(re_off), np.abs(b[_SYM_OFF])).max(axis=0)


class TestBitIdenticalKernels:
    @pytest.mark.parametrize("m", [1, 5, 223, 224, 1023, 1024, 1025, BLOCK_SIZE])
    def test_laplace_det_on_gaussian_blocks(self, rng, m):
        u = rng.standard_normal((4, 4, m)) + 1j * rng.standard_normal((4, 4, m))
        assert same_bits(_laplace_det(u), laplace_det_gathered(u))

    def test_laplace_det_keeps_the_zeros_of_structured_gates(self):
        """Undressed gates full of exact zeros, which sampled blocks never hold."""
        u = np.ascontiguousarray(structured_stack().transpose(1, 2, 0))
        det = _laplace_det(u)
        assert (det.imag == 0.0).any() and same_bits(det, laplace_det_gathered(u))

    def test_laplace_det_keeps_the_zeros_of_exact_entries(self, rng):
        """Matrices of 0, -0, +-1, +-i and -0 - i, not unitary: the only
        inputs measured on which the signs of zeros in the terms reach a
        determinant.  Summed from the first term instead of from +0, 17 of
        these rows come out with a -0 part."""
        entries = np.array([0.0, -0.0, 1.0, -1.0, 1j, -1j, complex(0.0, -0.0), complex(-0.0, -1.0)])
        u = rng.choice(entries, size=(4, 4, 1 << 16))
        assert same_bits(_laplace_det(u), laplace_det_gathered(u))

    def test_largest_off_diagonal(self, rng):
        a, b = rng.standard_normal((2, 10, 1000)) * 10.0 ** rng.integers(-20, 1, (2, 10, 1000))
        a[:, :100] = 0.0
        b[:, 50:150] = -0.0
        a[3, 7] = b[8, 9] = np.nan
        assert same_bits(_largest_off_diagonal(a, b), largest_off_diagonal_gathered(a, b))


# --- Makhlin's trace formulas against a 50-digit reference -------------------


def trace_reference(U) -> list:
    """(Re G1, -Im G1, Re G2) of the exact float entries of U, at 50 digits."""
    with mpmath.workdps(50):
        Q = mpmath.matrix([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]])
        Q /= mpmath.sqrt(2)
        A = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in U])
        UB = Q.H * A * Q
        m = UB.T * UB
        tr = sum(m[i, i] for i in range(4))
        tr_sq = sum(m[i, j] * m[j, i] for i in range(4) for j in range(4))
        det = mpmath.det(A)
        G1, G2 = tr**2 / (16 * det), (tr**2 - tr_sq) / (4 * det)
        return [G1.real, -G1.imag, G2.real]


class TestTraceRouteReference:
    """The named gates and dressed XX, XY, Heisenberg and CPhase gates, on
    both layouts of the trace route.  The measured worst is 3.0e-15 (XY at
    t = 1e-6 on the Jacobi route's layout); the bound is 100 times that."""

    BOUND = 3e-13

    @pytest.fixture
    def gates(self, rng):
        out = [np.eye(4, dtype=complex), CNOT, SWAP, abelian_gate(SQRT_SWAP_POINT),
               abelian_gate(B_GATE_POINT)]
        for shape, ts in (((1, 0, 0), (1e-6, 0.3, 2.5)), ((1, 1, 0), (1e-6, 0.4, np.pi / 2)),
                          ((1, 1, 1), (1e-6, np.pi / 4, 1.3))):
            out += [dressed(rng, t * np.array(shape, dtype=float)) for t in ts]
        out += [dressed(rng, (0.0, 0.0, 0.0)) @ np.diag([1, 1, 1, np.exp(1j * theta)])
                for theta in (1e-6, 0.5, np.pi)]
        return np.array(out)

    def test_against_50_digits(self, gates):
        small = lapack_invariants(gates)
        jacobi = column_invariants(tiled(gates))[: len(gates)]
        for U, *rows in zip(gates, small, jacobi):
            want = trace_reference(U)
            for got in (*rows, makhlin_invariants(U).as_array()):
                err = max(abs(mpmath.mpf(float(x)) - w) for x, w in zip(got, want))
                assert err <= self.BOUND

    def test_zeros_are_positive_on_both_layouts(self, gates):
        """Unfixed, the formulas give -0.0 for the cnot's g1 and the identity's g2."""
        for g in (lapack_invariants(gates), column_invariants(tiled(gates))):
            zeros = g[g == 0.0]
            assert zeros.size >= 4 and not np.signbit(zeros).any()


def spectral_reference(U) -> list:
    """The kernel's coordinates of the exact float entries of U, at 50 digits:
    the eigenvalues of m = U_B^T U_B from ``mpmath.eig``, folded as the
    kernel folds them."""
    with mpmath.workdps(50):
        Q = mpmath.matrix([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]])
        Q /= mpmath.sqrt(2)
        A = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in U])
        UB = Q.H * A * Q
        eig = mpmath.eig(UB.T * UB, left=False, right=False)
        phase = mpmath.arg(mpmath.det(A)) / 4
        lam = [mpmath.arg(e) / 2 - phase for e in eig]
        c = [-(lam[0] + lam[1]), -(lam[1] + lam[3]), -(lam[0] + lam[3])]
        c = [x - mpmath.pi * mpmath.nint(x / mpmath.pi) for x in c]
        odd = c[0] * c[1] * c[2] < 0
        c = sorted((abs(x) for x in c), reverse=True)
        if odd and c[2] > FACE_TOL:
            c[0] = mpmath.pi - c[0]
        return c


class TestJacobiRouteReference:
    """Dressed named gates and dressed XX, XY, Heisenberg and CPhase gates
    on the Jacobi route, against :func:`spectral_reference`.  The measured
    worst is 5.9e-16, over 13 seeds of the dressing; the bound is 100 times
    that."""

    BOUND = 6e-14

    def test_against_50_digits(self, rng):
        cores_ = [abelian_gate(c) for c in NAMED_GATE_POINTS.values()]
        for shape, ts in (((1, 0, 0), (1e-6, 0.3, np.pi / 2, 2.5)),
                          ((1, 1, 0), (1e-6, 0.4, np.pi / 4, np.pi / 2)),
                          ((1, 1, 1), (1e-6, np.pi / 4, 1.3, np.pi / 2))):
            cores_ += [abelian_gate(t * np.array(shape, dtype=float)) for t in ts]
        cores_ += [np.diag([1, 1, 1, np.exp(1j * theta)]) for theta in (1e-6, 0.5, np.pi, 5.0)]
        gates = dressed_stack(rng, np.array(cores_ * 2))
        got = canonical_coords_batch(tiled(gates))
        assert len(got) >= _JACOBI_MIN_ROWS
        for c, U in zip(got, gates):
            want = spectral_reference(U)
            mirror = [mpmath.pi - want[0], want[1], -want[2]]
            err = min(max(abs(mpmath.mpf(float(x)) - w) for x, w in zip(c, ref))
                      for ref in (want, mirror))
            assert err <= self.BOUND


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
