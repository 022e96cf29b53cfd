import io
import json

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    CNOT,
    SU2_IDENTITY,
    SWAP,
    abelian_gate,
    cores,
    local_gate,
    matrix_to_json_dict,
    random_su2_params,
    write_matrix_json,
)
from gategeom.coords import CanonicalCoords, FullCoords, Su2Params
from gategeom.errors import ValidationError
from gategeom.geometry import det_g_closed, frame_finite_difference, metric_tensor
from gategeom.gates import (
    GENERATOR_LABELS,
    NAMED_GATE_POINTS,
    PAULI,
    _assemble_batch,
    _generators,
    _su2_matrix,
    assemble,
    generator,
    load_matrix_json,
    require_unitary,
    require_unitary_stack,
)
from gategeom.invariants import _MAGIC_BASIS as MAGIC_BASIS
from gategeom.invariants import canonical_coords_batch
from gategeom.sampling import export_jsonl
from gategeom.verify import _random_full_coords

I2 = np.eye(2)
I4 = np.eye(4)


def su2_factor(v: Su2Params) -> np.ndarray:
    return _su2_matrix(*v.as_tuple())


def load_matrix_dict(obj) -> np.ndarray:
    return load_matrix_json(io.StringIO(json.dumps(obj)))


class TestGenerators:
    def test_tensor_z_generator_is_half_alternating_diagonal(self):
        got = generator("0", "z")
        np.testing.assert_allclose(got, np.diag([0.5, -0.5, 0.5, -0.5]), atol=0)

    def test_xx_generator_is_half_antidiagonal(self):
        got = generator("x", "x")
        np.testing.assert_allclose(got, 0.5 * np.fliplr(np.eye(4)), atol=0)

    def test_trace_orthonormal_exactly(self):
        T = _generators()
        gram = np.einsum("aij,bji->ab", T, T)
        np.testing.assert_allclose(gram, np.eye(15), atol=0)

    def test_all_hermitian(self):
        T = _generators()
        np.testing.assert_allclose(T, np.conj(np.swapaxes(T, 1, 2)), atol=0)

    def test_identity_pair_rejected(self):
        with pytest.raises(ValueError):
            generator("0", "0")

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            generator("w", "z")

    def test_label_count(self):
        assert len(GENERATOR_LABELS) == 15


class TestSu2Factor:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(su2_factor(Su2Params(0.0, 1.0, 2.0)), I2, atol=0)

    def test_two_pi_is_minus_identity(self):
        got = su2_factor(Su2Params(2 * np.pi, 0.7, 0.3))
        np.testing.assert_allclose(got, -I2, atol=1e-15)

    def test_pi_rotation_about_x(self):
        got = su2_factor(Su2Params(np.pi, np.pi / 2, 0.0))
        np.testing.assert_allclose(got, -1j * PAULI["x"], atol=1e-15)

    def test_determinant_one(self, rng):
        for _ in range(50):
            u = su2_factor(random_su2_params(rng, margin=0.0))
            assert abs(np.linalg.det(u) - 1.0) < 1e-13


class TestLocalGate:
    def test_identity_pair(self):
        np.testing.assert_allclose(local_gate(SU2_IDENTITY, SU2_IDENTITY), I4, atol=0)

    def test_determinant_one(self, rng):
        for _ in range(50):
            k = local_gate(random_su2_params(rng), random_su2_params(rng))
            assert abs(np.linalg.det(k) - 1.0) < 1e-12

    def test_second_factor_identity_gives_kron_with_identity(self, rng):
        a = random_su2_params(rng)
        np.testing.assert_allclose(
            local_gate(a, SU2_IDENTITY), np.kron(su2_factor(a), I2), atol=1e-15
        )


class TestAbelianGate:
    def test_zero_triple_is_identity(self):
        np.testing.assert_allclose(abelian_gate((0.0, 0.0, 0.0)), I4, atol=0)

    def test_pi_on_first_axis(self):
        got = abelian_gate((np.pi, 0.0, 0.0))
        np.testing.assert_allclose(got, -1j * np.kron(PAULI["x"], PAULI["x"]), atol=1e-15)

    def test_additive_in_the_exponent(self, rng):
        for _ in range(20):
            c, d = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
            lhs = abelian_gate(c) @ abelian_gate(d)
            np.testing.assert_allclose(lhs, abelian_gate(c + d), atol=1e-12)

    def test_commutes(self, rng):
        c, d = rng.uniform(-np.pi, np.pi, 3), rng.uniform(-np.pi, np.pi, 3)
        A, B = abelian_gate(c), abelian_gate(d)
        assert np.max(np.abs(A @ B - B @ A)) <= 1e-12

    def test_closed_form_matches_the_exponential(self, rng):
        c = np.vstack(
            [
                np.sort(rng.uniform(0, np.pi / 2, (100, 3)))[:, ::-1],  # in the chamber
                rng.uniform(-np.pi, np.pi, (100, 3)),  # mostly outside it
                [[0.0, 0.0, 0.0], [np.pi, 0.0, 0.0], [np.pi / 2, np.pi / 4, 0.0]],
            ]
        )
        pairs = np.array([np.kron(PAULI[s], PAULI[s]) for s in "xyz"])
        want = np.array([expm(-0.5j * np.einsum("j,jab->ab", t, pairs)) for t in c])
        np.testing.assert_allclose(cores(c), want, rtol=0, atol=1e-15)


class TestAssemble:
    def test_all_zero_coordinates(self):
        x = FullCoords(SU2_IDENTITY, SU2_IDENTITY, SU2_IDENTITY, SU2_IDENTITY, (0, 0, 0))
        np.testing.assert_allclose(assemble(x), I4, atol=0)

    def test_unitary_for_random_coordinates(self, rng):
        for _ in range(200):
            x = FullCoords(
                random_su2_params(rng, 0.0),
                random_su2_params(rng, 0.0),
                random_su2_params(rng, 0.0),
                random_su2_params(rng, 0.0),
                tuple(rng.uniform(0, np.pi / 2, 3)),
            )
            U = assemble(x)
            assert np.max(np.abs(U.conj().T @ U - I4)) <= 1e-12
            assert abs(np.linalg.det(U) - 1.0) <= 1e-10

    def test_trivial_locals_reduce_to_commuting_core(self):
        x = FullCoords(SU2_IDENTITY, SU2_IDENTITY, SU2_IDENTITY, SU2_IDENTITY, (np.pi / 2, 0, 0))
        np.testing.assert_allclose(assemble(x), abelian_gate((np.pi / 2, 0, 0)), atol=0)

    def test_matches_the_exponentials(self, rng):
        """k1 A(c) k2 against kron(expm, expm) . expm . kron(expm, expm) from
        scipy, alpha over all of [0, 4 pi); the worst measured is 2.4e-15."""
        sigma = np.array([PAULI[s] for s in "xyz"])
        pairs = np.array([np.kron(PAULI[s], PAULI[s]) for s in "xyz"])

        def rotation(v: Su2Params) -> np.ndarray:
            axis = (np.sin(v.theta) * np.cos(v.phi), np.sin(v.theta) * np.sin(v.phi), np.cos(v.theta))
            return expm(-0.5j * v.alpha * np.einsum("j,jab->ab", axis, sigma))

        for _ in range(200):
            x = _random_full_coords(rng, margin=0.0)
            core = expm(-0.5j * np.einsum("j,jab->ab", x.c.as_tuple(), pairs))
            want = np.kron(rotation(x.a1), rotation(x.b1)) @ core @ np.kron(rotation(x.a2), rotation(x.b2))
            np.testing.assert_allclose(assemble(x), want, rtol=0, atol=2e-13)

    def test_scalar_is_a_row_of_the_batch(self, rng):
        xs = [_random_full_coords(rng) for _ in range(50)]
        batch = _assemble_batch(np.array([x.as_array() for x in xs])).transpose(2, 0, 1)
        x = xs[0]  # plain tuples where the dataclasses would go
        xs[0] = FullCoords(x.a1, x.b1.as_tuple(), x.a2, x.b2, x.c.as_tuple())
        for x, row in zip(xs, batch):
            np.testing.assert_array_equal(assemble(x), row)


class TestFullCoords:
    @pytest.mark.parametrize("name", ["a1", "b1", "a2", "b2", "c"])
    @pytest.mark.parametrize("bad", [(np.nan, 0.0, 0.0), (np.inf, 0.0, 0.0), (0.0, -np.inf, 0.0), (0.0, 0.0)])
    def test_each_field_must_be_three_finite_numbers(self, name, bad):
        fields = dict.fromkeys(["a1", "b1", "a2", "b2", "c"], (0.0, 0.0, 0.0)) | {name: bad}
        with pytest.raises(ValidationError, match=rf"^{name} must be three finite numbers"):
            FullCoords(**fields)

    def test_plain_triples_are_the_typed_coordinates(self, rng):
        """Triples are converted at construction, so every consumer reads the
        same fields, bit for bit, as from the typed containers."""
        for _ in range(5):
            x = _random_full_coords(rng)
            triples = [v.as_tuple() for v in (x.a1, x.b1, x.a2, x.b2, x.c)]
            plain = FullCoords(*triples[:4], np.array(triples[4]))
            typed = FullCoords(*(Su2Params(*t) for t in triples[:4]), CanonicalCoords(*triples[4]))
            assert plain == typed
            for f in (FullCoords.as_array, assemble, metric_tensor, frame_finite_difference):
                np.testing.assert_array_equal(f(plain), f(typed))
            assert det_g_closed(plain) == det_g_closed(typed)


class TestMagicBasis:
    def test_change_of_basis_matrix_is_unitary(self):
        np.testing.assert_allclose(MAGIC_BASIS.conj().T @ MAGIC_BASIS, I4, atol=1e-15)

    def test_local_gates_become_orthogonal(self, rng):
        for _ in range(100):
            k = local_gate(random_su2_params(rng, 0.0), random_su2_params(rng, 0.0))
            kb = MAGIC_BASIS.conj().T @ k @ MAGIC_BASIS
            assert np.max(np.abs(kb.imag)) <= 1e-12
            assert np.max(np.abs(kb.T @ kb - I4)) <= 1e-12


class TestUnitarityChecks:
    def test_message_names_the_violation(self):
        with pytest.raises(ValidationError, match="unitarity violation"):
            require_unitary(2.0 * I4)

    def test_accepts_swap_and_cnot(self):
        np.testing.assert_array_equal(require_unitary(SWAP), SWAP)
        np.testing.assert_array_equal(require_unitary(CNOT), CNOT)


def _with_entry(i, j, value):
    U = np.eye(4, dtype=complex)
    U[i, j] = value
    return U


def _row_scaled(factor):
    U = np.eye(4, dtype=complex)
    U[2] *= factor
    return U


class TestUnitarityContract:
    """What the check accepts and rejects, and its messages, word for word.

    A row scaled by 1 + e leaves a residual (1 + e)^2 - 1: 2e = 4e-10 is
    rejected, 8e-11 passes, and 1 + 5e-11 lands at 1.0000000008e-10, just
    past the bound.
    """

    TAIL = "exceeds 1.0e-10"

    @pytest.mark.parametrize(
        "U,residual",
        [
            (_with_entry(1, 2, np.nan), "nan"),
            (_with_entry(0, 0, np.inf), "nan"),
            (_with_entry(0, 0, 1e200), "inf"),
            (_row_scaled(1 + 2e-10), "4.000e-10"),
            (_row_scaled(1 + 5e-11), "1.000e-10"),
        ],
    )
    def test_rejections(self, U, residual):
        want = f"unitarity violation: max|U^dag U - I| = {residual} {self.TAIL}"
        # No RuntimeWarning either (they are errors here): inf * 0 in U^dag U
        # and the square of 1e200 are kept quiet.
        for call, what in (
            (lambda: require_unitary(U), "matrix"),
            (lambda: require_unitary(U, "gate"), "gate"),
            (lambda: require_unitary_stack(U[None]), "matrix"),
        ):
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == f"{what}: {want}"

    def test_acceptance_below_the_bound(self):
        U = _row_scaled(1 + 4e-11)
        np.testing.assert_array_equal(require_unitary(U), U)
        np.testing.assert_array_equal(require_unitary_stack(U[None]), U[None])

    def test_empty_stack_is_accepted(self):
        """It raised numpy's "attempt to get argmax of an empty sequence"."""
        empty = np.zeros((0, 4, 4))
        assert require_unitary_stack(empty).shape == (0, 4, 4)
        assert canonical_coords_batch(empty).shape == (0, 3)
        out = io.StringIO()
        export_jsonl(out, empty)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
    def test_shapes(self, shape):
        with pytest.raises(ValidationError) as err:
            require_unitary(np.ones(shape))
        assert str(err.value) == f"matrix must be 4x4, got shape {shape}"
        with pytest.raises(ValidationError) as err:
            require_unitary_stack(np.ones((1, *shape)))
        assert str(err.value) == f"expected a stack of 4x4 matrices, got shape {(1, *shape)}"

    @pytest.mark.parametrize(
        "rows,named",
        [
            ([np.eye(4), _row_scaled(2.0), _row_scaled(1.5)], "index 1: max|U^dag U - I| = 3.000e+00"),
            ([_row_scaled(1.5), np.eye(4), _row_scaled(2.0)], "index 2: max|U^dag U - I| = 3.000e+00"),
            ([np.eye(4), _row_scaled(2.0), _with_entry(0, 0, np.nan)], "index 2: max|U^dag U - I| = nan"),
        ],
    )
    def test_worst_row_is_named(self, rows, named):
        """The row with the largest residual, a NaN row before any other."""
        with pytest.raises(ValidationError) as err:
            require_unitary_stack(np.array(rows), "gate stack")
        assert str(err.value) == f"gate stack: unitarity violation at {named} {self.TAIL}"


class TestMatrixJson:
    def test_round_trip(self, rng):
        U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
        back = load_matrix_dict(matrix_to_json_dict(U))
        np.testing.assert_allclose(back, U, atol=0)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            load_matrix_dict({"matrix": [[[1.0, 0.0]] * 3] * 4})

    def test_rejects_missing_key(self):
        with pytest.raises(ValidationError):
            load_matrix_dict({"rows": []})

    def test_rejects_non_numeric_entries(self):
        grid = [[[True, 0.0]] * 4 for _ in range(4)]
        with pytest.raises(ValidationError):
            load_matrix_dict({"matrix": grid})

    @pytest.mark.parametrize("big", [10**400, -(10**309)])
    def test_rejects_integers_too_large_for_a_float(self, big):
        grid = [[[0, 0]] * 4 for _ in range(4)]
        grid[3] = [[0, 0], [0, 0], [big, 0], [0, 0]]
        with pytest.raises(ValidationError, match=r"entry \(3,2\) is too large for a float"):
            load_matrix_dict({"matrix": grid})

    def test_load_from_file(self, tmp_path):
        path = write_matrix_json(tmp_path / "swap.json", SWAP)
        np.testing.assert_allclose(load_matrix_json(path), SWAP, atol=0)

    def test_file_contents_are_plain_json(self, tmp_path):
        path = write_matrix_json(tmp_path / "cnot.json", CNOT)
        data = json.loads(open(path).read())
        assert len(data["matrix"]) == 4
        assert data["matrix"][0][0] == [1.0, 0.0]


class TestNamedPoints:
    def test_registry_contents(self):
        assert set(NAMED_GATE_POINTS) == {
            "identity",
            "cnot",
            "cphase",
            "dcnot",
            "swap",
            "sqrt-swap",
            "b-gate",
        }

    def test_cnot_and_cphase_share_a_point(self):
        assert NAMED_GATE_POINTS["cnot"] == NAMED_GATE_POINTS["cphase"]


class TestSu2ParamRanges:
    def test_out_of_range_alpha_rejected(self):
        with pytest.raises(ValidationError):
            Su2Params(4 * np.pi, 0.5, 0.5)

