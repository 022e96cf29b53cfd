import io
import json

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (
    CNOT,
    SU2_IDENTITY,
    SWAP,
    local_gate,
    matrix_to_json_dict,
    random_full_coords,
    random_su2_params,
    write_matrix_json,
)
from gategeom.coords import FullCoords, Su2Params
from gategeom.errors import ValidationError
from gategeom.gates import (
    GENERATOR_LABELS,
    NAMED_GATE_POINTS,
    PAULI,
    _abelian_batch,
    _assemble_batch,
    _generators,
    _su2_matrix,
    abelian_gate,
    assemble,
    generator,
    load_matrix_json,
    require_unitary,
)
from gategeom.invariants import _MAGIC_BASIS as MAGIC_BASIS

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
        np.testing.assert_allclose(_abelian_batch(c), want, rtol=0, atol=1e-15)


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

    def test_scalar_is_a_row_of_the_batch(self, rng):
        xs = [random_full_coords(rng) for _ in range(50)]
        batch = _assemble_batch(np.array([x.as_array() for x in xs]))
        x = xs[0]  # plain tuples where the dataclasses would go
        xs[0] = FullCoords(x.a1, x.b1.as_tuple(), x.a2, x.b2, x.c.as_tuple())
        for x, row in zip(xs, batch):
            np.testing.assert_array_equal(assemble(x), row)


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

    def test_wrapped_brings_angles_into_range(self):
        v = Su2Params.wrapped(-0.5, 0.5, -0.25)
        assert 0 <= v.alpha < 4 * np.pi
        assert 0 <= v.phi < 2 * np.pi
