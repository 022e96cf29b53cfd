"""Constant matrices and constructors for two-qubit gates.

Everything here is plain numpy: gates are (4, 4) complex arrays, the
fifteen traceless Hermitian generators are normalised so that
``tr(T_A T_B) = delta_AB`` with entries in {0, ±1/2, ±i/2}.
"""
from __future__ import annotations

import json
from typing import IO

import numpy as np

from .coords import CanonicalCoords, FullCoords, Su2Params, coerce_triple
from .errors import ValidationError

#: Tolerance when validating externally supplied matrices.
UNITARITY_INPUT_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
_IDENTITY_4 = np.eye(4)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"0": IDENTITY_2, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

#: Computational-basis to Bell-basis change of basis.  Columns are the
#: Bell-type states in which every local gate becomes real orthogonal.
MAGIC_BASIS = (1.0 / np.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

#: The 15 generator labels (i, j) with i, j in {0, x, y, z}, (0, 0) excluded.
#: First-qubit-only generators come first, then second-qubit-only, then the
#: nine genuinely two-body ones.
GENERATOR_LABELS: tuple[tuple[str, str], ...] = tuple(
    [(i, "0") for i in "xyz"]
    + [("0", j) for j in "xyz"]
    + [(i, j) for i in "xyz" for j in "xyz"]
)


def generator(i: str, j: str) -> np.ndarray:
    """Return the normalised generator ``sigma_i (x) sigma_j / 2``.

    ``i`` and ``j`` are single characters from {0, x, y, z}; the pair
    (0, 0) is excluded (it is not traceless).

    >>> np.allclose(generator("0", "z"), np.diag([1, -1, 1, -1]) / 2)
    True
    """
    i, j = str(i), str(j)
    if i not in PAULI or j not in PAULI:
        raise ValueError(f"generator labels must be in {{0,x,y,z}}, got ({i!r}, {j!r})")
    if i == "0" and j == "0":
        raise ValueError("(0, 0) is not a generator label")
    return np.kron(PAULI[i], PAULI[j]) / 2.0


_GENERATOR_STACK = None


def generators() -> np.ndarray:
    """All fifteen generators stacked as a (15, 4, 4) array, in label order."""
    global _GENERATOR_STACK
    if _GENERATOR_STACK is None:
        _GENERATOR_STACK = np.array([generator(i, j) for i, j in GENERATOR_LABELS])
        _GENERATOR_STACK.setflags(write=False)
    return _GENERATOR_STACK


def is_unitary(U: np.ndarray, tol: float = UNITARITY_INPUT_TOL) -> bool:
    U = np.asarray(U)
    if U.shape != (4, 4):
        return False
    return np.abs(U.conj().T @ U - np.eye(4)).max() <= tol


def require_unitary(U, tol: float = UNITARITY_INPUT_TOL, what: str = "matrix") -> np.ndarray:
    """Validate and return ``U`` as a (4, 4) complex unitary array."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValidationError(f"{what} must be 4x4, got shape {U.shape}")
    return require_unitary_stack(U[None], tol, what)[0]


def require_unitary_stack(
    U, tol: float = UNITARITY_INPUT_TOL, what: str = "matrix"
) -> np.ndarray:
    """Validate and return ``U`` as an (n, 4, 4) stack, one residual per row."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[1:] != (4, 4):
        raise ValidationError(f"expected a stack of 4x4 matrices, got shape {U.shape}")
    dev = np.abs(U.conj().transpose(0, 2, 1) @ U - _IDENTITY_4).max(axis=(1, 2))
    worst = int(np.argmax(dev))  # the first NaN, if any
    if not dev[worst] <= tol:  # also rejects NaN and infinite entries
        where = f" at index {worst}" if U.shape[0] > 1 else ""
        raise ValidationError(
            f"{what}: unitarity violation{where}: "
            f"max|U^dag U - I| = {dev[worst]:.3e} exceeds {tol:.1e}"
        )
    return U


def _su2_matrix(alpha, theta, phi):
    """Single-qubit rotation matrix from raw angles; broadcasts over arrays.

    Returns ``I cos(alpha/2) - i (axis . sigma) sin(alpha/2)`` with axis
    given by the spherical angles.  Shape: broadcast(...) + (2, 2).
    """
    alpha = np.asarray(alpha, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ca, sa = np.cos(alpha / 2), np.sin(alpha / 2)
    st, ct = np.sin(theta), np.cos(theta)
    nx = st * np.cos(phi)
    ny = st * np.sin(phi)
    nz = ct
    out = np.empty(np.broadcast(alpha, theta, phi).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = ca - 1j * sa * nz
    out[..., 0, 1] = -sa * (ny + 1j * nx)
    out[..., 1, 0] = sa * (ny - 1j * nx)
    out[..., 1, 1] = ca + 1j * sa * nz
    return out


def su2_factor(v: Su2Params) -> np.ndarray:
    """The 2x2 special unitary for one axis-angle triple.

    >>> np.allclose(su2_factor(Su2Params(0.0, 0.0, 0.0)), np.eye(2))
    True
    """
    if not isinstance(v, Su2Params):
        v = Su2Params(*v)
    return _su2_matrix(v.alpha, v.theta, v.phi)


def local_gate(a: Su2Params, b: Su2Params) -> np.ndarray:
    """Tensor product of two single-qubit rotations, ``u(a) (x) u(b)``.

    ``a`` acts on the first qubit, ``b`` on the second.
    """
    return np.kron(su2_factor(a), su2_factor(b))


def _kron_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product over stacked (n, 2, 2) factors -> (n, 4, 4)."""
    n = A.shape[0]
    return np.einsum("nij,nkl->nikjl", A, B).reshape(n, 4, 4)


_SIGMA_PAIRS = None


def _sigma_pair_stack():
    global _SIGMA_PAIRS
    if _SIGMA_PAIRS is None:
        _SIGMA_PAIRS = np.array([np.kron(PAULI[s], PAULI[s]) for s in "xyz"])
    return _SIGMA_PAIRS


def _abelian_batch(c: np.ndarray) -> np.ndarray:
    """Commuting-core matrices for stacked coordinate triples (n, 3)."""
    c = np.asarray(c, dtype=float)
    pairs = _sigma_pair_stack()
    eye = np.eye(4, dtype=complex)
    out = None
    for j in range(3):
        half = c[:, j, None, None] / 2.0
        term = np.cos(half) * eye - 1j * np.sin(half) * pairs[j]
        out = term if out is None else out @ term
    return out


def abelian_gate(c) -> np.ndarray:
    """Gate generated by the three commuting two-body generators.

    Product form: ``prod_j [I cos(c_j/2) - i sigma_j(x)sigma_j sin(c_j/2)]``.
    Accepts a :class:`CanonicalCoords` or any length-3 sequence; the
    coordinates are not required to lie in the Weyl chamber.

    >>> np.allclose(abelian_gate((0, 0, 0)), np.eye(4))
    True
    """
    triple = coerce_triple(c)
    return _abelian_batch(np.array([triple]))[0]


def assemble(x: FullCoords) -> np.ndarray:
    """Build the gate ``k1 . A(c) . k2`` from its fifteen coordinates."""
    k1 = local_gate(x.a1, x.b1)
    k2 = local_gate(x.a2, x.b2)
    return k1 @ abelian_gate(x.c) @ k2


def _assemble_batch(params: np.ndarray) -> np.ndarray:
    """Vectorised assemble for stacked 15-vectors (n, 15) -> (n, 4, 4)."""
    params = np.asarray(params, dtype=float)
    u = [
        _su2_matrix(params[:, 3 * b], params[:, 3 * b + 1], params[:, 3 * b + 2])
        for b in range(4)
    ]
    k1 = _kron_batch(u[0], u[1])
    k2 = _kron_batch(u[2], u[3])
    return k1 @ _abelian_batch(params[:, 12:15]) @ k2


def magic_basis(U) -> np.ndarray:
    """Conjugate a unitary into the Bell basis: ``Q^dag U Q``.

    In this basis local gates are real orthogonal, which is what makes
    the invariant extraction work.
    """
    U = require_unitary(U)
    return MAGIC_BASIS.conj().T @ U @ MAGIC_BASIS


def matrix_to_json_dict(U: np.ndarray) -> dict:
    """Encode a 4x4 complex matrix as ``{"matrix": [[[re, im], ...], ...]}``."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValidationError(f"matrix must be 4x4, got shape {U.shape}")
    return {
        "matrix": [
            [[float(U[r, c].real), float(U[r, c].imag)] for c in range(4)]
            for r in range(4)
        ]
    }


def matrix_from_json_dict(obj) -> np.ndarray:
    """Decode the ``{"matrix": ...}`` representation into a complex array.

    Rejects anything that is not exactly a 4x4 grid of [re, im] pairs
    with finite entries.  Unitarity is *not* checked here; callers that
    need it go through :func:`require_unitary`.
    """
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise ValidationError('expected a JSON object with a "matrix" key')
    rows = obj["matrix"]
    if not isinstance(rows, list) or len(rows) != 4:
        raise ValidationError("matrix must have exactly 4 rows")
    out = np.empty((4, 4), dtype=complex)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 4:
            raise ValidationError(f"row {r} must have exactly 4 entries")
        for c, ent in enumerate(row):
            if (
                not isinstance(ent, list)
                or len(ent) != 2
                or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in ent)
            ):
                raise ValidationError(
                    f"entry ({r},{c}) must be a [re, im] pair of numbers"
                )
            out[r, c] = complex(ent[0], ent[1])
    if not np.all(np.isfinite(out.view(float))):
        raise ValidationError("matrix contains non-finite entries")
    return out


def load_matrix_json(source: str | IO) -> np.ndarray:
    """Load a matrix from a JSON file path or open file object."""
    if hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    return matrix_from_json_dict(obj)


# Named gates, by their canonical-coordinate class points.  cnot and
# cphase are locally equivalent and share a point; the unnamed seventh
# closed-form centre (pi/2, pi/4, pi/4) is reachable by explicit centre.
NAMED_GATE_POINTS: dict[str, tuple[float, float, float]] = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (np.pi / 2, 0.0, 0.0),
    "cphase": (np.pi / 2, 0.0, 0.0),
    "dcnot": (np.pi / 2, np.pi / 2, 0.0),
    "swap": (np.pi / 2, np.pi / 2, np.pi / 2),
    "sqrt-swap": (np.pi / 4, np.pi / 4, np.pi / 4),
    "b-gate": (np.pi / 2, np.pi / 4, 0.0),
}

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
