"""Constant matrices and constructors for two-qubit gates.

Everything here is plain numpy: gates are (4, 4) complex arrays, the
fifteen traceless Hermitian generators are normalised so that
``tr(T_A T_B) = delta_AB`` with entries in {0, ±1/2, ±i/2}.
"""
from __future__ import annotations

import functools
import json
from typing import IO

import numpy as np

from .coords import FullCoords, Su2Params, coerce_triple
from .errors import ValidationError

#: Tolerance when validating externally supplied matrices.
UNITARITY_INPUT_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
_IDENTITY_4 = np.eye(4)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"0": IDENTITY_2, "x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

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


@functools.cache
def _generators() -> np.ndarray:
    """All fifteen generators stacked as a (15, 4, 4) array, in label order."""
    out = np.array([generator(i, j) for i, j in GENERATOR_LABELS])
    out.setflags(write=False)  # shared by every caller
    return out


def require_unitary(U, what: str = "matrix") -> np.ndarray:
    """Validate and return ``U`` as a (4, 4) complex unitary array.

    ``what`` names the input in the error message.  The check is
    max|U^dag U - I| <= ``UNITARITY_INPUT_TOL``.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValidationError(f"{what} must be 4x4, got shape {U.shape}")
    return require_unitary_stack(U[None], what)[0]


def require_unitary_stack(U, what: str = "matrix") -> np.ndarray:
    """Validate and return ``U`` as an (n, 4, 4) stack, one residual per row."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[1:] != (4, 4):
        raise ValidationError(f"expected a stack of 4x4 matrices, got shape {U.shape}")
    dev = np.abs(U.conj().transpose(0, 2, 1) @ U - _IDENTITY_4).max(axis=(1, 2))
    worst = int(np.argmax(dev))  # the first NaN, if any
    if not dev[worst] <= UNITARITY_INPUT_TOL:  # also rejects NaN and infinite entries
        where = f" at index {worst}" if U.shape[0] > 1 else ""
        raise ValidationError(
            f"{what}: unitarity violation{where}: "
            f"max|U^dag U - I| = {dev[worst]:.3e} exceeds {UNITARITY_INPUT_TOL:.1e}"
        )
    return U


def _su2_matrix(alpha, theta, phi):
    """Single-qubit rotation matrix from raw angles; broadcasts over arrays.

    Returns ``I cos(alpha/2) - i (axis . sigma) sin(alpha/2)`` with axis
    given by the spherical angles.  Shape: broadcast(...) + (2, 2).

    >>> np.allclose(_su2_matrix(0.0, 0.0, 0.0), np.eye(2))
    True
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


def _su2_params(v) -> Su2Params:
    return v if isinstance(v, Su2Params) else Su2Params(*v)


def _kron_batch(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product over stacked (n, 2, 2) factors -> (n, 4, 4)."""
    n = A.shape[0]
    return np.einsum("nij,nkl->nikjl", A, B).reshape(n, 4, 4)


def _abelian_batch(c: np.ndarray) -> np.ndarray:
    """Commuting cores of stacked triples (n, 3) -> (n, 4, 4); see :func:`abelian_gate`."""
    c = np.asarray(c, dtype=float)
    out = np.zeros((c.shape[0], 4, 4), dtype=complex)
    for i, j, angle, phase in (
        (0, 3, c[:, 0] - c[:, 1], np.exp(-0.5j * c[:, 2])),
        (1, 2, c[:, 0] + c[:, 1], np.exp(0.5j * c[:, 2])),
    ):
        out[:, i, i] = out[:, j, j] = phase * np.cos(angle / 2)
        out[:, i, j] = out[:, j, i] = -1j * phase * np.sin(angle / 2)
    return out


def abelian_gate(c) -> np.ndarray:
    """Gate generated by the three commuting two-body generators.

    Closed form of ``exp(-i/2 sum_j c_j sigma_j(x)sigma_j)``, whose only
    nonzero entries lie on the diagonal and the anti-diagonal: on the
    basis pair {00, 11} it is ``e^{-i c3/2} exp(-i (c1 - c2)/2 sigma_x)``,
    that is ``e^{-i c3/2} cos((c1 - c2)/2)`` at (0, 0) and (3, 3) and
    ``-i e^{-i c3/2} sin((c1 - c2)/2)`` at (0, 3) and (3, 0); on {01, 10}
    it is ``e^{i c3/2} exp(-i (c1 + c2)/2 sigma_x)``.  Accepts a
    :class:`CanonicalCoords` or any length-3 sequence; the coordinates are
    not required to lie in the Weyl chamber.

    >>> np.allclose(abelian_gate((0, 0, 0)), np.eye(4))
    True
    """
    return _abelian_batch(np.array([coerce_triple(c)]))[0]


def assemble(x: FullCoords) -> np.ndarray:
    """Build the gate ``k1 . A(c) . k2`` from its fifteen coordinates.

    One row of :func:`_assemble_batch`.  The factors may be plain
    (alpha, theta, phi) triples and ``c`` any length-3 sequence.
    """
    row = [t for v in (x.a1, x.b1, x.a2, x.b2) for t in _su2_params(v).as_tuple()]
    return _assemble_batch(np.array([row + list(coerce_triple(x.c))]))[0]


def _assemble_batch(params: np.ndarray) -> np.ndarray:
    """Vectorised assemble for stacked 15-vectors (n, 15) -> (n, 4, 4)."""
    params = np.asarray(params, dtype=float)
    u = [
        _su2_matrix(params[:, 3 * b], params[:, 3 * b + 1], params[:, 3 * b + 2])
        for b in range(4)
    ]
    # One expression, so k1 and the core are freed before k2 is built.
    return _kron_batch(u[0], u[1]) @ _abelian_batch(params[:, 12:15]) @ _kron_batch(u[2], u[3])


def load_matrix_json(source: str | IO) -> np.ndarray:
    """Load a matrix from a JSON file path or open file object.

    The JSON holds ``{"matrix": [[[re, im], ...], ...]}``.  Anything that
    is not exactly a 4x4 grid of [re, im] pairs with finite entries is
    rejected.  Unitarity is *not* checked here; callers that need it go
    through :func:`require_unitary`.
    """
    if hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
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
