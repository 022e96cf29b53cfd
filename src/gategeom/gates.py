"""Constant matrices and constructors for two-qubit gates.

Everything here is plain numpy: gates are (4, 4) complex arrays, the
fifteen traceless Hermitian generators are normalised so that
``tr(T_A T_B) = delta_AB`` with entries in {0, ±1/2, ±i/2}.
"""
from __future__ import annotations

import functools
import json
import math
from typing import IO

import numpy as np

from .coords import FullCoords
from .errors import ValidationError

#: Tolerance when validating externally supplied matrices.
UNITARITY_INPUT_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
_IDENTITY_4 = np.eye(4, dtype=complex)
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
    """Validate and return ``U`` as an (n, 4, 4) stack, one residual per row.

    One maximum over the whole stack decides.  Only a rejected stack has
    its per-row residuals formed, to name the worst row (a NaN row first).
    """
    U = np.asarray(U, dtype=complex)
    if U.ndim != 3 or U.shape[1:] != (4, 4):
        raise ValidationError(f"expected a stack of 4x4 matrices, got shape {U.shape}")
    # An infinite entry would make the matmul warn of inf * 0.  BLAS's vdot,
    # which raises no numpy warning, finds it first: the sum of |u|^2 is
    # then not finite, as it is not for a NaN entry or a sum past overflow.
    Uh = U.conj().transpose(0, 2, 1)
    if math.isfinite(np.vdot(U, U).real):
        dev = Uh @ U
    else:
        with np.errstate(invalid="ignore", over="ignore"):
            dev = Uh @ U
    dev -= _IDENTITY_4
    dev = np.abs(dev)
    # Also rejects NaN and infinite entries; an empty stack passes.
    if len(U) and not dev.max() <= UNITARITY_INPUT_TOL:
        dev = dev.max(axis=(1, 2))
        worst = int(np.argmax(dev))  # the first NaN, if any
        where = f" at index {worst}" if U.shape[0] > 1 else ""
        raise ValidationError(
            f"{what}: unitarity violation{where}: "
            f"max|U^dag U - I| = {dev[worst]:.3e} exceeds {UNITARITY_INPUT_TOL:.1e}"
        )
    return U


def _su2_matrix(alpha, theta, phi):
    """The rotation ``I cos(alpha/2) - i (n . sigma) sin(alpha/2)``, n at the
    spherical angles, in the column layout: ``[[p, -conj(q)], [q, conj(p)]]``
    with ``p = cos(alpha/2) - i n_z sin(alpha/2)`` and
    ``q = (n_y - i n_x) sin(alpha/2)``, written as real and imaginary parts.
    Shape (2, 2) + broadcast(...), so scalar angles give one matrix.

    >>> np.allclose(_su2_matrix(0.0, 0.0, 0.0), np.eye(2))
    True
    """
    half = np.divide(alpha, 2)
    sa, st = np.sin(half), np.sin(theta)
    u = np.empty((2, 2, *np.broadcast(alpha, theta, phi).shape), dtype=complex)
    re, im = u.real, u.imag
    re[0, 0] = re[1, 1] = np.cos(half)
    im[1, 1] = sa * np.cos(theta)
    im[0, 0] = -im[1, 1]
    re[1, 0] = sa * (st * np.sin(phi))
    re[0, 1] = -re[1, 0]
    im[0, 1] = im[1, 0] = -(sa * (st * np.cos(phi)))
    return u


def assemble(x: FullCoords) -> np.ndarray:
    """Build the gate ``k1 . A(c) . k2`` from its fifteen coordinates.

    One row of :func:`_assemble_batch`, read from ``x.as_array()``;
    :class:`FullCoords` has already converted and checked each field.
    """
    return _assemble_batch(x.as_array()[None])[:, :, 0]


def _assemble_batch(params: np.ndarray) -> np.ndarray:
    """Gates ``k1 . A(c) . k2`` of stacked 15-vectors (m, 15), laid out (4, 4, m).

    Each entry is a length-m array; ``.transpose(2, 0, 1)`` is the (m, 4, 4)
    stack.  ``A(c) = exp(-i/2 sum_j c_j sigma_j(x)sigma_j)`` is X-shaped: on
    the basis pair {00, 11} it is ``e^{-i c3/2} exp(-i (c1 - c2)/2 sigma_x)``,
    so ``d = e^{-i c3/2} cos((c1 - c2)/2)`` at (0, 0) and (3, 3) and
    ``o = -i e^{-i c3/2} sin((c1 - c2)/2)`` at (0, 3) and (3, 0); on {01, 10}
    it is ``e^{i c3/2} exp(-i (c1 + c2)/2 sigma_x)``.  Row l of ``A k2`` is
    then ``d_l k2[l] + o_l k2[3 - l]``, and ``k1 = a1 (x) b1`` acts as b1 on
    the second qubit's row index, then a1 on the first, each written from
    one buffer into the other.  ``c`` need not lie in the Weyl chamber.

    >>> np.allclose(_assemble_batch(np.zeros((1, 15)))[:, :, 0], np.eye(4))
    True
    """
    p = np.asarray(params, dtype=float).T
    a1, b1, a2, b2 = np.moveaxis(_su2_matrix(p[0:12:3], p[1:12:3], p[2:12:3]), 2, 0)
    # Row 2i + k and column 2j + l of k2 = a2 (x) b2 is a2[i, j] b2[k, l].
    k2 = np.multiply(a2[:, None, :, None], b2[None, :, None, :]).reshape(4, 4, -1)
    c1, c2, c3 = p[12:15]
    half = np.stack([c1 - c2, c1 + c2]) / 2
    phase = np.exp(np.array([[-0.5j], [0.5j]]) * c3)
    d = phase * np.cos(half)
    o = phase  # -i phase sin(half), made in place
    o *= -1j
    o *= np.sin(half)
    out = np.empty_like(k2)  # rows 0 and 3 are the pair {00, 11}, rows 1 and 2 {01, 10}
    for row, pair in enumerate((0, 1, 1, 0)):
        np.multiply(d[pair], k2[row], out=out[row])
        out[row] += o[pair] * k2[3 - row]
    x, y = out.reshape(2, 2, 4, -1), k2.reshape(2, 2, 4, -1)
    for k in range(2):
        np.multiply(b1[k, 0], x[:, 0], out=y[:, k])
        y[:, k] += b1[k, 1] * x[:, 1]
    for i in range(2):
        np.multiply(a1[i, 0], y[0], out=x[i])
        x[i] += a1[i, 1] * y[1]
    return out


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
            try:
                out[r, c] = complex(ent[0], ent[1])
            except OverflowError:
                raise ValidationError(f"entry ({r},{c}) is too large for a float") from None
    if not np.all(np.isfinite(out.view(float))):
        raise ValidationError("matrix contains non-finite entries")
    return out


# Named gates, by their canonical-coordinate class points.  cnot and
# cphase are locally equivalent and share a point.
NAMED_GATE_POINTS: dict[str, tuple[float, float, float]] = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (np.pi / 2, 0.0, 0.0),
    "cphase": (np.pi / 2, 0.0, 0.0),
    "dcnot": (np.pi / 2, np.pi / 2, 0.0),
    "swap": (np.pi / 2, np.pi / 2, np.pi / 2),
    "sqrt-swap": (np.pi / 4, np.pi / 4, np.pi / 4),
    "b-gate": (np.pi / 2, np.pi / 4, 0.0),
}
