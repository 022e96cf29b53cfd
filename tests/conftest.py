import json

import numpy as np
import pytest

from gategeom.coords import FullCoords, Su2Params
from gategeom.gates import _assemble_batch, assemble
from gategeom.verify import _bin_edges, _counts_pvalue

#: The trivial rotation.
SU2_IDENTITY = Su2Params(0.0, 0.0, 0.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
#: Midpoint of the chamber edge joining the cnot and swap points; its
#: reduced image (pi/4, pi/4, 0) is sqrt-iswap.
CNOT_SWAP_MIDPOINT = (np.pi / 2, np.pi / 4, np.pi / 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_su2_params(rng, margin: float = 0.25) -> Su2Params:
    """Rotation parameters bounded away from the spherical-chart poles."""
    return Su2Params(
        alpha=float(rng.uniform(margin, 4 * np.pi - margin)),
        theta=float(rng.uniform(margin, np.pi - margin)),
        phi=float(rng.uniform(0.0, 2 * np.pi)),
    )


def local_gate(a: Su2Params, b: Su2Params) -> np.ndarray:
    """``u(a) (x) u(b)``: the gate assembled from a trivial core and right factor."""
    return assemble(FullCoords(a, b, SU2_IDENTITY, SU2_IDENTITY, (0.0, 0.0, 0.0)))


def cores(c) -> np.ndarray:
    """Commuting cores ``exp(-i/2 sum_j c_j sigma_j (x) sigma_j)`` of stacked
    triples (n, 3), shape (n, 4, 4): the gates assembled with zero rotation angles."""
    c = np.asarray(c, dtype=float)
    params = np.zeros((c.shape[0], 15))
    params[:, 12:] = c
    return _assemble_batch(params).transpose(2, 0, 1)


def abelian_gate(c) -> np.ndarray:
    """The commuting core of one triple."""
    return cores([c])[0]


def structured_stack(n: int = 224) -> np.ndarray:
    """Undressed gates full of exact zeros, repeated to n rows: CNOT, SWAP,
    iSWAP, CZ, +-I, i CNOT and bare XX, XY and Heisenberg points."""
    iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
    eye = np.eye(4, dtype=complex)
    named = np.array([CNOT, SWAP, iswap, np.diag([1, 1, 1, -1]), eye, -eye, 1j * CNOT])
    t = np.array([np.pi / 4, np.pi / 2, 0.3])
    points = np.concatenate([np.outer(t, shape) for shape in ((1, 0, 0), (1, 1, 0), (1, 1, 1))])
    return np.resize(np.concatenate([named, cores(points)]), (n, 4, 4))


def same_bits(a, b) -> bool:
    """Equal arrays, NaN for NaN, with equal signs of their zeros."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind == "c":
        a, b = a.view(float), b.view(float)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def lapack_calls(monkeypatch) -> list:
    """A log of every ``eigvals``, ``eig``, ``eigh`` and ``det`` call from
    here on, as (name, shape of the input) pairs."""
    log = []

    def spy(name, fn):
        def call(a, *args, **kwargs):
            log.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return call

    for name in ("eigvals", "eig", "eigh", "det"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return log


def matrix_to_json_dict(U: np.ndarray) -> dict:
    """Encode a 4x4 complex matrix as ``{"matrix": [[[re, im], ...], ...]}``,
    the format ``load_matrix_json`` reads."""
    U = np.asarray(U, dtype=complex)
    assert U.shape == (4, 4)
    return {"matrix": [[[float(v.real), float(v.imag)] for v in row] for row in U]}


def chi_square_pvalue(coords: np.ndarray, probabilities: np.ndarray) -> float:
    """Chi-square goodness-of-fit of an array of sampled coordinates on the
    bin grid: the statistic ``verify`` builds from the sampler's stream."""
    counts, _ = np.histogramdd(coords, bins=_bin_edges(probabilities.shape))
    return _counts_pvalue(counts, coords.shape[0], probabilities)


def write_matrix_json(path, matrix) -> str:
    path.write_text(json.dumps(matrix_to_json_dict(np.asarray(matrix, dtype=complex))))
    return str(path)
