import json

import numpy as np
import pytest

from gategeom.coords import CanonicalCoords, FullCoords, Su2Params
from gategeom.gates import assemble

#: The trivial rotation.
SU2_IDENTITY = Su2Params(0.0, 0.0, 0.0)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


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


def random_full_coords(rng, margin: float = 0.25) -> FullCoords:
    c = interior_chamber_points(rng, 1)[0]
    return FullCoords(
        a1=random_su2_params(rng, margin),
        b1=random_su2_params(rng, margin),
        a2=random_su2_params(rng, margin),
        b2=random_su2_params(rng, margin),
        c=CanonicalCoords(*c),
    )


def interior_chamber_points(rng, n: int, margin: float = 0.05) -> np.ndarray:
    """Strictly interior chamber triples, away from every wall."""
    out = np.empty((n, 3))
    have = 0
    while have < n:
        c = np.sort(rng.uniform(0.0, np.pi / 2, size=(4 * n, 3)), axis=1)[:, ::-1]
        if rng.random() < 0.5:
            c[:, 0] = np.pi - c[:, 0]
        keep = (
            (c[:, 2] > margin)
            & (c[:, 1] - c[:, 2] > margin)
            & (c[:, 0] - c[:, 1] > margin)
            & (np.pi - c[:, 0] - c[:, 1] > margin)
        )
        got = c[keep][: n - have]
        out[have : have + got.shape[0]] = got
        have += got.shape[0]
    return out


def local_gate(a: Su2Params, b: Su2Params) -> np.ndarray:
    """``u(a) (x) u(b)``: the gate assembled from a trivial core and right factor."""
    return assemble(FullCoords(a, b, SU2_IDENTITY, SU2_IDENTITY, (0.0, 0.0, 0.0)))


def matrix_to_json_dict(U: np.ndarray) -> dict:
    """Encode a 4x4 complex matrix as ``{"matrix": [[[re, im], ...], ...]}``,
    the format ``load_matrix_json`` reads."""
    U = np.asarray(U, dtype=complex)
    assert U.shape == (4, 4)
    return {"matrix": [[[float(v.real), float(v.imag)] for v in row] for row in U]}


def write_matrix_json(path, matrix) -> str:
    path.write_text(json.dumps(matrix_to_json_dict(np.asarray(matrix, dtype=complex))))
    return str(path)
