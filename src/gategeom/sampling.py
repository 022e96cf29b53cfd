"""Random gate generation under the invariant measure.

Two independent routes are provided.  The coordinate sampler draws the
fifteen chart coordinates from their exact marginals (inverse-CDF for
the rotation angles, rejection against the chamber density for the
commuting core) and assembles the matrix.  The matrix oracle draws a
complex Ginibre matrix and orthonormalises it, which is Haar by
construction and owes nothing to the formulas under test — the
distribution checks play the two against each other.

Streams are split into fixed-size blocks, each seeded from its own
``SeedSequence`` spawn key, so results are bit-identical for a given
seed no matter how many workers run the blocks.  A block's rows depend
on the seed, its index and its length only: the whole blocks of a call
are, bit for bit, the first rows of any longer call with the same seed.
The final partial block promises no such match, since its draws depend
on its length.  Within one call, if that block has fewer than
``invariants._JACOBI_MIN_ROWS`` rows, the oracle's coordinates of it come
from the kernel's ``eigvals`` route and its invariants from LAPACK's
``det`` and the (m, 4, 4) congruence, and the rest of the call from the
Laplace determinant and the column layout; either way the two agree
within 1e-14.
"""
from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .coords import is_perfect_entangler
from .errors import ValidationError
from .gates import _assemble_batch, require_unitary_stack
from .geometry import WEYL_DENSITY_MAX, weyl_density
from .invariants import _laplace_det, _makhlin_batch, _spectral_coords, g_from_c

#: Samples per deterministic stream block.
BLOCK_SIZE = 1 << 14

#: Chamber rejection acceptance rate, for sizing proposal rounds.
_ACCEPT_RATE = 2.0 / np.pi**2
#: Rows at a time: proposals the chamber sampler tests, rows an exporter
#: converts to Python objects.
_CHUNK = 4096
#: Rows of a Ginibre block drawn and copied into the column layout at a
#: time: a 1024-row tile (128 KB) stays in cache for its transpose.
_TILE = 1024


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    worker_count: int = 1
    method: str = "matrix_oracle"  # or "coordinate_density"

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.method not in ("matrix_oracle", "coordinate_density"):
            raise ValidationError(
                f"unknown sampling method {self.method!r}; "
                "use matrix_oracle or coordinate_density"
            )
        if self.worker_count < 1:
            raise ValidationError("worker_count must be at least 1")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.Philox(ss))


def _alpha_from_uniform(u: np.ndarray) -> np.ndarray:
    """Invert the rotation-angle CDF (alpha - sin alpha) / (4 pi).

    alpha - sin alpha = 4 pi u is Kepler's equation E - sin E = M at
    eccentricity 1.  The mean anomaly M = 4 pi u is brought into [0, pi]
    by its period 2 pi and the reflection E -> 2 pi - E.  The start is the
    cube-root law (6 M)^(1/3) near M = 0 and M + sin E beyond, and three
    Halley steps, each clamped to [0, pi], take it to round-off (Danby and
    Burkardt, Celest. Mech. 31, 1983; Markley, Celest. Mech. Dyn. Astron.
    63, 1995).  Every element does the same work; ``tiny`` in the Halley
    denominator keeps u = 0, where f, f' and f'' all vanish, at 0.
    """
    m = 4.0 * np.pi * np.asarray(u, dtype=float)
    period = np.where(m >= 2.0 * np.pi, 2.0 * np.pi, 0.0)
    m -= period
    reflect = m > np.pi
    m = np.where(reflect, 2.0 * np.pi - m, m)
    e = np.cbrt(6.0 * m)
    e = np.where(e > 1.0, m + np.sin(np.minimum(e, np.pi)), e)
    for _ in range(3):
        sin_e, d = np.sin(e), 1.0 - np.cos(e)
        f = e - sin_e - m
        step = 2.0 * f * d / (2.0 * d * d - f * sin_e + np.finfo(float).tiny)
        e = np.clip(e - step, 0.0, np.pi)
    return np.where(reflect, 2.0 * np.pi - e, e) + period


def _su2_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """One factor's (alpha, theta, phi) triples, shape (m, 3)."""
    u = rng.random((m, 3))
    out = np.empty((m, 3))
    out[:, 0] = _alpha_from_uniform(u[:, 0])
    out[:, 1] = np.arccos(1.0 - 2.0 * u[:, 1])
    out[:, 2] = 2.0 * np.pi * u[:, 2]
    return out


def _chamber_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Chamber coordinates with the exact density, shape (m, 3).

    Proposals are uniform on the chamber: descending-sorted uniforms fill
    the half-cell with c1 <= pi/2, and a fair coin reflects c1 across
    pi/2 (the density is symmetric under that reflection).  Acceptance is
    the density over its known maximum.  Each round's proposals are drawn
    and tested ``_CHUNK`` rows at a time; once the block is full, the rest
    of the round is still drawn, untested, so that the stream after the
    block does not depend on where in the round it filled.
    """
    out = np.empty((3, m))
    u = np.empty((_CHUNK, 5))
    have = 0
    while have < m:
        batch = max(256, int((m - have) / _ACCEPT_RATE * 1.15))
        for start in range(0, batch, _CHUNK):
            draw = u[: min(_CHUNK, batch - start)]
            rng.random(out=draw)
            if have == m:
                continue
            # A three-comparator sorting network puts the uniforms in
            # descending order, one proposal per column of c.
            x, y, z = draw[:, 0], draw[:, 1], draw[:, 2]
            hi, lo = np.maximum(x, y), np.minimum(x, y)
            mid = np.minimum(hi, z)
            c = np.empty((3, draw.shape[0]))
            np.maximum(hi, z, out=c[0])
            np.maximum(mid, lo, out=c[1])
            np.minimum(mid, lo, out=c[2])
            c *= np.pi / 2
            np.subtract(np.pi, c[0], out=c[0], where=draw[:, 3] < 0.5)
            accepted = c[:, draw[:, 4] * WEYL_DENSITY_MAX < weyl_density(c.T)]
            take = min(m - have, accepted.shape[1])
            out[:, have : have + take] = accepted[:, :take]
            have += take
    return out.T


def _full_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """All fifteen coordinates: chamber triple then four rotation triples."""
    out = np.empty((m, 15))
    out[:, 12:15] = _chamber_block(rng, m)
    for slot in range(4):
        out[:, 3 * slot : 3 * slot + 3] = _su2_block(rng, m)
    return out


def _haar_columns(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar unitaries laid out (4, 4, m), from a complex Ginibre block.

    The draws are those of an (m, 4, 4) block, made and written into the
    column layout ``_TILE`` rows at a time, so that each tile's transpose
    reads it from cache.  Gram-Schmidt on the columns, each orthogonalised
    twice to stay at round-off, is the QR factor whose R has a positive
    diagonal, which is exactly Haar distributed; it runs in place, on
    length-m arrays.
    """
    u = np.empty((4, 4, m), dtype=complex)
    draw = np.empty((min(m, _TILE), 4, 4))
    for part in (u.real, u.imag):
        for start in range(0, m, _TILE):
            tile = draw[: min(_TILE, m - start)]
            rng.standard_normal(out=tile)
            part[..., start : start + _TILE] = tile.transpose(1, 2, 0)
    for j in range(4):
        v = u[:, j]
        for _ in range(2 if j else 0):
            # Each coefficient is summed from its first term: the 0 that
            # Python's sum starts from only turns -0 into +0, and Gaussian
            # columns hold no zeros.
            r = []
            for k in range(j):
                rk = np.conj(u[0, k]) * v[0]
                for i in range(1, 4):
                    rk += np.conj(u[i, k]) * v[i]
                r.append(rk)
            for k, rk in enumerate(r):
                for i in range(4):
                    v[i] -= u[i, k] * rk
        norm2 = v[0].real ** 2 + v[0].imag ** 2
        for i in range(1, 4):
            norm2 += v[i].real ** 2 + v[i].imag ** 2
        # numpy divides a complex by a real as (re * (1/c), im * (1/c)), so
        # this multiply gives the bits of v /= norm, in under half the time.
        v *= 1.0 / np.sqrt(norm2)
    return u


def _matrix_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar unitaries projected to determinant one, shape (m, 4, 4).

    A transposed view of the column layout; the caller copies it out.
    """
    u = _haar_columns(rng, m)
    u *= np.exp(-1j * np.angle(_laplace_det(u)) / 4.0)
    return u.transpose(2, 0, 1)


def _assembled_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Gate matrices assembled from the fifteen coordinates, an (m, 4, 4) view."""
    return _assemble_batch(_full_block(rng, m)).transpose(2, 0, 1)


def _oracle_coords_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Chamber coordinates of one block of Haar unitaries, shape (m, 3).

    Unitary by construction, and the kernel strips the phase itself.  The
    Jacobi route transposes the (m, 4, 4) view back, which gives it the
    column layout itself, uncopied.
    """
    return _spectral_coords(_haar_columns(rng, m).transpose(2, 0, 1))


def _oracle_invariants_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Invariant triples of one block of Haar unitaries, shape (m, 3).

    Makhlin's trace formulas on the column layout, uncopied, as in
    :func:`_oracle_coords_block`; no spectrum is computed.
    """
    return _makhlin_batch(_haar_columns(rng, m).transpose(2, 0, 1))


def _run_blocks(n: int, config: SamplerConfig, block_fn, row_shape, dtype) -> np.ndarray:
    """``block_fn(rng, m)`` over the stream's blocks, written into one
    preallocated (n, *row_shape) array, so the peak is the output plus the
    blocks in flight."""
    if n <= 0:
        raise ValidationError("sample count must be positive")
    out = np.empty((n, *row_shape), dtype=dtype)

    def work(block):
        start = block * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, n)
        out[start:stop] = block_fn(_block_rng(config.seed, block), stop - start)

    blocks = range((n + BLOCK_SIZE - 1) // BLOCK_SIZE)
    if config.worker_count == 1 or len(blocks) == 1:
        for block in blocks:
            work(block)
    else:
        with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
            list(pool.map(work, blocks))  # re-raises a block's exception
    return out


def sample_canonical(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Chamber coordinates of ``n`` random gates, shape (n, 3)."""
    if config.method == "coordinate_density":
        return _run_blocks(n, config, _chamber_block, (3,), float)
    return _run_blocks(n, config, _oracle_coords_block, (3,), float)


def sample_gates(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Random gate matrices, shape (n, 4, 4)."""
    if config.method == "coordinate_density":
        return _run_blocks(n, config, _assembled_block, (4, 4), complex)
    return _run_blocks(n, config, _matrix_block, (4, 4), complex)


def sample_full_coords(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """All fifteen chart coordinates, shape (n, 15).

    Only the coordinate sampler can produce these (the matrix oracle has
    no preferred chart point), so the configured method is ignored.
    """
    return _run_blocks(n, config, _full_block, (15,), float)


def sample_invariants(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Invariant triples (g1, g2, g3) of random gates, shape (n, 3).

    The coordinate method returns ``g_from_c`` of :func:`sample_canonical`,
    bit for bit.  The matrix oracle takes Makhlin's trace formulas on each
    block of the gates of :func:`sample_gates`, before the phase
    projection, and needs no eigenvalues; its rows agree with ``g_from_c``
    of :func:`sample_canonical`'s to about 3e-15.
    """
    if config.method == "coordinate_density":
        return g_from_c(sample_canonical(n, config))
    return _run_blocks(n, config, _oracle_invariants_block, (3,), float)


def summarize_samples(coords: np.ndarray) -> dict:
    """Quick summary statistics of sampled chamber coordinates, shape (n, 3)
    with n >= 1."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] == 0 or coords.shape[1] != 3:
        raise ValidationError(
            f"expected coordinates of shape (n, 3) with n >= 1, got {coords.shape}"
        )
    g = g_from_c(coords)
    pe = is_perfect_entangler(coords)
    n = coords.shape[0]
    return {
        "count": int(n),
        "pe_fraction": float(np.count_nonzero(pe)) / n,
        "mean_c": [float(v) for v in coords.mean(axis=0)],
        "mean_g": [float(v) for v in g.mean(axis=0)],
    }


def _sink(path_or_file, newline=None):
    if hasattr(path_or_file, "write"):
        return nullcontext(path_or_file)
    return open(path_or_file, "w", newline=newline, encoding="utf-8")


def _row_chunks(*arrays):
    """Zipped rows of the arrays as Python objects, ``_CHUNK`` rows at a
    time, so that an export converts each value once and holds one chunk."""
    for start in range(0, arrays[0].shape[0], _CHUNK):
        yield zip(*(a[start : start + _CHUNK].tolist() for a in arrays))


def export_csv(path, coords: np.ndarray) -> None:
    """Write samples as CSV rows ``c1,c2,c3,g1,g2,g3,is_pe``.

    ``path`` may also be an open text stream.  Floats use their shortest
    round-trip representation; the perfect-entangler flag is 1 or 0.
    """
    coords = np.asarray(coords, dtype=float)
    g = g_from_c(coords)
    pe = is_perfect_entangler(coords).astype(int)
    with _sink(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c1", "c2", "c3", "g1", "g2", "g3", "is_pe"])
        # csv writes a float as str(), its shortest round-trip form.
        for rows in _row_chunks(coords, g, pe):
            writer.writerows([*ci, *gi, flag] for ci, gi, flag in rows)


def export_jsonl(path, gates: np.ndarray) -> None:
    """Write gate matrices as JSON lines.

    ``path`` may also be an open text stream; every matrix must be
    unitary.  Each line carries the matrix in the ``[[re, im], ...]`` grid
    format, its canonical coordinates ``c``, invariant triple ``g`` and
    perfect-entangler flag ``is_pe``.
    """
    gates = require_unitary_stack(gates, what="gate stack")
    # A complex entry viewed as two floats is its [re, im] pair.
    matrix = np.ascontiguousarray(gates).view(float).reshape(*gates.shape, 2)
    c = _spectral_coords(gates)
    fields = {"matrix": matrix, "c": c, "g": g_from_c(c), "is_pe": is_perfect_entangler(c)}
    with _sink(path) as fh:
        for rows in _row_chunks(*fields.values()):
            fh.writelines(json.dumps(dict(zip(fields, row))) + "\n" for row in rows)
