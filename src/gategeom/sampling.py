"""Random gate generation under the invariant measure.

Two independent routes are provided.  The coordinate sampler draws the
fifteen chart coordinates from their exact marginals (inverse-CDF for
the rotation angles, rejection against the chamber density for the
commuting core) and assembles the matrix.  The matrix oracle completes
three orthonormalised Gaussian columns with conjugate cofactors, which is
Haar on SU(4) by construction and owes nothing to the formulas under test
— the distribution checks play the two against each other.

Streams are split into fixed-size blocks of ``BLOCK_SIZE`` rows, each
seeded from its own ``SeedSequence`` spawn key.  Row i of every sampler
depends on the seed and i alone: a block draws its rows in order, and no
arithmetic on a row looks at the block's length.  So a call is, bit for
bit, the first rows of any longer call with the same seed, at any number
of workers.

Every consumer reads one ordered stream, :func:`_blocks`: (start, block)
pairs in block order, with at most ``worker_count`` blocks finished or
in flight beyond the one being consumed.  The ``sample_*`` functions
have each worker write its block into their output; the summaries, the
Monte-Carlo masses and the writers reduce or write each block as it
comes, so they hold a few blocks whatever the sample count.
"""
from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .coords import in_weyl_chamber, is_perfect_entangler
from .errors import ValidationError
from .gates import _assemble_batch, require_unitary_stack
from .geometry import WEYL_DENSITY_MAX, weyl_density
from .invariants import _column_coords, _column_invariants, _jacobi_coords, g_from_c

#: Samples per deterministic stream block.
BLOCK_SIZE = 1 << 14

#: Chamber rejection acceptance rate, for sizing proposal rounds.
_ACCEPT_RATE = 2.0 / np.pi**2
#: Rows at a time: proposals the chamber sampler tests, rows an exporter
#: converts to Python objects.
_CHUNK = 4096
#: Rows of a Gaussian block drawn and copied into the column layout at a
#: time: a 1024-row tile (96 KB) stays in cache for its transpose.
_TILE = 1024


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    worker_count: int = 1
    method: str = "matrix_oracle"  # or "coordinate_density"

    def __post_init__(self):
        _integer(self.seed, "seed", 0)
        _integer(self.worker_count, "worker_count", 1)
        if self.method not in ("matrix_oracle", "coordinate_density"):
            raise ValidationError(
                f"unknown sampling method {self.method!r}; "
                "use matrix_oracle or coordinate_density"
            )


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
    the density over its known maximum.  The rows are the first m accepted
    proposals of the stream; each draw is what the rest of the block needs
    at the acceptance rate, with a margin, at most ``_CHUNK`` proposals.
    """
    out = np.empty((3, m))
    u = np.empty((_CHUNK, 5))
    have = 0
    while have < m:
        draw = u[: min(_CHUNK, max(256, int((m - have) / _ACCEPT_RATE * 1.15)))]
        rng.random(out=draw)
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
    """All fifteen coordinates.  The chamber triple reads the block's stream,
    rotation slot k a copy of it jumped k + 1 times (2^128 draws a jump),
    taken first: no slot depends on how many proposals the chamber drew."""
    slots = [np.random.Generator(rng.bit_generator.jumped(k + 1)) for k in range(4)]
    out = np.empty((m, 15))
    out[:, 12:15] = _chamber_block(rng, m)
    for k, slot in enumerate(slots):
        out[:, 3 * k : 3 * k + 3] = _su2_block(slot, m)
    return out


def _haar_columns(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar SU(4) unitaries laid out (4, 4, m), with det U = 1 by construction.

    Row i reads normals 24 i to 24 i + 23, a 4 x 3 block of (re, im) pairs,
    drawn into the column layout ``_TILE`` rows at a time, each tile's
    transpose read from cache.  Gram-Schmidt, each column orthogonalised
    twice to stay at round-off, gives three columns of a Haar U(4) matrix,
    which are those of a Haar SU(4) one (Mezzadri, Notices AMS 54, 2007);
    U^-1 = adj U = U^dag then makes column 4 its cofactors' conjugate.
    """
    u = np.empty((4, 4, m), dtype=complex)
    draw = np.empty((min(m, _TILE), 4, 3, 2))
    for start in range(0, m, _TILE):
        tile = draw[: min(_TILE, m - start)]
        rng.standard_normal(out=tile)
        u[:, :3, start : start + _TILE] = tile.view(complex)[..., 0].transpose(1, 2, 0)
    for j in range(3):
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
    # C[i, 3] = (-1)^(i+1) det of rows p < q < r, expanded along column 2; the
    # minors are named, so numpy's temporary elision cannot reorder a product.
    d = {(a, b): u[a, 0] * u[b, 1] - u[b, 0] * u[a, 1] for a in range(4) for b in range(a + 1, 4)}
    for i in range(4):
        p, q, r = (k for k in range(4) if k != i)
        x, y, z = u[p, 2] * d[q, r], u[q, 2] * d[p, r], u[r, 2] * d[p, q]
        np.conjugate(x - y + z if i % 2 else y - x - z, out=u[i, 3])
    return u


def _matrix_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar SU(4) unitaries, shape (m, 4, 4).

    A transposed view of the column layout; the caller copies it out.
    """
    return _haar_columns(rng, m).transpose(2, 0, 1)


def _assembled_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Gate matrices assembled from the fifteen coordinates, an (m, 4, 4) view."""
    return _assemble_batch(_full_block(rng, m)).transpose(2, 0, 1)


def _oracle_coords_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Chamber coordinates of one block of Haar unitaries, shape (m, 3), by
    the kernel's Jacobi route, which takes the block uncopied."""
    return _column_coords(_haar_columns(rng, m), 1.0)


def _oracle_invariants_block(rng: np.random.Generator, m: int) -> np.ndarray:
    """Invariant triples of one block of Haar unitaries, shape (m, 3), by
    Makhlin's trace formulas on the uncopied block; no spectrum is computed."""
    return _column_invariants(_haar_columns(rng, m), 1.0)


#: The block kernel of ``sample_<output>`` by (output, method).
_KERNELS = {
    ("canonical", "matrix_oracle"): _oracle_coords_block,
    ("canonical", "coordinate_density"): _chamber_block,
    ("gates", "matrix_oracle"): _matrix_block,
    ("gates", "coordinate_density"): _assembled_block,
    ("invariants", "matrix_oracle"): _oracle_invariants_block,
    ("invariants", "coordinate_density"): lambda rng, m: g_from_c(_chamber_block(rng, m)),
}


def _integer(value, what: str, least: int) -> int:
    """``value`` as an int, if it is an integer of at least ``least`` (0 or
    1); bools are not integers here."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValidationError(f"{what} must be a {kind} integer, got {value!r}")
    return int(value)


def _sample_count(n) -> int:
    """``n`` as an int, if it is a positive integer."""
    return _integer(n, "sample count", 1)


def _blocks(n, config: SamplerConfig, kernel):
    """The stream of an ``n``-sample call: ``(start, kernel(rng, m))`` for
    each block, in block order.

    ``n`` is checked here, before the first block is drawn.  A kernel may
    reduce its block, in its worker, while the block is in cache.
    """
    def task(start, m):
        return start, kernel(_block_rng(config.seed, start // BLOCK_SIZE), m)

    return _in_order(_sample_count(n), config.worker_count, task)


def _in_order(n: int, workers: int, task):
    """``task(start, m)`` for each block of an ``n``-row call, the results
    yielded in block order.

    With several workers, at most ``workers`` blocks are running or
    finished beyond the one the consumer holds, so a consumer that reduces
    or writes each block holds a few blocks whatever ``n`` is; one that
    stops early, or a block that raises, waits for those blocks only.
    """
    starts = range(0, n, BLOCK_SIZE)

    def work(start):
        return task(start, min(BLOCK_SIZE, n - start))

    if workers == 1 or len(starts) == 1:
        yield from map(work, starts)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for start in starts:
            pending.append(pool.submit(work, start))
            if len(pending) > workers:
                yield pending.popleft().result()  # re-raises a block's exception
        while pending:
            yield pending.popleft().result()


def _fill(n, config: SamplerConfig, kernel, row_shape, dtype) -> np.ndarray:
    """The stream's blocks written into one (n, *row_shape) array, each by
    its worker, so that no finished block waits for the consumer."""
    n = _sample_count(n)
    out = np.empty((n, *row_shape), dtype=dtype)

    def write(start, m):
        out[start : start + m] = kernel(_block_rng(config.seed, start // BLOCK_SIZE), m)

    for _ in _in_order(n, config.worker_count, write):
        pass
    return out


def sample_canonical(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Chamber coordinates of ``n`` random gates, shape (n, 3)."""
    return _fill(n, config, _KERNELS["canonical", config.method], (3,), float)


def sample_gates(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Random gate matrices, shape (n, 4, 4)."""
    return _fill(n, config, _KERNELS["gates", config.method], (4, 4), complex)


def sample_full_coords(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """All fifteen chart coordinates, shape (n, 15).

    Only the coordinate sampler can produce these (the matrix oracle has
    no preferred chart point), so the configured method is ignored.
    """
    return _fill(n, config, _full_block, (15,), float)


def sample_invariants(n: int, config: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Invariant triples (g1, g2, g3) of random gates, shape (n, 3).

    The coordinate method returns ``g_from_c`` of :func:`sample_canonical`,
    bit for bit.  The matrix oracle takes Makhlin's trace formulas, with
    det U = 1, on each block of the gates of :func:`sample_gates`, and
    needs no eigenvalues; its rows agree with ``g_from_c`` of
    :func:`sample_canonical`'s to about 3e-15.
    """
    return _fill(n, config, _KERNELS["invariants", config.method], (3,), float)


def _chunks(a: np.ndarray):
    """``a`` in ``BLOCK_SIZE``-row chunks: an array read as the stream would
    deliver it."""
    for start in range(0, a.shape[0], BLOCK_SIZE):
        yield a[start : start + BLOCK_SIZE]


def _summary_terms(c: np.ndarray) -> tuple:
    """Row count, perfect-entangler count, and the column sums of c and of
    g of one block of chamber points.

    The sums run over a C-ordered copy, whose column sums add the rows
    in order whatever the layout the block came in.
    """
    c = np.ascontiguousarray(c)
    pe = int(np.count_nonzero(is_perfect_entangler(c)))
    return c.shape[0], pe, c.sum(axis=0), g_from_c(c).sum(axis=0)


def _summary(terms) -> dict:
    """The summary of a stream of :func:`_summary_terms`, merged in block order."""
    count = pe = 0
    sum_c = sum_g = np.zeros(3)
    for k, p, block_c, block_g in terms:
        count, pe = count + k, pe + p
        sum_c, sum_g = sum_c + block_c, sum_g + block_g
    return {
        "count": count,
        "pe_fraction": pe / count,
        "mean_c": [float(v) for v in sum_c / count],
        "mean_g": [float(v) for v in sum_g / count],
    }


def summarize_samples(coords: np.ndarray) -> dict:
    """Quick summary statistics of sampled chamber coordinates, shape (n, 3)
    with n >= 1.

    The input is reduced in ``BLOCK_SIZE``-row chunks, and the chunks' sums
    merged in order, so ``sample --format summary``, which reduces the
    sampler's stream block by block, gives the same bits.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] == 0 or coords.shape[1] != 3:
        raise ValidationError(
            f"expected coordinates of shape (n, 3) with n >= 1, got {coords.shape}"
        )
    return _summary(map(_summary_terms, _chunks(coords)))


def _summarize_stream(n, config: SamplerConfig) -> dict:
    """``summarize_samples(sample_canonical(n, config))``, bit for bit,
    with each block reduced in its worker."""
    kernel = _KERNELS["canonical", config.method]
    return _summary(
        terms for _, terms in _blocks(n, config, lambda rng, m: _summary_terms(kernel(rng, m)))
    )


def _sink(path_or_file, newline=None):
    if hasattr(path_or_file, "write"):
        return nullcontext(path_or_file)
    return open(path_or_file, "w", newline=newline, encoding="utf-8")


#: A CSV row c1,c2,c3,g1,g2,g3,is_pe, by its perfect-entangler flag.  %r
#: of a float is its shortest round-trip form, what ``csv`` wrote.
_CSV_ROW = ("%r," * 6 + "0\r\n", "%r," * 6 + "1\r\n")
#: A JSON line by its flag, with the separators of ``json.dumps``, whose
#: floats are their %r too: the matrix as 4 rows of 4 [re, im] pairs.
_JSONL_LINE = tuple(
    '{"matrix": [%s], "c": [%%r, %%r, %%r], "g": [%%r, %%r, %%r], "is_pe": %s}\n'
    % (", ".join(["[" + ", ".join(["[%r, %r]"] * 4) + "]"] * 4), flag)
    for flag in ("false", "true")
)


def _write_rows(fh, templates, flags, *arrays) -> None:
    """Row i of the arrays, their values in order, through ``templates[flags[i]]``.

    ``_CHUNK`` rows at a time are converted to Python floats and formatted
    by one ``%`` on the chunk's templates joined, so an export converts
    each value once and holds one chunk of text.
    """
    for start in range(0, len(flags), _CHUNK):
        stop = min(start + _CHUNK, len(flags))
        values = np.hstack([a[start:stop].reshape(stop - start, -1) for a in arrays])
        template = "".join([templates[f] for f in flags[start:stop].tolist()])
        fh.write(template % tuple(values.ravel().tolist()))


def _write_csv(path, blocks) -> None:
    """The CSV rows of a stream of coordinate blocks, each written as it comes."""
    with _sink(path, newline="") as fh:
        fh.write("c1,c2,c3,g1,g2,g3,is_pe\r\n")
        for coords in blocks:
            _write_rows(fh, _CSV_ROW, is_perfect_entangler(coords), coords, g_from_c(coords))


def _jsonl_block(gates: np.ndarray) -> tuple:
    """A sampled block of unitaries, (m, 4, 4), and its chamber coordinates
    by the Jacobi route on a copy, with det U = 1, as both methods build
    their blocks: the oracle's are its ``sample_canonical`` rows, bit for bit."""
    return gates, _column_coords(gates.transpose(1, 2, 0).copy(), 1.0)


def _write_jsonl(path, blocks) -> None:
    """The JSON lines of a stream of (gates, coordinates) pairs, each written as it comes."""
    with _sink(path) as fh:
        for gates, c in blocks:
            # A complex entry viewed as two floats is its [re, im] pair.
            matrix = np.ascontiguousarray(gates).view(float)
            _write_rows(fh, _JSONL_LINE, is_perfect_entangler(c), matrix, c, g_from_c(c))
            del gates, matrix  # released before the next block is drawn


def export_csv(path, coords: np.ndarray) -> None:
    """Write samples as CSV rows ``c1,c2,c3,g1,g2,g3,is_pe``.

    ``path`` may also be an open text stream.  Floats use their shortest
    round-trip representation; the perfect-entangler flag is 1 or 0.
    ``coords`` must have shape (n, 3) and hold finite chamber points; it
    is checked ``BLOCK_SIZE`` rows at a time before anything is written,
    and the error names the first bad row by its index.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValidationError(f"expected coordinates of shape (n, 3), got {coords.shape}")
    for start, chunk in zip(range(0, len(coords), BLOCK_SIZE), _chunks(coords)):
        with np.errstate(invalid="ignore", over="ignore"):  # NaN and inf rows fail the test
            bad = ~in_weyl_chamber(chunk[:, 0], chunk[:, 1], chunk[:, 2])
        if bad.any():
            row = start + int(np.argmax(bad))
            raise ValidationError(
                f"row {row} of the coordinates, {tuple(coords[row].tolist())}, is no finite chamber point"
            )
    _write_csv(path, _chunks(coords))


def export_jsonl(path, gates: np.ndarray) -> None:
    """Write gate matrices as JSON lines.

    ``path`` may also be an open text stream; every matrix must be
    unitary.  Each line carries the matrix in the ``[[re, im], ...]`` grid
    format, its canonical coordinates ``c``, invariant triple ``g`` and
    perfect-entangler flag ``is_pe``; each line depends on its matrix
    alone.  The stack is checked ``BLOCK_SIZE`` rows at a time before
    anything is written, and a rejected one again whole, so the error
    names its worst row (a NaN row first) as ``require_unitary_stack`` does.
    """
    gates = np.asarray(gates, dtype=complex)
    if gates.shape[1:] != (4, 4):
        require_unitary_stack(gates, "gate stack")  # raises, naming the shape
    try:
        chunks = [require_unitary_stack(gates[s : s + BLOCK_SIZE]) for s in range(0, len(gates), BLOCK_SIZE)]
    except ValidationError:
        require_unitary_stack(gates, "gate stack")  # raises, naming the worst row of all
        raise
    _write_jsonl(path, ((g, _jacobi_coords(g)) for g in chunks))


def _export_stream(path, fmt: str, n, config: SamplerConfig) -> None:
    """``export_csv`` of ``sample_canonical(n, config)`` or, for ``jsonl``,
    ``export_jsonl`` of ``sample_gates(n, config)``, each block written as
    soon as it and every earlier block are done, jsonl blocks canonicalised
    in their worker.  ``n`` is checked before anything is written."""
    if fmt == "jsonl":
        gates = _KERNELS["gates", config.method]
        write, kernel = _write_jsonl, lambda rng, m: _jsonl_block(gates(rng, m))
    else:
        write, kernel = _write_csv, _KERNELS["canonical", config.method]
    write(path, (block for _, block in _blocks(n, config, kernel)))
