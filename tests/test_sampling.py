import csv
import io
import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from conftest import matrix_to_json_dict, same_bits
from gategeom import invariants, sampling
from gategeom.coords import in_weyl_chamber
from gategeom.errors import ValidationError
from gategeom.gates import load_matrix_json
from gategeom.geometry import WEYL_DENSITY_MAX, weyl_density
from gategeom.invariants import _makhlin_batch, canonical_coords_batch, g_from_c
from gategeom.sampling import (
    BLOCK_SIZE,
    SamplerConfig,
    _ACCEPT_RATE,
    _alpha_from_uniform,
    _block_rng,
    _chamber_block,
    _haar_columns,
    _oracle_coords_block,
    export_csv,
    export_jsonl,
    sample_canonical,
    sample_full_coords,
    sample_gates,
    sample_invariants,
    summarize_samples,
)
from gategeom.volumes import PE_VOLUME_CLOSED, is_perfect_entangler


def rotation_angle_cdf(alpha):
    return (np.asarray(alpha) - np.sin(alpha)) / (4.0 * np.pi)


def rotation_angle_cdf_50_digits(alpha):
    """The rotation-angle CDF of each float alpha, evaluated at 50 digits."""
    with mpmath.workdps(50):
        four_pi = 4 * mpmath.pi
        return [(mpmath.mpf(a) - mpmath.sin(mpmath.mpf(a))) / four_pi for a in alpha]


def chamber_block_whole_rounds(rng, m):
    """The chamber sampler drawing and testing each round of proposals in
    one piece; returns the block and the number of rounds it took."""
    out = np.empty((m, 3))
    have = rounds = 0
    while have < m:
        want = m - have
        batch = max(256, int(want / _ACCEPT_RATE * 1.15))
        u = rng.random((batch, 5))
        rounds += 1
        c = np.sort(u[:, :3], axis=1)[:, ::-1] * (np.pi / 2)
        flip = u[:, 3] < 0.5
        c[flip, 0] = np.pi - c[flip, 0]
        keep = u[:, 4] * WEYL_DENSITY_MAX < weyl_density(c)
        accepted = c[keep]
        take = min(want, accepted.shape[0])
        out[have : have + take] = accepted[:take]
        have += take
    return out, rounds


def haar_columns_untiled(rng, m):
    """Haar columns from untiled transposes, with Gram-Schmidt's sums from
    Python's ``sum`` and a division by the norm: the reference whose bits
    :func:`_haar_columns` keeps."""
    u = np.empty((4, 4, m), dtype=complex)
    u.real = rng.standard_normal((m, 4, 4)).transpose(1, 2, 0)
    u.imag = rng.standard_normal((m, 4, 4)).transpose(1, 2, 0)
    for j in range(4):
        v = u[:, j]
        for _ in range(2 if j else 0):
            r = [sum(np.conj(u[i, k]) * v[i] for i in range(4)) for k in range(j)]
            for k, rk in enumerate(r):
                v -= u[:, k] * rk
        v /= np.sqrt(sum(v[i].real ** 2 + v[i].imag ** 2 for i in range(4)))
    return u


def block_peak(block_fn, m=BLOCK_SIZE):
    """tracemalloc peak of one block, after a warm-up block."""
    block_fn(_block_rng(0, 0), m)
    tracemalloc.start()
    try:
        block_fn(_block_rng(1, 0), m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSamplerConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError, match="matrix_oracle or coordinate_density"):
            SamplerConfig(method="metropolis")

    def test_worker_count_validated(self):
        with pytest.raises(ValidationError):
            SamplerConfig(worker_count=0)

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ValidationError):
            sample_canonical(0)


class TestDeterminism:
    @pytest.mark.parametrize("method", ["matrix_oracle", "coordinate_density"])
    def test_bit_identical_across_worker_counts(self, method):
        n = 2 * BLOCK_SIZE + 123  # three blocks
        serial = sample_canonical(n, SamplerConfig(seed=42, worker_count=1, method=method))
        pooled = sample_canonical(n, SamplerConfig(seed=42, worker_count=4, method=method))
        np.testing.assert_array_equal(serial, pooled)

    @pytest.mark.parametrize("method", ["matrix_oracle", "coordinate_density"])
    def test_gates_bit_identical_across_worker_counts(self, method):
        n = BLOCK_SIZE + 1500  # a Jacobi-route block of each size
        serial = sample_gates(n, SamplerConfig(seed=43, worker_count=1, method=method))
        pooled = sample_gates(n, SamplerConfig(seed=43, worker_count=3, method=method))
        np.testing.assert_array_equal(serial, pooled)

    @pytest.mark.parametrize("sampler", [sample_full_coords, sample_invariants])
    def test_other_samplers_bit_identical_across_worker_counts(self, sampler):
        n = BLOCK_SIZE + 700
        serial = sampler(n, SamplerConfig(seed=45, worker_count=1))
        pooled = sampler(n, SamplerConfig(seed=45, worker_count=3))
        np.testing.assert_array_equal(serial, pooled)

    @pytest.mark.parametrize("sampler", [sample_canonical, sample_gates])
    def test_whole_blocks_are_the_prefix_of_longer_calls(self, sampler):
        """A short partial tail takes the ``eigvals`` route for coordinates, yet
        the whole block before it matches a call that ends there."""
        cfg = SamplerConfig(seed=44)
        np.testing.assert_array_equal(
            sampler(BLOCK_SIZE + 100, cfg)[:BLOCK_SIZE], sampler(BLOCK_SIZE, cfg)
        )

    def test_seed_changes_the_stream(self):
        a = sample_canonical(100, SamplerConfig(seed=0))
        b = sample_canonical(100, SamplerConfig(seed=1))
        assert np.abs(a - b).max() > 1e-3

    def test_streams_are_consistent_between_entry_points(self):
        """The oracle's invariants come from the trace formulas and its
        coordinates from the spectral kernel: independent routes, measured
        3.3e-15 apart."""
        cfg = SamplerConfig(seed=17)
        gates = sample_gates(500, cfg)
        invs = sample_invariants(500, cfg)
        coords = sample_canonical(500, cfg)
        np.testing.assert_allclose(g_from_c(coords), invs, rtol=0, atol=1e-13)
        assert gates.shape == (500, 4, 4)

    def test_oracle_invariants_are_the_trace_formulas_of_its_gates(self):
        """Both sizes of block: a whole one on the Jacobi route's layout and
        a final one of 40 rows, which takes LAPACK's ``det``."""
        cfg = SamplerConfig(seed=29, worker_count=2)
        n = BLOCK_SIZE + 40
        np.testing.assert_allclose(
            sample_invariants(n, cfg), _makhlin_batch(sample_gates(n, cfg)), rtol=0, atol=1e-14
        )

    def test_oracle_invariants_take_no_spectrum(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for module, name in ((invariants, "_spectral_coords"), (sampling, "_spectral_coords"),
                             (invariants, "_jacobi_spectrum"), (np.linalg, "eigvals")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        g = sample_invariants(BLOCK_SIZE + 300, SamplerConfig(seed=31))
        assert g.shape == (BLOCK_SIZE + 300, 3) and calls == []
        sample_canonical(300, SamplerConfig(seed=31))
        assert calls[:2] == ["_spectral_coords", "_jacobi_spectrum"]  # the spies see the kernel

    def test_oracle_coordinates_match_the_kernel_on_its_gates(self):
        """The block workers canonicalise the same stream, before projection."""
        cfg = SamplerConfig(seed=19, worker_count=2)
        n = BLOCK_SIZE + 77
        np.testing.assert_allclose(
            sample_canonical(n, cfg), canonical_coords_batch(sample_gates(n, cfg)), atol=1e-13
        )

    def test_coordinate_method_invariants_share_the_stream(self):
        cfg = SamplerConfig(seed=23, method="coordinate_density")
        np.testing.assert_array_equal(
            sample_invariants(2000, cfg), g_from_c(sample_canonical(2000, cfg))
        )


class TestMarginals:
    def test_rotation_angle_inverse_cdf(self):
        x = sample_full_coords(100_000, SamplerConfig(seed=2))
        for col in (0, 3, 6, 9):
            stat = kstest(x[:, col], rotation_angle_cdf)
            assert stat.pvalue > 0.01, f"alpha column {col}: p={stat.pvalue}"

    def test_rotation_angle_backward_error_at_50_digits(self):
        """The fixed three Halley steps reach round-off everywhere,
        including the CDF's flat spots at u = 0, 1/2 and 1."""
        near = np.logspace(-15, -1, 300)
        u = np.concatenate(
            [[0.0, 0.5], near, 0.25 - near, 0.25 + near, 0.5 - near, 0.5 + near, 1.0 - near,
             np.linspace(0.0, 1.0, 2001), np.random.default_rng(11).random(3000)]
        )
        got = _alpha_from_uniform(u)
        backward = [abs(cdf - v) for cdf, v in zip(rotation_angle_cdf_50_digits(got), u)]
        assert float(max(backward)) <= 5e-16
        assert _alpha_from_uniform(np.array([0.0, 0.5])).tolist() == [0.0, 2.0 * np.pi]
        assert _alpha_from_uniform(np.array([np.nextafter(1.0, 0.0)]))[0] < 4.0 * np.pi

    def test_rotation_angle_kernel_draws_no_uniforms(self, monkeypatch):
        """Every column but the rotation angles is the same whatever the
        angle kernel computes: it reads the block's uniforms, never the
        stream."""
        config = SamplerConfig(seed=7, worker_count=2)
        n = 2 * BLOCK_SIZE + 100
        expected = sample_full_coords(n, config)
        monkeypatch.setattr(sampling, "_alpha_from_uniform", lambda u: u)
        got = sample_full_coords(n, config)
        others = [col for col in range(15) if col not in (0, 3, 6, 9)]
        np.testing.assert_array_equal(got[:, others], expected[:, others])
        assert not np.array_equal(got[:, [0, 3, 6, 9]], expected[:, [0, 3, 6, 9]])

    def test_axis_direction_marginals(self):
        n = 100_000
        x = sample_full_coords(n, SamplerConfig(seed=3))
        for col in (1, 4, 7, 10):  # polar angles: cos(theta) uniform on [-1, 1]
            mean = np.cos(x[:, col]).mean()
            assert abs(mean) <= 3.0 / math.sqrt(3 * n)
        for col in (2, 5, 8, 11):  # azimuths: uniform on [0, 2 pi)
            mean = x[:, col].mean()
            assert abs(mean - np.pi) <= 3.0 * (2 * np.pi / math.sqrt(12)) / math.sqrt(n)

    @pytest.mark.parametrize("method", ["matrix_oracle", "coordinate_density"])
    def test_coordinates_live_in_the_chamber(self, method):
        c = sample_canonical(20_000, SamplerConfig(seed=4, method=method))
        assert in_weyl_chamber(c[:, 0], c[:, 1], c[:, 2]).all()

    def test_methods_agree_on_first_coordinate(self):
        a = sample_canonical(20_000, SamplerConfig(seed=5, method="matrix_oracle"))
        b = sample_canonical(20_000, SamplerConfig(seed=6, method="coordinate_density"))
        assert ks_2samp(a[:, 0], b[:, 0]).pvalue > 0.01

    def test_pe_fraction(self):
        n = 100_000
        for method in ("matrix_oracle", "coordinate_density"):
            c = sample_canonical(n, SamplerConfig(seed=7, method=method))
            frac = summarize_samples(c)["pe_fraction"]
            se = math.sqrt(PE_VOLUME_CLOSED * (1 - PE_VOLUME_CLOSED) / n)
            assert abs(frac - PE_VOLUME_CLOSED) <= 3.0 * se, method


class TestBlockKernels:
    @pytest.mark.parametrize(
        "m,seed,chunk,rounds",
        [
            (1, 0, None, 1),
            (5, 0, None, 1),
            (60, 2, None, 2),
            (60, 2, 64, 2),  # a second round, each round over several chunks
            (1000, 0, None, 1),
            (BLOCK_SIZE, 3, None, 1),  # one round over many chunks
        ],
    )
    def test_chunked_rounds_match_whole_rounds(self, monkeypatch, m, seed, chunk, rounds):
        """Same rows, and the stream after the block (which the rotation
        angles of the fifteen-coordinate sampler read) is where it was."""
        if chunk is not None:
            monkeypatch.setattr(sampling, "_CHUNK", chunk)
        whole_rng, rng = _block_rng(seed, 0), _block_rng(seed, 0)
        expected, used = chamber_block_whole_rounds(whole_rng, m)
        assert used == rounds
        np.testing.assert_array_equal(_chamber_block(rng, m), expected)
        np.testing.assert_array_equal(rng.random(16), whole_rng.random(16))

    @pytest.mark.parametrize("m", [1, 5, 223, 224, 1023, 1024, 1025, BLOCK_SIZE])
    def test_haar_columns_match_the_untiled_reference(self, m):
        assert same_bits(_haar_columns(_block_rng(4, 1), m), haar_columns_untiled(_block_rng(4, 1), m))

    @pytest.mark.parametrize("tile", [1, 7])
    def test_haar_columns_do_not_depend_on_the_tile(self, monkeypatch, tile):
        monkeypatch.setattr(sampling, "_TILE", tile)
        assert same_bits(_haar_columns(_block_rng(4, 2), 1025), haar_columns_untiled(_block_rng(4, 2), 1025))

    def test_oracle_coordinate_block_peak_memory(self):
        """Gram-Schmidt in place and no (n, 4, 4) stack in the kernel: the
        block's own arrays are 4 MB of matrices and their spectra."""
        assert block_peak(_oracle_coords_block) <= 16e6

    def test_chamber_block_peak_memory(self):
        """Proposals are tested a chunk at a time; the output is 0.4 MB."""
        assert block_peak(_chamber_block) <= 2e6


class TestMatrixSamples:
    def test_unitary_with_unit_determinant(self):
        U = sample_gates(500, SamplerConfig(seed=8))
        eye = np.eye(4)
        gram = np.einsum("nij,nkj->nik", U, U.conj())
        assert np.abs(gram - eye).max() < 1e-10
        assert np.abs(np.linalg.det(U) - 1.0).max() < 1e-10

    def test_peak_memory_is_about_one_output(self):
        """Blocks are written into the output, never gathered and concatenated."""
        n = 16 * BLOCK_SIZE
        sample_gates(BLOCK_SIZE, SamplerConfig(seed=8))  # warm caches outside the trace
        tracemalloc.start()
        try:
            G = sample_gates(n, SamplerConfig(seed=8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * G.nbytes

    def test_coordinate_method_peak_memory(self):
        """The assembled block's temporaries stay well under one output's size."""
        n = 16 * BLOCK_SIZE
        config = SamplerConfig(seed=8, method="coordinate_density")
        sample_gates(BLOCK_SIZE, config)  # warm caches outside the trace
        tracemalloc.start()
        try:
            G = sample_gates(n, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * G.nbytes

    def test_trace_modulus_is_bi_invariant(self):
        n = 20_000
        U = sample_gates(n, SamplerConfig(seed=9))
        V = sample_gates(1, SamplerConfig(seed=10))[0]
        W = sample_gates(1, SamplerConfig(seed=11))[0]
        plain = np.abs(np.einsum("nii->n", U))
        dressed = np.abs(np.einsum("nii->n", V @ U @ W))
        assert ks_2samp(plain, dressed).pvalue > 0.01

    def test_assembled_coordinate_samples_are_unitary(self):
        U = sample_gates(200, SamplerConfig(seed=12, method="coordinate_density"))
        gram = np.einsum("nij,nkj->nik", U, U.conj())
        assert np.abs(gram - np.eye(4)).max() < 1e-10


class TestSummaries:
    def test_keys_and_counts(self):
        c = sample_canonical(1000, SamplerConfig(seed=13))
        summary = summarize_samples(c)
        assert set(summary) == {"count", "pe_fraction", "mean_c", "mean_g"}
        assert summary["count"] == 1000
        assert len(summary["mean_c"]) == len(summary["mean_g"]) == 3

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (4, 2), (2, 3, 3)])
    def test_rejects_anything_but_n_rows_of_three(self, shape):
        """An empty stack once divided by zero and a single point raised TypeError."""
        with pytest.raises(ValidationError, match="shape"):
            summarize_samples(np.full(shape, 0.1))


def csv_row_by_row(coords):
    """The CSV export formatted one numpy scalar at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["c1", "c2", "c3", "g1", "g2", "g3", "is_pe"])
    g, pe = g_from_c(coords), is_perfect_entangler(coords)
    for i in range(coords.shape[0]):
        writer.writerow([repr(float(v)) for v in (*coords[i], *g[i])] + [int(pe[i])])
    return buf.getvalue()


def jsonl_row_by_row(gates):
    """The JSON-lines export built one matrix at a time."""
    c = canonical_coords_batch(gates)
    g, pe = g_from_c(c), is_perfect_entangler(c)
    lines = []
    for i in range(gates.shape[0]):
        record = matrix_to_json_dict(gates[i])
        record.update(c=[float(v) for v in c[i]], g=[float(v) for v in g[i]], is_pe=bool(pe[i]))
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


class TestExports:
    def test_csv_bytes_match_row_by_row_formatting(self):
        """Several conversion chunks, wall points and signed zeros included."""
        c = sample_canonical(5000, SamplerConfig(seed=21, method="coordinate_density"))
        c[:3] = [[np.pi / 2, 0.0, 0.0], [np.pi / 2, np.pi / 4, 0.0], [0.0, -0.0, 0.0]]
        buf = io.StringIO()
        export_csv(buf, c)
        assert buf.getvalue() == csv_row_by_row(c)

    def test_jsonl_bytes_match_row_by_row_records(self):
        gates = sample_gates(4500, SamplerConfig(seed=22))
        gates = gates[::-1]  # a stack that is not contiguous
        buf = io.StringIO()
        export_jsonl(buf, gates)
        assert buf.getvalue() == jsonl_row_by_row(gates)

    def test_csv_schema_and_round_trip(self, tmp_path):
        c = sample_canonical(50, SamplerConfig(seed=14))
        path = tmp_path / "samples.csv"
        export_csv(path, c)
        lines = path.read_text().splitlines()
        assert lines[0] == "c1,c2,c3,g1,g2,g3,is_pe"
        assert len(lines) == 51
        first = lines[1].split(",")
        np.testing.assert_array_equal([float(v) for v in first[:3]], c[0])
        np.testing.assert_array_equal([float(v) for v in first[3:6]], g_from_c(c[0]))
        assert first[6] in {"0", "1"}

    def test_csv_accepts_open_streams(self):
        c = sample_canonical(5, SamplerConfig(seed=15))
        buf = io.StringIO()
        export_csv(buf, c)
        assert buf.getvalue().startswith("c1,c2,c3,")

    def test_jsonl_round_trip(self, tmp_path):
        gates = sample_gates(10, SamplerConfig(seed=16))
        path = tmp_path / "gates.jsonl"
        export_jsonl(path, gates)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 10
        rebuilt = load_matrix_json(io.StringIO(json.dumps(records[0])))
        np.testing.assert_allclose(rebuilt, gates[0], atol=1e-15)
        assert {"c", "g", "is_pe"} <= set(records[0])
        assert in_weyl_chamber(*records[3]["c"])

    def test_jsonl_validates_shape(self, tmp_path):
        with pytest.raises(ValidationError):
            export_jsonl(tmp_path / "x.jsonl", np.zeros((3, 2, 2)))

    def test_jsonl_rejects_non_unitary_rows(self, tmp_path):
        gates = sample_gates(4, SamplerConfig(seed=20))
        gates[2, 0, 0] += 1e-6
        with pytest.raises(ValidationError, match="index 2"):
            export_jsonl(tmp_path / "x.jsonl", gates)
