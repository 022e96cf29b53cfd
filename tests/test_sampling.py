import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from statistics import NormalDist

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import ks_2samp, kstest

from conftest import lapack_calls, matrix_to_json_dict, same_bits
from gategeom import geometry, invariants, sampling, volumes
from gategeom.cli import cli
from gategeom.coords import in_weyl_chamber
from gategeom.errors import ValidationError
from gategeom.gates import load_matrix_json, require_unitary_stack
from gategeom.geometry import WEYL_DENSITY_MAX, weyl_density
from gategeom.invariants import _column_invariants, canonical_coords_batch, g_from_c
from gategeom.sampling import (
    BLOCK_SIZE,
    SamplerConfig,
    _ACCEPT_RATE,
    _alpha_from_uniform,
    _block_rng,
    _assembled_block,
    _chamber_block,
    _export_stream,
    _full_block,
    _haar_columns,
    _matrix_block,
    _oracle_coords_block,
    _oracle_invariants_block,
    _summarize_stream,
    export_csv,
    export_jsonl,
    sample_canonical,
    sample_full_coords,
    sample_gates,
    sample_invariants,
    summarize_samples,
)
from gategeom.verify import _ks_2samp_pvalue
from gategeom.volumes import PE_VOLUME_CLOSED, Region, _mc_points_block, is_perfect_entangler, region_volume_mc

#: The suite's false-failure rate for one law.  A law judged on several
#: statistics holds each to the level over their number (Bonferroni),
#: fixed here before any stream is drawn.
FAMILY_LEVEL = 0.01
#: Eight two-sided axis means: |z| <= Phi^-1(1 - 0.01 / 16) = 3.227.
AXIS_MEAN_Z = NormalDist().inv_cdf(1.0 - FAMILY_LEVEL / 16)


def rotation_angle_cdf(alpha):
    return (np.asarray(alpha) - np.sin(alpha)) / (4.0 * np.pi)


def rotation_angle_cdf_50_digits(alpha):
    """The rotation-angle CDF of each float alpha, evaluated at 50 digits."""
    with mpmath.workdps(50):
        four_pi = 4 * mpmath.pi
        return [(mpmath.mpf(a) - mpmath.sin(mpmath.mpf(a))) / four_pi for a in alpha]


def chamber_proposals(u):
    """Chamber proposals of rows of five uniforms, and which are accepted."""
    c = np.sort(u[:, :3], axis=1)[:, ::-1] * (np.pi / 2)
    flip = u[:, 3] < 0.5
    c[flip, 0] = np.pi - c[flip, 0]
    return c, u[:, 4] * WEYL_DENSITY_MAX < weyl_density(c)


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
        c, keep = chamber_proposals(u)
        accepted = c[keep]
        take = min(want, accepted.shape[0])
        out[have : have + take] = accepted[:take]
        have += take
    return out, rounds


def haar_columns_untiled(rng, m):
    """Haar SU(4) columns from one untiled draw of the (m, 4, 3) complex
    block, (re, im) pairs in row order, with Gram-Schmidt's sums from
    Python's ``sum`` and a division by the norm, and the fourth column the
    conjugated cofactors, each the signed 3 x 3 minor of the other rows
    expanded along column 2: the reference whose bits :func:`_haar_columns`
    keeps."""
    pairs = rng.standard_normal((m, 4, 3, 2))
    u = np.empty((4, 4, m), dtype=complex)
    u[:, :3] = pairs.view(complex)[..., 0].transpose(1, 2, 0)
    for j in range(3):
        v = u[:, j]
        for _ in range(2 if j else 0):
            r = [sum(np.conj(u[i, k]) * v[i] for i in range(4)) for k in range(j)]
            for k, rk in enumerate(r):
                v -= u[:, k] * rk
        v /= np.sqrt(sum(v[i].real ** 2 + v[i].imag ** 2 for i in range(4)))
    # The 2 x 2 minors of columns 0 and 1 are named before they multiply:
    # numpy may turn a product with a temporary operand around, and complex
    # products with FMA are not bitwise commutative.
    minor = {(a, b): u[a, 0] * u[b, 1] - u[b, 0] * u[a, 1] for a in range(4) for b in range(a + 1, 4)}
    for i in range(4):
        p, q, r = [k for k in range(4) if k != i]
        det3 = u[p, 2] * minor[q, r] - u[q, 2] * minor[p, r] + u[r, 2] * minor[p, q]
        u[i, 3] = (det3 if i % 2 else -det3).conj()
    return u


def su4_deviation(U):
    """max |U^dag U - I| and max |det U - 1| of an (n, 4, 4) stack, the
    determinant by LAPACK, 2^15 rows at a time."""
    gram = det = 0.0
    for start in range(0, len(U), 1 << 15):
        part = U[start : start + (1 << 15)]
        gram = max(gram, float(np.abs(np.conj(part.transpose(0, 2, 1)) @ part - np.eye(4)).max()))
        det = max(det, float(np.abs(np.linalg.det(part) - 1.0).max()))
    return gram, det


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

    @pytest.mark.parametrize("workers", [0, -1, 2.5, True, np.bool_(True), "3", None])
    def test_worker_count_must_be_a_positive_integer(self, workers):
        """2.5 and True ran, and "3" and None raised TypeError."""
        with pytest.raises(ValidationError, match="worker_count must be a positive integer"):
            SamplerConfig(worker_count=workers)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            SamplerConfig(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        a = sample_canonical(10, SamplerConfig(seed=np.int64(3)))
        np.testing.assert_array_equal(a, sample_canonical(10, SamplerConfig(seed=3)))

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
        """A whole block and a final one of 40 rows, both on the Jacobi
        route's layout, against the trace formulas of the gates on that
        layout with det U = 1, bit for bit: no projection comes between."""
        cfg = SamplerConfig(seed=29, worker_count=2)
        n = BLOCK_SIZE + 40
        gates = sample_gates(n, cfg).transpose(1, 2, 0).copy()
        assert same_bits(sample_invariants(n, cfg), _column_invariants(gates, 1.0))

    def test_oracle_invariants_take_no_spectrum(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for module, name in ((invariants, "_spectral_coords"), (invariants, "_column_coords"),
                             (sampling, "_column_coords"), (invariants, "_jacobi_spectrum"),
                             (np.linalg, "eigvals")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        g = sample_invariants(BLOCK_SIZE + 30, SamplerConfig(seed=31))
        assert g.shape == (BLOCK_SIZE + 30, 3) and calls == []
        sample_canonical(30, SamplerConfig(seed=31))
        assert calls[:2] == ["_column_coords", "_jacobi_spectrum"]  # the spies see the kernel

    def test_oracle_coordinates_match_the_kernel_on_its_gates(self):
        """The block workers canonicalise the same stream, before projection."""
        cfg = SamplerConfig(seed=19, worker_count=2)
        n = BLOCK_SIZE + 77
        np.testing.assert_allclose(
            sample_canonical(n, cfg), canonical_coords_batch(sample_gates(n, cfg)), atol=1e-13
        )

    @pytest.mark.parametrize("n", [224, 300, 2 * BLOCK_SIZE + 77])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_oracle_coordinates_are_the_batch_map_of_its_gates(self, n, workers):
        """Bit for bit from the batch map's Jacobi threshold on: both take
        det U by Laplace expansion on the same route."""
        cfg = SamplerConfig(seed=19, worker_count=workers)
        assert same_bits(sample_canonical(n, cfg), canonical_coords_batch(sample_gates(n, cfg)))

    def test_coordinate_method_invariants_share_the_stream(self):
        cfg = SamplerConfig(seed=23, method="coordinate_density")
        np.testing.assert_array_equal(
            sample_invariants(2000, cfg), g_from_c(sample_canonical(2000, cfg))
        )


#: Counts whose calls must be the first rows of a longer call: a row, a
#: few, both sides of the batch maps' Jacobi threshold and of a block.
PREFIX_COUNTS = (1, 5, 223, 224, BLOCK_SIZE - 1, BLOCK_SIZE + 1)


class TestPrefixStability:
    """Row i of every sampler depends on the seed and i alone."""

    @pytest.mark.parametrize("method", ["matrix_oracle", "coordinate_density"])
    @pytest.mark.parametrize(
        "sampler", [sample_canonical, sample_gates, sample_invariants, sample_full_coords]
    )
    def test_every_call_is_the_start_of_a_longer_one(self, sampler, method):
        """Bit for bit, signs of zeros included, at 1, 2 and 4 workers."""
        for w in (1, 2, 4):
            config = SamplerConfig(seed=3, worker_count=w, method=method)
            longer = sampler(40_000, config)
            for k in PREFIX_COUNTS:
                assert same_bits(sampler(k, config), longer[:k]), (w, k)

    @pytest.mark.parametrize("method", ["matrix-oracle", "coordinate-density"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_sample_command_prints_the_first_rows(self, monkeypatch, fmt, method):
        """Byte for byte, on short blocks, which keep the JSON conversion
        quick and put several block edges under the counts."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        runner = CliRunner()
        header = 1 if fmt == "csv" else 0

        def run(n):
            args = ["sample", "-n", str(n), "--seed", "3", "--format", fmt,
                    "--method", method, "--threads", "2"]
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output
            return result.output

        lines = run(3 * SHORT_BLOCK + 5).splitlines(keepends=True)
        for k in (1, 5, 223, 224, SHORT_BLOCK - 1, SHORT_BLOCK + 1):
            assert run(k) == "".join(lines[: header + k]), k


#: Sampler outputs that no LAPACK or BLAS call touches, printed by a fresh
#: process: digests of both methods' gates and invariants, of the oracle's
#: coordinates and of ``gategeom sample -n 40000 --seed 1 --format jsonl``,
#: then the CSV of ``gategeom sample -n 5 --seed 1``.  About 3 in 1000
#: oracle rows take the Jacobi route's closing round, so 40000 rows cover it.
BLAS_FREE_PROBE = """
import contextlib, hashlib, io
from gategeom.cli import main
from gategeom.sampling import SamplerConfig, sample_canonical, sample_gates, sample_invariants
for method in ("matrix_oracle", "coordinate_density"):
    for sampler in (sample_gates, sample_invariants):
        rows = sampler(3000, SamplerConfig(seed=1, method=method))
        print(method, sampler.__name__, hashlib.sha256(rows.tobytes()).hexdigest(), flush=True)
rows = sample_canonical(40000, SamplerConfig(seed=1))
print("matrix_oracle sample_canonical", hashlib.sha256(rows.tobytes()).hexdigest(), flush=True)
jsonl = io.StringIO()
with contextlib.redirect_stdout(jsonl):
    main(["sample", "-n", "40000", "--seed", "1", "--format", "jsonl"], standalone_mode=False)
print("sample --format jsonl", hashlib.sha256(jsonl.getvalue().encode()).hexdigest(), flush=True)
main(["sample", "-n", "5", "--seed", "1"])
"""


def run_probe(**env_changes) -> str:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    src = os.path.dirname(os.path.dirname(sampling.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", BLAS_FREE_PROBE], capture_output=True,
                          text=True, env={**env, **env_changes}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestEmulatedBuild:
    def test_samples_do_not_depend_on_the_openblas_kernels(self):
        """OpenBLAS's Prescott kernels, set for the child process only, print
        the bytes of the native run: every oracle block takes the Jacobi
        route, which calls no LAPACK solver, not even on the rows its
        sweeps leave with a near-tie."""
        native = run_probe()
        assert native.count("\n") == 6 + 6
        assert run_probe(OPENBLAS_CORETYPE="Prescott") == native


class TestMarginals:
    def test_rotation_angle_inverse_cdf(self):
        x = sample_full_coords(100_000, SamplerConfig(seed=2))
        pvalues = {col: kstest(x[:, col], rotation_angle_cdf).pvalue for col in (0, 3, 6, 9)}
        assert min(pvalues.values()) > FAMILY_LEVEL / 4, pvalues

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
        z = {}
        for col in (1, 4, 7, 10):  # polar angles: cos(theta) uniform on [-1, 1]
            z[col] = np.cos(x[:, col]).mean() * math.sqrt(3 * n)
        for col in (2, 5, 8, 11):  # azimuths: uniform on [0, 2 pi)
            z[col] = (x[:, col].mean() - np.pi) / (2 * np.pi / math.sqrt(12 * n))
        assert max(map(abs, z.values())) <= AXIS_MEAN_Z, z

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
        """Same rows: the first m accepted proposals of the stream, however
        the draws are cut.  Nothing reads the stream after the block."""
        if chunk is not None:
            monkeypatch.setattr(sampling, "_CHUNK", chunk)
        expected, used = chamber_block_whole_rounds(_block_rng(seed, 0), m)
        assert used == rounds
        np.testing.assert_array_equal(_chamber_block(_block_rng(seed, 0), m), expected)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_vandermonde_acceptance_takes_the_sine_product_rows(self, seed):
        """2^18 rows: the kernel's 2u < |V(cos 2c)| accepts the proposals
        that u WEYL_DENSITY_MAX < weyl_density(c), the sine product, does."""
        n = 1 << 18
        got = sample_canonical(n, SamplerConfig(seed=seed, worker_count=2, method="coordinate_density"))
        for start in range(0, n, BLOCK_SIZE):
            want, _ = chamber_block_whole_rounds(_block_rng(seed, start // BLOCK_SIZE), BLOCK_SIZE)
            np.testing.assert_array_equal(got[start : start + BLOCK_SIZE], want)

    @pytest.mark.parametrize("m", [1, 1000, BLOCK_SIZE])
    def test_chamber_draws_nothing_once_its_block_is_full(self, m):
        """The block fills during its last draw: no draw follows the one
        that holds its m-th accepted proposal."""
        draws = []

        class Counted:
            def random(self, out):
                draws.append(len(out))
                return rng.random(out=out)

        rng = _block_rng(5, 0)
        _chamber_block(Counted(), m)
        _, keep = chamber_proposals(_block_rng(5, 0).random((sum(draws), 5)))
        assert np.count_nonzero(keep[: sum(draws[:-1])]) < m <= np.count_nonzero(keep)

    def test_rotation_slots_read_streams_of_their_own(self):
        """Slot k reads the block's stream jumped k + 1 times, the chamber
        the block's stream itself."""
        m = 1000
        got = _full_block(_block_rng(6, 2), m)
        base = _block_rng(6, 2).bit_generator
        for k in range(4):
            slot = np.random.Generator(base.jumped(k + 1))
            np.testing.assert_array_equal(got[:, 3 * k : 3 * k + 3], sampling._su2_block(slot, m))
        np.testing.assert_array_equal(got[:, 12:], _chamber_block(_block_rng(6, 2), m))

    @pytest.mark.parametrize("m", [1, 5, 223, 224, 1023, 1024, 1025, BLOCK_SIZE])
    def test_haar_columns_match_the_untiled_reference(self, m):
        assert same_bits(_haar_columns(_block_rng(4, 1), m), haar_columns_untiled(_block_rng(4, 1), m))

    @pytest.mark.parametrize("tile", [1, 7])
    def test_haar_columns_do_not_depend_on_the_tile(self, monkeypatch, tile):
        monkeypatch.setattr(sampling, "_TILE", tile)
        assert same_bits(_haar_columns(_block_rng(4, 2), 1025), haar_columns_untiled(_block_rng(4, 2), 1025))

    def test_oracle_coordinate_block_peak_memory(self):
        """Gram-Schmidt in place and no (n, 4, 4) stack in the kernel: the
        block's own arrays are 4 MB of matrices, overwritten with V and
        released before the sweeps, and their spectra (measured 8.4 MB)."""
        assert block_peak(_oracle_coords_block) <= 9.5e6

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

    def test_oracle_blocks_lie_in_su4_to_round_off(self):
        """2^17 rows: the cofactor column makes det U = 1 with no projection
        (measured 1.3e-15 for both)."""
        gram, det = su4_deviation(sample_gates(1 << 17, SamplerConfig(seed=48, worker_count=2)))
        assert gram <= 1e-14 and det <= 1e-14, (gram, det)

    def test_unconjugated_cofactors_fail_the_su4_bound(self):
        """A seeded fault: the fourth column left as the cofactors themselves."""
        u = _haar_columns(_block_rng(48, 0), 1024)
        np.conjugate(u[:, 3], out=u[:, 3])
        assert min(su4_deviation(u.transpose(2, 0, 1))) > 1e-2

    def test_one_determinant_per_coordinate_block(self, monkeypatch):
        """det U = 1 by construction, but the Jacobi route's coordinates take
        the Laplace determinant whatever their stack: one per oracle
        coordinate block and per JSON-lines block, none for the gates, the
        invariants or the Monte-Carlo masses.  And no ``eigvals``, ``eig``,
        ``eigh`` or ``det`` runs at all: the Jacobi route resolves its own
        ties, so no sampler output depends on the LAPACK build."""
        calls = []

        def spy(u):
            calls.append(u.shape[2])
            return laplace_det(u)

        def dets(run):
            calls.clear()
            run()
            return sorted(calls)

        laplace_det = invariants._laplace_det
        monkeypatch.setattr(invariants, "_laplace_det", spy)
        lapack = lapack_calls(monkeypatch)
        n, config = BLOCK_SIZE + 30, SamplerConfig(seed=49, worker_count=2)
        coordinate = SamplerConfig(seed=49, worker_count=2, method="coordinate_density")
        for run in (lambda: sample_gates(n, config), lambda: sample_invariants(n, config),
                    lambda: region_volume_mc(Region("pe"), samples=n, seed=49, worker_count=2),
                    lambda: _export_stream(io.StringIO(), "csv", n, coordinate)):
            assert dets(run) == []
        for run in (lambda: sample_canonical(n, config), lambda: _summarize_stream(n, config),
                    lambda: _export_stream(io.StringIO(), "csv", n, config),
                    lambda: _export_stream(io.StringIO(), "jsonl", n, config),
                    lambda: _export_stream(io.StringIO(), "jsonl", n, coordinate)):
            assert dets(run) == [30, BLOCK_SIZE]
        assert dets(lambda: canonical_coords_batch(sample_gates(224, config))) == [224]
        assert dets(lambda: export_jsonl(io.StringIO(), sample_gates(30, config))) == [30]
        assert lapack == []

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


#: Each sampler's seed in the Haar-law tests, which draw 200k gates each.
HAAR_LAW_SEEDS = {"matrix_oracle": 61, "coordinate_density": 62}


@pytest.fixture(scope="module")
def haar_law_statistics():
    """|U11|^2 and |tr U|^2 of each sampler's gates; the gates are dropped."""
    out = {}
    for method, seed in HAAR_LAW_SEEDS.items():
        U = sample_gates(200_000, SamplerConfig(seed=seed, worker_count=2, method=method))
        out[method] = (np.abs(U[:, 0, 0]) ** 2, np.abs(np.einsum("nii->n", U)) ** 2)
    return out


def record_pvalues(capsys, law, pvalues):
    """Print a law's p-values in the test log, as the acceptance battery does."""
    with capsys.disabled():
        text = ", ".join(f"{name} p = {p:.3g}" for name, p in pvalues.items())
        print(f"\nhaar law, {law}: {text}", flush=True)


class TestHaarLaws:
    """Laws of Haar-random 4x4 unitaries, applied to both samplers' gates.

    They hold on SU(4) as on U(4): the phase projection leaves |U_ij|
    and |tr U| alone, and the trace moments need k < 4.  They test what
    the chamber and angle tests take as given: the local factors' law and
    how the coordinate sampler assembles a gate from its coordinates.
    """

    @pytest.mark.parametrize("method", list(HAAR_LAW_SEEDS))
    def test_entry_modulus_is_beta_1_3(self, capsys, haar_law_statistics, method):
        entry, _ = haar_law_statistics[method]
        p = kstest(entry, lambda x: 1.0 - (1.0 - x) ** 3).pvalue
        record_pvalues(capsys, f"{method} |U11|^2 vs Beta(1, 3)", {"KS": p})
        assert p > 0.01

    @pytest.mark.parametrize("method", list(HAAR_LAW_SEEDS))
    def test_trace_moments_are_factorials(self, capsys, haar_law_statistics, method):
        """E|tr U|^2k = k! for k <= 3 (Diaconis and Shahshahani, 1994),
        each mean tested against its own standard error."""
        _, trace2 = haar_law_statistics[method]
        pvalues = {}
        for k in (1, 2, 3):
            x = trace2**k
            z = (x.mean() - math.factorial(k)) / (x.std(ddof=1) / math.sqrt(len(x)))
            pvalues[f"k={k}"] = math.erfc(abs(z) / math.sqrt(2.0))
        record_pvalues(capsys, f"{method} E|tr U|^2k = k!", pvalues)
        assert min(pvalues.values()) > FAMILY_LEVEL / 3

    def test_trace_law_agrees_across_methods(self, capsys, haar_law_statistics):
        p = _ks_2samp_pvalue(
            haar_law_statistics["coordinate_density"][1], haar_law_statistics["matrix_oracle"][1]
        )
        record_pvalues(capsys, "|tr U|^2 across methods", {"two-sample KS": p})
        assert p > 0.01


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


def jsonl_row_by_row(gates, c=None):
    """The JSON-lines export built one matrix at a time, with the given
    coordinates or else ``canonical_coords_batch`` of the stack."""
    c = canonical_coords_batch(gates) if c is None else c
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

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (2, 3, 3)])
    def test_csv_validates_shape(self, tmp_path, shape):
        """An (n, 2) array once raised IndexError and a 1-D one TypeError."""
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError, match=r"shape \(n, 3\)"):
            export_csv(path, np.full(shape, 0.1))
        assert not path.exists()

    @pytest.mark.parametrize("row", [(np.nan, 0.1, 0.0), (np.inf, 0.1, 0.0), (0.3, 0.2, -0.1), (0.2, 0.3, 0.1)])
    def test_csv_rejects_a_bad_row_before_writing(self, monkeypatch, tmp_path, row):
        """A bad row after a full chunk is named by its index in the whole
        array, and no file is created."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        c = sample_canonical(3 * SHORT_BLOCK, SamplerConfig(seed=23))
        bad = SHORT_BLOCK + 17
        c[bad] = row
        path = tmp_path / "x.csv"
        with pytest.raises(ValidationError, match=f"row {bad} of the coordinates"):
            export_csv(path, c)
        assert not path.exists()

    def test_jsonl_validates_shape(self, tmp_path):
        with pytest.raises(ValidationError):
            export_jsonl(tmp_path / "x.jsonl", np.zeros((3, 2, 2)))

    def test_jsonl_rejects_non_unitary_rows(self, tmp_path):
        gates = sample_gates(4, SamplerConfig(seed=20))
        gates[2, 0, 0] += 1e-6
        with pytest.raises(ValidationError, match="index 2"):
            export_jsonl(tmp_path / "x.jsonl", gates)


# --- the ordered block stream -------------------------------------------------


def run_blocks_reference(n, config, block_fn, row_shape, dtype):
    """The serial loop that wrote each block into one preallocated output,
    before every sampler read one ordered stream."""
    out = np.empty((n, *row_shape), dtype=dtype)
    for block in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE):
        start = block * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, n)
        out[start:stop] = block_fn(_block_rng(config.seed, block), stop - start)
    return out


def upper_congruence_reference(u):
    """m = U_B^T U_B as its upper triangle, with V = U B formed in a second
    array summed from zero: the kernel whose bits the in-place V keeps."""
    v = np.zeros_like(u)
    for k, j in zip(*np.nonzero(invariants._MAGIC_BASIS)):
        v[:, j] += invariants._MAGIC_BASIS[k, j] * u[:, k]
    m = np.empty((10, u.shape[2]), dtype=complex)
    for row, (i, j) in enumerate(invariants._UPPER_PAIRS):
        m[row] = (v[0, i] * v[3, j] - v[1, i] * v[2, j]) + (v[0, j] * v[3, i] - v[1, j] * v[2, i])
    return m


#: Each sampler with its block kernel and row layout, as the reference loop
#: called them.
REFERENCE_SAMPLERS = {
    "canonical-oracle": (sample_canonical, "matrix_oracle", _oracle_coords_block, (3,), float),
    "canonical-coordinate": (sample_canonical, "coordinate_density", _chamber_block, (3,), float),
    "gates-oracle": (sample_gates, "matrix_oracle", _matrix_block, (4, 4), complex),
    "gates-coordinate": (sample_gates, "coordinate_density", _assembled_block, (4, 4), complex),
    "invariants-oracle": (sample_invariants, "matrix_oracle", _oracle_invariants_block, (3,), float),
    "full-coords": (sample_full_coords, "matrix_oracle", _full_block, (15,), float),
}


#: Rows per block where a test patches ``BLOCK_SIZE`` to keep text
#: conversion quick; still above the Jacobi route's threshold.
SHORT_BLOCK = 1024


def traced_peak(fn):
    """tracemalloc peak of ``fn()``, after one untraced call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockStream:
    @pytest.mark.parametrize("n", [1, 223, 224, 16383, 16385, 40000])
    @pytest.mark.parametrize("name", sorted(REFERENCE_SAMPLERS))
    def test_samplers_match_the_preallocated_reference(self, monkeypatch, name, n):
        """Bit for bit, signs of zeros included, at 1, 2 and 4 workers; the
        oracle references form V in a second array, as before the in-place V."""
        sampler, method, block_fn, row_shape, dtype = REFERENCE_SAMPLERS[name]
        got = {w: sampler(n, SamplerConfig(seed=37, worker_count=w, method=method)) for w in (1, 2, 4)}
        monkeypatch.setattr(invariants, "_upper_congruence", upper_congruence_reference)
        want = run_blocks_reference(n, SamplerConfig(seed=37), block_fn, row_shape, dtype)
        for w, out in got.items():
            assert same_bits(out, want), w

    @pytest.mark.parametrize("n", [1, 224, 16385])
    def test_coordinate_invariants_match_the_reference(self, n):
        config = SamplerConfig(seed=38, method="coordinate_density")
        want = g_from_c(run_blocks_reference(n, config, _chamber_block, (3,), float))
        for w in (1, 2, 4):
            config = SamplerConfig(seed=38, worker_count=w, method="coordinate_density")
            assert same_bits(sample_invariants(n, config), want), w

    def test_in_place_v_keeps_the_bits_of_a_sum_from_zero(self):
        """Structured stacks whose zeros carry both signs: the in-place V and
        its m equal the second array summed from zero, signs of zeros too."""
        eye, cnot = np.eye(4, dtype=complex), np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        points = [eye, -eye, cnot, -1j * cnot, np.diag([1, 1j, 1j, 1]), np.diag([-1, 1, 1, -1j])]
        signed = np.stack(points).copy()
        signed[np.abs(signed) == 0] = complex(-0.0, -0.0)
        stack = np.concatenate([np.stack(points), signed, -signed.conj()])
        u = np.ascontiguousarray(np.tile(stack, (20, 1, 1)).transpose(1, 2, 0))
        reference_m = upper_congruence_reference(u)
        v = np.zeros_like(u)
        for k, j in zip(*np.nonzero(invariants._MAGIC_BASIS)):
            v[:, j] += invariants._MAGIC_BASIS[k, j] * u[:, k]
        m = invariants._upper_congruence(u)
        assert same_bits(u, v) and same_bits(m, reference_m)

    @pytest.mark.parametrize("n", [224, 300])
    def test_column_layout_of_a_caller_is_not_overwritten(self, n):
        """The Jacobi route overwrites its stack, so a caller's gets copied,
        even a transposed view that is already in the (4, 4, n) layout."""
        u = np.ascontiguousarray(sample_gates(n, SamplerConfig(seed=39)).transpose(1, 2, 0))
        before = u.copy()
        c = canonical_coords_batch(u.transpose(2, 0, 1))
        export_jsonl(io.StringIO(), u.transpose(2, 0, 1))
        assert same_bits(u, before)
        assert same_bits(c, canonical_coords_batch(before.transpose(2, 0, 1).copy()))

    def test_stacks_of_a_caller_are_not_overwritten(self):
        gates = sample_gates(BLOCK_SIZE + 500, SamplerConfig(seed=40))
        before = gates.copy()
        canonical_coords_batch(gates)
        export_jsonl(io.StringIO(), gates)
        assert same_bits(gates, before)

    def test_oracle_invariant_block_peak_memory(self):
        """V is formed in place of the block, which is released before the
        trace sums: no second 4 MB copy of the matrices."""
        assert block_peak(_oracle_invariants_block) <= 9.5e6

    @pytest.mark.parametrize("method", ["matrix_oracle", "coordinate_density"])
    def test_summary_stream_is_the_summary_of_the_array(self, method):
        n = 2 * BLOCK_SIZE + 5
        want = summarize_samples(sample_canonical(n, SamplerConfig(seed=41, method=method)))
        for w in (1, 2, 4):
            assert _summarize_stream(n, SamplerConfig(seed=41, worker_count=w, method=method)) == want

    @pytest.mark.parametrize("n", [2 * SHORT_BLOCK + 5, 2 * SHORT_BLOCK + 300])
    def test_exports_of_the_stream_are_the_exports_of_the_arrays(self, monkeypatch, n):
        """Two blocks and a final one of 5 or 300 rows, at one and two
        workers.  The JSON lines are the sampled gates with the sampled
        coordinates, bit for bit.  Short blocks keep the JSON conversion quick."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        csv_want, jsonl_want = io.StringIO(), io.StringIO()
        c = sample_canonical(n, SamplerConfig(seed=42))
        export_csv(csv_want, c)
        sampling._write_jsonl(jsonl_want, [(sample_gates(n, SamplerConfig(seed=42)), c)])
        for w in (1, 2):
            config = SamplerConfig(seed=42, worker_count=w)
            for fmt, want in (("csv", csv_want), ("jsonl", jsonl_want)):
                got = io.StringIO()
                _export_stream(got, fmt, n, config)
                assert got.getvalue() == want.getvalue(), (fmt, w)

    def test_jsonl_lines_are_the_records_of_the_samples(self):
        """A 3-row final block too: every line is the record of its sampled
        gate and its sampled coordinates."""
        n, config = BLOCK_SIZE + 3, SamplerConfig(seed=43)
        got = io.StringIO()
        _export_stream(got, "jsonl", n, config)
        assert got.getvalue() == jsonl_row_by_row(sample_gates(n, config), sample_canonical(n, config))

    @pytest.mark.parametrize("method", ["matrix_oracle", "coordinate_density"])
    def test_jsonl_stream_is_export_jsonl_of_the_sampled_gates(self, monkeypatch, method):
        """Byte for byte, a final block of 3 rows included, at one and two
        workers: each block's coordinates are taken by the route
        ``export_jsonl`` takes.  Short blocks keep the JSON conversion quick."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        n = sampling.BLOCK_SIZE + 3
        want = io.StringIO()
        export_jsonl(want, sample_gates(n, SamplerConfig(seed=43, method=method)))
        for w in (1, 2):
            got = io.StringIO()
            _export_stream(got, "jsonl", n, SamplerConfig(seed=43, worker_count=w, method=method))
            assert got.getvalue() == want.getvalue(), w

    def test_region_mass_is_the_mean_weight(self):
        """Σw / n is w.mean() bit for bit: every weight is a multiple of 1/2,
        and a side-10 cube's, up to 1536, stays within the exactness bound."""
        n = 2 * BLOCK_SIZE + 77
        c = sample_canonical(n, SamplerConfig(seed=44))
        cubes = [Region("cube_c", (np.pi / 2, np.pi / 4, 0.0), side, clip="unclipped") for side in (0.3, 10.0)]
        for region in (Region("pe"), *cubes):
            w = region.weights(c)
            results = {wc: region_volume_mc(region, samples=n, seed=44, worker_count=wc) for wc in (1, 2, 4)}
            assert len(set(results.values())) == 1
            assert results[1].value == float(w.mean())
            assert results[1].error_estimate == pytest.approx(
                float(w.std(ddof=1)) / math.sqrt(n), rel=1e-12
            )

    def test_window_bounds_the_blocks_held(self, monkeypatch):
        """At most worker_count blocks beyond the consumer's are drawn."""
        drawn, held = [], []

        def kernel(rng, m):
            drawn.append(m)
            return m

        config = SamplerConfig(worker_count=3)
        for i, (start, _) in enumerate(sampling._blocks(12 * BLOCK_SIZE, config, kernel)):
            assert start == i * BLOCK_SIZE
            held.append(len(drawn) - (i + 1))
        assert len(drawn) == 12 and max(held) <= 3

    def test_a_consumer_that_stops_early_waits_for_the_window_only(self):
        drawn = []

        def kernel(rng, m):
            drawn.append(m)
            return m

        stream = sampling._blocks(64 * BLOCK_SIZE, SamplerConfig(worker_count=4), kernel)
        next(stream)
        stream.close()  # waits for the blocks already running
        assert len(drawn) <= 5

    def test_many_workers_with_frequent_switches(self):
        """More workers than cores, switching threads every microsecond:
        each worker writes only its own rows of the shared output."""
        n = 10 * BLOCK_SIZE + 17
        want = sample_canonical(n, SamplerConfig(seed=48, method="coordinate_density"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = sample_canonical(n, SamplerConfig(seed=48, worker_count=8, method="coordinate_density"))
        finally:
            sys.setswitchinterval(interval)
        assert same_bits(got, want)

    @pytest.mark.parametrize("n", [2.5, 1e3, True, "7", None])
    def test_counts_are_integers(self, n):
        with pytest.raises(ValidationError, match="sample count must be a positive integer"):
            sample_canonical(n)

    def test_a_failed_block_is_raised_in_the_consumer(self):
        def kernel(rng, m):
            raise ArithmeticError("block failed")

        with pytest.raises(ArithmeticError, match="block failed"):
            list(sampling._blocks(4 * BLOCK_SIZE, SamplerConfig(worker_count=2), kernel))


#: One region of each kind, cubes both clipped and not, around the b-gate.
MC_REGIONS = (
    Region("pe"),
    Region("cube_c", (np.pi / 2, np.pi / 4, 0.0), 0.3),
    Region("cube_c", (np.pi / 2, np.pi / 4, 0.0), 0.3, clip="unclipped"),
    Region("sphere_g", (0.0, 0.0, 0.0), 0.3),
    Region("cylinder_g", (0.1, 0.05, 0.0), 0.2, 1.0),
)


class TestMonteCarloRoute:
    """The masses read the oracle's gates through the trace invariants and
    the cubic, and weigh the points the spectral route gives."""

    def test_no_spectrum_and_no_density(self, monkeypatch):
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for module, name in ((invariants, "_spectral_coords"), (invariants, "_column_coords"),
                             (sampling, "_column_coords"), (invariants, "_jacobi_spectrum"),
                             (np.linalg, "eigvals"), (geometry, "weyl_density"),
                             (volumes, "weyl_density")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        for region in MC_REGIONS:
            region_volume_mc(region, samples=BLOCK_SIZE + 30, seed=32, worker_count=2)
        assert calls == []
        sample_canonical(30, SamplerConfig(seed=32))
        volumes.cube_volume_closed((1.0, 0.5, 0.2), 0.1)  # crosses no crease, so reads the density
        assert set(calls) >= {"_column_coords", "_jacobi_spectrum", "weyl_density"}  # the spies see them

    @pytest.mark.parametrize("seed", [46, 47])
    def test_weights_are_those_of_the_spectral_points(self, seed):
        """2^18 rows: the cubic's losses move no weight of any region kind."""
        n = 1 << 18
        config = SamplerConfig(seed=seed, worker_count=2)
        cubic = sampling._fill(n, config, _mc_points_block, (3,), float)
        spectral = sample_canonical(n, config)
        assert np.abs(cubic - spectral).max() < 1e-8
        for region in MC_REGIONS:
            np.testing.assert_array_equal(region.weights(cubic), region.weights(spectral), err_msg=str(region))

    def test_block_peak_memory(self):
        """Within the bound of the oracle's other block kernels."""
        assert block_peak(_mc_points_block) <= 9.5e6


class TestBoundedMemory:
    """Peaks with one worker at two sample counts a factor of 4 apart."""

    def assert_flat(self, run):
        """Two blocks against eight, of whatever size the stream has."""
        block = sampling.BLOCK_SIZE
        small, large = traced_peak(lambda: run(2 * block)), traced_peak(lambda: run(8 * block))
        assert large <= 1.1 * small, (small, large)

    @pytest.mark.parametrize(
        "region",
        [Region("pe"), Region("cube_c", (np.pi / 2, np.pi / 4, 0.0), 0.3, clip="unclipped")],
        ids=["pe", "b-gate-cube"],
    )
    def test_region_volume_mc(self, region):
        self.assert_flat(lambda n: region_volume_mc(region, samples=n, seed=45))

    @pytest.mark.parametrize("fmt", ["summary", "csv", "jsonl"])
    def test_sample_command(self, monkeypatch, fmt):
        """On short blocks, which keep the traced text conversion quick."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        runner = CliRunner()

        def run(n):
            args = ["sample", "-n", str(n), "--threads", "1", "--format", fmt, "-o", os.devnull]
            assert runner.invoke(cli, args).exit_code == 0

        self.assert_flat(run)

    def test_summary_of_the_stream_holds_no_samples(self):
        self.assert_flat(lambda n: _summarize_stream(n, SamplerConfig(seed=46)))

    def test_export_jsonl_of_an_array(self, monkeypatch):
        """The stack is checked chunk by chunk, not at once."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        gates = sample_gates(8 * SHORT_BLOCK, SamplerConfig(seed=47))
        self.assert_flat(lambda n: export_jsonl(os.devnull, gates[:n]))

    def test_a_bad_row_in_a_later_chunk_writes_nothing(self, monkeypatch, tmp_path):
        """Every chunk is checked before the file is opened, and the error
        names the worst row of the whole stack (a NaN row first) by its
        index, as the whole-stack check does."""
        monkeypatch.setattr(sampling, "BLOCK_SIZE", SHORT_BLOCK)
        clean = sample_gates(3 * SHORT_BLOCK, SamplerConfig(seed=48))
        bad = SHORT_BLOCK + 17
        path = tmp_path / "gates.jsonl"
        for early_drift, late_entry in [(0.0, 1e-6), (1e-7, 1e-6), (1e-3, np.nan)]:
            gates = clean.copy()
            gates[5, 0, 0] += early_drift
            gates[bad, 1, 2] += late_entry
            with pytest.raises(ValidationError) as whole:
                require_unitary_stack(gates, "gate stack")
            assert f"unitarity violation at index {bad}:" in str(whole.value)
            with pytest.raises(ValidationError) as chunked:
                export_jsonl(path, gates)
            assert str(chunked.value) == str(whole.value)
            assert not path.exists()
        gates = clean[: SHORT_BLOCK + 1].copy()
        gates[SHORT_BLOCK] = gates[0] * 2.0  # a final chunk of one row
        with pytest.raises(ValidationError, match=f"at index {SHORT_BLOCK}:"):
            export_jsonl(path, gates)
        assert not path.exists()
