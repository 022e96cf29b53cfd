import numpy as np
import pytest
import scipy.special
import scipy.stats

import gategeom.geometry
import gategeom.quadrature
import gategeom.verify
import gategeom.volumes
from gategeom.errors import ValidationError
from gategeom.quadrature import bin_probabilities
from gategeom.sampling import SamplerConfig, sample_canonical
from gategeom.verify import (
    CheckResult,
    _elliptic_by_quadrature,
    _gamma_q,
    _ks_2samp_pvalue,
    chi_square_pvalue,
    run_checks,
)

EXPECTED_CHECK_NAMES = {
    "chamber-normalization",
    "pe-volume-quadrature",
    "pe-volume-mc",
    "cube-closed-forms",
    "density-max",
    "metric-determinant",
    "frame-vs-metric",
    "invariant-roundtrip",
    "matrix-invariants",
    "jacobian-identities",
    "cylinder-volumes",
    "elliptic-integrals",
    "sampler-determinism",
    "bin-grid-mass",
    "sample-distribution-chi2",
    "two-method-agreement",
}


class TestRunChecks:
    def test_quick_battery_passes(self):
        results = run_checks("quick")
        assert {r.name for r in results} == EXPECTED_CHECK_NAMES
        failures = [r for r in results if not r.passed]
        assert not failures, "\n".join(f"{r.name}: {r.detail}" for r in failures)
        assert all(isinstance(r, CheckResult) and r.duration >= 0 for r in results)
        assert all(r.detail for r in results)

    def test_name_filter_selects_substrings(self):
        results = run_checks("quick", names=["elliptic"])
        assert [r.name for r in results] == ["elliptic-integrals"]
        assert results[0].passed

    def test_unmatched_filter_yields_nothing(self):
        assert run_checks("quick", names=["no-such-check"]) == []

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            run_checks("exhaustive")

    def test_bad_seed_rejected_before_any_check(self, monkeypatch):
        ran = []
        monkeypatch.setattr(
            gategeom.verify, "_CHECKS", [("probe", lambda seed, full: ran.append(seed))]
        )
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            run_checks("quick", seed=-1)
        assert ran == []

    def test_bin_grid_built_once_per_run(self, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(args)
            return bin_probabilities(*args, **kwargs)

        monkeypatch.setattr(gategeom.quadrature, "bin_probabilities", counted)
        results = run_checks("quick", names=["bin-grid-mass", "sample-distribution-chi2"])
        assert [r.passed for r in results] == [True, True]
        assert len(built) == 1
        run_checks("quick", names=["bin-grid-mass"])
        assert len(built) == 2

    def test_corrupted_constant_is_caught(self, monkeypatch):
        monkeypatch.setattr(gategeom.volumes, "PE_VOLUME_CLOSED", 0.9)
        results = run_checks("quick", names=["pe-volume-quadrature"])
        assert len(results) == 1
        assert not results[0].passed

    def test_unpolished_density_peak_is_caught(self, monkeypatch):
        """The scan grid misses the peak, so a Newton polish that never moves
        fails the density-max check and acceptance 6's bounds."""
        derivatives = gategeom.geometry._cosine_density_derivatives
        monkeypatch.setattr(
            gategeom.geometry, "_cosine_density_derivatives",
            lambda c: (np.zeros(3), derivatives(c)[1]),
        )
        [result] = run_checks("quick", names=["density-max"])
        assert not result.passed
        point, value = gategeom.geometry.weyl_density_max_point()
        value_dev = abs(value - 12.0 / np.pi)
        pos_dev = np.abs(point.as_array() - np.array([np.pi / 2, np.pi / 4, 0.0])).max()
        assert value_dev > 1e-8 and pos_dev > 1e-4

    @pytest.mark.parametrize(
        "check,module,route,drift",
        [
            ("metric-determinant", gategeom.geometry, "det_g_closed", 4e-9),
            ("jacobian-identities", gategeom.geometry, "makhlin_density", 1e-10),
            ("elliptic-integrals", gategeom.volumes, "elliptic_K", 1e-12),
            ("frame-vs-metric", gategeom.geometry, "det_g_closed", 1e-9),
        ],
    )
    def test_small_drift_is_caught(self, monkeypatch, check, module, route, drift):
        """Each bound sits about 100x above what its check measures, so a
        drift its earlier bound (1e-8, 1e-8, 1e-10, 1e-4) let through fails."""
        exact = getattr(module, route)
        monkeypatch.setattr(module, route, lambda *a: exact(*a) * (1.0 + drift))
        for level in ("quick", "full"):
            [result] = run_checks(level, names=[check])
            assert not result.passed, result.detail

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_frame_check_passes_on_every_seed(self, level):
        """The chart points keep every rotation angle clear of 2 pi, where
        the finite-difference frame meets a chart singularity."""
        for seed in range(10):
            [result] = run_checks(level, seed=seed, names=["frame-vs-metric"])
            assert result.passed, (seed, result.detail)

    def test_crashing_check_reports_failure(self, monkeypatch):
        def boom(k):
            raise RuntimeError("corrupted")

        monkeypatch.setattr(gategeom.volumes, "elliptic_K", boom)
        results = run_checks("quick", names=["elliptic"])
        assert not results[0].passed
        assert "raised" in results[0].detail


class TestChiSquare:
    def test_true_samples_pass(self):
        coords = sample_canonical(100_000, SamplerConfig(seed=31))
        p = chi_square_pvalue(coords, bin_probabilities())
        assert p > 0.01

    def test_skewed_samples_fail(self):
        coords = sample_canonical(100_000, SamplerConfig(seed=32))
        squeezed = coords * 0.97  # shrink toward the origin
        p = chi_square_pvalue(squeezed, bin_probabilities())
        assert p < 1e-6


class TestStatisticsAgainstScipy:
    """The battery's numpy statistics against scipy's, here only a reference."""

    @pytest.mark.parametrize("dof", [50, 300, 2000, 9000, 27000])
    @pytest.mark.parametrize("p", [1e-6, 1e-3, 0.05, 0.5, 0.99, 1.0])
    def test_chi_square_tail(self, dof, p):
        # Measured worst 1.6e-11 relative, at 27000 degrees of freedom.
        x = scipy.stats.chi2.isf(p, dof) if p < 1.0 else 0.0
        want = scipy.stats.chi2.sf(x, dof)
        assert _gamma_q(dof / 2.0, x / 2.0) == pytest.approx(want, rel=5e-11)

    def test_chi_square_statistic(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform((0.0, 0.0, 0.0), (np.pi, np.pi / 2, np.pi / 2), (4000, 3))
        coords[:1000, 0] *= 0.8  # enough misfit for a p-value well inside (0, 1)
        probs = np.full((2, 2, 2), 1.0 / 8.0)
        edges = [np.linspace(0.0, hi, 3) for hi in (np.pi, np.pi / 2, np.pi / 2)]
        counts, _ = np.histogramdd(coords, bins=edges)
        want = scipy.stats.chisquare(counts.ravel(), np.full(8, 500.0)).pvalue
        assert 1e-8 < want < 0.5
        assert chi_square_pvalue(coords, probs) == pytest.approx(want, rel=5e-11)

    @pytest.mark.parametrize("n", [40_000, 200_000])
    def test_two_sample_ks(self, n):
        """Stephens' form against the exact law of D that scipy evaluates.

        Declared tolerance 1e-3 absolute: over a scan of D the gap peaks at
        9.7e-4 for n_e = 2e4 (near p = 0.75) and 4.4e-4 for n_e = 1e5.
        """
        rng = np.random.default_rng(n)
        for shift in (0.0, 0.5, 1.0, 1.5, 2.5):
            a = rng.normal(size=n)
            b = rng.normal(size=n) + shift / np.sqrt(n)
            want = scipy.stats.ks_2samp(a, b).pvalue
            assert _ks_2samp_pvalue(a, b) == pytest.approx(want, abs=1e-3)

    def test_ks_statistic_is_the_largest_gap(self):
        a, b = np.array([0.1, 0.4, 0.7]), np.array([0.2, 0.3, 0.5, 0.6])
        d = scipy.stats.ks_2samp(a, b).statistic
        en = 12.0 / 7.0
        lam = (np.sqrt(en) + 0.12 + 0.11 / np.sqrt(en)) * d
        want = scipy.stats.kstwobign.sf(lam)
        assert _ks_2samp_pvalue(a, b) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9])
    def test_elliptic_reference(self, k):
        K, E = _elliptic_by_quadrature(k)
        # ellipkm1 takes 1 - k^2 unrounded, which matters as k -> 1.
        assert K == pytest.approx(scipy.special.ellipkm1((1 - k) * (1 + k)), rel=5e-14)
        assert E == pytest.approx(scipy.special.ellipe(k * k), rel=5e-14)
