import numpy as np
import pytest

import gategeom.geometry
import gategeom.quadrature
import gategeom.volumes
from gategeom.quadrature import bin_probabilities
from gategeom.sampling import SamplerConfig, sample_canonical
from gategeom.verify import CheckResult, chi_square_pvalue, run_checks

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
