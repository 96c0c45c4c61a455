"""Roofline execution-model tests."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workload.roofline import (
    RooflineModel,
    compute_fraction_from_perf_ratio,
)


class TestTimeRatio:
    def test_unity_at_reference(self):
        model = RooflineModel(compute_fraction=0.5)
        assert model.time_ratio(2.8) == pytest.approx(1.0)

    def test_memory_bound_frequency_invariant(self):
        model = RooflineModel(compute_fraction=0.0)
        assert model.time_ratio(1.5) == pytest.approx(1.0)
        assert model.time_ratio(2.8) == pytest.approx(1.0)

    def test_compute_bound_scales_inversely(self):
        model = RooflineModel(compute_fraction=1.0)
        assert model.time_ratio(1.4) == pytest.approx(2.0)

    def test_monotone_decreasing_in_frequency(self):
        model = RooflineModel(compute_fraction=0.6)
        freqs = np.array([1.5, 2.0, 2.25, 2.8, 3.2])
        ratios = model.time_ratio(freqs)
        assert np.all(np.diff(ratios) < 0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            RooflineModel(compute_fraction=0.5).time_ratio(0.0)


class TestPerfRatio:
    def test_perf_ratio_below_one_at_lower_frequency(self):
        model = RooflineModel(compute_fraction=0.5)
        assert model.perf_ratio(2.0) < 1.0

    def test_perf_ratio_custom_baseline(self):
        model = RooflineModel(compute_fraction=1.0)
        assert model.perf_ratio(2.0, baseline_ghz=2.25) == pytest.approx(2.0 / 2.25)


class TestActivities:
    def test_activities_sum_to_one_when_busy(self):
        for phi in (0.0, 0.2, 0.5, 0.9, 1.0):
            profile = RooflineModel(compute_fraction=phi).at(2.0)
            assert profile.compute_activity + profile.memory_activity == pytest.approx(
                1.0
            )

    def test_lower_frequency_raises_compute_activity(self):
        """Slower cores spend relatively more wall time computing."""
        model = RooflineModel(compute_fraction=0.3)
        assert model.at(2.0).compute_activity > model.at(2.8).compute_activity


class TestInversion:
    def test_roundtrip_through_perf_ratio(self):
        for phi in (0.05, 0.3, 0.65, 0.95):
            model = RooflineModel(compute_fraction=phi)
            ratio = model.perf_ratio(2.0)
            recovered = compute_fraction_from_perf_ratio(ratio, 2.0, 2.8)
            assert recovered == pytest.approx(phi, abs=1e-12)

    def test_paper_lammps_value(self):
        """LAMMPS: 0.74 perf ratio → strongly compute bound."""
        phi = compute_fraction_from_perf_ratio(0.74, 2.0, 2.8)
        assert 0.85 < phi < 0.92

    def test_paper_vasp_value(self):
        """VASP CdTe: 0.95 perf ratio → strongly memory bound."""
        phi = compute_fraction_from_perf_ratio(0.95, 2.0, 2.8)
        assert 0.10 < phi < 0.16

    def test_ratio_below_floor_rejected(self):
        # 2.0/2.8 = 0.714 is the compute-bound floor.
        with pytest.raises(ConfigurationError, match="floor"):
            compute_fraction_from_perf_ratio(0.6, 2.0, 2.8)

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_fraction_from_perf_ratio(1.05, 2.0, 2.8)

    def test_low_above_reference_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_fraction_from_perf_ratio(0.9, 2.8, 2.0)


class TestFrequencyForPerfTarget:
    def test_target_one_needs_reference(self):
        model = RooflineModel(compute_fraction=0.5)
        assert model.frequency_for_perf_target(1.0) == pytest.approx(2.8)

    def test_memory_bound_unconstrained(self):
        model = RooflineModel(compute_fraction=0.0)
        assert model.frequency_for_perf_target(0.95) == 0.0

    def test_inverse_consistency(self):
        model = RooflineModel(compute_fraction=0.6)
        freq = model.frequency_for_perf_target(0.9)
        assert model.perf_ratio(freq) == pytest.approx(0.9)

    def test_low_target_needs_low_frequency(self):
        # Any positive target is reachable for mixed workloads; lower
        # targets map to lower frequencies, consistently invertible.
        model = RooflineModel(compute_fraction=0.5)
        freq = model.frequency_for_perf_target(0.4)
        assert 0 < freq < 2.8
        assert model.perf_ratio(freq) == pytest.approx(0.4)


class TestMemoryBoundSentinel:
    """Regression tests for the audited exact-float sentinel in
    ``frequency_for_perf_target`` (``phi == 0.0``)."""

    def test_pure_memory_bound_is_unconstrained(self):
        model = RooflineModel(compute_fraction=0.0)
        assert model.frequency_for_perf_target(0.9) == 0.0

    def test_near_zero_phi_is_continuous_with_sentinel(self):
        """As φ→0 the required frequency →0 smoothly, so the exact-zero
        shortcut matches the general formula's limit."""
        model = RooflineModel(compute_fraction=1e-12)
        assert model.frequency_for_perf_target(0.9) == pytest.approx(0.0, abs=1e-9)

    def test_target_of_one_requires_reference_even_when_memory_bound(self):
        """The ≥1 branch is checked before the φ sentinel."""
        model = RooflineModel(compute_fraction=0.0)
        assert model.frequency_for_perf_target(1.0) == pytest.approx(2.8)
