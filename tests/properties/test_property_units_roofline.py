"""Property-based tests: unit conversions and the roofline model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.workload.roofline import (
    RooflineModel,
    compute_fraction_from_perf_ratio,
)

finite_positive = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
frequencies = st.floats(min_value=0.5, max_value=4.0, allow_nan=False)


class TestUnitProperties:
    @given(finite_positive)
    def test_energy_roundtrip(self, x):
        assert units.j_to_kwh(x * units.JOULES_PER_KWH) == pytest.approx(x, rel=1e-12)

    @given(finite_positive)
    def test_emissions_roundtrip(self, x):
        assert units.g_to_tonnes(x * 1e6) == pytest.approx(x, rel=1e-12)

    @given(finite_positive, st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_emissions_monotone_in_intensity(self, energy, ci):
        base = units.emissions_g(energy, ci)
        higher = units.emissions_g(energy, ci + 1.0)
        assert higher >= base


class TestRooflineProperties:
    @given(fractions, frequencies)
    def test_time_ratio_positive(self, phi, f):
        assert RooflineModel(compute_fraction=phi).time_ratio(f) > 0

    @given(fractions)
    def test_time_ratio_unity_at_reference(self, phi):
        model = RooflineModel(compute_fraction=phi)
        assert abs(model.time_ratio(model.reference_ghz) - 1.0) < 1e-12

    @given(fractions, frequencies, frequencies)
    def test_time_ratio_monotone_decreasing(self, phi, f1, f2):
        if f1 == f2:
            return
        lo, hi = min(f1, f2), max(f1, f2)
        model = RooflineModel(compute_fraction=phi)
        assert model.time_ratio(lo) >= model.time_ratio(hi) - 1e-12

    @given(fractions, frequencies)
    def test_activities_partition_unity(self, phi, f):
        profile = RooflineModel(compute_fraction=phi).at(f)
        total = profile.compute_activity + profile.memory_activity
        assert abs(total - 1.0) < 1e-9
        assert profile.compute_activity >= 0
        assert profile.memory_activity >= 0

    @given(fractions)
    @settings(max_examples=200)
    def test_inversion_roundtrip(self, phi):
        model = RooflineModel(compute_fraction=phi)
        ratio = model.perf_ratio(2.0)
        recovered = compute_fraction_from_perf_ratio(ratio, 2.0, 2.8)
        assert abs(recovered - phi) < 1e-9

    @given(
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.05, max_value=0.999),
    )
    def test_frequency_for_perf_target_consistent(self, phi, target):
        # φ below ~1e-6 produces denormal frequencies where float division
        # loses the identity; the model is memory-bound there anyway.
        model = RooflineModel(compute_fraction=phi)
        freq = model.frequency_for_perf_target(target)
        if freq > 0:
            assert abs(model.perf_ratio(freq) - target) < 1e-6

    @given(fractions)
    def test_more_compute_bound_more_sensitive(self, phi):
        """For any φ' > φ, perf at 2.0 GHz is no better."""
        if phi >= 0.99:
            return
        base = RooflineModel(compute_fraction=phi).perf_ratio(2.0)
        more = RooflineModel(compute_fraction=min(phi + 0.01, 1.0)).perf_ratio(2.0)
        assert more <= base + 1e-12
