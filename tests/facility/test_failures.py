"""Node failure/repair model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facility.failures import FailureModel

mtbf_hours = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
mttr_hours = st.floats(min_value=0.01, max_value=1e4, allow_nan=False)


class TestSteadyState:
    def test_unavailability_formula(self):
        model = FailureModel(mtbf_hours=1000.0, mttr_hours=10.0)
        assert model.steady_state_unavailability == pytest.approx(10.0 / 1010.0)

    def test_archer2_scale_unavailability_small(self):
        """Default parameters: well under 1 % of the machine down."""
        assert FailureModel().steady_state_unavailability < 0.01

    def test_validation(self):
        with pytest.raises(Exception):
            FailureModel(mtbf_hours=0.0)


class TestFailureProperties:
    @given(mtbf_hours, mttr_hours)
    @settings(max_examples=100)
    def test_unavailability_bounded_and_monotone(self, mtbf, mttr):
        model = FailureModel(mtbf_hours=mtbf, mttr_hours=mttr)
        u = model.steady_state_unavailability
        assert 0.0 < u < 1.0
        # Longer repairs can only make things worse, better MTBF only better.
        assert FailureModel(mtbf_hours=mtbf, mttr_hours=2 * mttr).steady_state_unavailability >= u
        assert FailureModel(mtbf_hours=2 * mtbf, mttr_hours=mttr).steady_state_unavailability <= u
