"""Property-based tests for the telemetry time-series container."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.telemetry.series import TimeSeries


@st.composite
def series_strategy(draw, min_size=2, max_size=200):
    """Strictly-increasing times with finite values."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    gaps = draw(
        arrays(
            float,
            n,
            elements=st.floats(min_value=0.1, max_value=1e4, allow_nan=False),
        )
    )
    times = np.cumsum(gaps)
    values = draw(
        arrays(
            float,
            n,
            elements=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        )
    )
    return TimeSeries(times, values)


class TestSeriesProperties:
    @given(series_strategy())
    def test_mean_within_min_max(self, series):
        assert series.min() - 1e-6 <= series.mean() <= series.max() + 1e-6

    @given(series_strategy())
    def test_scale_linear(self, series):
        doubled = series.scale_values(2.0)
        expected = 2.0 * series.mean()
        tol = 1e-9 * max(1e-300, abs(expected))
        assert abs(doubled.mean() - expected) <= tol

    @given(series_strategy(min_size=4))
    @settings(max_examples=50)
    def test_slice_subset_of_span(self, series):
        mid = (series.t_start_s + series.t_end_s) / 2
        part = series.slice(series.t_start_s, mid + 1e-9)
        assert part.t_end_s <= mid + 1e-9
        assert len(part) <= len(series)
