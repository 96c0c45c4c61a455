"""Campaign experiment drivers F1–F3 and C1.

These run the full ARCHER2-scale simulator with shortened windows so the
suite stays fast; the paper-length defaults are exercised by the benchmark
harness. Shape criteria (not absolute watts) are asserted here.
"""

import numpy as np
import pytest

from repro.core.reporting import format_kw
from repro.experiments import conclusions, fig1, fig2, fig3
from repro.units import SECONDS_PER_DAY


class TestF1:
    @pytest.fixture(scope="class")
    def result(self):
        # Short window without the Christmas dip (which would cover a third
        # of 30 days; the paper-length default includes it over 150 days).
        return fig1.run(duration_s=30 * SECONDS_PER_DAY, seed=2021, holidays=())

    def test_mean_near_paper_baseline(self, result):
        assert result.headline["mean_kw"] == pytest.approx(3220.0, rel=0.05)

    def test_utilisation_over_90pct(self, result):
        """§3.2: 'Compute node utilisation on ARCHER2 ... consistently over 90%'."""
        assert result.headline["utilisation"] > 0.90

    def test_mean_below_table2_full_load(self, result):
        assert result.headline["fraction_of_loaded"] < 1.0

    def test_series_exported(self, result):
        assert "measured_kw" in result.series
        assert len(result.series["measured_kw"]) > 1000

    def test_percentile_row_is_exact(self, result):
        """The percentiles are np.nanpercentile's, not a streaming estimate."""
        p5, p95 = np.nanpercentile(result.series["measured_kw"].values, [5.0, 95.0])
        row = next(line for line in result.table.splitlines() if "5th / 95th" in line)
        assert f"| {format_kw(p5)} / {format_kw(p95)} kW " in row


class TestF2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run(
            duration_s=30 * SECONDS_PER_DAY,
            change_s=15 * SECONDS_PER_DAY,
            seed=123,
        )

    def test_saving_in_paper_band(self, result):
        """BIOS change: ~6.5 % saving (allow 4-10 % across windows/seeds)."""
        assert 0.04 < result.headline["relative_saving"] < 0.10

    def test_absolute_saving_scale(self, result):
        assert result.headline["saving_kw"] == pytest.approx(210.0, abs=100.0)

    def test_change_point_detected_near_truth(self, result):
        assert result.headline["detected_change_day"] == pytest.approx(
            result.headline["true_change_day"], abs=2.0
        )


class TestF3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(
            duration_s=30 * SECONDS_PER_DAY,
            change_s=15 * SECONDS_PER_DAY,
            seed=2023,
        )

    def test_before_mean_near_post_bios_level(self, result):
        assert result.headline["mean_before_kw"] == pytest.approx(3010.0, rel=0.05)

    def test_saving_in_paper_band(self, result):
        """Frequency change: paper 16 % of post-BIOS power (allow 11-18 %)."""
        assert 0.11 < result.headline["relative_saving"] < 0.18

    def test_most_node_hours_moved_to_2ghz(self, result):
        assert result.headline["low_freq_nodeh_share"] > 0.25

    def test_change_point_detected(self, result):
        assert result.headline["detected_change_day"] == pytest.approx(
            result.headline["true_change_day"], abs=2.0
        )


class TestC1:
    @pytest.fixture(scope="class")
    def result(self):
        return conclusions.run(phase_days=15.0, seed=17)

    def test_monotone_decreasing_phases(self, result):
        h = result.headline
        assert h["baseline_kw"] > h["post_bios_kw"] > h["post_freq_kw"]

    def test_cumulative_saving_near_21pct(self, result):
        assert result.headline["total_relative_saving"] == pytest.approx(
            result.headline["paper_total_relative_saving"], abs=0.05
        )

    def test_frequency_change_is_larger_lever(self, result):
        assert result.headline["freq_saving_kw"] > result.headline["bios_saving_kw"]

    def test_baseline_near_paper(self, result):
        assert result.headline["baseline_kw"] == pytest.approx(3220.0, rel=0.05)
