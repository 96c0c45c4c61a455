"""Power meter, recorder and persistence tests."""

import numpy as np
import pytest

from repro.errors import SeriesShapeError, TelemetryError
from repro.facility.archer2 import scaled_inventory
from repro.telemetry.io import load_csv, load_npz, save_csv, save_npz
from repro.telemetry.meters import MeterSpec, PowerMeter
from repro.telemetry.recorder import CabinetPowerRecorder
from repro.telemetry.series import TimeSeries


class TestPowerMeter:
    def test_sampling_cadence(self, rng):
        meter = PowerMeter(MeterSpec(interval_s=60.0, dropout_probability=0.0))
        series = meter.sample_function(lambda t: np.full_like(t, 1e6), 0.0, 3600.0, rng)
        assert len(series) == 60
        np.testing.assert_allclose(np.diff(series.times_s), 60.0)

    def test_noise_amplitude(self, rng):
        meter = PowerMeter(
            MeterSpec(noise_fraction=0.01, dropout_probability=0.0, quantisation_w=0.0)
        )
        series = meter.sample_function(
            lambda t: np.full_like(t, 1e6), 0.0, 100 * 900.0, rng
        )
        rel_std = series.std() / series.mean()
        assert rel_std == pytest.approx(0.01, rel=0.3)

    def test_noise_free_meter_exact(self, rng):
        meter = PowerMeter(
            MeterSpec(noise_fraction=0.0, dropout_probability=0.0, quantisation_w=0.0)
        )
        series = meter.sample_function(lambda t: t * 2.0, 0.0, 9000.0, rng)
        np.testing.assert_allclose(series.values, series.times_s * 2.0)

    def test_dropouts_recorded_as_nan(self, rng):
        meter = PowerMeter(MeterSpec(dropout_probability=0.5))
        series = meter.sample_function(
            lambda t: np.full_like(t, 1e6), 0.0, 900.0 * 500, rng
        )
        dropout_rate = 1.0 - series.n_valid / len(series)
        assert dropout_rate == pytest.approx(0.5, abs=0.1)

    def test_quantisation(self, rng):
        meter = PowerMeter(
            MeterSpec(noise_fraction=0.0, dropout_probability=0.0, quantisation_w=100.0)
        )
        series = meter.sample_function(lambda t: np.full_like(t, 1234.0), 0.0, 9000.0, rng)
        np.testing.assert_allclose(series.values % 100.0, 0.0)

    def test_quantisation_never_resurrects_dropped_samples(self, rng):
        """With dropout and quantisation both active, every NaN the meter
        records must survive the quantisation stage — a dropped sample is
        data that never existed, and rounding must not invent it."""
        meter = PowerMeter(
            MeterSpec(dropout_probability=0.3, quantisation_w=100.0)
        )
        series = meter.sample_function(
            lambda t: np.full_like(t, 1e6), 0.0, 900.0 * 2000, rng
        )
        nan_mask = np.isnan(series.values)
        assert nan_mask.any()  # dropouts occurred
        assert np.all(series.values[~nan_mask] % 100.0 == 0.0)  # rest quantised

    def test_nan_in_truth_survives_measurement(self, rng):
        """NaN already present in the truth signal (an instrument gap) must
        come out NaN, not be rounded into a number."""
        meter = PowerMeter(MeterSpec(quantisation_w=100.0, dropout_probability=0.0))

        def gappy_truth(times):
            truth = np.full_like(times, 1e6)
            truth[::7] = np.nan
            return truth

        series = meter.sample_function(gappy_truth, 0.0, 900.0 * 700, rng)
        assert np.isnan(series.values[::7]).all()
        assert not np.isnan(np.delete(series.values, np.s_[::7])).any()

    def test_empty_span_rejected(self, rng):
        meter = PowerMeter(MeterSpec())
        with pytest.raises(TelemetryError):
            meter.sample_function(lambda t: t, 100.0, 100.0, rng)

    def test_shape_mismatch_rejected(self, rng):
        meter = PowerMeter(MeterSpec())
        with pytest.raises(TelemetryError):
            meter.sample_function(lambda t: np.zeros(3), 0.0, 9000.0, rng)


class TestCabinetPowerRecorder:
    def test_true_power_includes_static_components(self, baseline_campaign):
        """At any instant, cabinet power ≥ switches + overheads + all-idle."""
        inv = scaled_inventory(0.05)
        recorder = CabinetPowerRecorder(inv)
        times = np.array([5 * 86400.0])
        power = recorder.true_power_w(baseline_campaign.simulation.trace, times)
        floor = inv.compute_cabinet_power_w(0.0)
        assert power[0] >= floor



class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        series = TimeSeries(
            np.array([0.0, 60.0, 120.0]), np.array([1.5, np.nan, 3.25]), "power"
        )
        path = tmp_path / "series.csv"
        save_csv(series, path)
        loaded = load_csv(path, name="power")
        np.testing.assert_allclose(loaded.times_s, series.times_s)
        np.testing.assert_allclose(loaded.values, series.values)
        assert loaded.name == "power"

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TelemetryError):
            load_csv(path)

    def test_csv_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n1,2,3\n")
        with pytest.raises(TelemetryError):
            load_csv(path)

    def test_csv_non_numeric_time_wrapped_with_context(self, tmp_path):
        """Regression: a corrupt time field used to escape as a raw
        ValueError; it must surface as TelemetryError naming file and line."""
        path = tmp_path / "corrupt.csv"
        path.write_text("time_s,value\n0,1.5\noops,2.5\n")
        with pytest.raises(TelemetryError, match=r"corrupt\.csv:3.*oops"):
            load_csv(path)

    def test_csv_non_numeric_value_wrapped_with_context(self, tmp_path):
        path = tmp_path / "corrupt.csv"
        path.write_text("time_s,value\n0,1.5\n60,n/a\n")
        with pytest.raises(TelemetryError, match=r"corrupt\.csv:3.*non-numeric"):
            load_csv(path)

    def test_npz_missing_key_wrapped(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez_compressed(path, times_s=np.array([0.0, 1.0]))
        with pytest.raises(TelemetryError, match="partial.npz"):
            load_npz(path)

    def test_npz_without_name_array_named_after_stem(self, tmp_path):
        path = tmp_path / "cab3.npz"
        np.savez_compressed(path, times_s=np.arange(4.0), values=np.ones(4))
        assert load_npz(path).name == "cab3"

    def test_csv_without_rows_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("time_s,value\n")
        with pytest.raises(SeriesShapeError, match="empty"):
            load_csv(path)

    def test_npz_roundtrip(self, tmp_path):
        series = TimeSeries(
            np.array([0.0, 1.0]), np.array([np.nan, 2.0]), "cabinet"
        )
        path = tmp_path / "series.npz"
        save_npz(series, path)
        loaded = load_npz(path)
        np.testing.assert_allclose(loaded.times_s, series.times_s)
        np.testing.assert_allclose(loaded.values, series.values)
        assert loaded.name == "cabinet"
