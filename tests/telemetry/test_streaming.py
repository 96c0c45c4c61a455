"""Streaming statistics engine tests: OnlineStats, P², chunked reading."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SeriesShapeError, TelemetryError
from repro.live.checkpoint import load_checkpoint, save_checkpoint
from repro.telemetry.io import save_csv, save_npz
from repro.telemetry.series import TimeSeries
from repro.telemetry.streaming import (
    ChunkedSeriesReader,
    MergingQuantileSketch,
    OnlineStats,
    P2Quantile,
    as_chunk_reader,
    stream_stats,
)


def through_checkpoint(tmp_path, state):
    """``state`` after a save/load round trip through a checkpoint file."""
    path = tmp_path / "state.ckpt"
    save_checkpoint(path, state)
    return load_checkpoint(path)


def make_noisy_series(n=1000, seed=3, nan_fraction=0.05, t0=0.0):
    rng = np.random.default_rng(seed)
    times = t0 + np.cumsum(rng.uniform(1.0, 900.0, n))
    values = 3220.0 + 50.0 * rng.standard_normal(n)
    values[rng.random(n) < nan_fraction] = np.nan
    return TimeSeries(times, values, "noisy")


def assert_matches_batch(stats, series, rel=1e-9):
    assert stats.n_total == len(series)
    assert stats.n_valid == series.n_valid
    assert stats.mean == pytest.approx(series.mean(), rel=rel, abs=1e-6)
    assert stats.std == pytest.approx(series.std(), rel=rel, abs=1e-6)
    assert stats.minimum == series.min()
    assert stats.maximum == series.max()
    assert stats.t_start_s == series.t_start_s
    assert stats.t_end_s == series.t_end_s
    assert stats.span_s == pytest.approx(series.span_s, rel=rel)
    assert stats.time_weighted_mean == pytest.approx(
        series.time_weighted_mean(), rel=rel, abs=1e-6
    )


class TestOnlineStats:
    def test_empty_is_all_nan(self):
        stats = OnlineStats()
        assert stats.n_total == 0 and stats.n_valid == 0
        for value in (stats.mean, stats.std, stats.variance, stats.minimum,
                      stats.maximum, stats.time_weighted_mean, stats.span_s):
            assert math.isnan(value)

    def test_single_update_matches_batch(self):
        series = make_noisy_series()
        assert_matches_batch(OnlineStats.from_series(series), series)

    def test_epoch_timestamps_match_batch(self):
        series = make_noisy_series(t0=1.6e9)
        assert_matches_batch(OnlineStats.from_series(series), series)

    def test_push_equals_update(self):
        series = make_noisy_series(40)
        pushed = OnlineStats()
        for t, v in zip(series.times_s, series.values):
            pushed.push(t, v)
        assert_matches_batch(pushed, series)

    def test_single_sample(self):
        stats = OnlineStats().push(10.0, 42.0)
        assert stats.mean == 42.0
        assert stats.time_weighted_mean == 42.0
        assert stats.variance == 0.0

    def test_single_nan_sample_is_nan(self):
        stats = OnlineStats().push(10.0, float("nan"))
        assert math.isnan(stats.time_weighted_mean)
        assert math.isnan(stats.mean)
        assert stats.n_total == 1 and stats.n_valid == 0

    def test_all_nan_series(self):
        stats = OnlineStats()
        stats.update(np.arange(5.0), np.full(5, np.nan))
        assert math.isnan(stats.mean)
        assert math.isnan(stats.time_weighted_mean)
        assert stats.n_total == 5 and stats.n_valid == 0

    def test_empty_chunk_is_noop(self):
        series = make_noisy_series(50)
        stats = OnlineStats()
        stats.update(np.array([]), np.array([]))
        stats.update(series.times_s, series.values)
        stats.update(np.array([]), np.array([]))
        assert_matches_batch(stats, series)

    def test_out_of_order_chunks_rejected(self):
        stats = OnlineStats().push(100.0, 1.0)
        with pytest.raises(SeriesShapeError):
            stats.update(np.array([50.0]), np.array([2.0]))

    def test_non_monotonic_chunk_rejected(self):
        with pytest.raises(SeriesShapeError):
            OnlineStats().update(np.array([0.0, 1.0, 1.0]), np.ones(3))

    def test_nonfinite_timestamp_rejected(self):
        with pytest.raises(SeriesShapeError):
            OnlineStats().update(np.array([0.0, np.inf]), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SeriesShapeError):
            OnlineStats().update(np.arange(3.0), np.ones(2))

    def test_merge_equals_sequential(self):
        series = make_noisy_series(500)
        for cut in (1, 100, 499):
            left = OnlineStats().update(series.times_s[:cut], series.values[:cut])
            right = OnlineStats().update(series.times_s[cut:], series.values[cut:])
            assert_matches_batch(left.merge(right), series)

    def test_merge_with_empty(self):
        series = make_noisy_series(50)
        full = OnlineStats.from_series(series)
        assert_matches_batch(full.merge(OnlineStats()), series)
        assert_matches_batch(OnlineStats().merge(full), series)

    def test_merge_overlapping_rejected(self):
        a = OnlineStats().push(10.0, 1.0)
        b = OnlineStats().push(5.0, 2.0)
        with pytest.raises(SeriesShapeError):
            a.merge(b)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=300),
        chunk=st.integers(min_value=1, max_value=97),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_chunking_matches_batch(self, seed, n, chunk):
        """The tentpole property: chunking never changes the statistics."""
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.1, 1e4, n))
        values = rng.uniform(-1e6, 1e6, n)
        values[rng.random(n) < 0.2] = np.nan
        series = TimeSeries(times, values)
        stats = OnlineStats()
        for lo in range(0, n, chunk):
            stats.update(times[lo : lo + chunk], values[lo : lo + chunk])
        if stats.n_valid:
            assert_matches_batch(stats, series)
        else:
            assert math.isnan(stats.mean)


class TestStreamingStatePersistence:
    def test_online_stats_restore_bit_identical(self):
        series = make_noisy_series(500)
        stats = OnlineStats().update(series.times_s[:300], series.values[:300])
        resumed = OnlineStats.restore(stats.state_dict())
        stats.update(series.times_s[300:], series.values[300:])
        resumed.update(series.times_s[300:], series.values[300:])
        assert resumed.state_dict() == stats.state_dict()
        assert resumed.mean == stats.mean
        assert resumed.std == stats.std

    def test_online_stats_state_json_roundtrip(self):
        import json

        series = make_noisy_series(100)
        stats = OnlineStats().update(series.times_s, series.values)
        state = json.loads(json.dumps(stats.state_dict()))
        assert OnlineStats.restore(state).state_dict() == stats.state_dict()

    def test_p2_quantile_restore_bit_identical(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=200)
        tracker = P2Quantile(0.9).update(values[:40])
        resumed = P2Quantile.restore(tracker.state_dict())
        tracker.update(values[40:])
        resumed.update(values[40:])
        assert resumed.state_dict() == tracker.state_dict()
        assert resumed.result() == tracker.result()

    def test_p2_quantile_restore_before_marker_init(self):
        """A snapshot taken while still buffering (< 5 samples) restores."""
        tracker = P2Quantile(0.5).update(np.array([1.0, 2.0]))
        resumed = P2Quantile.restore(tracker.state_dict())
        assert resumed.result() == tracker.result()


class TestP2Quantile:
    def test_invalid_quantile_rejected(self):
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(TelemetryError):
                P2Quantile(q)

    def test_small_samples_exact(self):
        est = P2Quantile(0.5)
        est.update(np.array([3.0, 1.0, 2.0]))
        assert est.result() == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).result())

    def test_nan_skipped(self):
        est = P2Quantile(0.5)
        est.update(np.array([1.0, np.nan, 2.0, np.nan, 3.0]))
        assert est.result() == pytest.approx(2.0)

    def test_uniform_quantiles_converge(self):
        rng = np.random.default_rng(11)
        data = rng.uniform(0.0, 100.0, 20_000)
        for q in (0.05, 0.5, 0.95):
            est = P2Quantile(q)
            est.update(data)
            assert est.result() == pytest.approx(100.0 * q, abs=1.5)

    def test_gaussian_median_close_to_numpy(self):
        rng = np.random.default_rng(5)
        data = 3220.0 + 50.0 * rng.standard_normal(10_000)
        est = P2Quantile(0.5)
        est.update(data)
        assert est.result() == pytest.approx(float(np.median(data)), rel=1e-3)


class TestMergingQuantileSketch:
    def test_invalid_quantile_rejected(self):
        sketch = MergingQuantileSketch()
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(TelemetryError):
                sketch.result(q)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(TelemetryError):
            MergingQuantileSketch(block_size=1)
        with pytest.raises(TelemetryError):
            MergingQuantileSketch(summary_size=0)

    def test_empty_is_nan(self):
        assert math.isnan(MergingQuantileSketch().result(0.5))

    def test_exact_below_block_size(self):
        """While the buffer has never folded, results equal np.percentile."""
        rng = np.random.default_rng(7)
        data = rng.normal(size=1000)
        sketch = MergingQuantileSketch(block_size=4096).update(data)
        for q in (0.05, 0.5, 0.95):
            assert sketch.result(q) == float(np.percentile(data, 100.0 * q))

    def test_nan_skipped(self):
        sketch = MergingQuantileSketch().update(
            np.array([1.0, np.nan, 2.0, np.nan, 3.0])
        )
        assert sketch.n_valid == 3
        assert sketch.result(0.5) == pytest.approx(2.0)

    def test_chunking_invariance_is_bit_exact(self):
        """Per-sample and arbitrary-chunk feeding give identical state —
        the property the scalar/columnar rollup parity rests on."""
        rng = np.random.default_rng(11)
        data = 3220.0 + 50.0 * rng.standard_normal(5000)
        data[rng.random(5000) < 0.02] = np.nan
        scalar = MergingQuantileSketch(block_size=512, summary_size=128)
        for x in data:
            scalar.add(float(x))
        chunked = MergingQuantileSketch(block_size=512, summary_size=128)
        lo = 0
        for size in (1, 7, 511, 512, 513, 1000, 2456):
            chunked.update(data[lo : lo + size])
            lo += size
        chunked.update(data[lo:])
        assert chunked.state_dict() == scalar.state_dict()
        for q in (0.05, 0.5, 0.95):
            assert chunked.result(q) == scalar.result(q)

    def test_accuracy_after_many_folds(self):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.0, 100.0, 100_000)
        sketch = MergingQuantileSketch().update(data)
        for q in (0.05, 0.5, 0.95):
            assert sketch.result(q) == pytest.approx(100.0 * q, abs=1.0)

    def test_1d_chunks_required(self):
        with pytest.raises(SeriesShapeError):
            MergingQuantileSketch().update(np.zeros((2, 2)))

    def test_restore_bit_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        data = rng.normal(size=9000)
        sketch = MergingQuantileSketch(block_size=1024, summary_size=256)
        sketch.update(data[:5000])
        state = through_checkpoint(tmp_path, sketch.state_dict())
        resumed = MergingQuantileSketch.restore(state)
        sketch.update(data[5000:])
        resumed.update(data[5000:])
        assert resumed.state_dict() == sketch.state_dict()
        assert resumed.result(0.5) == sketch.result(0.5)

    #: Values a decimal float round-trip is most likely to mangle: signed
    #: zero, subnormals, and the largest finite magnitudes.
    EXTREMES = [-0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308, -1.7976931348623157e308]

    @pytest.mark.parametrize(
        "n_values,fill,folded",
        [(0, 0, False), (5, 5, False), (64, 0, True), (69, 5, True)],
        ids=["empty", "part-filled", "exactly-full-then-folded", "folded-and-part-filled"],
    )
    def test_packed_state_roundtrip_is_bit_exact(self, tmp_path, n_values, fill, folded):
        values = np.resize(np.array(self.EXTREMES), n_values)  # cycles the extremes
        sketch = MergingQuantileSketch(block_size=64, summary_size=8).update(values)
        assert (sketch._fill, len(sketch._summary) > 0) == (fill, folded)
        state = through_checkpoint(tmp_path, sketch.state_dict())
        assert isinstance(state["pending"], bytes) and isinstance(state["summary"], bytes)
        resumed = MergingQuantileSketch.restore(state)
        # Packed bytes compare equal only if every bit of every float does.
        assert resumed.state_dict() == sketch.state_dict()
        pending = sketch._buffer[:fill] if fill else np.empty(0)
        resumed_pending = resumed._buffer[:fill] if fill else np.empty(0)
        assert resumed_pending.tobytes() == pending.tobytes()
        assert resumed._summary.tobytes() == sketch._summary.tobytes()
        more = np.linspace(-1.0, 1.0, 100)
        sketch.update(more)
        resumed.update(more)
        assert resumed.state_dict() == sketch.state_dict()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pending", "***"),
            ("pending", "AAAAAAAAAAA="),
            ("pending", [1.0, 2.0]),
            ("summary", b"\0" * 4),
        ],
        ids=["not-base64", "v3-base64-text", "v2-float-list", "partial-float"],
    )
    def test_malformed_packed_state_rejected(self, field, value):
        sketch = MergingQuantileSketch(block_size=64, summary_size=8).update(np.arange(70.0))
        state = sketch.state_dict()
        state[field] = value
        with pytest.raises(TelemetryError, match=field):
            MergingQuantileSketch.restore(state)


class TestChunkedSeriesReader:
    def test_series_chunks_reconstruct(self):
        series = make_noisy_series(1000)
        reader = ChunkedSeriesReader(series, chunk_size=96)
        times = np.concatenate([c.times_s for c in reader])
        values = np.concatenate([c.values for c in reader])
        np.testing.assert_array_equal(times, series.times_s)
        np.testing.assert_array_equal(values, series.values)

    def test_reiterable(self):
        reader = ChunkedSeriesReader(make_noisy_series(100), chunk_size=7)
        assert sum(len(c.times_s) for c in reader) == 100
        assert sum(len(c.times_s) for c in reader) == 100  # second pass restarts

    def test_csv_streaming_matches_series(self, tmp_path):
        series = make_noisy_series(500)
        path = tmp_path / "cabinet.csv"
        save_csv(series, path)
        stats = stream_stats(path, chunk_size=64)
        assert stats.n_valid == series.n_valid
        assert stats.mean == pytest.approx(series.mean(), rel=1e-6)
        assert stats.time_weighted_mean == pytest.approx(
            series.time_weighted_mean(), rel=1e-6
        )

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(TelemetryError):
            list(ChunkedSeriesReader(path))

    def test_csv_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,value\n1,2,3\n")
        with pytest.raises(TelemetryError):
            list(ChunkedSeriesReader(path))

    def test_csv_non_numeric_field_wrapped_with_context(self, tmp_path):
        """Regression: corrupt numeric fields must raise TelemetryError with
        file and line context, not a raw ValueError."""
        path = tmp_path / "corrupt.csv"
        path.write_text("time_s,value\n0,1.0\n60,bogus\n")
        with pytest.raises(TelemetryError, match=r"corrupt\.csv:3.*non-numeric"):
            list(ChunkedSeriesReader(path))

    def test_npz_matches_series(self, tmp_path):
        series = make_noisy_series(300)
        path = tmp_path / "cabinet.npz"
        save_npz(series, path)
        stats = stream_stats(path, chunk_size=41)
        assert stats.n_valid == series.n_valid
        assert stats.mean == pytest.approx(series.mean(), rel=1e-9)

    def test_unsupported_source_rejected(self, tmp_path):
        with pytest.raises(TelemetryError):
            ChunkedSeriesReader(tmp_path / "telemetry.parquet")
        with pytest.raises(TelemetryError):
            ChunkedSeriesReader(12345)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(TelemetryError):
            ChunkedSeriesReader(make_noisy_series(10), chunk_size=0)

    def test_as_chunk_reader_passthrough(self):
        reader = ChunkedSeriesReader(make_noisy_series(10))
        assert as_chunk_reader(reader) is reader

    def test_reader_name_from_source(self, tmp_path):
        series = make_noisy_series(10)
        assert ChunkedSeriesReader(series).name == "noisy"
        path = tmp_path / "cab7.csv"
        save_csv(series, path)
        assert ChunkedSeriesReader(path).name == "cab7"


class TestStreamStats:
    def test_matches_batch_over_chunks(self):
        series = make_noisy_series(2000)
        assert_matches_batch(stream_stats(series, chunk_size=131), series)
