"""Chunk-fed analysis statistics against independent numpy references."""

import numpy as np
import pytest

from repro.analysis.baseline import summarise
from repro.analysis.changepoint import detect_single, segment_means
from repro.errors import AnalysisError, SeriesShapeError
from repro.live.events import POWER_STREAM, series_batches
from repro.telemetry.io import load_csv, load_npz, save_csv, save_npz
from repro.telemetry.streaming import ChunkedSeriesReader
from repro.telemetry.series import TimeSeries


def step_series(n=5000, split=3000, before=3220.0, after=3010.0, seed=9):
    rng = np.random.default_rng(seed)
    times = 1.6e9 + 900.0 * np.arange(n)
    values = np.where(np.arange(n) < split, before, after)
    values = values + 30.0 * rng.standard_normal(n)
    values[rng.random(n) < 0.02] = np.nan
    return TimeSeries(times, values, "step")


def brute_force_change(series):
    """Reference single change point: scan every split of the valid samples
    for the smallest pooled within-segment sum of squares."""
    valid = ~np.isnan(series.values)
    times, values = series.times_s[valid], series.values[valid]
    n = len(values)
    within = [
        np.sum((values[:k] - values[:k].mean()) ** 2)
        + np.sum((values[k:] - values[k:].mean()) ** 2)
        for k in range(1, n)
    ]
    k = 1 + int(np.argmin(within))
    peak = np.abs(np.cumsum(values - values.mean())).max()
    sigma = values.std()
    return {
        "index": k,
        "time_s": float(times[k]),
        "mean_before": float(values[:k].mean()),
        "mean_after": float(values[k:].mean()),
        "significance": float(peak / (sigma * np.sqrt(n))) if sigma else 0.0,
    }


def assert_matches_reference(cp, series):
    ref = brute_force_change(series)
    assert cp.index == ref["index"]
    assert cp.time_s == ref["time_s"]
    assert cp.mean_before == pytest.approx(ref["mean_before"], rel=1e-9)
    assert cp.mean_after == pytest.approx(ref["mean_after"], rel=1e-9)
    assert cp.significance == pytest.approx(ref["significance"], rel=1e-9)


def masked_means(series, change_times_s):
    """Reference segment means: one boolean mask per segment."""
    bounds = [-np.inf, *sorted(change_times_s), np.inf]
    valid = ~np.isnan(series.values)
    return [
        float(series.values[valid & (series.times_s >= lo) & (series.times_s < hi)].mean())
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


#: Step shapes for the detector: (n, split, before, after).
STEP_SHAPES = {
    "fig2-late": (5000, 3000, 3220.0, 3010.0),
    "fig3-early": (5000, 700, 3010.0, 2530.0),
    "small-mid": (4000, 2000, 3220.0, 3190.0),
    "rise": (3000, 2500, 2530.0, 3220.0),
}


class TestDetectSingleStreaming:
    @pytest.mark.parametrize("chunk_size", [64, 997, 10_000])
    def test_matches_batch(self, chunk_size):
        series = step_series()
        assert_matches_reference(detect_single(series, chunk_size), series)

    @pytest.mark.parametrize("chunk_size", [64, 997, 10_000])
    @pytest.mark.parametrize("shape", sorted(STEP_SHAPES))
    def test_matches_brute_force_on_step_shapes(self, shape, chunk_size):
        n, split, before, after = STEP_SHAPES[shape]
        series = step_series(n, split, before, after, seed=len(shape))
        assert_matches_reference(detect_single(series, chunk_size), series)

    def test_accepts_reader(self):
        series = step_series(1000, 400)
        reader = ChunkedSeriesReader(series, chunk_size=77)
        assert_matches_reference(detect_single(reader), series)

    def test_accepts_file_source(self, tmp_path):
        series = step_series(600, 250)
        path = tmp_path / "step.csv"
        save_csv(series, path)
        stream = detect_single(str(path), chunk_size=101)
        assert stream == detect_single(load_csv(path), chunk_size=101)
        assert stream.index == brute_force_change(series)["index"]
        assert stream.mean_before == pytest.approx(
            brute_force_change(series)["mean_before"], rel=1e-6
        )

    def test_split_on_chunk_boundary(self):
        # The best split's right segment starts exactly at a chunk start.
        values = np.concatenate([np.full(200, 100.0), np.zeros(200)])
        series = TimeSeries(np.arange(400.0), values)
        stream = detect_single(series, chunk_size=50)
        assert stream.index == 200
        assert stream.time_s == 200.0
        assert stream.mean_before == pytest.approx(100.0)
        assert stream.mean_after == pytest.approx(0.0)
        assert_matches_reference(stream, series)

    def test_too_few_valid_samples(self):
        series = TimeSeries(np.arange(5.0), [1.0, np.nan, np.nan, 2.0, 3.0])
        with pytest.raises(AnalysisError):
            detect_single(series)

    def test_constant_series_zero_significance(self):
        series = TimeSeries(np.arange(10.0), np.full(10, 5.0))
        stream = detect_single(series, chunk_size=3)
        # Every split ties at zero; the first one wins, as in the scan.
        assert stream.index == 1
        assert_matches_reference(stream, series)


class TestSegmentMeansStreaming:
    def test_matches_batch(self):
        series = step_series()
        changes = [float(series.times_s[3000]), float(series.times_s[4000])]
        stream = segment_means(series, changes, chunk_size=333)
        assert stream == pytest.approx(masked_means(series, changes), rel=1e-9)

    def test_empty_segment_raises(self):
        series = step_series(100, 50)
        far_future = float(series.times_s[-1]) + 1e6
        with pytest.raises(AnalysisError):
            segment_means(series, [far_future], chunk_size=17)

    def test_too_few_valid_samples(self):
        series = TimeSeries(np.arange(3.0), np.array([1.0, 2.0, np.nan]))
        with pytest.raises(AnalysisError):
            segment_means(series, [1.5])


class TestSummariseStreaming:
    def test_moments_match_batch(self):
        series = step_series()
        stream = summarise(series, chunk_size=256)
        valid = series.values[~np.isnan(series.values)]
        assert stream.mean == pytest.approx(np.nanmean(series.values), rel=1e-9)
        assert stream.std == pytest.approx(np.nanstd(series.values), rel=1e-9)
        assert stream.minimum == valid.min()
        assert stream.maximum == valid.max()
        assert stream.n_samples == len(valid)
        span_days = (series.times_s[-1] - series.times_s[0]) / 86_400.0
        assert stream.span_days == pytest.approx(span_days, rel=1e-9)

    @pytest.mark.parametrize("chunk_size", [77, 4096, 65_536])
    def test_bimodal_percentiles_exact(self, chunk_size):
        """Below one sketch block (16,384 valid samples) the percentiles are
        np.nanpercentile's, even for Figure 1's plateau-and-dip shape."""
        rng = np.random.default_rng(21)
        n = 16_000
        dip = (np.arange(n) >= 7_200) & (np.arange(n) < 8_800)  # 10 % of samples
        values = np.where(dip, 2300.0, 3250.0)
        values = values + 40.0 * rng.standard_normal(n)
        values[rng.random(n) < 0.02] = np.nan
        series = TimeSeries(900.0 * np.arange(n), values)
        stats = summarise(series, chunk_size=chunk_size)
        p5, median, p95 = np.nanpercentile(values, [5.0, 50.0, 95.0])
        assert (stats.p5, stats.median, stats.p95) == (p5, median, p95)

    def test_percentiles_approximate_batch(self):
        # Beyond one sketch block the percentiles carry the sketch's rank
        # error, far inside 2 % of the spread.
        series = step_series(20_000, split=0)
        stream = summarise(series, chunk_size=4096)
        p5, median, p95 = np.nanpercentile(series.values, [5.0, 50.0, 95.0])
        spread = p95 - p5
        assert stream.p5 == pytest.approx(p5, abs=0.02 * spread)
        assert stream.median == pytest.approx(median, abs=0.02 * spread)
        assert stream.p95 == pytest.approx(p95, abs=0.02 * spread)

    def test_all_nan_raises(self):
        series = TimeSeries(np.arange(5.0), np.full(5, np.nan), "dead-meter")
        with pytest.raises(AnalysisError):
            summarise(series)


class TestFileRoutes:
    """A telemetry file gives the in-memory answer, or is refused, on every
    route."""

    CHUNK = 4

    def test_file_routes_equal_in_memory(self, tmp_path):
        series = step_series(2000, 1200)
        csv_path, npz_path = tmp_path / "step.csv", tmp_path / "step.npz"
        save_csv(series, csv_path)
        save_npz(series, npz_path)
        change = [float(series.times_s[1200])]
        for path, memory in ((npz_path, series), (csv_path, load_csv(csv_path))):
            assert summarise(path, 97) == summarise(memory, 97)
            assert detect_single(path, 97) == detect_single(memory, 97)
            assert segment_means(path, change, 97) == segment_means(memory, change, 97)

    def test_npz_without_name_array_accepted(self, tmp_path):
        path = tmp_path / "cab3.npz"
        np.savez_compressed(path, times_s=np.arange(4.0), values=np.ones(4))
        assert summarise(path).n_samples == 4

    @staticmethod
    def bad_times(defect):
        times = 60.0 * np.arange(12)
        if defect == "nan-time":
            times[5] = np.nan
        elif defect == "inf-time":
            times[5] = np.inf
        elif defect == "backwards-in-chunk":
            times[[1, 2]] = times[[2, 1]]
        else:  # backwards-across-boundary: rows 3 and 4 straddle chunks 0/1
            times[[3, 4]] = times[[4, 3]]
        return times

    @classmethod
    def write(cls, tmp_path, fmt, defect):
        times = cls.bad_times(defect)
        values = 3220.0 + np.arange(12.0)
        path = tmp_path / f"bad.{fmt}"
        if fmt == "npz":
            np.savez_compressed(path, times_s=times, values=values, name="bad")
        else:
            rows = [f"{t},{v}" for t, v in zip(times, values)]
            path.write_text("time_s,value\n" + "\n".join(rows) + "\n")
        return path

    ROUTES = {
        "load": lambda path, n: load_npz(path) if path.suffix == ".npz" else load_csv(path),
        "summarise": lambda path, n: summarise(path, n),
        "detect_single": lambda path, n: detect_single(path, n),
        "segment_means": lambda path, n: segment_means(path, [300.0], n),
        "series_batches": lambda path, n: list(series_batches(POWER_STREAM, path, n)),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize(
        "defect",
        ["nan-time", "inf-time", "backwards-in-chunk", "backwards-across-boundary"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_bad_timestamps_refused_on_every_route(self, tmp_path, fmt, defect, route):
        path = self.write(tmp_path, fmt, defect)
        with pytest.raises(SeriesShapeError):
            self.ROUTES[route](path, self.CHUNK)

    def test_swapped_rows_refused_in_a_large_csv(self, tmp_path):
        series = step_series(20_000, 12_000)
        path = tmp_path / "swapped.csv"
        save_csv(series, path)
        lines = path.read_text().splitlines(keepends=True)
        lines[10_001], lines[10_002] = lines[10_002], lines[10_001]
        path.write_text("".join(lines))
        for route in self.ROUTES.values():
            with pytest.raises(SeriesShapeError):
                route(path, 4096)
