"""Window-boundary semantics of :class:`WindowedRollup`, pinned.

The contract (audited before the columnar rewrite so both paths inherit
it): window *k* covers ``[k*W, (k+1)*W)`` — start-inclusive, end-exclusive
— so a sample landing exactly on an edge belongs to exactly one window,
and ``finish()`` never emits an empty or zero-count final window, in
particular when the last batch ends exactly on a boundary.
"""

import numpy as np
import pytest

from repro.errors import MonitoringError
from repro.live.events import POWER_STREAM, StreamBatch
from repro.live.processors import WindowedRollup

W = 100.0


def batch(times, values=None):
    times = np.asarray(times, dtype=float)
    if values is None:
        values = np.full(len(times), 3220.0)
    return StreamBatch(POWER_STREAM, times, np.asarray(values, dtype=float))


def run(rollup, *batches):
    alerts = []
    for b in batches:
        alerts.extend(rollup.process(b))
    alerts.extend(rollup.finish())
    return alerts


class TestEdgeSamples:
    def test_sample_on_edge_opens_the_next_window(self):
        """t == k*W belongs to window k, not window k-1."""
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        alerts = run(rollup, batch([10.0, 50.0, W]))
        assert len(alerts) == 2
        first, second = alerts
        assert (first.window_start_s, first.window_end_s) == (0.0, W)
        assert first.n_samples == 2
        assert (second.window_start_s, second.window_end_s) == (W, 2 * W)
        assert second.n_samples == 1

    def test_edge_sample_counted_exactly_once(self):
        """Total samples across all emitted windows equals samples fed."""
        times = [0.0, W / 2, W, 3 * W / 2, 2 * W, 2 * W + 1.0]
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        alerts = run(rollup, batch(times))
        assert sum(a.n_samples for a in alerts) == len(times)
        assert [a.window_start_s for a in alerts] == [0.0, W, 2 * W]

    def test_windows_are_start_inclusive_end_exclusive(self):
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        alerts = run(rollup, batch([W, 2 * W - 1e-9]), batch([2 * W]))
        assert len(alerts) == 2
        assert alerts[0].n_samples == 2  # both samples in [W, 2W)
        assert alerts[1].n_samples == 1  # the edge sample alone in [2W, 3W)


class TestFinishSemantics:
    def test_no_empty_window_when_batch_ends_on_boundary(self):
        """A batch whose last sample opens a fresh window must yield that
        window once from finish() — never an extra zero-count window."""
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        mid = rollup.process(batch([10.0, W]))
        assert len(mid) == 1
        tail = rollup.finish()
        assert len(tail) == 1
        assert tail[0].n_samples == 1
        assert tail[0].window_start_s == W

    def test_finish_without_samples_emits_nothing(self):
        assert WindowedRollup(POWER_STREAM, window_s=W).finish() == []

    def test_finish_is_idempotent(self):
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        rollup.process(batch([10.0]))
        assert len(rollup.finish()) == 1
        assert rollup.finish() == []

    def test_every_emitted_window_is_nonempty(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0.0, 40 * W, size=300))
        times = np.unique(times)
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        alerts = run(rollup, batch(times))
        assert all(a.n_samples >= 1 for a in alerts)
        assert sum(a.n_samples for a in alerts) == len(times)

    def test_windows_closed_counter_matches_alerts(self):
        rollup = WindowedRollup(POWER_STREAM, window_s=W)
        alerts = run(rollup, batch([0.0, W, 2 * W]))
        assert rollup.windows_closed == len(alerts) == 3


class TestConfigValidation:
    @pytest.mark.parametrize("window_s", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonpositive_window_rejected(self, window_s):
        with pytest.raises(MonitoringError):
            WindowedRollup(POWER_STREAM, window_s=window_s)
