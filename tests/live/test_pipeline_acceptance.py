"""End-to-end pipeline tests against the paper's figure scenarios.

The acceptance criteria for the live subsystem: replaying the Fig. 2/Fig. 3
intervention windows, the online detector's levels must match the batch
:func:`repro.analysis.changepoint.detect_single` means within 1 %, the first
alarm onset must land within one detection window of the true change, and
the regime tracker must reproduce the batch classification sequence without
flapping.
"""

import io
import re

import numpy as np
import pytest

from repro.analysis.changepoint import detect_single, segment_means
from repro.core.regimes import Regime
from repro.errors import MonitoringError
from repro.live.alerts import (
    AdviceAlert,
    ChangePointAlert,
    RegimeChangeAlert,
    RollupAlert,
    TextAlertSink,
    format_alert,
)
from repro.live.events import POWER_STREAM, series_batches
from repro.live.monitor import build_monitor, monitor_main, run_monitor
from repro.live.pipeline import MonitorPipeline
from repro.live.replay import build_scenario, figure2_scenario, figure3_scenario
from repro.live.supervisor import SupervisedPipeline
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY

#: One detection window: the detector re-estimates its baseline over
#: ``warmup_samples`` (96) meter intervals (900 s) — one day.
DETECTION_WINDOW_S = 96 * 900.0


@pytest.fixture(scope="module")
def fig2_outcome():
    return run_monitor(figure2_scenario())


@pytest.fixture(scope="module")
def fig3_outcome():
    return run_monitor(figure3_scenario())


def assert_figure_acceptance(outcome, level_before, level_after):
    scenario = outcome.scenario
    changes = outcome.report.alerts_of(ChangePointAlert)
    assert changes, "the intervention must raise at least one change alert"

    # Onset of the first alarm within one detection window of the truth.
    (true_change,) = scenario.change_times_s
    assert abs(changes[0].onset_time_s - true_change) <= DETECTION_WINDOW_S
    # All alarms cluster on the intervention, none elsewhere (no false alarms).
    settle_s = 2.0 * SECONDS_PER_DAY
    for alert in changes:
        assert true_change - DETECTION_WINDOW_S <= alert.onset_time_s
        assert alert.onset_time_s <= true_change + settle_s + DETECTION_WINDOW_S
        assert alert.direction == -1

    # Live levels match the batch single-change-point means within 1 %.
    batch = detect_single(scenario.power_kw)
    segments = outcome.detector.segments
    assert segments[0].mean == pytest.approx(batch.mean_before, rel=0.01)
    assert segments[-1].mean == pytest.approx(batch.mean_after, rel=0.01)
    # And both recover the paper's published levels within 1 %.
    assert segments[0].mean == pytest.approx(level_before, rel=0.01)
    assert segments[-1].mean == pytest.approx(level_after, rel=0.01)

    # Live segmentation equals the batch segmentation at the same onsets.
    onsets = [a.onset_time_s for a in changes]
    batch_means = segment_means(scenario.power_kw, onsets)
    live_means = [s.mean for s in segments]
    assert live_means == pytest.approx(batch_means, rel=1e-9)


class TestFigureScenarios:
    def test_fig2_bios_step(self, fig2_outcome):
        """Fig. 2: −210 kW BIOS determinism step, 3,220 → 3,010 kW."""
        assert_figure_acceptance(fig2_outcome, 3220.0, 3010.0)

    def test_fig3_frequency_step(self, fig3_outcome):
        """Fig. 3: −480 kW frequency-cap step, 3,010 → 2,530 kW."""
        assert_figure_acceptance(fig3_outcome, 3010.0, 2530.0)

    def test_fig2_advice_reaches_frequency_cap(self, fig2_outcome):
        """After the BIOS step lands, the remaining §4 action is the cap."""
        final = fig2_outcome.report.alerts_of(AdviceAlert)[-1]
        assert [r.action for r in final.recommendations] == ["frequency-cap-2.0ghz"]

    def test_fig3_advice_exhausted(self, fig3_outcome):
        """At 2,530 kW both interventions are in effect: nothing pending."""
        assert fig3_outcome.advisor.pending_actions() == ()

    def test_rollups_emitted_daily(self, fig2_outcome):
        rollups = [
            a
            for a in fig2_outcome.report.alerts_of(RollupAlert)
            if a.stream == POWER_STREAM
        ]
        # 61 days → 61 windows (the last closed by finish()).
        assert len(rollups) == 61
        assert all(a.n_valid <= a.n_samples for a in rollups)

    def test_no_samples_dropped_unthrottled(self, fig2_outcome):
        metrics = fig2_outcome.report.metrics
        assert metrics.total_samples_dropped == 0
        assert metrics.samples_in == metrics.samples_processed

    def test_watermark_reaches_end(self, fig2_outcome):
        scenario = fig2_outcome.scenario
        assert fig2_outcome.report.metrics.watermark_time_s == pytest.approx(
            max(scenario.power_kw.t_end_s, scenario.ci_g_per_kwh.t_end_s)
        )


class TestRegimeSweepScenario:
    def test_sequence_and_no_flapping(self):
        """The CI sweep commits exactly the five plateau regimes."""
        outcome = run_monitor(build_scenario("regimes"))
        assert [t.regime for t in outcome.tracker.transitions] == [
            Regime.SCOPE3_DOMINATED,
            Regime.BALANCED,
            Regime.SCOPE2_DOMINATED,
            Regime.BALANCED,
            Regime.SCOPE3_DOMINATED,
        ]
        # Scope-3 advice recommends no power actions.
        final = outcome.report.alerts_of(AdviceAlert)[-1]
        assert final.recommendations == ()


class TestBackpressure:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(MonitoringError):
            SupervisedPipeline().run(iter(()))

    def test_base_pipeline_is_not_constructed(self):
        """The run loop's steps are the supervised pipeline's alone."""
        with pytest.raises(TypeError, match="SupervisedPipeline"):
            MonitorPipeline()


class TestLargeBatches:
    def test_batch_larger_than_old_channel_capacity_is_processed(self):
        """A catch-up slab of 400,000 samples (above the 262,144 a channel
        once held) reaches the processors whole instead of being shed."""
        n = 400_000
        rng = np.random.default_rng(7)
        levels = np.where(np.arange(n) < n // 2, 3220.0, 3010.0)
        power = TimeSeries(0.2 * np.arange(n), levels + rng.normal(0.0, 30.0, n))
        pipeline, detector, _, _ = build_monitor()
        metrics = pipeline.run(series_batches(POWER_STREAM, power, 1 << 19)).metrics
        assert metrics.samples_processed[POWER_STREAM] == n
        assert metrics.total_samples_dropped == 0
        assert [round(s.mean) for s in detector.segments] == [3220, 3010]


class TestAlertPlumbing:
    def test_sinks_receive_all_alerts(self):
        stream = io.StringIO()
        outcome = run_monitor(
            build_scenario("regimes", duration_days=5.0), sinks=(TextAlertSink(stream),)
        )
        lines = stream.getvalue().splitlines()
        assert lines == [format_alert(a) for a in outcome.report.alerts]
        assert outcome.report.alerts_of(RegimeChangeAlert)

    def test_format_alert_covers_every_type(self, fig2_outcome):
        lines = [format_alert(a) for a in fig2_outcome.report.alerts]
        assert all(isinstance(line, str) and line for line in lines)
        assert any("CHANGE" in line for line in lines)
        assert any("ADVICE" in line for line in lines)
        assert any("ROLLUP" in line for line in lines)


class TestMonitorCli:
    def test_quiet_run_exits_zero(self, capsys):
        assert monitor_main(["--scenario", "regimes", "--days", "4", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Live facility monitor summary" in out
        assert re.search(r"\| Accounting +\| reconciles +\|", out)

    def test_supervised_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            monitor_main(["--scenario", "regimes", "--days", "4", "--quiet", "--supervised"])
        assert excinfo.value.code == 2
        assert "--supervised" in capsys.readouterr().err

    def test_live_feed_prints_alerts(self, capsys):
        assert monitor_main(["--scenario", "regimes", "--days", "4"]) == 0
        out = capsys.readouterr().out
        assert "REGIME" in out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            monitor_main(["--help"])
        assert excinfo.value.code == 0

    def test_dispatch_from_main_cli(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", "--help"])
        assert excinfo.value.code == 0
        assert "repro monitor" in capsys.readouterr().out
