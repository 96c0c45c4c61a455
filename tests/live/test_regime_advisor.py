"""Regime tracker (hysteresis/debounce) and intervention advisor tests."""

import math

import numpy as np
import pytest

from repro.core.regimes import OptimisationTarget, Regime, classify_ci
from repro.errors import MonitoringError
from repro.live.advisor import (
    PAPER_ACTIONS,
    ActionSpec,
    AdvisorConfig,
    InterventionAdvisor,
)
from repro.live.alerts import ChangePointAlert, RegimeChangeAlert
from repro.live.events import CI_STREAM, POWER_STREAM, StreamBatch
from repro.live.regime import RegimeTracker, RegimeTrackerConfig


def track(values, config=None):
    tracker = RegimeTracker(CI_STREAM, config)
    values = np.asarray(values, dtype=float)
    times = 900.0 * np.arange(len(values))
    tracker.process(StreamBatch(CI_STREAM, times, values))
    return tracker


def regimes(tracker):
    """The committed regimes in order, initial classification first."""
    return [t.regime for t in tracker.transitions]


def batch_sequence(values):
    """The batch per-sample regime sequence, transitions only."""
    sequence = []
    for ci in values:
        if math.isnan(ci):
            continue
        regime = classify_ci(ci)
        if not sequence or sequence[-1] is not regime:
            sequence.append(regime)
    return sequence


class TestTrackerConfig:
    def test_inverted_band_rejected(self):
        with pytest.raises(MonitoringError):
            RegimeTrackerConfig(low_ci_g_per_kwh=100.0, high_ci_g_per_kwh=30.0)

    def test_oversized_hysteresis_rejected(self):
        with pytest.raises(MonitoringError):
            RegimeTrackerConfig(hysteresis_g_per_kwh=40.0)

    def test_zero_dwell_rejected(self):
        with pytest.raises(MonitoringError):
            RegimeTrackerConfig(min_dwell_samples=0)


class TestTracker:
    def test_initial_classification_emitted(self):
        tracker = track([190.0])
        assert regimes(tracker) == [Regime.SCOPE2_DOMINATED]
        assert tracker.transitions[0].previous is None

    def test_nan_skipped(self):
        tracker = track([np.nan, np.nan, 190.0])
        assert tracker.nan_samples == 2
        assert tracker.current is Regime.SCOPE2_DOMINATED

    def test_degenerate_config_matches_batch_classifier(self, rng):
        """With no hysteresis and dwell 1, the tracker IS the batch rule —
        classify_ci stays the single source of truth."""
        values = rng.uniform(5.0, 200.0, 500)
        config = RegimeTrackerConfig(hysteresis_g_per_kwh=0.0, min_dwell_samples=1)
        tracker = track(values, config)
        assert regimes(tracker) == batch_sequence(values)

    def test_boundary_chatter_does_not_flap(self, rng):
        """CI chattering ±2 g around the 30 g boundary flaps the batch rule
        but must not flap the hysteresis tracker."""
        values = 30.0 + rng.normal(0.0, 2.0, 400)
        assert len(batch_sequence(values)) > 2  # the naive rule does flap
        tracker = track(values)  # default 5 g hysteresis, dwell 3
        assert len(regimes(tracker)) == 1

    def test_brief_excursion_debounced(self):
        """A spike shorter than min_dwell_samples never commits."""
        values = [20.0] * 10 + [50.0] * 2 + [20.0] * 10
        tracker = track(values, RegimeTrackerConfig(min_dwell_samples=3))
        assert regimes(tracker) == [Regime.SCOPE3_DOMINATED]

    def test_sustained_change_commits_at_dwell(self):
        values = [20.0] * 10 + [65.0] * 10
        tracker = track(values, RegimeTrackerConfig(min_dwell_samples=3))
        assert regimes(tracker) == [Regime.SCOPE3_DOMINATED, Regime.BALANCED]
        # Committed at the first sample of the dwell run, not the third.
        assert tracker.transitions[1].time_s == 900.0 * 10
        assert tracker.transitions[1].ci_g_per_kwh == 65.0

    def test_full_sweep_sequence(self):
        values = [20.0] * 5 + [65.0] * 5 + [190.0] * 5 + [65.0] * 5 + [20.0] * 5
        tracker = track(values)
        assert regimes(tracker) == [
            Regime.SCOPE3_DOMINATED,
            Regime.BALANCED,
            Regime.SCOPE2_DOMINATED,
            Regime.BALANCED,
            Regime.SCOPE3_DOMINATED,
        ]


def regime_alert(regime, ci, previous=Regime.BALANCED, time_s=0.0):
    return RegimeChangeAlert(
        time_s=time_s, stream=CI_STREAM, previous=previous, regime=regime,
        ci_g_per_kwh=ci,
    )


def level_alert(level_kw, time_s=0.0):
    return ChangePointAlert(
        time_s=time_s, stream=POWER_STREAM, onset_time_s=time_s,
        level_before=level_kw + 100.0, level_after_estimate=level_kw,
        significance=12.0, direction=-1,
    )


class TestAdvisorConfig:
    def test_expected_levels_ladder(self):
        levels = AdvisorConfig().expected_levels_kw()
        assert levels == pytest.approx([3220.0, 3010.0, 2530.0])

    def test_bad_baseline_rejected(self):
        with pytest.raises(MonitoringError):
            AdvisorConfig(baseline_power_kw=0.0)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(MonitoringError):
            AdvisorConfig(level_tolerance_fraction=1.5)


class TestAdvisor:
    def test_no_advice_before_regime_known(self):
        advisor = InterventionAdvisor()
        assert advisor.observe(level_alert(3220.0)) == []

    def test_baseline_level_advises_both_actions(self):
        advisor = InterventionAdvisor()
        advisor.observe(level_alert(3220.0))
        [alert] = advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 190.0))
        assert [r.action for r in alert.recommendations] == [
            "bios-performance-determinism",
            "frequency-cap-2.0ghz",
        ]
        assert alert.target is OptimisationTarget.MAXIMISE_ENERGY_EFFICIENCY

    def test_mid_ladder_level_advises_remaining_action(self):
        advisor = InterventionAdvisor()
        advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 190.0))
        [alert] = advisor.observe(level_alert(3015.0))  # near the 3010 rung
        assert [r.action for r in alert.recommendations] == ["frequency-cap-2.0ghz"]

    def test_bottom_rung_advises_nothing(self):
        advisor = InterventionAdvisor()
        advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 190.0))
        [alert] = advisor.observe(level_alert(2531.0))
        assert alert.recommendations == ()

    def test_unattributable_level_advises_everything(self):
        """A level far from every rung must not silently assume an action."""
        advisor = InterventionAdvisor()
        advisor.level_kw = 2800.0  # ~130 kW from the nearest rung, > 4 % of 3220
        assert len(advisor.pending_actions()) == len(PAPER_ACTIONS)

    def test_scope3_regime_recommends_nothing(self):
        advisor = InterventionAdvisor()
        advisor.observe(level_alert(3220.0))
        [alert] = advisor.observe(regime_alert(Regime.SCOPE3_DOMINATED, 15.0))
        assert alert.recommendations == ()
        assert alert.target is OptimisationTarget.MAXIMISE_PERFORMANCE

    def test_emissions_estimate_scales_with_ci(self):
        advisor = InterventionAdvisor()
        [alert] = advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 200.0))
        bios = alert.recommendations[0]
        # 210 kW × 8766 h/yr × 200 g/kWh ≈ 368 tCO2e/yr.
        assert bios.estimated_tco2e_saved_per_year == pytest.approx(368.2, rel=0.01)

    def test_repeat_state_deduplicated(self):
        advisor = InterventionAdvisor()
        first = advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 190.0))
        again = advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 195.0))
        assert len(first) == 1 and again == []

    def test_state_change_re_advises(self):
        advisor = InterventionAdvisor()
        advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 190.0))
        [alert] = advisor.observe(level_alert(3010.0))
        assert [r.action for r in alert.recommendations] == ["frequency-cap-2.0ghz"]

    def test_custom_action_ladder(self):
        actions = (ActionSpec("dim-lights", "turn the lights off", -20.0),)
        config = AdvisorConfig(baseline_power_kw=100.0, actions=actions)
        assert config.expected_levels_kw() == pytest.approx([100.0, 80.0])
        advisor = InterventionAdvisor(config=config)
        advisor.observe(regime_alert(Regime.SCOPE2_DOMINATED, 190.0))
        advisor.observe(level_alert(80.5))
        assert advisor.pending_actions() == ()
