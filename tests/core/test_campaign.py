"""Campaign integration tests (on the small scaled facility)."""

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, CampaignResult
from repro.core.interventions import (
    BiosDeterminismChange,
    DefaultFrequencyChange,
    InterventionSchedule,
    OperatingState,
)
from repro.facility.archer2 import (
    ARCHER2_BASELINE_CABINET_POWER_KW,
    ARCHER2_POST_BIOS_CABINET_POWER_KW,
    ARCHER2_POST_FREQ_CABINET_POWER_KW,
)
from repro.telemetry import TimeSeries
from repro.units import SECONDS_PER_DAY


class TestBaselineCampaign:
    def test_reporting_window_starts_at_zero(self, baseline_campaign):
        assert baseline_campaign.measured_kw.t_start_s == 0.0

    def test_high_utilisation(self, baseline_campaign):
        assert baseline_campaign.utilisation() > 0.85

    def test_measured_tracks_truth(self, baseline_campaign):
        assert baseline_campaign.mean_cabinet_kw == pytest.approx(
            baseline_campaign.true_kw.mean(), rel=0.01
        )

    def test_power_scales_with_facility(self, baseline_campaign):
        """5 % facility → mean power roughly 5 % of the ARCHER2 figure."""
        assert 100.0 < baseline_campaign.mean_cabinet_kw < 250.0

    def test_phase_means_single_phase(self, baseline_campaign):
        means = baseline_campaign.phase_means_kw()
        assert len(means) == 1
        assert means[0] == pytest.approx(baseline_campaign.mean_cabinet_kw, rel=0.01)

    def test_no_impacts_without_interventions(self, baseline_campaign):
        assert baseline_campaign.impacts() == []


class TestInterventionCampaign:
    def test_three_phases_decreasing(self, intervention_campaign):
        means = intervention_campaign.phase_means_kw()
        assert len(means) == 3
        assert means[0] > means[1] > means[2]

    def test_impacts_reported_per_intervention(self, intervention_campaign):
        impacts = intervention_campaign.impacts()
        assert len(impacts) == 2
        assert impacts[0].name.startswith("BIOS")
        assert all(impact.saving > 0 for impact in impacts)

    def test_relative_savings_shape(self, intervention_campaign):
        """BIOS ~5-10 %, frequency change the larger of the two."""
        means = intervention_campaign.phase_means_kw()
        bios = (means[0] - means[1]) / means[0]
        freq = (means[1] - means[2]) / means[1]
        assert 0.03 < bios < 0.12
        assert freq > bios

    def test_setting_split_after_frequency_change(self, intervention_campaign):
        split = intervention_campaign.simulation.node_hours_by_setting()
        assert "2.0GHz" in split
        assert split["2.0GHz"] > 0


class TestImpactWindows:
    def test_each_intervention_is_measured_within_its_own_phase(self):
        """Two steps 30 days apart: each saving is its own step, not the
        mean of everything after it against everything before it."""
        day = SECONDS_PER_DAY
        times = np.arange(0.0, 90 * day, 900.0)
        levels = np.select(
            [times < 30 * day, times < 60 * day],
            [ARCHER2_BASELINE_CABINET_POWER_KW, ARCHER2_POST_BIOS_CABINET_POWER_KW],
            ARCHER2_POST_FREQ_CABINET_POWER_KW,
        )
        schedule = InterventionSchedule(
            OperatingState(),
            [
                BiosDeterminismChange(time_s=30 * day),
                DefaultFrequencyChange(time_s=60 * day),
            ],
        )
        series = TimeSeries(times, levels)
        result = CampaignResult(
            config=CampaignConfig(duration_s=90 * day, schedule=schedule),
            simulation=None,
            true_kw=series,
            measured_kw=series,
        )
        means = result.phase_means_kw()
        assert means == pytest.approx([3220.0, 3010.0, 2530.0])
        savings = [impact.saving for impact in result.impacts()]
        assert savings == pytest.approx([210.0, 480.0])
        assert savings == pytest.approx([means[0] - means[1], means[1] - means[2]])


class TestFailureIntegration:
    def test_failures_reduce_utilisation_and_power(self):
        """With a lossy fleet, some nodes are always offline: utilisation
        against the full inventory drops and so does cabinet power."""
        from repro.core.campaign import run_campaign
        from repro.facility.archer2 import scaled_inventory
        from repro.facility.failures import FailureModel
        from repro.workload.generator import JobStreamConfig

        inv = scaled_inventory(0.05)
        base_kwargs = dict(
            duration_s=10 * SECONDS_PER_DAY,
            inventory=inv,
            stream=JobStreamConfig(n_facility_nodes=inv.n_nodes, max_job_nodes=64),
            seed=9,
            warmup_s=3 * SECONDS_PER_DAY,
        )
        healthy = run_campaign(CampaignConfig(**base_kwargs))
        lossy = run_campaign(
            CampaignConfig(
                **base_kwargs,
                failure_model=FailureModel(mtbf_hours=200.0, mttr_hours=20.0),
            )
        )
        assert lossy.utilisation() < healthy.utilisation()
        assert lossy.mean_cabinet_kw < healthy.mean_cabinet_kw

    def test_offline_fraction_matches_model(self):
        from repro.facility.failures import FailureModel
        from repro.scheduler.backfill import BackfillScheduler

        model = FailureModel(mtbf_hours=100.0, mttr_hours=10.0)
        offline = round(1000 * model.steady_state_unavailability)
        scheduler = BackfillScheduler(1000, offline_nodes=offline)
        assert scheduler.offline_nodes == 91


class TestCampaignConfigValidation:
    def test_bad_duration_rejected(self):
        with pytest.raises(Exception):
            CampaignConfig(duration_s=0.0)

    def test_stream_defaults_to_inventory_size(self):
        config = CampaignConfig(duration_s=SECONDS_PER_DAY)
        assert config.resolved_stream().n_facility_nodes == config.inventory.n_nodes


class TestDeterminism:
    def test_same_seed_same_result(self, intervention_campaign):
        """Re-running the fixture's config reproduces the result exactly."""
        from repro.core.campaign import run_campaign

        again = run_campaign(intervention_campaign.config)
        np.testing.assert_array_equal(
            again.measured_kw.values, intervention_campaign.measured_kw.values
        )
        assert len(again.simulation.records) == len(
            intervention_campaign.simulation.records
        )
