"""Intervention framework tests."""

import numpy as np
import pytest

from repro.core.interventions import (
    BiosDeterminismChange,
    DefaultFrequencyChange,
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
    assess_impact,
)
from repro.errors import ConfigurationError
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting
from repro.scheduler.frequency_policy import FrequencyPolicy
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.applications import full_catalogue, paper_curated_apps
from repro.workload.jobs import Job


def make_job(app_name="VASP CdTe", override=None):
    return Job(
        job_id=0,
        app=full_catalogue()[app_name],
        n_nodes=4,
        submit_time_s=0.0,
        reference_runtime_s=3600.0,
        frequency_override=override,
    )


@pytest.fixture
def schedule():
    return InterventionSchedule(
        OperatingState(policy=FrequencyPolicy(curated_apps=paper_curated_apps())),
        [
            BiosDeterminismChange(time_s=100.0),
            DefaultFrequencyChange(time_s=200.0),
        ],
    )


def state_at(schedule, time_s):
    """The operating state in force at ``time_s``."""
    return schedule.states[schedule.state_index_at(time_s)]


class TestSchedule:
    def test_state_progression(self, schedule):
        assert state_at(schedule, 0.0).mode is DeterminismMode.POWER
        assert state_at(schedule, 150.0).mode is DeterminismMode.PERFORMANCE
        assert (
            state_at(schedule, 150.0).policy.default_setting
            is FrequencySetting.GHZ_2_25_TURBO
        )
        assert (
            state_at(schedule, 250.0).policy.default_setting
            is FrequencySetting.GHZ_2_0
        )

    def test_change_exactly_at_time(self, schedule):
        # bisect_right: at the change instant the new state is in force.
        assert state_at(schedule, 100.0).mode is DeterminismMode.PERFORMANCE

    def test_interventions_sorted(self):
        sched = InterventionSchedule(
            OperatingState(),
            [
                DefaultFrequencyChange(time_s=200.0),
                BiosDeterminismChange(time_s=100.0),
            ],
        )
        assert sched.change_times_s == [100.0, 200.0]

    def test_frequency_change_preserves_policy_settings(self, schedule):
        final = state_at(schedule, 1e9).policy
        assert final.curated_apps == paper_curated_apps()
        assert final.reset_threshold == 0.10

    def test_empty_schedule(self):
        sched = InterventionSchedule(OperatingState())
        assert state_at(sched, 0.0).mode is DeterminismMode.POWER
        assert sched.change_times_s == []


class TestScheduledEnvironment:
    def test_resolution_follows_timeline(self, schedule):
        env = ScheduledEnvironment(node_model=build_node_model(), schedule=schedule)
        job = make_job()
        before = env.resolve(job, 50.0)
        after_bios = env.resolve(job, 150.0)
        after_freq = env.resolve(job, 250.0)
        assert before.setting is FrequencySetting.GHZ_2_25_TURBO
        assert after_freq.setting is FrequencySetting.GHZ_2_0
        # BIOS change lowers power, frequency change lowers it further.
        assert before.node_power_w > after_bios.node_power_w > after_freq.node_power_w

    def test_runtime_stretches_after_frequency_change(self, schedule):
        env = ScheduledEnvironment(node_model=build_node_model(), schedule=schedule)
        job = make_job("CASTEP Al Slab")
        assert env.resolve(job, 250.0).runtime_s > env.resolve(job, 50.0).runtime_s

    def test_curated_reset_app_keeps_turbo(self, schedule):
        env = ScheduledEnvironment(node_model=build_node_model(), schedule=schedule)
        job = make_job("LAMMPS Ethanol")
        assert env.resolve(job, 250.0).setting is FrequencySetting.GHZ_2_25_TURBO

    def test_cache_stable_across_calls(self, schedule):
        env = ScheduledEnvironment(node_model=build_node_model(), schedule=schedule)
        job = make_job()
        a = env.resolve(job, 250.0)
        b = env.resolve(job, 260.0)
        assert a == b


class TestAssessImpact:
    def make_step_series(self):
        times = np.arange(0.0, 20 * SECONDS_PER_DAY, 3600.0)
        values = np.where(times < 10 * SECONDS_PER_DAY, 3220.0, 2530.0)
        return TimeSeries(times, values, "step")

    def test_step_recovered(self):
        impact = assess_impact(
            self.make_step_series(), 10 * SECONDS_PER_DAY, settle_s=0.0
        )
        assert impact.mean_before == pytest.approx(3220.0)
        assert impact.mean_after == pytest.approx(2530.0)
        assert impact.saving == pytest.approx(690.0)
        assert impact.relative_saving == pytest.approx(690.0 / 3220.0)

    def test_settle_window_excluded(self):
        times = np.arange(0.0, 20 * SECONDS_PER_DAY, 3600.0)
        values = np.where(times < 10 * SECONDS_PER_DAY, 3220.0, 2530.0)
        # Corrupt the transition day; with a settle window it must not matter.
        transition = (times >= 10 * SECONDS_PER_DAY) & (
            times < 11 * SECONDS_PER_DAY
        )
        values = np.where(transition, 9999.0, values)
        impact = assess_impact(
            TimeSeries(times, values), 10 * SECONDS_PER_DAY, settle_s=SECONDS_PER_DAY
        )
        assert impact.mean_after == pytest.approx(2530.0)

    def test_change_outside_span_rejected(self):
        with pytest.raises(ConfigurationError):
            assess_impact(self.make_step_series(), 100 * SECONDS_PER_DAY)

    def test_settle_swallowing_after_period_rejected(self):
        with pytest.raises(ConfigurationError):
            assess_impact(
                self.make_step_series(),
                19 * SECONDS_PER_DAY,
                settle_s=10 * SECONDS_PER_DAY,
            )
