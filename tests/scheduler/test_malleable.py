"""Carbon-aware malleable scheduler tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.facility.failures import FailureModel, FaultConfig
from repro.node.calibration import build_node_model
from repro.node.pstates import FrequencySetting
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.frequency_policy import FrequencyPolicy
from repro.scheduler.malleable import (
    CarbonAwareEnvironment,
    MalleableScheduler,
    compare_rigid_malleable,
)
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.applications import full_catalogue
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.jobs import Job
from repro.workload.mix import archer2_mix


@pytest.fixture(scope="module")
def env():
    return StaticEnvironment(node_model=build_node_model())


def flat_ci(value, t_end_s=30 * SECONDS_PER_DAY):
    times = np.arange(0.0, t_end_s, 1800.0)
    return TimeSeries(times, np.full(len(times), float(value)), "ci")


def step_ci(switch_s, before, after, t_end_s=30 * SECONDS_PER_DAY):
    """CI that holds ``before`` until ``switch_s``, then ``after``."""
    times = np.arange(0.0, t_end_s, 1800.0)
    values = np.where(times < switch_s, float(before), float(after))
    return TimeSeries(times, values, "ci")


def make_job(job_id, n_nodes, submit, runtime, min_nodes=None, max_nodes=None, slack=0.0):
    return Job(
        job_id=job_id,
        app=full_catalogue()["VASP CdTe"],
        n_nodes=n_nodes,
        submit_time_s=submit,
        reference_runtime_s=runtime,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
        shift_slack_s=slack,
    )


class TestRigidParity:
    def test_rigid_trace_on_inelastic_workload(self, env):
        """With no elastic jobs, no slack and flat CI, the malleable
        scheduler reduces to EASY backfill exactly — under node faults too:
        byte-equal traces, equal fault accounting, equal records."""
        config = JobStreamConfig(
            n_facility_nodes=128,
            offered_load=0.9,
            mean_runtime_s=3600.0,
            max_job_nodes=32,
        )
        gen = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(13))
        jobs = gen.generate(3000)
        assert not any(j.is_elastic or j.shift_slack_s > 0 for j in jobs)
        t_end = jobs[-1].submit_time_s + 6 * 3600.0
        faults = FaultConfig(
            model=FailureModel(mtbf_hours=200.0, mttr_hours=6.0), seed=3
        )
        rigid = BackfillScheduler(128, fault_config=faults).run(jobs, t_end, env)
        malleable = MalleableScheduler(
            128, env, flat_ci(65.0, t_end + SECONDS_PER_DAY), fault_config=faults
        ).run(jobs, t_end)

        assert rigid.faults.n_job_kills > 100
        assert rigid.faults == malleable.faults
        for name in ("times_s", "busy_power_w", "busy_nodes"):
            assert (
                getattr(rigid.trace, name).tobytes()
                == getattr(malleable.trace, name).tobytes()
            )
        assert sorted(
            (r.job.job_id, r.start_time_s, r.end_time_s, r.interrupted)
            for r in rigid.records
        ) == sorted(
            (r.job_id, r.start_time_s, r.end_time_s, r.interrupted)
            for r in malleable.records
        )
        assert (rigid.n_jobs, rigid.n_completed, rigid.n_running_at_end) == (
            malleable.n_jobs,
            malleable.n_completed,
            malleable.n_running_at_end,
        )
        assert rigid.n_unstarted == malleable.n_queued_at_end


class TestCarbonBehaviour:
    def test_high_ci_starts_elastic_jobs_at_min_shape(self, env):
        job = make_job(0, 8, 0.0, 3600.0, min_nodes=2, max_nodes=8)
        result = MalleableScheduler(16, env, flat_ci(150.0)).run(
            [job], 5 * SECONDS_PER_DAY
        )
        record = result.records[0]
        # Ran at 2 nodes throughout: node-seconds = 2 × stretched runtime.
        assert record.runtime_s > 3600.0  # shrunk => stretched
        assert record.node_seconds == pytest.approx(2 * record.runtime_s)
        assert record.setting == "2.0GHz"  # high-CI frequency co-optimisation

    def test_low_ci_runs_at_preferred_and_fast(self, env):
        job = make_job(0, 8, 0.0, 3600.0, min_nodes=2, max_nodes=8)
        result = MalleableScheduler(16, env, flat_ci(10.0)).run(
            [job], 5 * SECONDS_PER_DAY
        )
        record = result.records[0]
        assert record.node_seconds == pytest.approx(8 * record.runtime_s)
        assert record.setting == "2.25GHz+turbo"
        assert result.n_shrinks == 0

    def test_shrinks_when_ci_goes_high_midrun(self, env):
        job = make_job(0, 8, 0.0, 8 * 3600.0, min_nodes=2, max_nodes=8)
        ci = step_ci(2 * 3600.0, before=65.0, after=150.0)
        result = MalleableScheduler(16, env, ci).run([job], 5 * SECONDS_PER_DAY)
        assert result.n_shrinks == 1
        record = result.records[0]
        assert record.runtime_s > 8 * 3600.0  # shrink stretched the tail

    def test_grows_back_when_ci_recovers(self, env):
        job = make_job(0, 8, 0.0, 12 * 3600.0, min_nodes=2, max_nodes=8)
        ci = step_ci(2 * 3600.0, before=150.0, after=65.0)
        result = MalleableScheduler(16, env, ci).run([job], 5 * SECONDS_PER_DAY)
        assert result.n_grows >= 1
        record = result.records[0]
        # Started narrow (high CI), grew back — faster than all-min execution.
        shape_stretch_at_min = record.runtime_s / (12 * 3600.0)
        assert shape_stretch_at_min > 1.0

    def test_slack_shifts_start_into_green_window(self, env):
        # High CI for 6 h, then clean; 12 h of slack: the job should wait.
        job = make_job(0, 4, 0.0, 3600.0, slack=12 * 3600.0)
        ci = step_ci(6 * 3600.0, before=150.0, after=30.0)
        result = MalleableScheduler(16, env, ci).run([job], 5 * SECONDS_PER_DAY)
        assert result.n_shifted == 1
        assert result.records[0].start_time_s >= 6 * 3600.0

    def test_no_shift_without_improvement(self, env):
        job = make_job(0, 4, 0.0, 3600.0, slack=12 * 3600.0)
        result = MalleableScheduler(16, env, flat_ci(65.0)).run(
            [job], 5 * SECONDS_PER_DAY
        )
        assert result.n_shifted == 0
        assert result.records[0].start_time_s == 0.0


class TestSqueezeAdmission:
    def test_elastic_job_wider_than_pool_squeezes_in(self, env):
        # Preferred 32 on a 16-node pool: admissible because min fits.
        job = make_job(0, 32, 0.0, 3600.0, min_nodes=4, max_nodes=32)
        result = MalleableScheduler(16, env, flat_ci(65.0)).run(
            [job], 5 * SECONDS_PER_DAY
        )
        assert result.n_completed == 1
        record = result.records[0]
        assert record.node_seconds <= 16 * record.runtime_s


class TestAccountingIdentities:
    @pytest.fixture(scope="class")
    def stream(self):
        config = JobStreamConfig(
            n_facility_nodes=64,
            offered_load=0.95,
            mean_runtime_s=4 * 3600.0,
            max_job_nodes=32,
            malleable_fraction=0.5,
            shift_slack_mean_s=2 * 3600.0,
        )
        gen = JobStreamGenerator(archer2_mix(), config, np.random.default_rng(7))
        return gen.generate_until(6 * SECONDS_PER_DAY)

    @pytest.fixture(scope="class")
    def wavy_ci(self):
        t = np.arange(0.0, 8 * SECONDS_PER_DAY, 1800.0)
        return TimeSeries(t, 80.0 + 60.0 * np.sin(2 * np.pi * t / SECONDS_PER_DAY), "ci")

    def test_reconciliation_with_truncation(self, env, stream, wavy_ci):
        # End the simulation early so jobs are left running and queued.
        result = MalleableScheduler(64, env, wavy_ci).run(
            stream, 3 * SECONDS_PER_DAY
        )
        assert result.reconciles()
        assert result.n_running_at_end > 0 or result.n_queued_at_end > 0

    def test_deterministic_rerun(self, env, stream, wavy_ci):
        sched = MalleableScheduler(64, env, wavy_ci, seed=3)
        a = sched.run(stream, 7 * SECONDS_PER_DAY)
        b = sched.run(stream, 7 * SECONDS_PER_DAY)
        assert a.records == b.records
        assert np.array_equal(a.trace.times_s, b.trace.times_s)
        assert np.array_equal(a.trace.busy_power_w, b.trace.busy_power_w)

    def test_pool_conservation_in_trace(self, env, stream, wavy_ci):
        result = MalleableScheduler(64, env, wavy_ci).run(
            stream, 7 * SECONDS_PER_DAY
        )
        assert np.all(result.trace.busy_nodes >= 0)
        assert np.all(result.trace.busy_nodes <= 64)

    def test_malleable_beats_rigid_emissions(self, env, stream, wavy_ci):
        comparison = compare_rigid_malleable(
            stream, 7 * SECONDS_PER_DAY, env, wavy_ci, n_nodes=64
        )
        assert comparison.malleable_tco2e < comparison.rigid_tco2e
        assert comparison.emissions_saving_tco2e > 0.0
        assert comparison.energy_saving_kwh > 0.0


class TestCarbonAwareResolution:
    @pytest.mark.parametrize("respect_user_override", [True, False])
    @pytest.mark.parametrize("ci", [10.0, 60.0, 300.0])
    @pytest.mark.parametrize("override", [None, FrequencySetting.GHZ_1_5])
    def test_resolves_the_setting_the_policy_chose(self, ci, respect_user_override, override):
        """With user overrides ignored, the carbon-aware setting used to be
        dropped: at 300 gCO2/kWh the job ran at 2.25 GHz + turbo, not 2.0 GHz."""
        policy = FrequencyPolicy(respect_user_override=respect_user_override)
        inner = StaticEnvironment(node_model=build_node_model(), policy=policy)
        job = replace(make_job(0, 4, 0.0, 3600.0), frequency_override=override)
        chosen = policy.setting_for_ci(job, inner.cpu, inner.mode, ci)
        resolved = CarbonAwareEnvironment(inner).resolve_at_ci(job, 0.0, ci)
        assert resolved.setting is chosen
        if ci > 100.0 and not (respect_user_override and override is not None):
            assert chosen is FrequencySetting.GHZ_2_0
        # The physics of that setting: what a user override of it resolves
        # to under the default policy.
        forced = replace(job, frequency_override=chosen)
        assert resolved == StaticEnvironment(node_model=build_node_model()).resolve(forced, 0.0)
