"""Demand-response environment tests."""

import pytest

from repro.core.interventions import (
    InterventionSchedule,
    OperatingState,
    ScheduledEnvironment,
)
from repro.errors import ConfigurationError
from repro.grid.events import GridStressEvent
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.node.pstates import FrequencySetting
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.demand_response import (
    DemandResponseEnvironment,
    response_latency_estimate,
)
from repro.scheduler.frequency_policy import FrequencyPolicy
from repro.workload.applications import full_catalogue
from repro.workload.jobs import Job


def make_event(start=1000.0, duration=2000.0):
    return GridStressEvent(
        start_s=start, duration_s=duration, severity=1.0, requested_reduction_kw=100.0
    )


def make_job(override=None):
    return Job(
        job_id=0,
        app=full_catalogue()["VASP CdTe"],
        n_nodes=4,
        submit_time_s=0.0,
        reference_runtime_s=3600.0,
        frequency_override=override,
    )


@pytest.fixture(scope="module")
def inner():
    return StaticEnvironment(node_model=build_node_model(), mode=DeterminismMode.POWER)


class TestDemandResponseEnvironment:
    def test_outside_event_untouched(self, inner):
        env = DemandResponseEnvironment(inner=inner, events=[make_event()])
        resolved = env.resolve(make_job(), 100.0)
        assert resolved == inner.resolve(make_job(), 100.0)

    def test_inside_event_frequency_forced(self, inner):
        env = DemandResponseEnvironment(inner=inner, events=[make_event()])
        resolved = env.resolve(make_job(), 1500.0)
        assert resolved.setting is FrequencySetting.GHZ_1_5
        assert resolved.node_power_w < inner.resolve(make_job(), 1500.0).node_power_w

    def test_event_boundaries_half_open(self, inner):
        env = DemandResponseEnvironment(inner=inner, events=[make_event()])
        assert not env.in_event(999.9)
        assert env.in_event(1000.0)
        assert env.in_event(2999.9)
        assert not env.in_event(3000.0)

    def test_user_override_honoured_by_default(self, inner):
        env = DemandResponseEnvironment(inner=inner, events=[make_event()])
        job = make_job(override=FrequencySetting.GHZ_2_25_TURBO)
        resolved = env.resolve(job, 1500.0)
        assert resolved.setting is FrequencySetting.GHZ_2_25_TURBO

    def test_emergency_posture_overrides_users(self, inner):
        env = DemandResponseEnvironment(
            inner=inner, events=[make_event()], override_users=True
        )
        job = make_job(override=FrequencySetting.GHZ_2_25_TURBO)
        resolved = env.resolve(job, 1500.0)
        assert resolved.setting is FrequencySetting.GHZ_1_5

    def test_overlapping_events_rejected(self, inner):
        with pytest.raises(ConfigurationError):
            DemandResponseEnvironment(
                inner=inner,
                events=[make_event(0.0, 2000.0), make_event(1000.0, 2000.0)],
            )

    def test_multiple_events_sorted_internally(self, inner):
        env = DemandResponseEnvironment(
            inner=inner,
            events=[make_event(5000.0, 1000.0), make_event(0.0, 1000.0)],
        )
        assert env.in_event(500.0)
        assert not env.in_event(2000.0)
        assert env.in_event(5500.0)

    def test_scheduler_integration_sheds_power(self, inner):
        """Jobs started during the event run at lower power end-to-end."""
        event = make_event(start=0.0, duration=100_000.0)
        env = DemandResponseEnvironment(inner=inner, events=[event])
        jobs = [
            Job(
                job_id=i,
                app=full_catalogue()["VASP CdTe"],
                n_nodes=8,
                submit_time_s=float(i * 10),
                reference_runtime_s=7200.0,
            )
            for i in range(8)
        ]
        normal = BackfillScheduler(64).run(jobs, 100_000.0, inner)
        shed = BackfillScheduler(64).run(jobs, 100_000.0, env)
        assert shed.trace.energy_j() < normal.trace.energy_j()
        for record in shed.records:
            assert record.setting is FrequencySetting.GHZ_1_5


def environment(kind, policy):
    node_model = build_node_model()
    if kind == "static":
        return StaticEnvironment(node_model=node_model, policy=policy)
    state = OperatingState(mode=DeterminismMode.POWER, policy=policy)
    return ScheduledEnvironment(node_model=node_model, schedule=InterventionSchedule(state))


class TestResponseWhateverThePolicy:
    """The response setting is forced past the frequency policy, so a policy
    that ignores user overrides cannot drop it."""

    @pytest.mark.parametrize("respect", [True, False], ids=["respects-users", "ignores-users"])
    @pytest.mark.parametrize("kind", ["static", "scheduled"])
    def test_job_inside_event_runs_at_response_setting(self, kind, respect):
        inner = environment(kind, FrequencyPolicy(respect_user_override=respect))
        env = DemandResponseEnvironment(inner=inner, events=[make_event()])
        resolved = env.resolve(make_job(), 1500.0)
        assert resolved.setting is FrequencySetting.GHZ_1_5
        assert resolved.node_power_w == pytest.approx(347.9, abs=0.05)
        assert resolved.node_power_w < inner.resolve(make_job(), 1500.0).node_power_w

    @pytest.mark.parametrize("respect", [True, False], ids=["respects-users", "ignores-users"])
    @pytest.mark.parametrize("kind", ["static", "scheduled"])
    def test_job_outside_event_follows_the_policy(self, kind, respect):
        inner = environment(kind, FrequencyPolicy(respect_user_override=respect))
        env = DemandResponseEnvironment(inner=inner, events=[make_event()])
        resolved = env.resolve(make_job(), 100.0)
        assert resolved == inner.resolve(make_job(), 100.0)
        assert resolved.setting is FrequencySetting.GHZ_2_25_TURBO
        assert resolved.node_power_w == pytest.approx(473.7, abs=0.05)

    @pytest.mark.parametrize("kind", ["static", "scheduled"])
    def test_responses_nest(self, kind):
        inner = environment(kind, FrequencyPolicy(respect_user_override=False))
        env = DemandResponseEnvironment(
            inner=DemandResponseEnvironment(inner=inner, events=[make_event()]),
            events=[make_event(start=5000.0)],
            response_setting=FrequencySetting.GHZ_2_0,
        )
        assert env.resolve(make_job(), 1500.0).setting is FrequencySetting.GHZ_1_5
        assert env.resolve(make_job(), 5500.0).setting is FrequencySetting.GHZ_2_0
        assert env.resolve(make_job(), 100.0).setting is FrequencySetting.GHZ_2_25_TURBO


class TestResponseLatency:
    def test_latency_on_runtime_scale(self):
        latency = response_latency_estimate(12 * 3600.0)
        assert 0.5 * 12 * 3600.0 < latency < 1.5 * 12 * 3600.0

    def test_deeper_target_takes_longer(self):
        fast = response_latency_estimate(3600.0, target_fraction=0.5)
        deep = response_latency_estimate(3600.0, target_fraction=0.9)
        assert deep > fast

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            response_latency_estimate(0.0)
        with pytest.raises(ConfigurationError):
            response_latency_estimate(3600.0, target_fraction=1.0)
