"""Power trace and simulation accounting tests."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.facility.failures import FailureModel, FaultConfig
from repro.node.calibration import build_node_model
from repro.scheduler.accounting import PowerTrace, TraceBuilder
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.malleable import MalleableScheduler
from repro.telemetry.series import TimeSeries
from repro.units import SECONDS_PER_DAY
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.mix import archer2_mix


def step_trace():
    """Power 100 W on [0,10), 300 W on [10,20), 0 after, horizon 30."""
    return PowerTrace(
        times_s=np.array([0.0, 10.0, 20.0]),
        busy_power_w=np.array([100.0, 300.0, 0.0]),
        busy_nodes=np.array([1.0, 3.0, 0.0]),
        t_end_s=30.0,
    )


class TestPowerTrace:
    def test_time_weighted_mean_exact(self):
        trace = step_trace()
        # (100·10 + 300·10 + 0·10) / 30
        assert trace.mean_busy_power_w() == pytest.approx(4000.0 / 30.0)

    def test_energy_exact(self):
        assert step_trace().energy_j() == pytest.approx(100.0 * 10 + 300.0 * 10)

    def test_sample_previous_value_hold(self):
        trace = step_trace()
        samples = trace.sample(np.array([0.0, 5.0, 10.0, 15.0, 25.0]))
        np.testing.assert_allclose(samples, [100.0, 100.0, 300.0, 300.0, 0.0])

    def test_sample_before_start_clamps(self):
        assert step_trace().sample(np.array([-5.0]))[0] == 100.0

    def test_sample_busy_nodes(self):
        nodes = step_trace().sample_busy_nodes(np.array([5.0, 15.0, 25.0]))
        np.testing.assert_allclose(nodes, [1.0, 3.0, 0.0])

    def test_mean_busy_nodes(self):
        assert step_trace().mean_busy_nodes() == pytest.approx(4.0 / 3.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SchedulingError):
            PowerTrace(
                times_s=np.array([0.0, 1.0]),
                busy_power_w=np.array([1.0]),
                busy_nodes=np.array([1.0, 2.0]),
                t_end_s=2.0,
            )

    def test_decreasing_times_rejected(self):
        with pytest.raises(SchedulingError):
            PowerTrace(
                times_s=np.array([1.0, 0.5]),
                busy_power_w=np.array([1.0, 2.0]),
                busy_nodes=np.array([1.0, 2.0]),
                t_end_s=2.0,
            )

    def test_horizon_before_last_point_rejected(self):
        with pytest.raises(SchedulingError):
            PowerTrace(
                times_s=np.array([0.0, 10.0]),
                busy_power_w=np.array([1.0, 2.0]),
                busy_nodes=np.array([1.0, 2.0]),
                t_end_s=5.0,
            )

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            PowerTrace(
                times_s=np.array([]),
                busy_power_w=np.array([]),
                busy_nodes=np.array([]),
                t_end_s=1.0,
            )


class TestTraceBuilder:
    def test_same_instant_updates_coalesce(self):
        builder = TraceBuilder(0.0)
        builder.append(0.0, 100.0, 1)
        builder.append(5.0, 200.0, 2)
        builder.append(5.0, 300.0, 3)  # same instant: replaces
        trace = builder.build(10.0)
        assert len(trace.times_s) == 2
        assert trace.sample(np.array([6.0]))[0] == 300.0

    def test_empty_builder_yields_zero_trace(self):
        trace = TraceBuilder(2.0).build(10.0)
        assert trace.mean_busy_power_w() == 0.0
        assert trace.t_start_s == 2.0


class TestReconciles:
    """Both result types share one conservation check, which must fail on
    each broken identity, not only pass on a sound run."""

    @pytest.fixture(scope="class")
    def runs(self):
        config = JobStreamConfig(
            n_facility_nodes=64,
            offered_load=0.9,
            mean_runtime_s=4 * 3600.0,
            max_job_nodes=32,
            malleable_fraction=0.5,
        )
        jobs = JobStreamGenerator(
            archer2_mix(), config, np.random.default_rng(5)
        ).generate_until(3 * SECONDS_PER_DAY)
        env = StaticEnvironment(node_model=build_node_model())
        faults = FaultConfig(
            model=FailureModel(mtbf_hours=200.0, mttr_hours=6.0), seed=1
        )
        ci = TimeSeries(np.array([0.0]), np.array([150.0]), "ci")
        t_end = 2 * SECONDS_PER_DAY  # jobs still running and queued at the end
        return (
            BackfillScheduler(64, fault_config=faults).run(jobs, t_end, env),
            MalleableScheduler(64, env, ci, fault_config=faults).run(jobs, t_end),
        )

    def broken(self, result, longer_record):
        """One copy of ``result`` per broken identity."""
        acct = result.faults
        return {
            "jobs": replace(result, n_jobs=result.n_jobs + 1),
            "node-hours": replace(
                result, records=[longer_record, *result.records[1:]]
            ),
            "wasted": replace(
                result,
                faults=replace(acct, wasted_node_seconds=acct.wasted_node_seconds + 3600.0),
            ),
            "capacity": replace(
                result,
                faults=replace(acct, drained_node_seconds=64 * 5 * SECONDS_PER_DAY),
            ),
        }

    def test_rigid_result(self, runs):
        rigid = runs[0]
        assert rigid.faults.n_job_kills > 0 and rigid.n_unstarted > 0
        assert rigid.reconciles()
        first = rigid.records[0]
        longer = replace(first, end_time_s=first.end_time_s + 3600.0)
        for name, result in self.broken(rigid, longer).items():
            assert not result.reconciles(), name

    def test_malleable_result(self, runs):
        malleable = runs[1]
        assert malleable.faults.n_job_kills > 0 and malleable.n_queued_at_end > 0
        assert malleable.reconciles()
        first = malleable.records[0]
        longer = replace(first, node_seconds=first.node_seconds + 3600.0)
        for name, result in self.broken(malleable, longer).items():
            assert not result.reconciles(), name
