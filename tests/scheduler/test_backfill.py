"""EASY-backfill scheduler tests."""

import numpy as np
import pytest

from repro.errors import SchedulingError
from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.units import SECONDS_PER_DAY
from repro.workload.applications import full_catalogue
from repro.workload.generator import JobStreamConfig, JobStreamGenerator
from repro.workload.jobs import Job
from repro.workload.mix import archer2_mix


@pytest.fixture(scope="module")
def env():
    return StaticEnvironment(node_model=build_node_model(), mode=DeterminismMode.POWER)


def make_job(job_id, n_nodes, submit, runtime, app=None):
    return Job(
        job_id=job_id,
        app=app or full_catalogue()["VASP CdTe"],
        n_nodes=n_nodes,
        submit_time_s=submit,
        reference_runtime_s=runtime,
    )


class TestBasicScheduling:
    def test_single_job_runs_immediately(self, env):
        jobs = [make_job(0, 4, 0.0, 3600.0)]
        result = BackfillScheduler(16).run(jobs, 10_000.0, env)
        assert len(result.records) == 1
        record = result.records[0]
        assert record.start_time_s == 0.0
        assert record.wait_s == 0.0

    def test_jobs_queue_when_full(self, env):
        jobs = [make_job(0, 16, 0.0, 3600.0), make_job(1, 16, 10.0, 3600.0)]
        result = BackfillScheduler(16).run(jobs, 20_000.0, env)
        second = next(r for r in result.records if r.job.job_id == 1)
        first = next(r for r in result.records if r.job.job_id == 0)
        assert second.start_time_s >= first.end_time_s

    def test_fcfs_order_respected_for_equal_jobs(self, env):
        jobs = [make_job(i, 16, float(i), 3600.0) for i in range(4)]
        result = BackfillScheduler(16).run(jobs, 10 * SECONDS_PER_DAY, env)
        starts = {r.job.job_id: r.start_time_s for r in result.records}
        assert starts[0] < starts[1] < starts[2] < starts[3]

    def test_backfill_fills_holes_without_delaying_head(self, env):
        # Big job 0 runs; head job 1 needs the whole machine; small job 2
        # can backfill because it finishes before job 0 releases its nodes.
        jobs = [
            make_job(0, 12, 0.0, 10_000.0),
            make_job(1, 16, 10.0, 3600.0),
            make_job(2, 4, 20.0, 1000.0),
        ]
        result = BackfillScheduler(16).run(jobs, 60_000.0, env)
        starts = {r.job.job_id: r.start_time_s for r in result.records}
        ends = {r.job.job_id: r.end_time_s for r in result.records}
        assert starts[2] < ends[0]  # backfilled ahead of the head
        assert starts[1] == pytest.approx(ends[0])  # head not delayed

    def test_oversized_job_rejected(self, env):
        with pytest.raises(SchedulingError):
            BackfillScheduler(8).run([make_job(0, 16, 0.0, 100.0)], 1000.0, env)

    def test_bad_window_rejected(self, env):
        with pytest.raises(SchedulingError):
            BackfillScheduler(8).run([], 0.0, env)

    def test_truncation_at_horizon(self, env):
        jobs = [make_job(0, 4, 0.0, 1e6)]
        result = BackfillScheduler(16).run(jobs, 1000.0, env)
        assert result.records[0].end_time_s == 1000.0

    def test_unstarted_jobs_counted(self, env):
        jobs = [make_job(0, 16, 0.0, 1e6), make_job(1, 16, 1.0, 100.0)]
        result = BackfillScheduler(16).run(jobs, 1000.0, env)
        assert result.n_unstarted == 1


class TestConservation:
    """DES invariants on a realistic random workload."""

    @pytest.fixture(scope="class")
    def result(self, env):
        rng = np.random.default_rng(7)
        config = JobStreamConfig(
            n_facility_nodes=256, max_job_nodes=64, mean_runtime_s=4 * 3600.0
        )
        jobs = JobStreamGenerator(archer2_mix(), config, rng).generate_until(
            5 * SECONDS_PER_DAY
        )
        return BackfillScheduler(256).run(jobs, 5 * SECONDS_PER_DAY, env)

    def test_busy_nodes_never_exceed_capacity(self, result):
        assert np.all(result.trace.busy_nodes <= 256)
        assert np.all(result.trace.busy_nodes >= 0)

    def test_no_job_starts_before_submit(self, result):
        for record in result.records:
            assert record.start_time_s >= record.job.submit_time_s

    def test_trace_power_consistent_with_records(self, result):
        """Busy-node energy from the trace equals the per-record sum."""
        record_energy = sum(r.node_power_w * r.node_seconds for r in result.records)
        assert result.trace.energy_j() == pytest.approx(record_energy, rel=1e-9)

    def test_node_hours_consistency(self, result):
        span_s = result.t_end_s - result.t_start_s
        from_trace = result.trace.mean_busy_nodes() * span_s / 3600.0
        from_records = result.total_node_hours()
        assert from_trace == pytest.approx(from_records, rel=1e-9)

    def test_utilisation_reasonable(self, result):
        assert 0.5 < result.mean_utilisation() <= 1.0

    def test_concurrent_nodes_at_sample_times(self, result):
        """Cross-check sampled busy nodes against interval arithmetic."""
        ts = np.linspace(0, 5 * SECONDS_PER_DAY - 1, 50)
        sampled = result.trace.sample_busy_nodes(ts)
        for t, expected in zip(ts, sampled):
            running = sum(
                r.job.n_nodes
                for r in result.records
                if r.start_time_s <= t < r.end_time_s
            )
            assert running == expected


class TestBackfillDepth:
    def test_zero_depth_is_pure_fcfs(self, env):
        jobs = [
            make_job(0, 12, 0.0, 10_000.0),
            make_job(1, 16, 10.0, 3600.0),
            make_job(2, 4, 20.0, 1000.0),
        ]
        result = BackfillScheduler(16, backfill_depth=0).run(jobs, 60_000.0, env)
        starts = {r.job.job_id: r.start_time_s for r in result.records}
        ends = {r.job.job_id: r.end_time_s for r in result.records}
        # Without backfill, job 2 must wait behind the blocked head.
        assert starts[2] >= ends[0]

    def test_negative_depth_rejected(self):
        with pytest.raises(SchedulingError):
            BackfillScheduler(16, backfill_depth=-1)
