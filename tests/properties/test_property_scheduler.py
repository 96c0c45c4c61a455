"""Property-based tests for scheduler invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.node.calibration import build_node_model
from repro.node.determinism import DeterminismMode
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment
from repro.scheduler.partition import NodePool
from repro.workload.applications import full_catalogue
from repro.workload.jobs import Job

_APPS = list(full_catalogue().values())
_ENV = StaticEnvironment(node_model=build_node_model(), mode=DeterminismMode.POWER)


@st.composite
def job_batch(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    jobs = []
    for i in range(n):
        jobs.append(
            Job(
                job_id=i,
                app=_APPS[draw(st.integers(0, len(_APPS) - 1))],
                n_nodes=draw(st.integers(min_value=1, max_value=64)),
                submit_time_s=draw(
                    st.floats(min_value=0.0, max_value=50_000.0, allow_nan=False)
                ),
                reference_runtime_s=draw(
                    st.floats(min_value=60.0, max_value=50_000.0, allow_nan=False)
                ),
            )
        )
    return jobs


class TestSchedulerInvariants:
    @given(job_batch())
    @settings(max_examples=40, deadline=None)
    def test_capacity_never_exceeded(self, jobs):
        result = BackfillScheduler(64).run(jobs, 200_000.0, _ENV)
        assert np.all(result.trace.busy_nodes <= 64)

    @given(job_batch())
    @settings(max_examples=40, deadline=None)
    def test_causality(self, jobs):
        result = BackfillScheduler(64).run(jobs, 200_000.0, _ENV)
        for record in result.records:
            assert record.start_time_s >= record.job.submit_time_s
            assert record.end_time_s > record.start_time_s

    @given(job_batch())
    @settings(max_examples=40, deadline=None)
    def test_every_job_accounted_once(self, jobs):
        result = BackfillScheduler(64).run(jobs, 200_000.0, _ENV)
        record_ids = [r.job.job_id for r in result.records]
        assert len(record_ids) == len(set(record_ids))
        assert len(record_ids) + result.n_unstarted == len(jobs)

    @given(job_batch())
    @settings(max_examples=30, deadline=None)
    def test_energy_trace_matches_records(self, jobs):
        result = BackfillScheduler(64).run(jobs, 200_000.0, _ENV)
        from_records = sum(r.node_power_w * r.node_seconds for r in result.records)
        assert result.trace.energy_j() == np.float64(from_records) or abs(
            result.trace.energy_j() - from_records
        ) <= 1e-6 * max(from_records, 1.0)

    @given(job_batch())
    @settings(max_examples=30, deadline=None)
    def test_runtime_stretch_matches_roofline(self, jobs):
        result = BackfillScheduler(64).run(jobs, 500_000.0, _ENV)
        for record in result.records:
            if record.end_time_s == 500_000.0:
                continue  # truncated at horizon
            expected = record.job.reference_runtime_s * record.job.app.roofline.time_ratio(
                record.effective_ghz
            )
            assert abs(record.runtime_s - expected) < 1e-6 * expected


class TestNodePoolProperties:
    @given(
        st.integers(min_value=1, max_value=1000),
        st.lists(st.integers(min_value=1, max_value=100), max_size=50),
    )
    @settings(max_examples=100)
    def test_alloc_release_conservation(self, capacity, requests):
        pool = NodePool(capacity)
        live: list[int] = []
        for req in requests:
            if pool.fits(req):
                pool.allocate(req)
                live.append(req)
            elif live:
                pool.release(live.pop())
        assert pool.busy == sum(live)
        assert 0 <= pool.busy <= capacity
