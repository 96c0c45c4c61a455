"""Job admission and input-validation tests (errors must name the job)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SchedulingError, UnitError
from repro.scheduler.backfill import BackfillScheduler, StaticEnvironment, validate_jobs
from repro.scheduler.malleable import MalleableScheduler
from repro.node.calibration import build_node_model
from repro.telemetry.series import TimeSeries
from repro.workload.applications import full_catalogue
from repro.workload.jobs import Job


def make_job(job_id=7, n_nodes=4, runtime=3600.0, min_nodes=None, max_nodes=None):
    return Job(
        job_id=job_id,
        app=full_catalogue()["VASP CdTe"],
        n_nodes=n_nodes,
        submit_time_s=0.0,
        reference_runtime_s=runtime,
        min_nodes=min_nodes,
        max_nodes=max_nodes,
    )


class TestJobConstruction:
    def test_nonpositive_nodes_rejected_naming_job(self):
        with pytest.raises(ConfigurationError, match="job 7"):
            make_job(n_nodes=0)
        with pytest.raises(ConfigurationError, match="job 7"):
            make_job(n_nodes=-4)

    def test_nonpositive_walltime_rejected_naming_job(self):
        with pytest.raises(UnitError, match="job 7"):
            make_job(runtime=0.0)
        with pytest.raises(UnitError, match="job 7"):
            make_job(runtime=-60.0)

    def test_min_above_max_rejected_naming_job(self):
        with pytest.raises(ConfigurationError, match="job 7"):
            make_job(n_nodes=8, min_nodes=16, max_nodes=8)

    def test_preferred_outside_envelope_rejected(self):
        with pytest.raises(ConfigurationError, match="1 <= min_nodes"):
            make_job(n_nodes=4, min_nodes=8, max_nodes=16)

    def test_half_declared_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="set together"):
            Job(
                job_id=7,
                app=full_catalogue()["VASP CdTe"],
                n_nodes=4,
                submit_time_s=0.0,
                reference_runtime_s=3600.0,
                min_nodes=2,
            )

    def test_negative_slack_rejected_naming_job(self):
        with pytest.raises(ConfigurationError, match="job 7.*shift_slack_s"):
            Job(
                job_id=7,
                app=full_catalogue()["VASP CdTe"],
                n_nodes=4,
                submit_time_s=0.0,
                reference_runtime_s=3600.0,
                shift_slack_s=-1.0,
            )


class TestValidateJobs:
    def test_oversize_job_named_with_allowed_range(self):
        with pytest.raises(SchedulingError, match=r"job 7.*1\.\.16"):
            validate_jobs([make_job(n_nodes=32)], available_nodes=16)

    def test_elastic_admission_uses_min_shape(self):
        job = make_job(n_nodes=32, min_nodes=4, max_nodes=32)
        validate_jobs([job], available_nodes=16, elastic=True)  # min fits
        with pytest.raises(SchedulingError, match="job 7"):
            validate_jobs([job], available_nodes=16)  # rigid: preferred must fit

    def test_no_schedulable_nodes_rejected(self):
        with pytest.raises(SchedulingError, match="no schedulable nodes"):
            validate_jobs([make_job()], available_nodes=0)

    def test_scheduler_rejects_oversize_before_simulating(self):
        env = StaticEnvironment(node_model=build_node_model())
        with pytest.raises(SchedulingError, match="job 7"):
            BackfillScheduler(16).run([make_job(n_nodes=32)], 10_000.0, env)

    def test_duplicate_job_ids_rejected_naming_the_id(self):
        """A repeated id would overwrite the first job's run and strand its
        nodes; both schedulers refuse the trace at admission instead."""
        env = StaticEnvironment(node_model=build_node_model())
        jobs = [make_job(1, n_nodes=4), make_job(1, n_nodes=4), make_job(2, n_nodes=8)]
        with pytest.raises(SchedulingError, match="job 1: duplicate job id"):
            BackfillScheduler(16).run(jobs, 10_000.0, env)
        ci = TimeSeries(np.array([0.0]), np.array([65.0]), "ci")
        with pytest.raises(SchedulingError, match="job 1: duplicate job id"):
            MalleableScheduler(16, env, ci).run(jobs, 10_000.0)
